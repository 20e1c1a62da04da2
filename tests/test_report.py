"""The check list of ``verify``: which checks a potential gets is decided by its type."""

from __future__ import annotations

from pathlib import Path

import pytest

from toric_soliton import OperatorContext, guillemin, parse_polytope
from toric_soliton.potentials import HSidePotential
from toric_soliton.report import (
    _scal_mean,
    calabi_report,
    decompose_report,
    roots_report,
    soliton_report,
    verify_checks,
    verify_report,
)

DATA = Path(__file__).parent / "data"

GATED = ("fd_oracle_weighted_rel", "fd_oracle_abreu_rel", "boundary_form_interior_match")


class StackOnlyPotential(HSidePotential):
    """The canonical metric, offered only through its inverse-side stack (no phi values)."""

    def __init__(self, polytope):
        self.polytope = polytope
        self._canonical = guillemin(polytope)

    def _h_derivatives(self, points):
        s = self._canonical.stack(points)
        return s.grad, s.H, s.dH, s.d2H


def test_stack_only_potential_runs_every_stack_check(cp2, cp2_roots, cp2_soliton, cp2_grid, cp2_ctx):
    potential = StackOnlyPotential(cp2)
    ctx = OperatorContext(polytope=cp2, potential=potential, a=cp2_soliton.a_array)
    checks, root_checks, _ = verify_checks(ctx, cp2_roots, cp2_soliton, potential.stack(cp2_grid), 10)
    names = [name for name, _, _ in checks]
    assert len(names) == 3 + 4 * len(cp2_roots.roots) + 2 + 2 == 31
    assert not set(GATED) & set(names)
    assert [name for name, value, threshold in checks if not abs(value) <= threshold] == []
    assert len(root_checks) == len(cp2_roots.roots)
    # the same checks, in the same order, as for the canonical potential less its gated ones
    canonical, _, _ = verify_checks(cp2_ctx, cp2_roots, cp2_soliton, cp2_ctx.potential.stack(cp2_grid), 10)
    assert names == [name for name, _, _ in canonical if name not in GATED]
    assert len(canonical) == len(names) + len(GATED)


def test_scal_mean_builds_one_stack_on_every_node(cp2, cp2_soliton):
    # Abreu's mean on the Kähler-Einstein P^2 is 2 n lambda, from one stack of all 3 * 13^2 nodes
    potential = guillemin(cp2)
    sizes = []
    stack = potential.stack

    def counting(points):
        sizes.append(len(points))
        return stack(points)

    potential.stack = counting
    ctx = OperatorContext(polytope=cp2, potential=potential, a=cp2_soliton.a_array)
    assert _scal_mean(ctx, 10) == pytest.approx(4.0 * cp2_soliton.lam, abs=1e-10)
    assert sizes == [3 * 13**2]


def _leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


def _reports():
    for name in ("cp2", "square", "blowup", "bl3"):
        p = parse_polytope((DATA / f"{name}.json").read_text())
        yield f"{name}-roots", roots_report(p)
        yield f"{name}-soliton", soliton_report(p)
        kinds = ("guillemin", "calabi") if name == "blowup" else ("guillemin",)
        for kind in kinds:
            yield f"{name}-{kind}-decompose", decompose_report(p, potential_kind=kind)
            yield f"{name}-{kind}-verify", verify_report(p, potential_kind=kind)
    yield "calabi", calabi_report()


def test_report_leaves_are_plain_json_types():
    # serialization rounds floats and nothing else, so no numpy scalar may reach a report
    plain = {str, int, float, bool, type(None)}
    for label, report in _reports():
        odd = {type(leaf).__name__ for leaf in _leaves(report) if type(leaf) not in plain}
        assert not odd, (label, odd)
