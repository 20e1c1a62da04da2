"""The check list of ``verify``: which checks a potential gets is decided by its type."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from toric_soliton import operators
from toric_soliton.errors import MalformedInputError
from toric_soliton.operators import OperatorContext
from toric_soliton.polytope import parse_polytope
from toric_soliton.potentials import BLOCK, CalabiPotential, GuilleminPotential, HSidePotential
from toric_soliton.quadrature import polygon_rule
from toric_soliton.report import (
    _scal_mean,
    calabi_report,
    decompose_report,
    roots_report,
    soliton_report,
    verify_checks,
    verify_report,
)
from toric_soliton.roots import assemble_decomposition

DATA = Path(__file__).parent / "data"

GATED = ("fd_oracle_weighted_rel", "fd_oracle_abreu_rel", "boundary_form_interior_match")


class StackOnlyPotential(HSidePotential):
    """The canonical metric, offered only through its inverse-side stack (not a ``GuilleminPotential``)."""

    def __init__(self, polytope):
        self.polytope = polytope
        self._canonical = GuilleminPotential(polytope)

    def _h_columns(self, pairs, gradient):
        s = self._canonical.stack(pairs, gradient=gradient)
        # the second derivatives (-scal, 0, 0) contract back to scal
        zero = [0.0] * s.size
        return s.grad or (), s.H, s.dH, ([-v for v in s.scal], zero, zero)


def test_stack_only_potential_runs_every_stack_check(cp2, cp2_roots, cp2_soliton, cp2_grid, cp2_ctx):
    potential = StackOnlyPotential(cp2)
    ctx = OperatorContext(potential=potential, a=cp2_soliton.a)
    cp2_decomposition = assemble_decomposition(cp2_soliton, cp2_roots)
    checks, root_checks, _ = verify_checks(ctx, cp2_roots, cp2_soliton, cp2_decomposition, potential.stack(cp2_grid), 10)
    names = [name for name, _, _ in checks]
    assert len(names) == 3 + 4 * len(cp2_roots.roots) + 2 + 2 == 31
    assert not set(GATED) & set(names)
    assert [name for name, value, threshold in checks if not abs(value) <= threshold] == []
    assert len(root_checks) == len(cp2_roots.roots)
    # the same checks, in the same order, as for the canonical potential less its gated ones
    canonical, _, _ = verify_checks(cp2_ctx, cp2_roots, cp2_soliton, cp2_decomposition,
                                    cp2_ctx.potential.stack(cp2_grid), 10)
    assert names == [name for name, _, _ in canonical if name not in GATED]
    assert len(canonical) == len(names) + len(GATED)


def test_scal_mean_builds_one_stack_on_every_node(cp2, cp2_soliton):
    # Abreu's mean on the Kähler-Einstein P^2 is 2 n lambda, from one stack of all 3 * 13^2 nodes
    potential = GuilleminPotential(cp2)
    sizes = []
    stack = potential.stack

    def counting(points, **options):
        sizes.append(len(points))
        return stack(points, **options)

    potential.stack = counting
    ctx = OperatorContext(potential=potential, a=cp2_soliton.a)
    assert _scal_mean(ctx, 10) == pytest.approx(4.0 * cp2_soliton.lam, abs=1e-10)
    assert sizes == [3 * 13**2]


def test_scal_mean_sums_block_by_block_as_one_stack():
    # at order 60 Bl3P2 has 6 * 63^2 = 23 814 nodes, so the mean stacks several blocks;
    # the products w scal are summed once in node order, as on one stack of every node
    p = parse_polytope((DATA / "bl3.json").read_text())
    potential = GuilleminPotential(p)
    sizes = []
    stack = potential.stack

    def counting(points, **options):
        sizes.append(len(points))
        return stack(points, **options)

    potential.stack = counting
    points, weights, area = polygon_rule(p, 60)
    assert len(points) == 23_814
    single = sum([w * v for w, v in zip(weights, stack(points, gradient=False).scal)]) / area
    assert _scal_mean(OperatorContext(potential=potential, a=(0.0, 0.0)), 60) == single
    assert sizes == [BLOCK] * 5 + [23_814 - 5 * BLOCK]


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


def test_scal_mean_with_calabi_evaluates_no_gradient(blowup, blowup_soliton, monkeypatch):
    # the curvature reads scal alone, so the quadrature stack skips the Gauss sums of the gradient
    potential = CalabiPotential(blowup)
    calls = []
    monkeypatch.setattr(CalabiPotential, "_f_values", lambda self, ts: calls.append(ts) or [0.0] * len(ts))
    ctx = OperatorContext(potential=potential, a=blowup_soliton.a)
    assert _scal_mean(ctx, 10) == pytest.approx(potential.soliton.scal_mean, abs=1e-4)
    assert calls == []


@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
def test_nan_residual_fails_its_check(monkeypatch, where):
    # a NaN anywhere in a per-point residual makes the check's value NaN and fails it
    residuals = operators.soliton_residuals

    def with_nan(ctx, s, scal_mean):
        values = residuals(ctx, s, scal_mean)
        values[where] = math.nan
        return values

    monkeypatch.setattr(operators, "soliton_residuals", with_nan)
    report = verify_report(parse_polytope((DATA / "cp2.json").read_text()))
    check = next(c for c in report["checks"] if c["name"] == "soliton_pde_max_residual")
    assert math.isnan(check["value"])
    assert check["passed"] is False
    assert report["first_failed"] == "soliton_pde_max_residual"


@pytest.mark.parametrize("build", [verify_report], ids=["verify"])
def test_order_below_one_is_malformed_input(cp2, build):
    with pytest.raises(MalformedInputError, match="quadrature order must be at least 1, got 0"):
        build(cp2, order=0)


def test_verify_rejects_an_unknown_potential_kind(cp2):
    with pytest.raises(MalformedInputError, match="unknown potential kind 'fitted'"):
        verify_report(cp2, potential_kind="fitted")
