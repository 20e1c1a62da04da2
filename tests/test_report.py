"""The check list of ``verify``: which checks a potential gets is decided by its type."""

from __future__ import annotations

from toric_soliton import OperatorContext, guillemin
from toric_soliton.potentials import HSidePotential
from toric_soliton.report import verify_checks

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
