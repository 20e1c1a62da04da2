"""Root eigenfunctions and the solitonic eigenspace decomposition.

Each Demazure root alpha with distinguished facet normal b carries the
profile ``(<x, b> + 1) exp(-<alpha, grad phi>)``; together with a torus
mode ``+alpha`` or ``-alpha`` it is an eigenfunction of the complex
weighted Laplacian with eigenvalue two.  Which mode sign realizes the
eigenvalue depends on conventions that differ between sources, so the
sign is selected operationally.  Both signs share the profile and the
sign-independent part of the operator; mode sign s and orientation o only
add ``-2 o s <a, alpha> u``.  One operator pass per root therefore gives
the sign, the eigenvalue-two residual and the orientation-reversed fit:
the fits share ``<u, u>``, ``<u, W u>`` and ``max |u|`` and differ only
in the multiple of u they add.  For roots with |<alpha, a>| <= GAMMA_TOL
both signs work and +1 is kept, so the choice never follows round-off in
``a``.  Profiles and fits run on the float columns of the stack, and every
maximum of |residual| is NaN when a residual is.

The eigenspace decomposition, which needs only ``a`` and the roots, is
:func:`toric_soliton.roots.assemble_decomposition`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import MalformedInputError
from .operators import (
    EquivariantFunction,
    Jet,
    OperatorContext,
    affine_exp_jet,
    apply_to_jet,
    dot,
    max_abs,
    profile_coordinate,
)
from .potentials import Stack
from .polytope import DIM, DelzantPolytope
from .roots import GAMMA_TOL, DemazureRoot


class RootFunction(NamedTuple):
    """Eigenfunction candidate attached to a Demazure root."""

    root: DemazureRoot
    mode_sign: int
    profile: EquivariantFunction


def build_root_function(ctx: OperatorContext, root: DemazureRoot, mode_sign: int = 1) -> RootFunction:
    """Assemble the root profile (<x, b> + 1) exp(-<alpha, grad phi>) with analytic derivatives."""
    if mode_sign not in (1, -1):
        raise MalformedInputError(f"mode_sign must be +1 or -1, got {mode_sign}")
    normal = ctx.potential.polytope.facets[root.distinguished_facet].normal

    def jet(s: Stack) -> Jet:
        return affine_exp_jet(normal, 1.0, root.alpha, s)

    mode = tuple(int(mode_sign * c) for c in root.alpha)
    return RootFunction(root=root, mode_sign=mode_sign, profile=EquivariantFunction(mode, jet))


class BoundaryProductForm(NamedTuple):
    """Globally continuous closed form of a root profile for the canonical potential.

    The profile equals ``prefactor * prod_rho L_rho(x)^exponent[rho]`` with
    all exponents non-negative: one half on the distinguished facet and
    ``-pairing/2`` elsewhere.  It extends continuously to the closed
    polytope and vanishes exactly on the facets with positive exponent.
    """

    polytope: DelzantPolytope
    root: DemazureRoot
    prefactor: float
    exponents: tuple[float, ...]

    def values(self, points) -> list[float]:
        """The form at each (x1, x2) point of the closed polytope."""
        out = []
        for ell in self.polytope.facet_values_many(points):
            result = self.prefactor
            for value, exponent in zip(ell, self.exponents):
                if exponent != 0.0:
                    result = result * max(value, 0.0) ** exponent
            out.append(result)
        return out


def boundary_product_form(p: DelzantPolytope, root: DemazureRoot) -> BoundaryProductForm:
    """Closed-form boundary extension of the canonical-potential root profile."""
    if not p.is_algebraic:
        raise MalformedInputError("boundary product form requires an algebraic polytope")
    normal_sum = [sum(column) for column in zip(*p.normal_matrix)]
    prefactor = math.exp(-0.5 * dot(root.alpha, normal_sum))
    exponents = []
    for idx, pairing in enumerate(root.pairings):
        if idx == root.distinguished_facet:
            exponents.append(0.5)
        else:
            exponents.append(-0.5 * pairing)
    return BoundaryProductForm(polytope=p, root=root, prefactor=prefactor, exponents=tuple(exponents))


class _Fit(NamedTuple):
    """The least-squares eigenvalue of an operator W on a profile u, from the columns of u and W u."""

    u: list[float]
    wu: list[float]
    peak: float  # max |u|
    eigenvalue: float  # <u, W u> / <u, u>

    @classmethod
    def of(cls, u: list[float], wu: list[float]) -> _Fit:
        return cls(u, wu, max_abs(u), dot(u, wu) / dot(u, u))

    def residual(self, eigenvalue: float) -> float:
        """max |W u - eigenvalue u| / max |u|."""
        return max_abs([w - eigenvalue * v for v, w in zip(self.u, self.wu)]) / self.peak


class RootCheck(NamedTuple):
    """Selected root function with its eigenvalue-two statistics and reversed fit."""

    function: RootFunction
    stats: dict[str, float]
    gamma_hat: float
    gamma_fit: float


def check_root(ctx: OperatorContext, root: DemazureRoot, s: Stack) -> RootCheck:
    """Mode sign, eigenvalue-two residual and orientation-reversed fit from one operator pass.

    The sign-independent part W u (the weighted Laplacian on mode alpha,
    including alpha^T G alpha u) is applied once; mode sign s and
    orientation o add -2 o s <a, alpha> u.  The sign whose fitted
    eigenvalue lies closer to two is kept, and +1 whenever
    |<alpha, a>| <= GAMMA_TOL, where both signs are eigenfunctions.
    ``gamma_hat`` is the least-squares eigenvalue of the orientation-reversed
    operator minus two, with magnitude 4 |<alpha, a>|, and ``gamma_fit`` the
    relative residual of that fit.
    """
    positive = build_root_function(ctx, root, 1)
    jet = positive.profile.jet(s)
    fit = _Fit.of(jet[0], apply_to_jet(s, jet, positive.profile.mode, ctx.a))
    pairing = dot(root.alpha, ctx.a)
    sign = 1
    if abs(pairing) > GAMMA_TOL:
        sign = 1 if abs(fit.eigenvalue - 2.0 * pairing - 2.0) <= abs(fit.eigenvalue + 2.0 * pairing - 2.0) else -1
    rf = positive if sign == 1 else build_root_function(ctx, root, sign)
    term = 2.0 * sign * pairing
    stats = {"max_rel_residual": fit.residual(2.0 + term), "fitted_eigenvalue": fit.eigenvalue - term}
    # the orientation-reversed operator W + term fits the eigenvalue 2 + gamma_hat with the residual of W
    return RootCheck(function=rf, stats=stats, gamma_hat=fit.eigenvalue + term - 2.0,
                     gamma_fit=fit.residual(fit.eigenvalue))


def affine_block(ctx: OperatorContext, s: Stack) -> list[dict]:
    """Verify the 2n real affine basis functions are eigenfunctions of eigenvalue two.

    The block consists of <x, b1> + i <x, b2>; its basis profiles are the
    coordinates with torus mode zero, so the real and imaginary parts
    satisfy the same radial equation.
    """
    records = []
    for i in range(DIM):
        f = profile_coordinate(i)
        jet = f.jet(s)
        fit = _Fit.of(jet[0], apply_to_jet(s, jet, f.mode, ctx.a))
        records.append({
            "basis": f"x_{i + 1}",
            "mode": f.mode,
            "fitted_eigenvalue": fit.eigenvalue,
            "max_rel_residual": fit.residual(2.0),
        })
    return records
