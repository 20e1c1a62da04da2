"""Root eigenfunctions and the solitonic eigenspace decomposition.

Each Demazure root alpha with distinguished facet normal b carries the
eigenfunction ``(<x, b> + 1) exp(-<alpha, grad phi> + i <alpha, t>)`` of
the complex weighted Laplacian with eigenvalue two: the root profile on
torus mode +alpha, fixed by construction.  On that mode the operator is
``W u - 2 <alpha, a> u``, with W its sign-independent part, and the
orientation-reversed operator is ``W u + 2 <alpha, a> u``.  One operator
pass per root therefore gives the eigenvalue-two residual and the
orientation-reversed fit: the fits share ``<u, u>``, ``<u, W u>`` and
``max |u|`` and differ only in the multiple of u they add.  A profile on
the wrong mode fits the eigenvalue ``2 + 4 <alpha, a>`` and fails the
eigenvalue-two check wherever ``<alpha, a>`` is not zero.  Profiles and
fits run on the float columns of the stack, and every maximum of
|residual| is NaN when a residual is.

The eigenspace decomposition, which needs only the roots and the solve's
``a = s b``, grouped by the integer ``<alpha, b>``, is
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
from .roots import DemazureRoot


def build_root_function(ctx: OperatorContext, root: DemazureRoot) -> EquivariantFunction:
    """The root profile (<x, b> + 1) exp(-<alpha, grad phi>) on mode +alpha, with analytic derivatives."""
    normal = ctx.potential.polytope.facets[root.distinguished_facet].normal

    def jet(s: Stack) -> Jet:
        return affine_exp_jet(normal, 1.0, root.alpha, s)

    return EquivariantFunction(root.alpha, jet)


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
    """A root profile with its eigenvalue-two statistics and orientation-reversed fit."""

    root: DemazureRoot
    profile: EquivariantFunction
    max_rel_residual: float
    fitted_eigenvalue: float
    gamma_hat: float
    gamma_fit: float


def check_root(ctx: OperatorContext, root: DemazureRoot, s: Stack) -> RootCheck:
    """Eigenvalue-two residual and orientation-reversed fit of a root profile from one operator pass.

    The sign-independent part W u (the weighted Laplacian on the profile's
    mode k, including k^T G k u) is applied once; the operator adds -term u
    and its orientation reversal +term u, with term = 2 <k, a>.
    ``gamma_hat`` is the least-squares eigenvalue of the orientation-reversed
    operator minus two, 4 <alpha, a> on a soliton, and ``gamma_fit`` the
    relative residual of that fit.
    """
    profile = build_root_function(ctx, root)
    jet = profile.jet(s)
    fit = _Fit.of(jet[0], apply_to_jet(s, jet, profile.mode, ctx.a))
    term = 2.0 * dot(profile.mode, ctx.a)
    # the orientation-reversed operator W + term fits the eigenvalue 2 + gamma_hat with the residual of W
    return RootCheck(root=root, profile=profile, max_rel_residual=fit.residual(2.0 + term),
                     fitted_eigenvalue=fit.eigenvalue - term, gamma_hat=fit.eigenvalue + term - 2.0,
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
