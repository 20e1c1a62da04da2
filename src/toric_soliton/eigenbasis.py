"""Root eigenfunctions and the solitonic eigenspace decomposition.

Each Demazure root alpha with distinguished facet normal nu carries the
eigenfunction ``(<x, nu> + 1) exp(-<alpha, grad phi> + i <alpha, t>)`` of
the complex weighted Laplacian with eigenvalue two: the root profile on
torus mode +alpha, fixed by construction.  It is the
:class:`~toric_soliton.operators.Profile` ``(nu, 1, alpha, alpha)``,
read from the polygon alone; the affine block's profiles are the
coordinates ``(e_i, 0, 0, 0)``.  On mode +alpha the operator is
``W u - 2 <alpha, a> u``, with W its sign-independent part, and the
orientation-reversed operator is ``W u + 2 <alpha, a> u``.  One operator
pass per root therefore gives the eigenvalue-two residual and the
orientation-reversed fit: the fits share ``<u, u>``, ``<u, W u>`` and
``max |u|`` and differ only in the multiple of u they add.  A profile on
the wrong mode fits the eigenvalue ``2 + 4 <alpha, a>`` and fails the
eigenvalue-two check wherever ``<alpha, a>`` is not zero.  Profiles and
fits run on the float columns of the stack, and every maximum of
|residual| is NaN when a residual is.  For the canonical potential each
root profile also has a closed form that extends to the closed polygon,
:func:`boundary_product_form`.

The eigenspace decomposition, which needs only the roots and the solve's
``a = s b``, grouped by the integer ``<alpha, b>``, is
:func:`toric_soliton.roots.assemble_decomposition`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import MalformedInputError
from .operators import COORDINATES, OperatorContext, Profile, apply_to_jet, dot, max_abs
from .potentials import Stack
from .polytope import DelzantPolytope
from .roots import DemazureRoot


def build_root_function(p: DelzantPolytope, root: DemazureRoot) -> Profile:
    """The root profile (<x, nu> + 1) exp(-<alpha, grad phi>) on mode +alpha, nu the distinguished facet normal."""
    return Profile(p.facets[root.distinguished_facet].normal, 1.0, root.alpha, root.alpha)


def boundary_product_form(p: DelzantPolytope, root: DemazureRoot, points) -> list[float]:
    """The closed form of the canonical-potential root profile at each (x1, x2) point of the closed polytope.

    The profile equals ``exp(-<alpha, sum_rho nu_rho> / 2) prod_rho
    L_rho(x)^e_rho`` with every exponent non-negative: one half on the
    distinguished facet and ``-pairing/2`` elsewhere.  It extends
    continuously to the closed polytope and vanishes exactly on the facets
    with positive exponent.
    """
    if not p.is_algebraic:
        raise MalformedInputError("boundary product form requires an algebraic polytope")
    normal_sum = [sum(column) for column in zip(*p.normal_matrix)]
    prefactor = math.exp(-0.5 * dot(root.alpha, normal_sum))
    exponents = [0.5 if idx == root.distinguished_facet else -0.5 * pairing
                 for idx, pairing in enumerate(root.pairings)]
    out = []
    for ell in p.facet_values_many(points):
        result = prefactor
        for value, exponent in zip(ell, exponents):
            if exponent != 0.0:
                result = result * max(value, 0.0) ** exponent
        out.append(result)
    return out


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
    profile: Profile
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
    profile = build_root_function(ctx.potential.polytope, root)
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
    for i, f in enumerate(COORDINATES):
        jet = f.jet(s)
        fit = _Fit.of(jet[0], apply_to_jet(s, jet, f.mode, ctx.a))
        records.append({
            "basis": f"x_{i + 1}",
            "mode": f.mode,
            "fitted_eigenvalue": fit.eigenvalue,
            "max_rel_residual": fit.residual(2.0),
        })
    return records
