"""Root eigenfunctions and the solitonic eigenspace decomposition.

Each Demazure root alpha with distinguished facet normal nu carries the
eigenfunction ``(<x, nu> + 1) exp(-<alpha, grad phi> + i <alpha, t>)`` of
the complex weighted Laplacian with eigenvalue two: the root profile on
torus mode +alpha, fixed by construction.  It is the
:class:`~toric_soliton.operators.Profile` ``(nu, 1, alpha, alpha)``,
read from the polygon alone; the affine block's profiles are the
coordinates ``(e_i, 0, 0, 0)``.  Together they span the eigenvalue-two
space, and :func:`fit` checks each of them the same way, into one
record, :class:`EigenFit`.  On mode k the operator is ``W u - 2 <k, a> u``,
with W its sign-independent part, and the orientation-reversed operator
is ``W u + 2 <k, a> u``; on mode zero the two coincide.  One operator
pass per profile therefore gives the eigenvalue-two residual and the
orientation-reversed fit: the fits share ``<u, u>``, ``<u, W u>`` and
``max |u|`` and differ only in the multiple of u they add.  A root
profile on the wrong mode fits the eigenvalue ``2 + 4 <alpha, a>`` and
fails the eigenvalue-two check wherever ``<alpha, a>`` is not zero.
Profiles and fits run on the float columns of the stack, and every
maximum of |residual| is NaN when a residual is.  For the canonical
potential each root profile also has a closed form that extends to the
closed polygon, :func:`boundary_product_form`.

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


class EigenFit(NamedTuple):
    """A profile with its eigenvalue-two residual and orientation-reversed fit."""

    profile: Profile
    max_rel_residual: float
    fitted_eigenvalue: float
    gamma_hat: float
    gamma_fit: float


def fit(ctx: OperatorContext, profile: Profile, s: Stack) -> EigenFit:
    """Eigenvalue-two residual and orientation-reversed fit of a profile from one operator pass.

    The sign-independent part W u (the weighted Laplacian on the profile's
    mode k, including k^T G k u) is applied once; the operator adds -term u
    and its orientation reversal +term u, with term = 2 <k, a>, 0.0 on mode
    zero.  ``max_rel_residual`` is max |W u - (2 + term) u| / max |u| and
    ``fitted_eigenvalue`` the least-squares eigenvalue of the operator;
    ``gamma_hat`` is that of the orientation-reversed operator minus two,
    4 <alpha, a> for a root profile on a soliton, and ``gamma_fit`` the
    relative residual of that fit.
    """
    jet = profile.jet(s)
    u, wu = jet[0], apply_to_jet(s, jet, profile.mode, ctx.a)
    peak, eigenvalue = max_abs(u), dot(u, wu) / dot(u, u)
    term = 2.0 * dot(profile.mode, ctx.a)

    def residual(value: float) -> float:
        return max_abs([w - value * v for v, w in zip(u, wu)]) / peak

    # the orientation-reversed operator W + term fits the eigenvalue 2 + gamma_hat with the residual of W
    return EigenFit(profile, residual(2.0 + term), eigenvalue - term, eigenvalue + term - 2.0, residual(eigenvalue))


def check_root(ctx: OperatorContext, root: DemazureRoot, s: Stack) -> EigenFit:
    """The fit of a root's profile."""
    return fit(ctx, build_root_function(ctx.potential.polytope, root), s)


def affine_block(ctx: OperatorContext, s: Stack) -> list[EigenFit]:
    """The fits of the coordinates x_1 and x_2, the real basis of the affine block <x, b1> + i <x, b2>.

    The profiles have torus mode zero, so the real and imaginary parts
    satisfy the same radial equation.
    """
    return [fit(ctx, f, s) for f in COORDINATES]
