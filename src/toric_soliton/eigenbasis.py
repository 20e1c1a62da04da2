"""Root eigenfunctions and the solitonic eigenspace decomposition.

Each Demazure root alpha with distinguished facet normal b carries the
profile ``(<x, b> + 1) exp(-<alpha, grad phi>)``; together with a torus
mode ``+alpha`` or ``-alpha`` it is an eigenfunction of the complex
weighted Laplacian with eigenvalue two.  Which mode sign realizes the
eigenvalue depends on conventions that differ between sources, so the
sign is selected operationally.  Both signs share the profile and the
sign-independent part of the operator; mode sign s and orientation o only
add ``-2 o s <a, alpha> u``.  One operator pass per root therefore gives
the sign, the eigenvalue-two residual and the orientation-reversed fit.
For roots with |<alpha, a>| <= GAMMA_TOL both signs work and +1 is kept,
so the choice never follows round-off in ``a``.

The eigenspace decomposition, which needs only ``a`` and the roots, is
:func:`toric_soliton.roots.assemble_decomposition`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import MalformedInputError
from .operators import (
    EquivariantFunction,
    Jet,
    OperatorContext,
    profile_coordinate,
    weighted_laplacian,
)
from .potentials import Stack
from .polytope import DelzantPolytope
from .roots import GAMMA_TOL, DemazureRoot


class RootFunction(NamedTuple):
    """Eigenfunction candidate attached to a Demazure root."""

    root: DemazureRoot
    mode_sign: int
    profile: EquivariantFunction

    @property
    def alpha(self) -> np.ndarray:
        return np.array(self.root.alpha, dtype=float)


def build_root_function(ctx: OperatorContext, root: DemazureRoot, mode_sign: int = 1) -> RootFunction:
    """Assemble the root profile with analytic derivatives through grad phi and G."""
    if mode_sign not in (1, -1):
        raise MalformedInputError(f"mode_sign must be +1 or -1, got {mode_sign}")
    alpha = np.array(root.alpha, dtype=float)
    normal = np.array(ctx.polytope.facets[root.distinguished_facet].normal, dtype=float)

    def jet(s: Stack) -> Jet:
        e = np.exp(-(s.grad @ alpha))
        w = s.points @ normal + 1.0
        galpha = s.G @ alpha
        dgalpha = np.einsum("mjlk,l->mjk", s.dG, alpha)
        matrix = (
            -np.einsum("i,mj->mij", normal, galpha)
            - np.einsum("mi,j->mij", galpha, normal)
            - w[:, None, None] * dgalpha
            + w[:, None, None] * np.einsum("mi,mj->mij", galpha, galpha)
        )
        return w * e, (normal - w[:, None] * galpha) * e[:, None], matrix * e[:, None, None]

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

    def values(self, points) -> np.ndarray:
        """The form (m,) on an (m, n) batch of points of the closed polytope."""
        ell = np.maximum(self.polytope.facet_values_many(np.asarray(points, dtype=float)), 0.0)
        result = np.full(len(ell), self.prefactor)
        for column, exponent in zip(ell.T, self.exponents):
            if exponent != 0.0:
                result = result * column**exponent
        return result


def boundary_product_form(p: DelzantPolytope, root: DemazureRoot) -> BoundaryProductForm:
    """Closed-form boundary extension of the canonical-potential root profile."""
    if not p.is_algebraic:
        raise MalformedInputError("boundary product form requires an algebraic polytope")
    normal_sum = np.sum(p.normal_matrix, axis=0)
    alpha = np.array(root.alpha, dtype=float)
    prefactor = math.exp(-0.5 * float(alpha @ normal_sum))
    exponents = []
    for idx, pairing in enumerate(root.pairings):
        if idx == root.distinguished_facet:
            exponents.append(0.5)
        else:
            exponents.append(-0.5 * pairing)
    return BoundaryProductForm(polytope=p, root=root, prefactor=prefactor, exponents=tuple(exponents))


def _eigen_stats(values: np.ndarray, applied: np.ndarray) -> dict[str, float]:
    scale = float(np.max(np.abs(values)))
    return {
        "max_rel_residual": float(np.max(np.abs(applied - 2.0 * values))) / scale,
        "fitted_eigenvalue": float(values @ applied / (values @ values)),
    }


def _reversed_fit(values: np.ndarray, applied: np.ndarray) -> tuple[float, float]:
    shifted = applied - 2.0 * values
    gamma = float(values @ shifted / (values @ values))
    fit_residual = float(np.max(np.abs(shifted - gamma * values))) / float(np.max(np.abs(values)))
    return gamma, fit_residual


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
    values = positive.profile.jet(s)[0]
    sign_free = weighted_laplacian(ctx, positive.profile, s)
    pairing = float(np.array(root.alpha, dtype=float) @ ctx.a)
    sign = 1
    if abs(pairing) > GAMMA_TOL:
        fitted = float(values @ sign_free / (values @ values))
        sign = 1 if abs(fitted - 2.0 * pairing - 2.0) <= abs(fitted + 2.0 * pairing - 2.0) else -1
    rf = positive if sign == 1 else build_root_function(ctx, root, sign)
    term = 2.0 * sign * pairing * values
    gamma_hat, gamma_fit = _reversed_fit(values, sign_free + term)
    return RootCheck(function=rf, stats=_eigen_stats(values, sign_free - term),
                     gamma_hat=gamma_hat, gamma_fit=gamma_fit)


def affine_block(ctx: OperatorContext, s: Stack) -> list[dict]:
    """Verify the 2n real affine basis functions are eigenfunctions of eigenvalue two.

    The block consists of <x, b1> + i <x, b2>; its basis profiles are the
    coordinates with torus mode zero, so the real and imaginary parts
    satisfy the same radial equation.
    """
    n = ctx.polytope.dim
    records = []
    for i in range(n):
        f = profile_coordinate(i, n)
        stats = _eigen_stats(f.jet(s)[0], weighted_laplacian(ctx, f, s))
        records.append({
            "basis": f"x_{i + 1}",
            "mode": (0,) * n,
            "fitted_eigenvalue": stats["fitted_eigenvalue"],
            "max_rel_residual": stats["max_rel_residual"],
        })
    return records
