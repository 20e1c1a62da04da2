"""Differential operators on torus-Fourier modes in action-angle coordinates.

A function is represented as a radial profile ``u(x)`` on the polytope
interior together with an integer mode ``k``; the represented function is
``u(x) exp(i <k, t>)``.  Phase factors are never sampled: the angular
sector acts diagonally on modes, contributing ``k^T G k`` from the second
angular derivatives and ``-2 <a, k>`` from the first-order imaginary
term, so every evaluation reduces to x-space.  The conjugate complex
structure flips the sign of that term: its operator is the conjugate
shift ``+4 <a, k> u`` away.

Evaluation surface.  Operators read the potential only through a
:class:`~toric_soliton.potentials.Stack` and evaluate on all of its points
at once: a profile's ``jet`` gives ``(u, du, d2u)`` arrays of shapes
``(m,)``, ``(m, n)`` and ``(m, n, n)`` on a stack, and every operator
(``laplacian``, ``weighted_laplacian``, ``complex_weighted_laplacian``,
``scalar_curvature``, ``gradients`` ...) returns arrays with the same
leading batch axis; one point is a stack of one.  The finite-difference
oracle reads potential values and profile values alone, all in arrays on
one nine-point stencil: phi from one batched ``values`` call per step
size, and every profile value from one stack of the context potential.
The context, :class:`OperatorContext`, is a named tuple that reads ``a``
as a float array and checks that its potential lives on its polytope
when constructed.

Sign conventions.  The plain Laplacian is the positive-spectrum operator
``-sum_ij d_i(H_ij d_j u)`` (constants are harmonic, ``x^2`` on the flat
model maps to ``-2``).  The context stores the fan-side soliton vector
``a`` (see :mod:`toric_soliton.futaki`); the drift covector on the moment
image is its negative, so the weighted Laplacian is

    Delta^{g,a} u = Delta^g u - 2 sum_ij a_i H_ij d_j u,

which makes every affine function an eigenfunction with eigenvalue two on
a soliton and keeps the solitonic spectrum 2 <alpha, a> non-negative.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import MalformedInputError
from .polytope import DelzantPolytope
from .potentials import PhiSidePotential, Stack, SymplecticPotential

#: (u, du, d2u) on a batch, shapes (m,), (m, n), (m, n, n)
Jet = tuple[np.ndarray, np.ndarray, np.ndarray]


class EquivariantFunction(NamedTuple):
    """Torus mode k plus a radial profile with analytic derivatives.

    ``jet`` evaluates the profile on a whole stack, so a profile that
    reads the potential sees it only through the stack it is given.
    """

    mode: tuple[int, ...]
    jet: Callable[[Stack], Jet]

    @property
    def mode_array(self) -> np.ndarray:
        return np.array(self.mode, dtype=float)


def profile_constant(c: float, n: int, mode: tuple[int, ...] | None = None) -> EquivariantFunction:
    mode = mode if mode is not None else (0,) * n

    def jet(s) -> Jet:
        m = len(s.points)
        return np.full(m, float(c)), np.zeros((m, n)), np.zeros((m, n, n))

    return EquivariantFunction(mode, jet)


def profile_linear(b) -> EquivariantFunction:
    """Torus-invariant profile <x, b>."""
    b = np.asarray(b, dtype=float)
    n = len(b)

    def jet(s) -> Jet:
        m = len(s.points)
        return s.points @ b, np.broadcast_to(b, (m, n)).copy(), np.zeros((m, n, n))

    return EquivariantFunction((0,) * n, jet)


def profile_coordinate(i: int, n: int) -> EquivariantFunction:
    b = np.zeros(n)
    b[i] = 1.0
    return profile_linear(b)


def profile_product(u: EquivariantFunction, v: EquivariantFunction) -> EquivariantFunction:
    """Product of two torus-invariant profiles."""
    if any(u.mode) or any(v.mode):
        raise MalformedInputError("profile products are defined for torus-invariant factors")

    def jet(s) -> Jet:
        (fu, du, d2u), (fv, dv, d2v) = u.jet(s), v.jet(s)
        return (
            fu * fv,
            du * fv[:, None] + fu[:, None] * dv,
            d2u * fv[:, None, None] + fu[:, None, None] * d2v
            + np.einsum("mi,mj->mij", du, dv) + np.einsum("mi,mj->mij", dv, du),
        )

    return EquivariantFunction(u.mode, jet)


def profile_exp_pairing(alpha, mode: tuple[int, ...] | None = None) -> EquivariantFunction:
    """Profile exp(-<alpha, grad phi>) with derivatives through G and dG."""
    alpha = np.asarray(alpha, dtype=float)
    n = len(alpha)
    mode = mode if mode is not None else (0,) * n

    def jet(s: Stack) -> Jet:
        e = np.exp(-(s.grad @ alpha))
        galpha = s.G @ alpha
        dgalpha = np.einsum("mjlk,l->mjk", s.dG, alpha)
        outer = np.einsum("mi,mj->mij", galpha, galpha)
        return e, -galpha * e[:, None], (outer - dgalpha) * e[:, None, None]

    return EquivariantFunction(mode, jet)


class OperatorContext(NamedTuple("OperatorContext", [
    ("polytope", DelzantPolytope), ("potential", SymplecticPotential), ("a", np.ndarray),
])):
    """Polytope, potential stack, and fan-side soliton vector.

    Construction reads ``a`` as a float array of shape (n,) and checks
    that the potential lives on the same polytope.
    """

    __slots__ = ()

    def __new__(cls, polytope: DelzantPolytope, potential: SymplecticPotential, a) -> OperatorContext:
        a = np.asarray(a, dtype=float)
        if a.shape != (polytope.dim,):
            raise MalformedInputError(f"soliton vector has shape {a.shape}, expected ({polytope.dim},)")
        # facet order may differ between equal polytopes (e.g. user input vs
        # the built-in blow-up trapezoid), so compare as sets
        same = (
            potential.polytope.dim == polytope.dim
            and frozenset(potential.polytope.facets) == frozenset(polytope.facets)
        )
        if not same:
            raise MalformedInputError("potential and context polytopes disagree")
        return super().__new__(cls, polytope, potential, a)


# -- operators -------------------------------------------------------------------


def laplacian(ctx: OperatorContext, f: EquivariantFunction, s: Stack) -> np.ndarray:
    """Plain Laplacian on the mode, -div(H grad u) + (k^T G k) u, on every stack point."""
    u, du, d2u = f.jet(s)
    k = f.mode_array
    # sum_ij d_i(H_ij d_j u) = sum_j (sum_i dH[i,j,i]) d_j u + sum_ij H_ij d_i d_j u
    divergence = np.einsum("miji,mj->m", s.dH, du) + np.einsum("mij,mij->m", s.H, d2u)
    return -divergence + np.einsum("i,mij,j->m", k, s.G, k) * u


def weighted_laplacian(ctx: OperatorContext, f: EquivariantFunction, s: Stack) -> np.ndarray:
    """Weighted Laplacian: plain plus the moment-image drift -2 a^T H grad u."""
    drift = -2.0 * np.einsum("i,mij,mj->m", ctx.a, s.H, f.jet(s)[1])
    return laplacian(ctx, f, s) + drift


def complex_weighted_laplacian(ctx: OperatorContext, f: EquivariantFunction, s: Stack) -> np.ndarray:
    """Complex weighted Laplacian (real part).

    On mode k the angular sector contributes (k^T G k - 2 <a, k>) u in
    total; the conjugate structure's operator is this one plus the
    conjugate shift 4 <a, k> u.
    """
    shift = -2.0 * float(ctx.a @ f.mode_array)
    return weighted_laplacian(ctx, f, s) + shift * f.jet(s)[0]


def product_rule_defects(ctx: OperatorContext, u: EquivariantFunction, v: EquivariantFunction,
                         s: Stack) -> np.ndarray:
    """Delta(uv) - v Delta u - u Delta v + 2 grad u^T H grad v for torus-invariant profiles."""
    fu, du, _ = u.jet(s)
    fv, dv, _ = v.jet(s)
    lhs = weighted_laplacian(ctx, profile_product(u, v), s)
    rhs = (
        fv * weighted_laplacian(ctx, u, s)
        + fu * weighted_laplacian(ctx, v, s)
        - 2.0 * np.einsum("mi,mij,mj->m", du, s.H, dv)
    )
    return lhs - rhs


def scalar_curvature(s: Stack) -> np.ndarray:
    """Abreu scalar curvature -sum_ij d^2 H_ij / dx_i dx_j on every stack point."""
    return -np.einsum("mijij->m", s.d2H)


def soliton_residuals(ctx: OperatorContext, s: Stack, scal_mean: float) -> np.ndarray:
    """Defect Scal(x) - scal_mean + 2 Delta^g <x, a> of the soliton equation on every stack point."""
    laplacian_linear = -(np.einsum("miji->mj", s.dH) @ ctx.a)
    return scalar_curvature(s) - scal_mean + 2.0 * laplacian_linear


def gradients(ctx: OperatorContext, f: EquivariantFunction, s: Stack) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Riemannian and symplectic gradients as (x-components, t-components), each (m, n)."""
    u, du, _ = f.jet(s)
    dt = 1j * u[:, None] * f.mode_array  # angular derivatives with the phase factor set to one
    return {
        "riemannian": (np.einsum("mij,mj->mi", s.H, du), np.einsum("mij,mj->mi", s.G, dt)),
        "symplectic": (-dt, du.astype(complex)),
    }


def ricci_and_lie_components(ctx: OperatorContext, s: Stack) -> tuple[np.ndarray, np.ndarray]:
    """Ricci components and the Lie-derivative components of the soliton field, each (m, n, n).

    Ric[k, l] = -(1/2) sum_i d^2 H_li / dx_i dx_k; the Lie components use
    the moment-image drift covector (-a), which makes the soliton identity
    Ric - Lie = identity hold with the fan-side vector stored in the context.
    """
    ric = -0.5 * np.einsum("mliik->mkl", s.d2H)
    lie = np.einsum("i,milk->mkl", ctx.a, s.dH)
    return ric, lie


# -- finite-difference oracle ------------------------------------------------

#: the nine-point stencil in units of the step, offset (a, b) at row 3 (a + 1) + (b + 1),
#: so values on it reshape to (3, 3, ...) with the value at (a, b) in entry [a + 1, b + 1]
_STENCIL = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)], dtype=float)


def _first_differences(v: np.ndarray, h: float) -> np.ndarray:
    """Central first differences (..., 2) at the centre of values v (3, 3, ...) on the stencil."""
    return np.stack([(v[2, 1] - v[0, 1]) / (2.0 * h), (v[1, 2] - v[1, 0]) / (2.0 * h)], axis=-1)


def _second_differences(v: np.ndarray, h: float) -> np.ndarray:
    """Central second differences (..., 2, 2) at the centre of values v (3, 3, ...) on the stencil."""
    out = np.empty(v.shape[2:] + (2, 2))
    out[..., 0, 0] = (v[2, 1] - 2.0 * v[1, 1] + v[0, 1]) / h**2
    out[..., 1, 1] = (v[1, 2] - 2.0 * v[1, 1] + v[1, 0]) / h**2
    out[..., 0, 1] = out[..., 1, 0] = (v[2, 2] - v[2, 0] - v[0, 2] + v[0, 0]) / (4.0 * h**2)
    return out


def _fd_metric(potential: PhiSidePotential, centers: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(G, H), each (c, 2, 2), at (c, 2) centres from one batch of phi values on their stencils."""
    points = centers + h * _STENCIL[:, None]
    phi = potential.values(points.reshape(-1, 2)).reshape(3, 3, -1)
    g = _second_differences(phi, h)
    return g, np.linalg.inv(g)


def finite_difference_oracle(ctx: OperatorContext, f: EquivariantFunction, x) -> tuple[float, float]:
    """Re-evaluate the complex weighted Laplacian of f and the Abreu curvature at x.

    Returns ``(complex_weighted, abreu)``, computed from potential values
    and profile values alone, so both are independent of the analytic
    derivative stack.  The metric comes from second differences of phi on
    the nine-point stencil around each centre.  The complex weighted term
    takes first differences of u and of the flux ``H grad u`` over the
    stencil of step ``h = 0.005 d`` around x, with every value of u read
    from one stack of the context potential; the Abreu term takes second
    differences of ``H`` over the stencil of step ``0.02 d``.  Here ``d``
    is the distance from x to the boundary.  The potential must have
    closed-form values (the convex-function side).
    """
    if not isinstance(ctx.potential, PhiSidePotential):
        raise MalformedInputError("the finite-difference oracle needs a potential with closed-form values")
    x = np.asarray(x, dtype=float)
    ell = ctx.potential.require_interior(x[None])[0]
    distance = float((ell / np.linalg.norm(ctx.polytope.normal_matrix, axis=1)).min())

    h = 0.005 * distance
    centers = x + h * _STENCIL
    g, inv = _fd_metric(ctx.potential, centers, h)
    u = f.jet(ctx.potential.stack((centers + h * _STENCIL[:, None]).reshape(-1, 2)))[0].reshape(3, 3, 3, 3)
    grad_u = _first_differences(u, h)
    flux = np.einsum("cij,cj->ci", inv, grad_u.reshape(-1, 2)).reshape(3, 3, 2)
    k = f.mode_array
    u0, grad0 = u[1, 1, 1, 1], grad_u[1, 1]
    weighted = (
        -float(np.trace(_first_differences(flux, h)))
        + (float(k @ g[4] @ k) - 2.0 * float(ctx.a @ k)) * u0
        - 2.0 * float(ctx.a @ inv[4] @ grad0)
    )

    h3 = 0.02 * distance
    inv3 = _fd_metric(ctx.potential, x + h3 * _STENCIL, h3)[1].reshape(3, 3, 2, 2)
    abreu = -float(np.einsum("ijij->", _second_differences(inv3, h3)))
    return weighted, abreu
