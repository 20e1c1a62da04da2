"""Differential operators on torus-Fourier modes in action-angle coordinates.

A function is represented as a radial profile ``u(x)`` on the polytope
interior together with an integer mode ``k``; the represented function is
``u(x) exp(i <k, t>)``.  Phase factors are never sampled: the angular
sector acts diagonally on modes, contributing ``k^T G k`` from the second
angular derivatives and ``-2 orientation <a, k>`` from the first-order
imaginary term, so every evaluation reduces to x-space.

Evaluation surface.  Operators read the potential only through a
:class:`~toric_soliton.potentials.Stack` and evaluate on all of its points
at once: profiles give ``(u, du, d2u)`` arrays of shapes ``(m,)``,
``(m, n)`` and ``(m, n, n)`` on a stack, and the batched operators
(``laplacian``, ``weighted_laplacian``, ``complex_weighted_laplacian``,
``scalar_curvature`` ...) return ``(m,)`` arrays.  The ``apply_*`` and
other pointwise entry points are batch-of-one wrappers of them.  Only the
finite-difference oracle is pointwise by construction: it reads potential
and profile values alone.

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

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BoundaryEvaluationError, MalformedInputError
from .polytope import DelzantPolytope
from .potentials import PhiSidePotential, Stack, SymplecticPotential

#: (u, du, d2u) on a batch, shapes (m,), (m, n), (m, n, n)
Jet = tuple[np.ndarray, np.ndarray, np.ndarray]


class _Points(NamedTuple):
    """A batch of points alone, for profiles that do not read the potential."""

    points: np.ndarray


@dataclass(frozen=True)
class EquivariantFunction:
    """Torus mode k plus a radial profile with analytic derivatives.

    ``jet`` evaluates the profile on a whole stack.  The profiles built in
    this package define it and read the stack of ``potential`` (None when
    they read only the points); their pointwise ``value``, ``grad`` and
    ``hess`` are batch-of-one views of it.  A profile given only by
    pointwise callables is evaluated point by point.
    """

    mode: tuple[int, ...]
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[Stack], Jet] | None = None
    potential: SymplecticPotential | None = None

    def __post_init__(self) -> None:
        if self.jet is None:
            object.__setattr__(self, "jet", _pointwise_jet(self.value, self.grad, self.hess))

    @property
    def mode_array(self) -> np.ndarray:
        return np.array(self.mode, dtype=float)


def _pointwise_jet(value, grad, hess) -> Callable[[Stack], Jet]:
    def jet(s) -> Jet:
        return (
            np.array([float(value(x)) for x in s.points]),
            np.array([grad(x) for x in s.points], dtype=float),
            np.array([hess(x) for x in s.points], dtype=float),
        )

    return jet


def batched_profile(mode: tuple[int, ...], jet: Callable[[Stack], Jet],
                    potential: SymplecticPotential | None = None) -> EquivariantFunction:
    """Profile given by its jet on a stack; the pointwise callables are views of it."""

    def at(x) -> Jet:
        x = np.asarray(x, dtype=float)
        return jet(potential.stack(x) if potential is not None else _Points(x[None]))

    return EquivariantFunction(
        mode=mode,
        value=lambda x: float(at(x)[0][0]),
        grad=lambda x: at(x)[1][0],
        hess=lambda x: at(x)[2][0],
        jet=jet,
        potential=potential,
    )


def profile_constant(c: float, n: int, mode: tuple[int, ...] | None = None) -> EquivariantFunction:
    mode = mode if mode is not None else (0,) * n

    def jet(s) -> Jet:
        m = len(s.points)
        return np.full(m, float(c)), np.zeros((m, n)), np.zeros((m, n, n))

    return batched_profile(mode, jet)


def profile_linear(b, constant: float = 0.0, mode: tuple[int, ...] | None = None) -> EquivariantFunction:
    """Profile <x, b> + constant, torus-invariant by default."""
    b = np.asarray(b, dtype=float)
    n = len(b)
    mode = mode if mode is not None else (0,) * n

    def jet(s) -> Jet:
        m = len(s.points)
        return s.points @ b + constant, np.broadcast_to(b, (m, n)).copy(), np.zeros((m, n, n))

    return batched_profile(mode, jet)


def profile_coordinate(i: int, n: int) -> EquivariantFunction:
    b = np.zeros(n)
    b[i] = 1.0
    return profile_linear(b)


def profile_product(u: EquivariantFunction, v: EquivariantFunction) -> EquivariantFunction:
    """Product of two torus-invariant profiles."""
    if any(u.mode) or any(v.mode):
        raise MalformedInputError("profile products are defined for torus-invariant factors")
    if u.potential is not None and v.potential is not None and u.potential is not v.potential:
        raise MalformedInputError("profile factors read different potentials")

    def jet(s) -> Jet:
        (fu, du, d2u), (fv, dv, d2v) = u.jet(s), v.jet(s)
        return (
            fu * fv,
            du * fv[:, None] + fu[:, None] * dv,
            d2u * fv[:, None, None] + fu[:, None, None] * d2v
            + np.einsum("mi,mj->mij", du, dv) + np.einsum("mi,mj->mij", dv, du),
        )

    return batched_profile(u.mode, jet, u.potential or v.potential)


def profile_exp_pairing(potential: SymplecticPotential, alpha, mode: tuple[int, ...] | None = None) -> EquivariantFunction:
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

    return batched_profile(mode, jet, potential)


@dataclass(frozen=True)
class OperatorContext:
    """Polytope, potential stack, and fan-side soliton vector."""

    polytope: DelzantPolytope
    potential: SymplecticPotential
    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if self.a.shape != (self.polytope.dim,):
            raise MalformedInputError(f"soliton vector has shape {self.a.shape}, expected ({self.polytope.dim},)")
        # facet order may differ between equal polytopes (e.g. user input vs
        # the built-in blow-up trapezoid), so compare as sets
        same = (
            self.potential.polytope.dim == self.polytope.dim
            and frozenset(self.potential.polytope.facets) == frozenset(self.polytope.facets)
        )
        if not same:
            raise MalformedInputError("potential and context polytopes disagree")

    def stack(self, grid: np.ndarray | Stack) -> Stack:
        """The potential's stack on a grid; a stack passes through unchanged."""
        return grid if isinstance(grid, Stack) else self.potential.stack(grid)


def _point(ctx: OperatorContext, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (ctx.polytope.dim,):
        raise MalformedInputError(f"point has shape {x.shape}, expected ({ctx.polytope.dim},)")
    return x


def _point_stack(ctx: OperatorContext, x) -> Stack:
    return ctx.potential.stack(_point(ctx, x))


# -- batched operators ---------------------------------------------------------


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


def complex_weighted_laplacian(ctx: OperatorContext, f: EquivariantFunction, s: Stack,
                               orientation: int = 1) -> np.ndarray:
    """Complex weighted Laplacian (real part); orientation -1 realizes the conjugate structure.

    On mode k the angular sector contributes
    (k^T G k - 2 orientation <a, k>) u in total.
    """
    if orientation not in (1, -1):
        raise MalformedInputError(f"orientation must be +1 or -1, got {orientation}")
    shift = -2.0 * orientation * float(ctx.a @ f.mode_array)
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


# -- pointwise entry points ------------------------------------------------------


def apply_laplacian(ctx: OperatorContext, f: EquivariantFunction, x) -> complex:
    """Plain Laplacian on the mode at one point."""
    return complex(laplacian(ctx, f, _point_stack(ctx, x))[0])


def apply_weighted_laplacian(ctx: OperatorContext, f: EquivariantFunction, x) -> complex:
    """Weighted Laplacian at one point."""
    return complex(weighted_laplacian(ctx, f, _point_stack(ctx, x))[0])


def apply_complex_weighted_laplacian(ctx: OperatorContext, f: EquivariantFunction, x, orientation: int = 1) -> complex:
    """Complex weighted Laplacian at one point."""
    return complex(complex_weighted_laplacian(ctx, f, _point_stack(ctx, x), orientation)[0])


def product_rule_check(ctx: OperatorContext, u: EquivariantFunction, v: EquivariantFunction, x) -> float:
    """Defect of the weighted product rule at one point; it vanishes identically."""
    return float(product_rule_defects(ctx, u, v, _point_stack(ctx, x))[0])


def gradients(ctx: OperatorContext, f: EquivariantFunction, x) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Riemannian and symplectic gradients as (x-components, t-components)."""
    s = _point_stack(ctx, x)
    k = f.mode_array
    u, du, _ = (part[0] for part in f.jet(s))
    dt = 1j * k * u  # angular derivatives with the phase factor set to one
    return {
        "riemannian": (s.H[0] @ du, s.G[0] @ dt),
        "symplectic": (-dt, du.astype(complex)),
    }


def abreu_scalar_curvature(ctx: OperatorContext, x):
    """Scalar curvature at one point, or an (m,) array at the rows of an (m, n) array."""
    values = scalar_curvature(ctx.potential.stack(x))
    return float(values[0]) if np.ndim(x) == 1 else values


def ricci_and_lie_components(ctx: OperatorContext, x) -> tuple[np.ndarray, np.ndarray]:
    """Ricci components and the Lie-derivative components of the soliton field.

    Ric[k, l] = -(1/2) sum_i d^2 H_li / dx_i dx_k; the Lie components use
    the moment-image drift covector (-a), which makes the soliton identity
    Ric - Lie = identity hold with the fan-side vector stored in the context.
    """
    s = _point_stack(ctx, x)
    ric = -0.5 * np.einsum("liik->kl", s.d2H[0])
    lie = np.einsum("i,ilk->kl", ctx.a, s.dH[0])
    return ric, lie


def soliton_residual(ctx: OperatorContext, x, scal_mean: float) -> float:
    """Pointwise defect Scal(x) - scal_mean + 2 Delta^g <x, a> of the soliton equation."""
    return float(soliton_residuals(ctx, _point_stack(ctx, x), scal_mean)[0])


# -- finite-difference oracle ------------------------------------------------


def _fd_metric(ctx: OperatorContext, y: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(G, H) at y from potential values only, by nested central differences."""
    phi = ctx.potential.value
    n = len(y)
    g = np.zeros((n, n))
    base = phi(y)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        g[i, i] = (phi(y + ei) - 2.0 * base + phi(y - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (phi(y + ei + ej) - phi(y + ei - ej) - phi(y - ei + ej) + phi(y - ei - ej)) / (4.0 * h**2)
            g[i, j] = g[j, i] = mixed
    return g, np.linalg.inv(g)


def _fd_step(ctx: OperatorContext, x: np.ndarray, factor: float) -> float:
    norms = np.linalg.norm(ctx.polytope.normal_matrix, axis=1)
    distances = ctx.polytope.facet_values(x) / norms
    step = factor * float(distances.min())
    if step <= 0.0:
        raise BoundaryEvaluationError("finite-difference step underflow near the boundary")
    return step


def finite_difference_oracle(ctx: OperatorContext, f: EquivariantFunction, x, operator: str,
                             step: float | None = None) -> complex:
    """Re-evaluate an operator using only potential values and profile values.

    Independent of the analytic derivative stack: the metric comes from
    nested central differences of phi, the profile derivatives from central
    differences of u.  Supported operators: ``laplacian``, ``weighted``,
    ``complex+``, ``complex-``, ``abreu`` (which ignores f).  The potential
    must have closed-form values (the convex-function side).
    """
    if not isinstance(ctx.potential, PhiSidePotential):
        raise MalformedInputError("the finite-difference oracle needs a potential with closed-form values")
    x = _point(ctx, x)
    ctx.potential.require_interior(x[None])
    n = len(x)

    if operator == "abreu":
        h3 = step if step is not None else _fd_step(ctx, x, 0.02)
        total = 0.0
        for i in range(n):
            for j in range(n):
                ei = np.zeros(n)
                ei[i] = h3
                ej = np.zeros(n)
                ej[j] = h3
                if i == j:
                    entries = [
                        _fd_metric(ctx, x + ei, h3)[1][i, j],
                        _fd_metric(ctx, x, h3)[1][i, j],
                        _fd_metric(ctx, x - ei, h3)[1][i, j],
                    ]
                    total += (entries[0] - 2.0 * entries[1] + entries[2]) / h3**2
                else:
                    total += (
                        _fd_metric(ctx, x + ei + ej, h3)[1][i, j]
                        - _fd_metric(ctx, x + ei - ej, h3)[1][i, j]
                        - _fd_metric(ctx, x - ei + ej, h3)[1][i, j]
                        + _fd_metric(ctx, x - ei - ej, h3)[1][i, j]
                    ) / (4.0 * h3**2)
        return complex(-total)

    if operator not in ("laplacian", "weighted", "complex+", "complex-"):
        raise MalformedInputError(f"unknown operator id {operator!r}")

    h = step if step is not None else _fd_step(ctx, x, 0.005)

    def grad_u(y: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = h
            out[j] = (f.value(y + ej) - f.value(y - ej)) / (2.0 * h)
        return out

    def flux(y: np.ndarray) -> np.ndarray:
        return _fd_metric(ctx, y, h)[1] @ grad_u(y)

    divergence = 0.0
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        divergence += (flux(x + ei)[i] - flux(x - ei)[i]) / (2.0 * h)

    g_fd, h_fd = _fd_metric(ctx, x, h)
    result = -divergence
    k = f.mode_array
    u = f.value(x)
    if k.any():
        result += float(k @ g_fd @ k) * u
    if operator in ("weighted", "complex+", "complex-"):
        result += -2.0 * float(ctx.a @ h_fd @ grad_u(x))
    if operator == "complex+" and k.any():
        result += -2.0 * float(ctx.a @ k) * u
    if operator == "complex-" and k.any():
        result += 2.0 * float(ctx.a @ k) * u
    return complex(result)
