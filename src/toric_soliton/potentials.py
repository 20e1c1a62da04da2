"""Symplectic potentials and their derivative stacks.

A potential is evaluated only through its :class:`Stack`, a named tuple of
arrays: on an ``(m, n)`` batch of interior points it holds the gradient,
the Hessian ``G``, its inverse ``H``, ``dG``, ``dH`` and ``d2H`` with a
leading batch axis.  :meth:`SymplecticPotential.stack` runs one interior
check and one batched 2x2 inverse per batch, so each formula exists once
and a single point is a batch of one.  Two families implement it:

* potentials given on the convex-function side (Guillemin, quadratic
  models) supply the gradient, ``G`` and its derivatives analytically
  and derive the ``H`` stack by matrix calculus;
  they also expose the values of ``phi`` on a batch, which only the
  finite-difference oracle reads;
* metrics given on the inverse side (:class:`CalabiPotential`, the
  one-point blow-up soliton built on the closed forms of
  :mod:`toric_soliton.calabi`) supply the gradient, ``H`` and its
  derivatives analytically and derive the ``G`` stack.

:func:`gradient_by_line_integral` recovers a gradient from ``G`` alone, on
the Gauss-Legendre rule of :mod:`toric_soliton.quadrature`; it is kept as
the independent oracle for closed-form gradients.

Index conventions, after the batch axis: ``dG[i, j, k] = d G_ij / d x_k``
and ``d2H[i, j, k, l] = d^2 H_ij / d x_k d x_l``.

Stacks are arrays, so this module imports numpy; only ``verify`` builds a
potential, and it is the one command that loads numpy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from .calabi import (
    ALPHA1,
    ALPHA2,
    CalabiSoliton,
    from_algebraic_coordinates,
    profile_A,
    profile_B,
)
from .errors import BoundaryEvaluationError, LossOfConvexityError, MalformedInputError
from .polytope import DelzantPolytope, blowup_trapezoid
from .quadrature import gauss_legendre

#: points with any facet value at or below this are treated as boundary
BOUNDARY_TOL = 1e-12


class Stack(NamedTuple):
    """Derivative stack of a potential on a batch of m interior points."""

    points: np.ndarray  # (m, n)
    grad: np.ndarray  # (m, n)
    G: np.ndarray  # (m, n, n)
    H: np.ndarray  # (m, n, n)
    dG: np.ndarray  # (m, n, n, n)
    dH: np.ndarray  # (m, n, n, n)
    d2H: np.ndarray  # (m, n, n, n, n)

    def select(self, index) -> "Stack":
        """The stack on a subset of its points (any numpy index of the batch axis)."""
        return Stack(*(f[index] for f in self))


def _inverse_2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a batch of 2x2 matrices, shape (m, 2, 2)."""
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    adjugate = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
    return adjugate / (a * d - b * c)[:, None, None]


def _congruence_derivative(inverse: np.ndarray, d_matrix: np.ndarray) -> np.ndarray:
    """d(M^-1) = -M^-1 dM M^-1 over the batch."""
    return -np.einsum("mia,mabk,mbj->mijk", inverse, d_matrix, inverse)


class SymplecticPotential(ABC):
    """Evaluable potential exposing the full derivative stack at interior points."""

    polytope: DelzantPolytope

    def require_interior(self, points: np.ndarray) -> np.ndarray:
        """Facet values (m, d) of an (m, n) batch of points, all of which must be interior."""
        if points.ndim != 2 or points.shape[1] != self.polytope.dim:
            raise MalformedInputError(f"points have shape {points.shape}, expected (m, {self.polytope.dim})")
        values = self.polytope.facet_values_many(points)
        lowest = values.min(axis=1)
        worst = int(np.argmin(lowest))
        if not lowest[worst] > BOUNDARY_TOL:
            raise BoundaryEvaluationError(
                f"point {tuple(points[worst].tolist())} is not interior (min facet value {lowest[worst]:.3e})"
            )
        return values

    def stack(self, points) -> Stack:
        """The derivative stack on an (m, n) batch of interior points."""
        points = np.asarray(points, dtype=float)
        return self._stack(points, self.require_interior(points))

    @abstractmethod
    def _stack(self, points: np.ndarray, facet_values: np.ndarray) -> Stack: ...


class PhiSidePotential(SymplecticPotential):
    """Stack driven by analytic grad, G, dG, d2G; the H side is derived."""

    def values(self, points) -> np.ndarray:
        """phi (m,) on an (m, n) batch of interior points."""
        points = np.asarray(points, dtype=float)
        return self._values(points, self.require_interior(points))

    @abstractmethod
    def _values(self, points: np.ndarray, facet_values: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _phi_derivatives(self, points: np.ndarray, facet_values: np.ndarray) -> tuple[np.ndarray, ...]:
        """(grad, G, dG, d2G) on the batch, shapes (m, n) ... (m, n, n, n, n)."""

    def _stack(self, points: np.ndarray, facet_values: np.ndarray) -> Stack:
        grad, g, dg, d2g = self._phi_derivatives(points, facet_values)
        h = _inverse_2x2(g)
        dh = _congruence_derivative(h, dg)
        d2h = -(
            np.einsum("mial,mabk,mbj->mijkl", dh, dg, h)
            + np.einsum("mia,mabkl,mbj->mijkl", h, d2g, h)
            + np.einsum("mia,mabk,mbjl->mijkl", h, dg, dh)
        )
        return Stack(points, grad, g, h, dg, dh, d2h)


class GuilleminPotential(PhiSidePotential):
    """Canonical potential (1/2) sum_r L_r log L_r with analytic derivatives."""

    def __init__(self, polytope: DelzantPolytope):
        self.polytope = polytope
        self._normals = polytope.normal_matrix  # (d, n)

    def _values(self, points, ell):
        return 0.5 * np.sum(ell * np.log(ell), axis=1)

    def _phi_derivatives(self, points, ell):
        nu = self._normals
        grad = 0.5 * ((1.0 + np.log(ell)) @ nu)
        g = 0.5 * np.einsum("ri,rj,mr->mij", nu, nu, 1.0 / ell)
        dg = -0.5 * np.einsum("ri,rj,rk,mr->mijk", nu, nu, nu, ell**-2)
        d2g = np.einsum("ri,rj,rk,rl,mr->mijkl", nu, nu, nu, nu, ell**-3)
        return grad, g, dg, d2g


class QuadraticPotential(PhiSidePotential):
    """phi = (1/2) x^T M x; the flat model when M is the identity."""

    def __init__(self, polytope: DelzantPolytope, matrix: np.ndarray | None = None):
        self.polytope = polytope
        n = polytope.dim
        m = np.eye(n) if matrix is None else np.asarray(matrix, dtype=float)
        if np.linalg.eigvalsh(0.5 * (m + m.T))[0] <= 0.0:
            raise LossOfConvexityError("quadratic potential requires a positive definite matrix")
        self._matrix = 0.5 * (m + m.T)

    def _values(self, points, facet_values):
        return 0.5 * np.einsum("mi,ij,mj->m", points, self._matrix, points)

    def _phi_derivatives(self, points, facet_values):
        m, n = points.shape
        return (
            points @ self._matrix,
            np.broadcast_to(self._matrix, (m, n, n)).copy(),
            np.zeros((m, n, n, n)),
            np.zeros((m, n, n, n, n)),
        )


class HSidePotential(SymplecticPotential):
    """Stack driven by analytic grad, H, dH, d2H; the G side is derived."""

    @abstractmethod
    def _h_derivatives(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """(grad, H, dH, d2H) on the batch, shapes (m, n) ... (m, n, n, n, n)."""

    def _stack(self, points: np.ndarray, facet_values: np.ndarray) -> Stack:
        grad, h, dh, d2h = self._h_derivatives(points)
        g = _inverse_2x2(h)
        return Stack(points, grad, g, h, _congruence_derivative(g, dh), dh, d2h)


def _calabi_entry_partials(s: CalabiSoliton, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H, dH and d2H on an (m, 2) batch of points of tau."""
    x = mu[:, 0]
    y = mu[:, 1] / x
    a_val, a1d, a2d = profile_A(s, x)
    b_val, b1d, b2d = profile_B(s, y)

    # (f, f_x, f_y, f_xx, f_xy, f_yy) per entry in the rectangle coordinates
    ax = a1d / x - a_val / x**2
    axx = a2d / x - 2.0 * a1d / x**2 + 2.0 * a_val / x**3
    entries = {
        (0, 0): (a_val / x, ax, 0.0, axx, 0.0, 0.0),
        (0, 1): (y * a_val / x, y * ax, a_val / x, y * axx, ax, 0.0),
        (1, 1): (
            x * b_val + y * y * a_val / x,
            b_val + y * y * ax,
            x * b1d + 2.0 * y * a_val / x,
            y * y * axx,
            b1d + 2.0 * y * ax,
            x * b2d + 2.0 * a_val / x,
        ),
    }

    m = len(mu)
    h = np.zeros((m, 2, 2))
    dh = np.zeros((m, 2, 2, 2))
    d2h = np.zeros((m, 2, 2, 2, 2))
    for (i, j), (f, fx, fy, fxx, fxy, fyy) in entries.items():
        # chain rule through y = mu2 / mu1
        d1 = fx - (y / x) * fy
        d2 = fy / x
        d11 = fxx - 2.0 * (y / x) * fxy + (y / x) ** 2 * fyy + 2.0 * y / x**2 * fy
        d12 = -fy / x**2 + fxy / x - y * fyy / x**2
        d22 = fyy / x**2
        for (r, c) in {(i, j), (j, i)}:
            h[:, r, c] = f
            dh[:, r, c, 0], dh[:, r, c, 1] = d1, d2
            d2h[:, r, c, 0, 0] = d11
            d2h[:, r, c, 0, 1] = d2h[:, r, c, 1, 0] = d12
            d2h[:, r, c, 1, 1] = d22
    return h, dh, d2h


class CalabiPotential(HSidePotential):
    """Derivative stack of the blow-up soliton metric on the algebraic trapezoid.

    The stack lives in algebraic coordinates (the trapezoid translated so
    the privileged center is the origin); the metric data is evaluated at
    the translated point.  The gradient has gauge zero at the origin, which
    rescales root profiles by harmless positive constants.
    """

    def __init__(self, soliton: CalabiSoliton | None = None):
        self.soliton = soliton or CalabiSoliton.solve()
        self.polytope = blowup_trapezoid()
        self.base_point = np.zeros(2)
        # t / A(t) has simple poles at the ends of [ALPHA1, ALPHA2], residue t / A'(t)
        self._poles = tuple((end, end / profile_A(self.soliton, end)[1]) for end in (ALPHA1, ALPHA2))
        self._f_rule = tuple(np.array(t) for t in gauss_legendre(48))

    def _h_derivatives(self, points):
        mu = from_algebraic_coordinates(points)
        return (self._gradient(mu), *_calabi_entry_partials(self.soliton, mu))

    def _gradient(self, mu: np.ndarray) -> np.ndarray:
        """Closed-form gradient on an (m, 2) batch of points of tau.

        Integrating the rows of G in closed form gives
        grad_2 = (1/2) log(y / (1 - y)) + c2 and
        grad_1 = F(mu1) + (1/2) log(1 - y) + c1 with F'(t) = t / A(t).
        The poles of t / A at alpha1 and alpha2 integrate to logarithms;
        the smooth rest of F, from the base point to every mu1, is one
        array of 48-node Gauss-Legendre sums, accurate up to the boundary.
        Constants are fixed by the gauge grad(base) = 0.
        """
        base = from_algebraic_coordinates(self.base_point)
        t0, y0 = base[0], base[1] / base[0]
        t, y = mu[:, 0], mu[:, 1] / mu[:, 0]
        mid, half = 0.5 * (t0 + t), 0.5 * (t - t0)
        nodes, weights = self._f_rule
        ts = mid[:, None] + half[:, None] * nodes
        smooth = ts / profile_A(self.soliton, ts)[0] - sum(c / (ts - end) for end, c in self._poles)
        f = half * (smooth @ weights) + sum(c * np.log((t - end) / (t0 - end)) for end, c in self._poles)
        return np.stack([
            f + 0.5 * np.log(1.0 - y) - 0.5 * np.log(1.0 - y0),
            0.5 * np.log(y / (1.0 - y)) - 0.5 * np.log(y0 / (1.0 - y0)),
        ], axis=1)


def gradient_by_line_integral(potential: SymplecticPotential, x, x0) -> np.ndarray:
    """Recover grad phi(x) - grad phi(x0) from the Hessian field G alone.

    Integrates G(x0 + s (x - x0)) (x - x0) over s in [0, 1] with composite
    16-node Gauss-Legendre panels, doubling the panel count (at most ten
    times) until the result is stable to 1e-12 relative.  Each level reads
    G from one stack on all of its nodes and never the stack's gradient, so
    the result is an independent check of closed-form gradients.  Both ends
    must be interior; by convexity the whole segment then is.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    potential.require_interior(np.array([x0, x]))
    direction = x - x0
    if np.allclose(direction, 0.0):
        return np.zeros_like(x)
    nodes, weights = (np.array(t) for t in gauss_legendre(16))

    def composite(panels: int) -> np.ndarray:
        s = (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)).ravel() / panels
        g = potential.stack(x0 + s[:, None] * direction).G
        return (np.tile(weights, panels) * (0.5 / panels)) @ (g @ direction)

    previous = composite(1)
    for level in range(1, 11):
        current = composite(2**level)
        if np.max(np.abs(current - previous)) <= 1e-12 * (1.0 + np.max(np.abs(current))):
            return current
        previous = current
    return previous


def guillemin(p: DelzantPolytope) -> GuilleminPotential:
    """The canonical potential of a Delzant polytope."""
    return GuilleminPotential(p)

