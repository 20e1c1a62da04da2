"""Symplectic potentials and their derivative stacks.

A potential is evaluated only through its :class:`Stack`, a named tuple of
arrays: on an ``(m, n)`` batch of interior points it holds the gradient,
the Hessian ``G``, its inverse ``H``, ``dG``, ``dH`` and ``d2H`` with a
leading batch axis.  :meth:`SymplecticPotential.stack` runs one interior
check and one batched 2x2 inverse per batch, so each formula exists once
and a single point is a batch of one.  Two families implement it:

* potentials given on the convex-function side (Guillemin, smooth
  perturbations, quadratic models) supply the gradient, ``G`` and its
  derivatives analytically and derive the ``H`` stack by matrix calculus;
  they also expose the value ``phi`` at one point, which only the
  finite-difference oracle reads;
* metrics given on the inverse side (the one-point blow-up family in
  :mod:`toric_soliton.calabi`) supply the gradient, ``H`` and its
  derivatives analytically and derive the ``G`` stack.

:func:`gradient_by_line_integral` recovers a gradient from ``G`` alone, on
the Gauss-Legendre rule of :mod:`toric_soliton.quadrature`; it is kept as
the independent oracle for closed-form gradients.

Index conventions, after the batch axis: ``dG[i, j, k] = d G_ij / d x_k``
and ``d2H[i, j, k, l] = d^2 H_ij / d x_k d x_l``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, NamedTuple

import numpy as np

from .errors import BoundaryEvaluationError, LossOfConvexityError, MalformedInputError
from .polytope import DelzantPolytope
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
        """Facet values (m, d) of a batch of points, all of which must be interior."""
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
        if points.ndim != 2 or points.shape[1] != self.polytope.dim:
            raise MalformedInputError(f"points have shape {points.shape}, expected (m, {self.polytope.dim})")
        return self._stack(points, self.require_interior(points))

    @abstractmethod
    def _stack(self, points: np.ndarray, facet_values: np.ndarray) -> Stack: ...


class PhiSidePotential(SymplecticPotential):
    """Stack driven by analytic grad, G, dG, d2G; the H side is derived."""

    @abstractmethod
    def value(self, x) -> float:
        """phi at one interior point."""

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.polytope.dim,):
            raise MalformedInputError(f"point has shape {x.shape}, expected ({self.polytope.dim},)")
        return x

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

    def value(self, x) -> float:
        ell = self.require_interior(self._point(x)[None])[0]
        return 0.5 * float(np.sum(ell * np.log(ell)))

    def _phi_derivatives(self, points, ell):
        nu = self._normals
        grad = 0.5 * ((1.0 + np.log(ell)) @ nu)
        g = 0.5 * np.einsum("ri,rj,mr->mij", nu, nu, 1.0 / ell)
        dg = -0.5 * np.einsum("ri,rj,rk,mr->mijk", nu, nu, nu, ell**-2)
        d2g = np.einsum("ri,rj,rk,rl,mr->mijkl", nu, nu, nu, nu, ell**-3)
        return grad, g, dg, d2g


def _zeros_third(points: np.ndarray) -> np.ndarray:
    m, n = points.shape
    return np.zeros((m, n, n, n))


def _zeros_fourth(points: np.ndarray) -> np.ndarray:
    m, n = points.shape
    return np.zeros((m, n, n, n, n))


class SmoothField(NamedTuple):
    """Smooth scalar field with derivatives, restriction of a function smooth near P.

    Each callable takes an (m, n) batch of points and returns the value,
    gradient, Hessian, third and fourth derivatives with a leading batch
    axis, shapes (m,) ... (m, n, n, n, n).
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray] = _zeros_third
    fourth: Callable[[np.ndarray], np.ndarray] = _zeros_fourth

    @staticmethod
    def quadratic(q: np.ndarray) -> "SmoothField":
        """h(x) = (1/2) x^T q x."""
        q = 0.5 * (np.asarray(q, dtype=float) + np.asarray(q, dtype=float).T)
        return SmoothField(
            value=lambda pts: 0.5 * np.einsum("mi,ij,mj->m", pts, q, pts),
            gradient=lambda pts: pts @ q,
            hessian=lambda pts: np.broadcast_to(q, (len(pts),) + q.shape).copy(),
        )

    @staticmethod
    def affine(c: np.ndarray, constant: float = 0.0) -> "SmoothField":
        c = np.asarray(c, dtype=float)
        n = len(c)
        return SmoothField(
            value=lambda pts: pts @ c + constant,
            gradient=lambda pts: np.broadcast_to(c, (len(pts), n)).copy(),
            hessian=lambda pts: np.zeros((len(pts), n, n)),
        )


class PerturbedPotential(PhiSidePotential):
    """Base potential plus a smooth field; the stacks add entrywise."""

    def __init__(self, base: PhiSidePotential, h: SmoothField, convexity_samples: int = 9):
        self.polytope = base.polytope
        self.base = base
        self.h = h
        samples = self.polytope.interior_grid(convexity_samples, margin_fraction=0.05)
        _, g, _, _ = self._phi_derivatives(samples, self.require_interior(samples))
        lowest = np.linalg.eigvalsh(g)[:, 0]
        if np.any(lowest <= 0.0):
            bad = samples[int(np.argmax(lowest <= 0.0))]
            raise LossOfConvexityError(f"perturbed Hessian not positive definite at {tuple(bad)}")

    def value(self, x) -> float:
        x = self._point(x)
        return self.base.value(x) + float(self.h.value(x[None])[0])

    def _phi_derivatives(self, points, facet_values):
        base = self.base._phi_derivatives(points, facet_values)
        field = (self.h.gradient, self.h.hessian, self.h.third, self.h.fourth)
        return tuple(b + np.asarray(f(points), dtype=float) for b, f in zip(base, field))


class QuadraticPotential(PhiSidePotential):
    """phi = (1/2) x^T M x; the flat model when M is the identity."""

    def __init__(self, polytope: DelzantPolytope, matrix: np.ndarray | None = None):
        self.polytope = polytope
        n = polytope.dim
        m = np.eye(n) if matrix is None else np.asarray(matrix, dtype=float)
        if np.linalg.eigvalsh(0.5 * (m + m.T))[0] <= 0.0:
            raise LossOfConvexityError("quadratic potential requires a positive definite matrix")
        self._matrix = 0.5 * (m + m.T)

    def value(self, x) -> float:
        x = self._point(x)
        self.require_interior(x[None])
        return 0.5 * float(x @ self._matrix @ x)

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


def gradient_by_line_integral(
    potential: SymplecticPotential,
    x,
    x0,
    rtol: float = 1e-12,
    max_doublings: int = 10,
) -> np.ndarray:
    """Recover grad phi(x) - grad phi(x0) from the Hessian field G alone.

    Integrates G(x0 + s (x - x0)) (x - x0) over s in [0, 1] with composite
    16-node Gauss-Legendre panels, doubling the panel count until the
    result is stable to ``rtol``.  Each level reads G from one stack on all
    of its nodes and never the stack's gradient, so the result is an
    independent check of closed-form gradients.  Both ends must be
    interior; by convexity the whole segment then is.
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
    for level in range(1, max_doublings + 1):
        current = composite(2**level)
        if np.max(np.abs(current - previous)) <= rtol * (1.0 + np.max(np.abs(current))):
            return current
        previous = current
    return previous


def guillemin(p: DelzantPolytope) -> GuilleminPotential:
    """The canonical potential of a Delzant polytope."""
    return GuilleminPotential(p)


def perturbed(base: PhiSidePotential, h: SmoothField) -> PerturbedPotential:
    """Base potential plus a smooth field, with a strict-convexity check."""
    return PerturbedPotential(base, h)
