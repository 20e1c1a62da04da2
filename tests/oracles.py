"""Independent oracles that only the tests read.

:class:`QuadraticPotential` is the flat model and its linear images, a
potential whose stack is known in closed form; :func:`brute_force_roots`
scans an integer box against the definition of a Demazure root, to
confirm that the exact line enumeration of :mod:`toric_soliton.roots`
misses nothing.  :func:`gradient_by_line_integral` recovers a gradient
from ``G`` alone, on the Gauss-Legendre rule of
:mod:`toric_soliton.quadrature`, against closed-form gradients, and
:func:`g_matrix` is the closed-form inverse of the Calabi metric's ``H``,
against the stack's ``G``.
"""

from __future__ import annotations

import itertools
import math

from toric_soliton.calabi import ALPHA1, ALPHA2, BETA1, BETA2, CalabiSoliton, profile_A, profile_B
from toric_soliton.errors import BoundaryEvaluationError, LossOfConvexityError
from toric_soliton.polytope import DIM, DelzantPolytope
from toric_soliton.potentials import PhiSidePotential, SymplecticPotential, as_pairs
from toric_soliton.quadrature import gauss_legendre


class QuadraticPotential(PhiSidePotential):
    """phi = (1/2) x^T M x; the flat model when M is the identity."""

    def __init__(self, polytope: DelzantPolytope, matrix=None):
        self.polytope = polytope
        (m11, m12), (m21, m22) = ((1.0, 0.0), (0.0, 1.0)) if matrix is None else matrix
        sym = (float(m11), 0.5 * (float(m12) + float(m21)), float(m22))
        # a symmetric 2x2 matrix is positive definite iff its trace and determinant are positive
        if not (sym[0] + sym[2] > 0.0 and sym[0] * sym[2] - sym[1] * sym[1] > 0.0):
            raise LossOfConvexityError("quadratic potential requires a positive definite matrix")
        self._matrix = sym

    def _phi_columns(self, pairs, facet_values, gradient):
        m11, m12, m22 = self._matrix
        m = len(pairs)
        grad = ()
        if gradient:
            grad = ([m11 * x + m12 * y for x, y in pairs], [m12 * x + m22 * y for x, y in pairs])
        zero = [0.0] * m
        return grad, ([m11] * m, [m12] * m, [m22] * m), (zero,) * 6, (zero,) * 9


def brute_force_roots(p: DelzantPolytope) -> list[tuple[int, ...]]:
    """Scan the integer box [-B, B]^2 against the definition of a root.

    B = 1 + the ceiling of the largest exact vertex coordinate magnitude.
    """
    radius = 1 + max(math.ceil(abs(c)) for pt, _ in p.vertex_data for c in pt)
    normals = [f.normal for f in p.facets]
    found = []
    for alpha in itertools.product(range(-radius, radius + 1), repeat=DIM):
        pairings = [sum(a * c for a, c in zip(alpha, nu)) for nu in normals]
        ones = [i for i, v in enumerate(pairings) if v == 1]
        if len(ones) != 1:
            continue
        if all(v <= 0 for i, v in enumerate(pairings) if i != ones[0]):
            found.append(alpha)
    return sorted(found)


def gradient_by_line_integral(potential: SymplecticPotential, x, x0) -> tuple[float, float]:
    """Recover grad phi(x) - grad phi(x0) from the Hessian field G alone.

    Integrates G(x0 + s (x - x0)) (x - x0) over s in [0, 1] with composite
    16-node Gauss-Legendre panels, doubling the panel count (at most ten
    times) until the result is stable to 1e-12 relative.  Each level reads
    G from one stack on all of its nodes, built without the gradient, so
    the result is an independent check of closed-form gradients.  Both
    ends must be interior; by convexity the whole segment then is.
    """
    (x1, x2), (a1, a2) = as_pairs([x, x0])
    potential.require_interior([(a1, a2), (x1, x2)])
    d1, d2 = x1 - a1, x2 - a2
    if abs(d1) <= 1e-8 and abs(d2) <= 1e-8:
        return 0.0, 0.0
    nodes, weights = gauss_legendre(16)

    def composite(panels: int) -> tuple[float, float]:
        s = [(p + 0.5 * (node + 1.0)) / panels for p in range(panels) for node in nodes]
        g11, g12, g22 = potential.stack([(a1 + si * d1, a2 + si * d2) for si in s], gradient=False).G
        scale = 0.5 / panels
        w = [wi * scale for wi in weights] * panels
        return (sum([wi * (p * d1 + q * d2) for wi, p, q in zip(w, g11, g12)]),
                sum([wi * (q * d1 + r * d2) for wi, q, r in zip(w, g12, g22)]))

    previous = composite(1)
    for level in range(1, 11):
        current = composite(2**level)
        change = max(abs(current[0] - previous[0]), abs(current[1] - previous[1]))
        if change <= 1e-12 * (1.0 + max(abs(current[0]), abs(current[1]))):
            return current
        previous = current
    return previous


def g_matrix(s: CalabiSoliton, mu) -> tuple[tuple[float, float], tuple[float, float]]:
    """Closed-form inverse of H at an interior point of tau, the oracle for the stack's G."""
    x = float(mu[0])
    if not (ALPHA1 < x < ALPHA2):
        raise BoundaryEvaluationError(f"mu1 = {x} outside ({ALPHA1}, {ALPHA2})")
    y = float(mu[1]) / x
    if not (BETA1 < y < BETA2):
        raise BoundaryEvaluationError(f"mu2/mu1 = {y} outside ({BETA1}, {BETA2})")
    a_val, _, _ = profile_A(s, x)
    b_val, _, _ = profile_B(s, y)
    return (
        (x / a_val + y * y / (x * b_val), -y / (x * b_val)),
        (-y / (x * b_val), 1.0 / (x * b_val)),
    )
