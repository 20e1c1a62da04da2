"""Independent oracles that only the tests read.

:class:`QuadraticPotential` is the flat model and its linear images, a
potential whose stack is known in closed form; :func:`brute_force_roots`
scans an integer box against the definition of a Demazure root, to
confirm that the exact line enumeration of :mod:`toric_soliton.roots`
misses nothing.
"""

from __future__ import annotations

import itertools
import math

from toric_soliton.errors import LossOfConvexityError
from toric_soliton.polytope import DIM, DelzantPolytope
from toric_soliton.potentials import PhiSidePotential


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
