"""High-order quadrature over 2-D Delzant polytopes.

The polygon is fan-triangulated from its centroid and each triangle is
integrated with a collapsed-square Gauss rule of prescribed polynomial
exactness.  Weights are positive, node generation is deterministic, and
contributions are summed in fixed triangle order for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import UnsupportedDimensionError
from .polytope import DelzantPolytope

#: relative tolerance for the triangulation area identity
AREA_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the reference simplex {b0 + b1 + b2 = 1, b >= 0}.

    ``order`` is the total polynomial degree integrated exactly; weights
    are positive and sum to the reference-simplex area 1/2.
    """

    order: int
    barycentric: np.ndarray  # (m, 3)
    weights: np.ndarray  # (m,)


@dataclass(frozen=True)
class Triangulation:
    """Fan triangulation of a convex polygon; tiles with positive areas."""

    simplices: tuple[np.ndarray, ...]  # each (3, 2)
    parent: DelzantPolytope

    @property
    def total_area(self) -> float:
        return float(sum(_triangle_area(t) for t in self.simplices))


def _triangle_area(tri: np.ndarray) -> float:
    a, b, c = tri
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a polygon given cyclically ordered vertices."""
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def cyclic_vertices(p: DelzantPolytope) -> np.ndarray:
    """Polygon vertices sorted counterclockwise around their centroid."""
    verts = p.vertices
    center = verts.mean(axis=0)
    angles = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
    return verts[np.argsort(angles)]


@lru_cache(maxsize=None)
def reference_rule(order: int) -> QuadratureRule:
    """Collapsed Gauss-Legendre rule on the reference simplex.

    A monomial xi^i eta^j with i + j <= order pulls back along the Duffy
    map (xi, eta) = (u(1-v), uv) to u^(i+j+1) times a degree-(i+j)
    polynomial in v, so ceil((order+2)/2) Gauss points per axis give the
    stated polynomial exactness.  ``order + 3`` points are used instead so
    that unit-scale exponential weights are already resolved to ~1e-12 at
    order 6 (the solver's order-escalation loop then terminates early).
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    m = order + 3
    nodes, weights = np.polynomial.legendre.leggauss(m)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    uu, vv = np.meshgrid(u, u, indexing="ij")
    wu, wv = np.meshgrid(w, w, indexing="ij")
    xi = (uu * (1.0 - vv)).ravel()
    eta = (uu * vv).ravel()
    wq = (wu * wv * uu).ravel()
    bary = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    return QuadratureRule(order=order, barycentric=bary, weights=wq)


def triangulate(p: DelzantPolytope) -> Triangulation:
    """Fan triangulation from the vertex centroid over boundary edges."""
    ring = cyclic_vertices(p)
    center = ring.mean(axis=0)
    tris = []
    for i in range(len(ring)):
        tri = np.array([center, ring[i], ring[(i + 1) % len(ring)]])
        if _triangle_area(tri) <= 0.0:
            raise UnsupportedDimensionError("degenerate triangle in fan triangulation")
        tris.append(tri)
    tiling = Triangulation(simplices=tuple(tris), parent=p)
    reference = polygon_area(ring)
    if abs(tiling.total_area - reference) > AREA_TOL * max(1.0, reference):
        raise AssertionError("triangulation does not tile the polygon")
    return tiling


def integrate(p: DelzantPolytope, f: Callable, order: int = 10) -> float:
    """Integrate a smooth scalar field over the polytope.

    Exact for polynomials of total degree up to ``order`` on each triangle.
    ``f`` is called once per triangle with the (m, 2) array of its nodes
    and returns m values, or one value that holds at every node.
    """
    tiling = triangulate(p)
    rule = reference_rule(order)
    total = 0.0
    for tri in tiling.simplices:
        pts = rule.barycentric @ tri
        jac = 2.0 * _triangle_area(tri)
        values = np.broadcast_to(np.asarray(f(pts), dtype=float), (len(pts),))
        total += jac * float(np.dot(rule.weights, values))
    return total


def integrate_vector(p: DelzantPolytope, f: Callable, size: int, order: int = 10) -> np.ndarray:
    """Integrate a vector-valued field componentwise (f maps (m,2) -> (m,size))."""
    tiling = triangulate(p)
    rule = reference_rule(order)
    total = np.zeros(size)
    for tri in tiling.simplices:
        pts = rule.barycentric @ tri
        jac = 2.0 * _triangle_area(tri)
        vals = np.asarray(f(pts), dtype=float).reshape(len(pts), size)
        total += jac * (rule.weights @ vals)
    return total


def reference_monomial_integral(i: int, j: int) -> float:
    """Exact integral of xi^i eta^j over the reference simplex."""
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
