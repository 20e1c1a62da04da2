"""High-order quadrature over 2-D Delzant polytopes.

The polygon is fan-triangulated from its centroid and each triangle is
integrated with a collapsed-square Gauss rule of prescribed polynomial
exactness.  Weights are positive, node generation is deterministic, and
the nodes of the whole polygon form one set in fixed triangle order, so an
integral is one dot product.

Everything is plain Python on floats: the Gauss-Legendre nodes, the
triangulation, the node set of :func:`polygon_rule` and the weighted sum
of :func:`integrate`, so neither the Futaki solve
(:mod:`toric_soliton.futaki`) nor ``verify`` needs numpy here.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import MalformedInputError, UnsupportedDimensionError
from .polytope import DelzantPolytope

#: relative tolerance for the triangulation area identity
AREA_TOL = 1e-12

Point = tuple[float, float]


class Triangulation(NamedTuple):
    """Fan triangulation of a convex polygon; tiles with positive areas.

    Each simplex is ``(center, v_i, v_{i+1})`` with the vertices in
    counterclockwise order.
    """

    simplices: tuple[tuple[Point, Point, Point], ...]

    @property
    def total_area(self) -> float:
        return float(sum(_triangle_area(t) for t in self.simplices))


def _triangle_area(tri) -> float:
    a, b, c = tri
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


def _centroid(points) -> Point:
    return (sum(x for x, _ in points) / len(points), sum(y for _, y in points) / len(points))


def polygon_area(ring) -> float:
    """Shoelace area of a polygon given cyclically ordered vertices."""
    nxt = ring[1:] + ring[:1]
    return 0.5 * abs(sum(x * yn for (x, _), (_, yn) in zip(ring, nxt))
                     - sum(xn * y for (_, y), (xn, _) in zip(ring, nxt)))


def cyclic_vertices(p: DelzantPolytope) -> list[Point]:
    """Polygon vertices sorted counterclockwise around their centroid."""
    verts = p.vertex_points
    cx, cy = _centroid(verts)
    return sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))


@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The m-point Gauss-Legendre rule on [-1, 1]: ascending nodes and their weights.

    Each positive node is found by Newton's method on the three-term
    recurrence ``k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}``, started
    from Tricomi's estimate; the rule is mirrored about zero and the
    weights ``2 / ((1 - x^2) P_m'(x)^2)`` are scaled to sum to 2.
    """
    if m < 1:
        raise MalformedInputError(f"number of Gauss points must be at least 1, got {m}")

    def legendre(x: float) -> tuple[float, float]:
        previous, current = 1.0, x
        for k in range(2, m + 1):
            previous, current = current, ((2 * k - 1) * x * current - (k - 1) * previous) / k
        return current, m * (x * current - previous) / (x * x - 1.0)

    half = []
    for i in range(1, m // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(100):
            value, slope = legendre(x)
            dx = value / slope
            x -= dx
            if abs(dx) <= 1e-15:
                break
        value, slope = legendre(x)
        x -= value / slope
        half.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    middle = []
    if m % 2:
        slope = legendre(0.0)[1]
        middle = [(0.0, 2.0 / (slope * slope))]
    pairs = [(-x, w) for x, w in half] + middle + [(x, w) for x, w in reversed(half)]
    scale = 2.0 / sum(w for _, w in pairs)
    return tuple(x for x, _ in pairs), tuple(w * scale for _, w in pairs)


@lru_cache(maxsize=None)
def line_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes and weights on [0, 1] behind the order-``order`` simplex rule.

    ``order + 3`` points are used: a monomial xi^i eta^j with i + j <=
    order pulls back along the Duffy map (xi, eta) = (u(1-v), uv) to
    u^(i+j+1) times a degree-(i+j) polynomial in v, so ceil((order+2)/2)
    points per axis give the stated polynomial exactness; the extra points
    resolve unit-scale exponential weights to ~1e-12 already at order 6,
    so the solver's order-escalation loop terminates early.
    """
    if order < 1:
        raise MalformedInputError(f"quadrature order must be at least 1, got {order}")
    nodes, weights = gauss_legendre(order + 3)
    return tuple(0.5 * (x + 1.0) for x in nodes), tuple(0.5 * w for w in weights)


def triangulate(p: DelzantPolytope) -> Triangulation:
    """Fan triangulation from the vertex centroid over boundary edges."""
    ring = cyclic_vertices(p)
    center = _centroid(ring)
    tris = []
    for i in range(len(ring)):
        tri = (center, ring[i], ring[(i + 1) % len(ring)])
        if _triangle_area(tri) <= 0.0:
            raise UnsupportedDimensionError("degenerate triangle in fan triangulation")
        tris.append(tri)
    tiling = Triangulation(simplices=tuple(tris))
    reference = polygon_area(ring)
    if abs(tiling.total_area - reference) > AREA_TOL * max(1.0, reference):
        raise AssertionError("triangulation does not tile the polygon")
    return tiling


def polygon_rule(p: DelzantPolytope, order: int) -> tuple[list[Point], list[float]]:
    """Every node and weight of the order-``order`` rule on the polygon.

    The node (u_i, v_j) of the tensor rule :func:`line_rule` maps to the
    reference simplex at (xi, eta) = (u_i (1 - v_j), u_i v_j) with weight
    w_i w_j u_i, and on to each fan triangle (c, v_1, v_2) of
    :func:`triangulate` at (1 - xi - eta) c + xi v_1 + eta v_2 with that
    weight times twice the triangle's area.  Returns the N = d (order + 3)^2
    nodes as (x1, x2) pairs and their weights, for d facets, triangle by
    triangle; the weights are positive and sum to the polygon's area.
    """
    u, w = line_rule(order)
    reference = [(ui * (1.0 - uj), ui * uj, wi * ui * wj) for ui, wi in zip(u, w) for uj, wj in zip(u, w)]
    points, weights = [], []
    for tri in triangulate(p).simplices:
        (cx, cy), (ax, ay), (bx, by) = tri
        jac = 2.0 * _triangle_area(tri)
        for xi, eta, weight in reference:
            rest = 1.0 - xi - eta
            points.append((rest * cx + xi * ax + eta * bx, rest * cy + xi * ay + eta * by))
            weights.append(jac * weight)
    return points, weights


def integrate(p: DelzantPolytope, f: Callable, order: int = 10) -> float:
    """Integrate a smooth scalar field over the polytope.

    Exact for polynomials of total degree up to ``order`` on each fan
    triangle.  ``f`` is called once, with the list of every node of
    :func:`polygon_rule`, and returns the N values there.
    """
    points, weights = polygon_rule(p, order)
    return sum([w * v for w, v in zip(weights, f(points))])
