"""High-order quadrature over 2-D Delzant polytopes.

One rule integrates every polygon: :func:`polygon_rule`.  The polygon is
fan-triangulated from its vertex centroid c, and each fan triangle
(c, v_1, v_2) carries a collapsed-square Gauss rule of prescribed
polynomial exactness: angular nodes t_j on the edge give the rays
d_j = (1 - t_j) (v_1 - c) + t_j (v_2 - c), and radial nodes u_i on
[0, 1] the points c + u_i d_j along each ray.  The rule is one node set
in fixed ray order with the polygon's area, so an integral is one dot
product.  Weights are positive and node generation is deterministic.

Only ``verify`` reads it, for the mean scalar curvature; the Futaki solve
(:mod:`toric_soliton.futaki`) integrates in closed form and executes no
quadrature.  Everything is plain Python on floats, the Gauss-Legendre
nodes and the node set, so ``verify`` needs no numpy here.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import MalformedInputError
from .polytope import DelzantPolytope

Point = tuple[float, float]


def _centroid(points) -> Point:
    return (sum(x for x, _ in points) / len(points), sum(y for _, y in points) / len(points))


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
    resolve unit-scale exponential weights to ~1e-12 already at order 6.
    """
    if order < 1:
        raise MalformedInputError(f"quadrature order must be at least 1, got {order}")
    nodes, weights = gauss_legendre(order + 3)
    return tuple(0.5 * (x + 1.0) for x in nodes), tuple(0.5 * w for w in weights)


def polygon_rule(p: DelzantPolytope, order: int) -> tuple[list[Point], list[float], float]:
    """The order-``order`` rule on the fan triangles of ``p`` from its vertex centroid c.

    Both axes use :func:`line_rule`.  Each fan triangle (c, v_1, v_2), its
    vertices counterclockwise, has the rays d_j = (1 - t_j) (v_1 - c) +
    t_j (v_2 - c) and the nodes c + u_i d_j along each ray outwards, with
    weights w_i u_i J w_j: the factor u_i is the Jacobian of the collapse
    and J twice the triangle's area.  Returns the N = d (order + 3)^2
    nodes as (x1, x2) pairs for d facets, ray by ray, their weights, and
    the polygon's area, the sum of J / 2.  The centroid of a convex
    polygon's vertices is strictly interior, so every triangle has
    positive area, the triangles tile the polygon and the weights are
    positive.
    """
    u, w = line_rule(order)
    radial = tuple(zip(u, tuple(wi * ui for wi, ui in zip(w, u))))
    ring = cyclic_vertices(p)
    cx, cy = _centroid(ring)
    points, weights, halves = [], [], []
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        e1x, e1y, e2x, e2y = ax - cx, ay - cy, bx - cx, by - cy
        jac = abs(e1x * e2y - e2x * e1y)
        halves.append(0.5 * jac)
        for t, wt in zip(u, w):
            dx, dy, jw = (1.0 - t) * e1x + t * e2x, (1.0 - t) * e1y + t * e2y, jac * wt
            points += [(cx + ui * dx, cy + ui * dy) for ui, _ in radial]
            weights += [wu * jw for _, wu in radial]
    return points, weights, sum(halves)
