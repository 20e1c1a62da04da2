"""High-order quadrature over 2-D Delzant polytopes.

One rule integrates every polygon: :func:`fan_rule`.  The polygon is
fan-triangulated from its vertex centroid c, and each fan triangle
(c, v_1, v_2) carries a collapsed-square Gauss rule of prescribed
polynomial exactness in ray form: angular nodes t_j on the edge give the
rays d_j = (1 - t_j) (v_1 - c) + t_j (v_2 - c), and radial nodes u_i on
[0, 1] the points c + u_i d_j along each ray.  The Futaki solve
(:mod:`toric_soliton.futaki`) sums along the rays; :func:`polygon_rule`
expands the same rule into one node set in fixed ray order, so an
integral is one dot product.  Weights are positive and node generation
is deterministic.

Everything is plain Python on floats: the Gauss-Legendre nodes, the fan
rule, the node set and the weighted sum of :func:`integrate`, so neither
the Futaki solve nor ``verify`` needs numpy here.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import MalformedInputError
from .polytope import DelzantPolytope

Point = tuple[float, float]


class FanRule(NamedTuple):
    """The order-``order`` collapsed Gauss rule on the fan triangles of a polygon, in ray form.

    ``rays`` holds one ``(dx, dy, J w_j)`` per angular node, triangle by
    triangle with the vertices counterclockwise: the ray d_j from
    ``center`` and its angular weight times J, twice the triangle's area.
    ``radial`` holds the pairs ``(u_i, w_i u_i)`` of the radial nodes, the
    factor u_i being the Jacobian of the collapse.  The node c + u_i d_j
    has weight w_i u_i J w_j, and ``area`` is the sum of J / 2.
    """

    center: Point
    rays: tuple[tuple[float, float, float], ...]
    radial: tuple[tuple[float, float], ...]
    area: float


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
    resolve unit-scale exponential weights to ~1e-12 already at order 6,
    so the solver's order-escalation loop terminates early.
    """
    if order < 1:
        raise MalformedInputError(f"quadrature order must be at least 1, got {order}")
    nodes, weights = gauss_legendre(order + 3)
    return tuple(0.5 * (x + 1.0) for x in nodes), tuple(0.5 * w for w in weights)


def fan_rule(p: DelzantPolytope, order: int) -> FanRule:
    """The order-``order`` rule on the fan triangles of ``p`` from its vertex centroid.

    Both axes use :func:`line_rule`.  The centroid of a convex polygon's
    vertices is strictly interior, so every fan triangle has positive area
    and the triangles tile the polygon.
    """
    u, w = line_rule(order)
    ring = cyclic_vertices(p)
    cx, cy = _centroid(ring)
    rays, halves = [], []
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        e1x, e1y, e2x, e2y = ax - cx, ay - cy, bx - cx, by - cy
        jac = abs(e1x * e2y - e2x * e1y)
        halves.append(0.5 * jac)
        rays.extend(((1.0 - t) * e1x + t * e2x, (1.0 - t) * e1y + t * e2y, jac * wt) for t, wt in zip(u, w))
    radial = tuple(zip(u, tuple(wi * ui for wi, ui in zip(w, u))))
    return FanRule(center=(cx, cy), rays=tuple(rays), radial=radial, area=sum(halves))


def polygon_rule(p: DelzantPolytope, order: int) -> tuple[list[Point], list[float]]:
    """Every node and weight of :func:`fan_rule` on the polygon.

    Returns the N = d (order + 3)^2 nodes c + u_i d_j as (x1, x2) pairs
    and their weights w_i u_i J w_j, for d facets, ray by ray and along
    each ray outwards; the weights are positive and sum to the polygon's
    area.
    """
    (cx, cy), rays, radial, _ = fan_rule(p, order)
    points = [(cx + ui * dx, cy + ui * dy) for dx, dy, _ in rays for ui, _ in radial]
    weights = [wu * jw for _, _, jw in rays for _, wu in radial]
    return points, weights


def integrate(p: DelzantPolytope, f: Callable, order: int = 10) -> float:
    """Integrate a smooth scalar field over the polytope.

    Exact for polynomials of total degree up to ``order`` on each fan
    triangle.  ``f`` is called once, with the list of every node of
    :func:`polygon_rule`, and returns the N values there.
    """
    points, weights = polygon_rule(p, order)
    return sum([w * v for w, v in zip(weights, f(points))])
