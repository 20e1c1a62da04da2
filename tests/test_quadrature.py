"""The polygon rule: its tiling of the polygon, its node set and its exactness."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_soliton.errors import MalformedInputError, UnsupportedDimensionError
from toric_soliton.polytope import parse_polytope
from toric_soliton.quadrature import cyclic_vertices, gauss_legendre, line_rule, polygon_rule
from conftest import integrate
from test_futaki import FIVE_SURFACES, lattice_image

DATA = Path(__file__).parent / "data"


def reference_monomial_integral(i: int, j: int) -> float:
    """Exact integral of xi^i eta^j over the reference simplex."""
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


def exact_area(p) -> Fraction:
    """Shoelace area of the exact vertices, taken counterclockwise around their centroid."""
    ring = [vertex for vertex, _ in p.vertex_data]
    cx, cy = (sum(axis) / len(ring) for axis in zip(*ring))
    ring.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    return sum(x * yn - xn * y for (x, y), (xn, yn) in zip(ring, ring[1:] + ring[:1])) / 2


def test_triangulation_areas(cp2, blowup, square):
    # one fan triangle per edge, order + 3 rays of order + 3 nodes each, and the triangles'
    # areas add up to the polygon's
    for p, (count, area) in ((cp2, (3, 4.5)), (blowup, (4, 4.0)), (square, (4, 4.0))):
        points, weights, rule_area = polygon_rule(p, 6)
        assert len(points) == len(weights) == count * 9 * 9
        assert rule_area == pytest.approx(area, abs=1e-12)


def test_polygon_rule_weights_positive_and_sum_to_area():
    # the shipped Fano polygons and the lattice image of each Fano surface
    shipped = [parse_polytope((DATA / f"{name}.json").read_text()) for name in ("cp2", "blowup", "square", "bl3")]
    for p in shipped + [lattice_image(normals) for normals, *_ in FIVE_SURFACES.values()]:
        facets = len(p.facets)
        area = float(exact_area(p))
        assert polygon_rule(p, 4)[2] == pytest.approx(area, rel=1e-12, abs=1e-12)
        for order in (1, 4, 10, 16):
            points, weights = map(np.array, polygon_rule(p, order)[:2])
            assert points.shape == (facets * (order + 3) ** 2, 2)
            assert weights.shape == (facets * (order + 3) ** 2,)
            assert np.all(weights > 0)
            assert weights.sum() == pytest.approx(area, rel=1e-12, abs=1e-12)
            assert np.all(np.min(p.facet_values_many(points), axis=1) > 0)


@pytest.mark.parametrize("order", [3, 6, 10])
def test_rule_exact_on_reference_monomials(order):
    # the standard simplex {x >= 0, y >= 0, x + y <= 1}, tiled by three fan triangles
    simplex = parse_polytope(json.dumps({"dim": 2, "facets": [
        {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0}, {"normal": [-1, -1], "offset": 1},
    ]}))
    points, weights = map(np.array, polygon_rule(simplex, order)[:2])
    x, y = points[:, 0], points[:, 1]
    for i in range(order + 1):
        for j in range(order + 1 - i):
            approx = float(weights @ (x**i * y**j))
            assert approx == pytest.approx(reference_monomial_integral(i, j), abs=1e-14)


def test_integrate_constant_is_area(cp2, blowup):
    for order in (1, 2, 6, 12):
        assert integrate(cp2, lambda pts: np.ones(len(pts)), order) == pytest.approx(4.5, abs=1e-12)
    assert integrate(blowup, lambda pts: np.ones(len(pts)), 10) == pytest.approx(4.0, abs=1e-12)


def test_integrate_coordinate_moments(cp2, blowup):
    # centroid of the simplex is the origin
    assert integrate(cp2, lambda pts: [x for x, _ in pts], 10) == pytest.approx(0.0, abs=1e-12)
    # exact trapezoid moments from the polygon moment formulas
    assert integrate(blowup, lambda pts: [x for x, _ in pts], 10) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert integrate(blowup, lambda pts: [y for _, y in pts], 10) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_calls_its_integrand_once_on_every_node(blowup):
    calls = []

    def f(pts):
        calls.append(pts)
        return np.ones(len(pts))

    assert integrate(blowup, f, 6) == pytest.approx(4.0, abs=1e-12)
    assert len(calls) == 1
    assert calls[0] == polygon_rule(blowup, 6)[0]
    assert np.shape(calls[0]) == (4 * 9**2, 2)


def test_exponential_weight_at_zero_is_area(blowup):
    a = np.zeros(2)
    val = integrate(blowup, lambda pts: np.exp(-2.0 * np.array(pts) @ a), 10)
    assert val == pytest.approx(4.0, abs=1e-12)


def test_refinement_convergence(blowup, cp2):
    a = np.array([0.7, -0.4])
    for p in (blowup, cp2):
        coarse = integrate(p, lambda pts: np.exp(-2.0 * np.array(pts) @ a), 6)
        fine = integrate(p, lambda pts: np.exp(-2.0 * np.array(pts) @ a), 12)
        assert abs(fine - coarse) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(
    coeffs=st.lists(st.floats(-2, 2, allow_nan=False), min_size=6, max_size=6),
)
def test_linearity(cp2, coeffs):
    p = cp2
    c = np.array(coeffs)

    def f(pts):
        pts = np.array(pts)
        return c[0] + c[1] * pts[:, 0] + c[2] * pts[:, 1] + c[3] * pts[:, 0] ** 2

    def g(pts):
        pts = np.array(pts)
        return c[4] * np.sin(pts[:, 0]) + c[5] * pts[:, 1] ** 3

    lhs = integrate(p, lambda pts: f(pts) + g(pts), 10)
    rhs = integrate(p, f, 10) + integrate(p, g, 10)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rejects_other_dimensions():
    import json

    from toric_soliton.polytope import parse_polytope

    with pytest.raises(UnsupportedDimensionError):
        parse_polytope(json.dumps({
            "dim": 1,
            "facets": [{"normal": [1], "offset": 1}, {"normal": [-1], "offset": 1}],
        }))


def test_polynomial_exactness_on_polygon(blowup):
    # degree-4 monomial integrated exactly at order >= 4: compare order 4 vs 14
    def f(pts):
        pts = np.array(pts)
        return pts[:, 0] ** 2 * pts[:, 1] ** 2

    assert integrate(blowup, f, 4) == pytest.approx(integrate(blowup, f, 14), abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda p: integrate(p, lambda points: [1.0] * len(points), 0),
    lambda p: line_rule(0),
    lambda p: gauss_legendre(0),
], ids=["integrate", "line-rule", "gauss-legendre"])
def test_order_below_one_is_malformed_input(cp2, call):
    # a package error, caught by ``ToricSolitonError`` like every other rejection
    with pytest.raises(MalformedInputError, match="at least 1, got 0"):
        call(cp2)


def test_gauss_legendre_matches_numpy():
    for m in range(1, 61):
        nodes, weights = gauss_legendre(m)
        expected_nodes, expected_weights = np.polynomial.legendre.leggauss(m)
        assert np.allclose(nodes, expected_nodes, rtol=0.0, atol=4e-16), m
        assert np.allclose(weights, expected_weights, rtol=0.0, atol=1e-14), m


def test_triangulation_is_plain_floats(blowup):
    # verify's mean curvature runs on this node set without numpy
    points, weights, area = polygon_rule(blowup, 6)
    assert all(type(c) is float for point in points for c in point)
    assert all(type(w) is float for w in weights)
    assert type(area) is float


def numpy_polygon_rule(p, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle: the collapsed tensor rule on every fan triangle with numpy broadcasting.

    The rays d = (1 - t) (v_1 - c) + t (v_2 - c) of each edge (v_1, v_2),
    triangle by triangle, carry the nodes c + u d in ray order.
    """
    u, w = (np.array(t) for t in line_rule(order))
    ring = np.array(cyclic_vertices(p))
    center = ring.mean(axis=0)
    e1, e2 = ring - center, np.roll(ring, -1, axis=0) - center
    jac = np.abs(e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1])
    rays = (e1[:, None, :] * (1.0 - u)[:, None] + e2[:, None, :] * u[:, None]).reshape(-1, 2)
    points = center + rays[:, None, :] * u[:, None]
    return points.reshape(-1, 2), np.outer(np.outer(jac, w).ravel(), w * u).ravel()


@pytest.mark.parametrize("name", ["cp2", "blowup", "square", "bl3", "non_delzant", "not_fano"])
def test_polygon_rule_matches_numpy_build(name):
    p = parse_polytope((DATA / f"{name}.json").read_text())
    for order in (1, 4, 10, 16, 22):
        points, weights, _ = polygon_rule(p, order)
        expected_points, expected_weights = numpy_polygon_rule(p, order)
        assert np.max(np.abs(np.array(points) - expected_points)) <= 1e-15
        assert np.max(np.abs(np.array(weights) - expected_weights)) <= 1e-15
