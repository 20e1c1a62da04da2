"""Weighted volumes and the soliton-vector solve."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from toric_soliton import futaki
from toric_soliton.calabi import soliton_equation, solve_a1
from toric_soliton.futaki import solve_soliton_vector, weighted_volume
from toric_soliton.polytope import normalize_algebraic, parse_polytope
from toric_soliton.quadrature import fan_rule, integrate
from toric_soliton.roots import automorphism_dimensions, brute_force_roots, enumerate_roots


def polygon_moments(vertices: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact polygon area and first moments from the shoelace formulas."""
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    mx = float(np.sum((x + xn) * cross)) / 6.0
    my = float(np.sum((y + yn) * cross)) / 6.0
    return area, np.array([mx, my])


def test_weighted_volume_cp2_at_zero(cp2):
    value, grad, hess = weighted_volume(fan_rule(cp2, 10), [0.0, 0.0])
    assert value == pytest.approx(4.5, abs=1e-12)
    assert np.allclose(grad, 0.0, atol=1e-12)
    hess = np.asarray(hess)
    assert np.allclose(hess, hess.T)


def test_weighted_volume_blowup_matches_polygon_moments(blowup):
    # cyclic vertex order for the shoelace oracle
    ring = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 2.0], [-1.0, 0.0]])
    area, moments = polygon_moments(ring)
    assert area == pytest.approx(4.0, abs=1e-14)
    value, grad, _ = weighted_volume(fan_rule(blowup, 10), [0.0, 0.0])
    assert value == pytest.approx(area, abs=1e-12)
    assert np.allclose(grad, 2.0 * moments, atol=1e-12)
    assert np.linalg.norm(grad) > 0.1  # the weighted centroid is away from the center


def test_weighted_volume_hessian_positive_definite(cp2, blowup):
    rng = np.random.default_rng(3)
    for p in (cp2, blowup):
        for _ in range(5):
            a = -rng.uniform(-0.8, 0.8, size=2)
            _, _, hess = weighted_volume(fan_rule(p, 10), a)
            assert np.linalg.eigvalsh(hess)[0] > 0


def test_cp2_soliton_vector_vanishes(cp2_soliton):
    assert np.linalg.norm(cp2_soliton.a) <= 1e-10
    assert cp2_soliton.lam == 1.0
    assert cp2_soliton.futaki_residual <= 1e-10


def test_square_soliton_vector_vanishes(square):
    soliton = solve_soliton_vector(square)
    assert np.linalg.norm(soliton.a) <= 1e-12


def test_blowup_soliton_matches_bisection_oracle(blowup_soliton):
    a = blowup_soliton.a
    assert abs(a[1]) <= 1e-8
    oracle_root = solve_a1()
    assert -0.5 < oracle_root < 0.0
    assert abs(a[0] - oracle_root) <= 1e-8
    assert abs(soliton_equation(a[0])) <= 1e-10


def test_solver_normalizes_first():
    # trapezoid translated by (2, 1): same soliton vector after normalization
    translated = parse_polytope(json.dumps({
        "dim": 2,
        "facets": [
            {"normal": [0, 1], "offset": 0},
            {"normal": [-1, 0], "offset": 3},
            {"normal": [1, 0], "offset": -1},
            {"normal": [1, -1], "offset": 0},
        ],
    }))
    soliton = solve_soliton_vector(translated)
    oracle_root = solve_a1()
    assert abs(soliton.a[0] - oracle_root) <= 1e-8


def test_equivariance_under_unimodular_map(blowup_soliton):
    # vertices map by u, normals contragrediently; the solution follows the normals
    u = np.array([[1, 1], [0, 1]])
    inv_t = np.round(np.linalg.inv(u).T).astype(int)
    base = [(0, 1), (-1, 0), (1, 0), (1, -1)]
    mapped = parse_polytope(json.dumps({
        "dim": 2,
        "facets": [
            {"normal": [int(c) for c in inv_t @ np.array(nu)], "offset": 1} for nu in base
        ],
    }))
    soliton = solve_soliton_vector(mapped)
    expected = inv_t @ blowup_soliton.a
    assert np.allclose(soliton.a, expected, atol=1e-9)


def test_root_pairings_nonnegative(blowup, blowup_soliton, cp2, cp2_soliton):
    for p, soliton in ((blowup, blowup_soliton), (cp2, cp2_soliton)):
        rootset = enumerate_roots(p)
        for root in rootset.roots:
            pairing = 2.0 * float(np.array(root.alpha) @ soliton.a)
            assert pairing >= -1e-10
        for root in rootset.semisimple:
            assert abs(float(np.array(root.alpha) @ soliton.a)) <= 1e-10


def test_futaki_residuals_reported(blowup_soliton):
    assert len(blowup_soliton.residuals) == 3
    assert blowup_soliton.residuals[0] == 0.0
    assert blowup_soliton.futaki_residual == max(blowup_soliton.residuals)
    assert blowup_soliton.futaki_residual <= 1e-10
    assert len(blowup_soliton.iterations) >= 2


#: canonical algebraic polygons of the five smooth toric Fano surfaces (every
#: offset 1) with their root counts (all, semisimple, unipotent), the complex
#: dimensions (eta, reductive, unipotent) of the automorphism algebra, and
#: |a_1|, |a_2| of their soliton vectors; the signs of a depend on the
#: embedding and are pinned by ``SIGNS``
FIVE_SURFACES = {
    "P2": (((1, 0), (0, 1), (-1, -1)), (6, 6, 0), (8, 8, 0), (0.0, 0.0)),
    "P1xP1": (((1, 0), (-1, 0), (0, 1), (0, -1)), (4, 4, 0), (6, 6, 0), (0.0, 0.0)),
    "Bl1P2": (((0, 1), (-1, 0), (1, 0), (1, -1)), (4, 2, 2), (6, 4, 2), (0.263810, 0.0)),
    "Bl2P2": (((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1)), (2, 0, 2), (4, 2, 2), (0.217374, 0.217374)),
    "Bl3P2": (((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)), (0, 0, 0), (2, 2, 0), (0.0, 0.0)),
}
SIGNS = {"Bl1P2": (-1, 1), "Bl2P2": (1, 1)}

#: a lattice map A and its action A^{-T} on facet normals and soliton vectors
LATTICE_MAP = np.array([[2, 1], [1, 1]])
NORMAL_MAP = np.array([[1, -1], [-1, 2]])


def polygon(normals, offsets=None):
    offsets = offsets or [1] * len(normals)
    return parse_polytope(json.dumps({
        "dim": 2,
        "facets": [{"normal": [int(c) for c in nu], "offset": off} for nu, off in zip(normals, offsets)],
    }))


def lattice_image(normals):
    """The image x' = c (A x + b): normals A^{-T} nu, offsets c (1 - <A^{-T} nu, b>)."""
    shift, scale = (Fraction(1, 2), Fraction(-1, 3)), Fraction(5, 2)
    mapped = [NORMAL_MAP @ np.array(nu) for nu in normals]
    return polygon(mapped, [str(scale * (1 - nu[0] * shift[0] - nu[1] * shift[1])) for nu in mapped])


def test_normal_map_is_inverse_transpose():
    assert np.array_equal(NORMAL_MAP, np.round(np.linalg.inv(LATTICE_MAP).T).astype(int))


@pytest.mark.parametrize("surface", FIVE_SURFACES)
def test_five_surface_soliton_table(surface):
    normals, counts, dimensions, magnitudes = FIVE_SURFACES[surface]
    for p in (polygon(normals), normalize_algebraic(lattice_image(normals))):
        # the counts are lattice invariants; the exhaustive box scan is the oracle for the roots
        rootset = enumerate_roots(p)
        assert [r.alpha for r in rootset.roots] == brute_force_roots(p)
        assert (len(rootset.roots), len(rootset.semisimple), len(rootset.unipotent)) == counts
        assert automorphism_dimensions(rootset) == dimensions
    soliton = solve_soliton_vector(polygon(normals))
    assert np.allclose(np.abs(soliton.a), magnitudes, rtol=0.0, atol=1e-6)
    signs = SIGNS.get(surface, (1, 1))
    assert np.allclose(soliton.a, np.multiply(signs, magnitudes), rtol=0.0, atol=1e-6)
    image = solve_soliton_vector(lattice_image(normals))
    assert np.allclose(image.a, NORMAL_MAP @ np.array(soliton.a), rtol=0.0, atol=1e-9)


def exact_fan_side_volume(mpmath, vertices, a, terms=40):
    """W(a) = int_P exp(2<a,x>) dv over the fan triangles (0, v_i, v_i+1) in mpmath's precision.

    Over a triangle T with vertex values l_i of an affine l, int_T exp(l) =
    2|T| sum_k h_k(l_0, l_1, l_2) / (k + 2)!, with h_k the complete
    homogeneous symmetric polynomials; here l_0 = 0 at the origin, so
    h_k(0, l_1, l_2) = h_k(l_1, l_2) = l_2 h_k-1(l_1, l_2) + l_1^k.
    """
    total = 0
    for v1, v2 in zip(vertices, vertices[1:] + vertices[:1]):
        area = (v1[0] * v2[1] - v1[1] * v2[0]) / 2
        assert area > 0
        l1, l2 = (2 * (a[0] * v[0] + a[1] * v[1]) for v in (v1, v2))
        power = h = mpmath.mpf(1)  # l1^k and h_k(l1, l2)
        series, factorial = 0, 2  # factorial = (k + 2)!
        for k in range(terms):
            series += h / factorial
            power *= l1
            h = h * l2 + power
            factorial *= k + 3
        total += 2 * area * series
    return total


@pytest.mark.parametrize("surface", FIVE_SURFACES)
def test_soliton_vector_matches_exact_series_newton(surface):
    # oracle: a Newton solve of grad W = 0 at 30 digits on the series above, with central
    # differences of W (steps 1e-10 and 1e-7 leave errors near 1e-20 and 1e-14 at 30 digits)
    mpmath = pytest.importorskip("mpmath")
    normals = sorted(FIVE_SURFACES[surface][0], key=lambda nu: math.atan2(nu[1], nu[0]))
    with mpmath.workdps(30):
        vertices = []
        for nu, mu in zip(normals, normals[1:] + normals[:1]):
            # the corner <nu, x> = <mu, x> = -1 by Cramer's rule; the normals turn counterclockwise
            det = nu[0] * mu[1] - nu[1] * mu[0]
            vertices.append((mpmath.mpf(nu[1] - mu[1]) / det, mpmath.mpf(mu[0] - nu[0]) / det))
        volume = lambda a: exact_fan_side_volume(mpmath, vertices, a)
        h, k = mpmath.mpf("1e-10"), mpmath.mpf("1e-7")
        a = [mpmath.mpf(0), mpmath.mpf(0)]
        for _ in range(12):
            shifted = lambda d1, d2: volume((a[0] + d1, a[1] + d2))
            g1 = (shifted(h, 0) - shifted(-h, 0)) / (2 * h)
            g2 = (shifted(0, h) - shifted(0, -h)) / (2 * h)
            centre = volume(a)
            h11 = (shifted(k, 0) - 2 * centre + shifted(-k, 0)) / k**2
            h22 = (shifted(0, k) - 2 * centre + shifted(0, -k)) / k**2
            h12 = (shifted(k, k) - shifted(k, -k) - shifted(-k, k) + shifted(-k, -k)) / (4 * k**2)
            det = h11 * h22 - h12 * h12
            step = ((h22 * g1 - h12 * g2) / det, (h11 * g2 - h12 * g1) / det)
            a = [a[0] - step[0], a[1] - step[1]]
            if max(abs(step[0]), abs(step[1])) <= mpmath.mpf("1e-18"):
                break
        else:
            pytest.fail("the 30-digit Newton solve did not converge")
        exact = [float(c) for c in a]
    assert np.allclose(solve_soliton_vector(polygon(FIVE_SURFACES[surface][0])).a, exact, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("imaged", [False, True], ids=["canonical", "image"])
@pytest.mark.parametrize("surface", FIVE_SURFACES)
def test_ray_form_matches_array_quadrature(surface, imaged):
    # oracle: the moments of exp(2<a,x>) {1, x_i, x_i x_j} from integrate on the same rule;
    # the fan centre of a canonical polygon is the origin, that of its image is not
    normals = FIVE_SURFACES[surface][0]
    p = lattice_image(normals) if imaged else polygon(normals)
    rng = np.random.default_rng(list(FIVE_SURFACES).index(surface))
    for order in (4, 10, 16):
        a = rng.uniform(-0.8, 0.8, size=2)

        def moment(*axes):
            def integrand(pts):
                pts = np.array(pts)
                return np.prod(pts[:, list(axes)], axis=1) * np.exp(2.0 * pts @ a)

            return integrate(p, integrand, order)

        value, grad, hess = weighted_volume(fan_rule(p, order), a)
        expected_value = moment()
        expected_grad = [2.0 * moment(i) for i in range(2)]
        expected_hess = [[4.0 * moment(i, j) for j in range(2)] for i in range(2)]
        assert abs(value - expected_value) <= 1e-13 * expected_value
        assert np.allclose(grad, expected_grad, rtol=1e-13, atol=1e-13 * expected_value)
        assert np.allclose(hess, expected_hess, rtol=1e-13, atol=1e-13 * expected_value)


@pytest.mark.parametrize("surface, calls", [
    ("P2", 4), ("P1xP1", 4), ("Bl1P2", 9), ("Bl2P2", 12), ("Bl3P2", 5), ("Bl2P2-image", 9),
])
def test_solve_evaluates_each_point_once(surface, calls, monkeypatch):
    # the next Newton step starts at the accepted line-search point, the polish at
    # the last Newton point and the residuals at the final point: none is evaluated twice,
    # and the number of points evaluated is pinned
    name, _, imaged = surface.partition("-")
    normals = FIVE_SURFACES[name][0]
    evaluated = []

    def counting(rule, a):
        evaluated.append((tuple(a), rule.radial))
        return weighted_volume(rule, a)

    monkeypatch.setattr(futaki, "weighted_volume", counting)
    solve_soliton_vector(lattice_image(normals) if imaged else polygon(normals))
    assert len(evaluated) == calls
    assert len(set(evaluated)) == calls


@pytest.mark.parametrize("surface", list(FIVE_SURFACES))
@pytest.mark.parametrize("imaged", [False, True])
def test_solve_builds_one_fan_rule_per_order(surface, imaged, monkeypatch):
    # every Newton evaluation at one order reads the same rule, built once
    built = []

    def counting(p, order):
        built.append(order)
        return fan_rule(p, order)

    monkeypatch.setattr(futaki, "fan_rule", counting)
    normals = FIVE_SURFACES[surface][0]
    soliton = solve_soliton_vector(lattice_image(normals) if imaged else polygon(normals))
    visited = sorted({step["order"] for step in soliton.iterations})
    assert sorted(built) == visited
    assert len(visited) >= 2
