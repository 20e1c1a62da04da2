"""Weighted volumes and the soliton-vector solve."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from toric_soliton import futaki, quadrature
from toric_soliton.calabi import soliton_equation, solve_a1
from toric_soliton.errors import NonConvergenceError
from toric_soliton.futaki import (
    chords,
    exp_moments,
    fixed_direction,
    line_density,
    solve_soliton_vector,
    weighted_volume,
)
from toric_soliton.polytope import DelzantPolytope, Facet, lattice_automorphisms, normalize_algebraic, parse_polytope
from toric_soliton.roots import assemble_decomposition, automorphism_dimensions, brute_force_roots, enumerate_roots
from conftest import fibonacci_image, integrate


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
    # at s = 0 the weight is 1: W is the area, and the centroid of the simplex is the origin
    for b in ((1, 0), (1, 1), (2, -1)):
        value, slope, curvature, moment = weighted_volume(line_density(cp2, b), 0.0)
        assert value == pytest.approx(4.5, abs=1e-12)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(moment, 0.0, atol=1e-12)
        assert curvature > 0.0


def test_weighted_volume_blowup_matches_polygon_moments(blowup):
    # cyclic vertex order for the shoelace oracle
    ring = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 2.0], [-1.0, 0.0]])
    area, moments = polygon_moments(ring)
    assert area == pytest.approx(4.0, abs=1e-14)
    for b in ((1, 0), (0, 1), (1, 1)):
        value, slope, _, moment = weighted_volume(line_density(blowup, b), 0.0)
        assert value == pytest.approx(area, abs=1e-12)
        assert np.allclose(moment, moments, atol=1e-12)
        assert slope == pytest.approx(2.0 * float(np.dot(b, moments)), abs=1e-12)
    assert np.linalg.norm(moments) > 0.1  # the centroid is away from the center


def test_weighted_volume_hessian_positive_definite(cp2, blowup):
    # W(s b) is strictly convex in s, and its derivatives match central differences
    rng = np.random.default_rng(3)
    for p in (cp2, blowup):
        for b in ((1, 0), (1, 1)):
            density = line_density(p, b)
            for s in rng.uniform(-0.8, 0.8, size=5):
                value, slope, curvature, _ = weighted_volume(density, s)
                assert curvature > 0
                h = 1e-5
                (up, up_slope, _, _), (down, down_slope, _, _) = (weighted_volume(density, s + d) for d in (h, -h))
                assert (up - down) / (2 * h) == pytest.approx(slope, rel=1e-8, abs=1e-9)
                assert (up_slope - down_slope) / (2 * h) == pytest.approx(curvature, rel=1e-8)


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
def test_density_matches_polygon_quadrature(surface, imaged):
    # oracle: the moments of exp(2 s <b, x>) {1, t, t^2, x_1, x_2}, t = <b, x>, on the 2-D
    # polygon rule; the fixed direction, or two directions where the fixed lattice is 0
    normals = FIVE_SURFACES[surface][0]
    p = normalize_algebraic(lattice_image(normals) if imaged else polygon(normals))
    fixed = fixed_direction(lattice_automorphisms(p))
    rng = np.random.default_rng(list(FIVE_SURFACES).index(surface))
    for b in [fixed] if fixed else [(1, 0), (1, 2)]:
        density = line_density(p, b)
        for s in rng.uniform(-0.8, 0.8, size=3):

            def moment(weight):
                def integrand(pts):
                    pts = np.array(pts, dtype=float)
                    t = pts @ np.array(b, dtype=float)
                    return weight(pts, t) * np.exp(2.0 * s * t)

                return integrate(p, integrand, 22)

            value, slope, curvature, first = weighted_volume(density, s)
            scale = moment(lambda pts, t: 1.0)
            assert value == pytest.approx(scale, rel=1e-13)
            assert slope == pytest.approx(2.0 * moment(lambda pts, t: t), rel=1e-12, abs=1e-13 * scale)
            assert curvature == pytest.approx(4.0 * moment(lambda pts, t: t * t), rel=1e-12)
            for i in range(2):
                expected = moment(lambda pts, t: pts[:, i])
                assert first[i] == pytest.approx(expected, rel=1e-12, abs=1e-13 * scale)


#: points evaluated per solve: one at a = 0 for the residuals where the fixed lattice is 0,
#: and the Newton iterates and polish along the fixed line on Bl1P2 and Bl2P2
EVALUATIONS = [("P2", 1), ("P1xP1", 1), ("Bl1P2", 5), ("Bl2P2", 7), ("Bl3P2", 1),
               ("Bl1P2-image", 5), ("Bl2P2-image", 7), ("Bl3P2-image", 1)]


@pytest.mark.parametrize("surface, calls", EVALUATIONS, ids=[f"{name}-{calls}" for name, calls in EVALUATIONS])
def test_solve_evaluates_each_point_once(surface, calls, monkeypatch):
    # the next Newton step starts at the accepted line-search point, the polish at
    # the last Newton point and the residuals at the final point: none is evaluated twice,
    # and the number of points evaluated is pinned
    name, _, imaged = surface.partition("-")
    normals = FIVE_SURFACES[name][0]
    evaluated = []

    def counting(density, s):
        evaluated.append((density, s))
        return weighted_volume(density, s)

    monkeypatch.setattr(futaki, "weighted_volume", counting)
    solve_soliton_vector(lattice_image(normals) if imaged else polygon(normals))
    assert len(evaluated) == calls
    assert len(set(evaluated)) == calls


@pytest.mark.parametrize("surface", list(FIVE_SURFACES))
@pytest.mark.parametrize("imaged", [False, True])
def test_solve_reads_no_quadrature(surface, imaged, monkeypatch):
    # the solve is closed-form on the density: no quadrature rule is built
    def refuse(*args):
        raise AssertionError("the solve built a quadrature rule")

    for name in ("polygon_rule", "line_rule", "gauss_legendre"):
        monkeypatch.setattr(quadrature, name, refuse)
    normals = FIVE_SURFACES[surface][0]
    soliton = solve_soliton_vector(lattice_image(normals) if imaged else polygon(normals))
    assert soliton.futaki_residual <= 1e-12
    assert "quadrature" not in vars(futaki)


def reductive_defect(soliton, rootset) -> int:
    """The number of roots with <alpha, b> = 0 (all of them when b is None) less the semisimple ones."""
    b = soliton.b
    level_zero = [r for r in rootset.roots if b is None or r.alpha[0] * b[0] + r.alpha[1] * b[1] == 0]
    return len(level_zero) - len(rootset.semisimple)


@pytest.mark.parametrize("surface", FIVE_SURFACES)
def test_semisimple_roots_are_the_roots_orthogonal_to_the_fixed_line(surface):
    # a semisimple pair's Weyl reflection is a lattice automorphism and fixes b, so <alpha, b> = 0
    # on it, and gamma = 2 s <alpha, b> > 0 on every unipotent root: the fixed line of
    # lattice_automorphisms and the split of enumerate_roots share no code
    normals = FIVE_SURFACES[surface][0]
    polygons = [polygon(normals), normalize_algebraic(lattice_image(normals))]
    if surface in ("Bl1P2", "Bl2P2"):
        polygons += [parse_polytope(json.dumps(fibonacci_image(n, normals))) for n in (2, 12, 24, 340, 745)]
    for p in polygons:
        rootset, soliton = enumerate_roots(p), solve_soliton_vector(p)
        assert reductive_defect(soliton, rootset) == 0
        b = soliton.b
        assert soliton.a == ((0.0, 0.0) if b is None else (soliton.s * b[0] + 0.0, soliton.s * b[1] + 0.0))
        assert all(soliton.s * (r.alpha[0] * b[0] + r.alpha[1] * b[1]) > 0 for r in rootset.unipotent)
        affine = next(block for block in assemble_decomposition(soliton, rootset).blocks if block["includes_affine"])
        assert affine["roots"] == rootset.semisimple


def test_dropping_the_fixed_line_on_bl1p2_leaves_a_reductive_defect_of_two():
    # with b taken as None (a = 0) both unipotent roots join the gamma = 0 block
    p = polygon(FIVE_SURFACES["Bl1P2"][0])
    rootset, soliton = enumerate_roots(p), solve_soliton_vector(p)
    assert reductive_defect(soliton._replace(b=None), rootset) == 2
    blocks = assemble_decomposition(soliton._replace(s=0.0, b=None), rootset).blocks
    assert [b["complex_dimension"] for b in blocks] == [6]


@pytest.mark.parametrize("imaged", [False, True], ids=["canonical", "image"])
@pytest.mark.parametrize("surface", ["P2", "P1xP1", "Bl3P2"])
def test_symmetric_soliton_vector_is_exactly_zero(surface, imaged):
    # the group fixes only 0, so a is (0.0, 0.0) bit for bit, with no sign on either zero
    normals = FIVE_SURFACES[surface][0]
    soliton = solve_soliton_vector(lattice_image(normals) if imaged else polygon(normals))
    assert (soliton.s, soliton.b) == (0.0, None)
    assert soliton.a == (0.0, 0.0)
    assert [math.copysign(1.0, c) for c in soliton.a] == [1.0, 1.0]
    assert soliton.iterations == ()
    assert soliton.futaki_residual <= 1e-15


@pytest.mark.parametrize("surface, b", [("Bl1P2", (1, 0)), ("Bl2P2", (1, 1))])
def test_soliton_vector_matches_a_40_digit_root_along_the_fixed_line(surface, b):
    # oracle: the root of dW/ds at 45 digits, W(s b) from the exact fan-triangle series
    mpmath = pytest.importorskip("mpmath")
    normals = sorted(FIVE_SURFACES[surface][0], key=lambda nu: math.atan2(nu[1], nu[0]))
    with mpmath.workdps(45):
        vertices = []
        for nu, mu in zip(normals, normals[1:] + normals[:1]):
            det = nu[0] * mu[1] - nu[1] * mu[0]
            vertices.append((mpmath.mpf(nu[1] - mu[1]) / det, mpmath.mpf(mu[0] - nu[0]) / det))

        def slope(s):
            return mpmath.diff(lambda q: exact_fan_side_volume(mpmath, vertices, (q * b[0], q * b[1]), terms=60), s)

        root = mpmath.findroot(slope, mpmath.mpf(SIGNS[surface][0]) * FIVE_SURFACES[surface][3][0])
        for p in (polygon(FIVE_SURFACES[surface][0]), lattice_image(FIVE_SURFACES[surface][0])):
            assert fixed_direction(lattice_automorphisms(normalize_algebraic(p))) in (b, tuple(NORMAL_MAP @ b))
        a = solve_soliton_vector(polygon(FIVE_SURFACES[surface][0])).a
        assert max(abs(mpmath.mpf(c) - root * e) for c, e in zip(a, b)) <= 1e-15


def shoelace(p) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """The exact area and first moments of ``p`` from its vertices, counterclockwise around their centroid."""
    ring = [vertex for vertex, _ in p.vertex_data]
    cx, cy = (sum(axis) / len(ring) for axis in zip(*ring))
    ring.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    area = mx = my = Fraction(0)
    for (x, y), (xn, yn) in zip(ring, ring[1:] + ring[:1]):
        cross = x * yn - xn * y
        area += cross / 2
        mx += (x + xn) * cross / 6
        my += (y + yn) * cross / 6
    return area, (mx, my)


@pytest.mark.parametrize("imaged", [False, True], ids=["canonical", "image"])
@pytest.mark.parametrize("surface", FIVE_SURFACES)
def test_density_integrates_to_the_exact_area_and_moments(surface, imaged):
    # rho and the chord midpoint m are linear between the vertex levels, so Simpson's rule is
    # exact on each piece: int rho = |P|, int t rho = <b, int x> and int m rho = int x, in Fractions
    normals = FIVE_SURFACES[surface][0]
    p = normalize_algebraic(lattice_image(normals) if imaged else polygon(normals))
    area, moments = shoelace(p)
    for b in ((1, 0), (0, 1), (2, -1), fixed_direction(lattice_automorphisms(p)) or (1, 1)):
        exact = chords(p, b)
        assert [t for t, _, _ in exact] == sorted({b[0] * v[0] + b[1] * v[1] for v, _ in p.vertex_data})
        total, first, along = Fraction(0), [Fraction(0), Fraction(0)], Fraction(0)
        for (t0, r0, m0), (t1, r1, m1) in zip(exact, exact[1:]):
            h, tm, rm = t1 - t0, (t0 + t1) / 2, (r0 + r1) / 2
            total += h * rm
            along += h * (t0 * r0 + 4 * tm * rm + t1 * r1) / 6
            for i in range(2):
                first[i] += h * (m0[i] * r0 + 4 * (m0[i] + m1[i]) / 2 * rm + m1[i] * r1) / 6
        assert total == area
        assert along == b[0] * moments[0] + b[1] * moments[1]
        assert first == list(moments)


@pytest.mark.parametrize("y", [0.0, 0.5, 1.99, 2.0, 2.01, 10.0, 50.0, -0.5, -1.99, -2.0, -2.01, -10.0, -50.0])
def test_exp_moments_match_mpmath_quadrature(y):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for m, value in enumerate(exp_moments(y)):
            expected = mpmath.quad(lambda u: u**m * mpmath.exp(y * u), [0, 1])
            assert abs(value - expected) <= 1e-15 * expected, (m, value, float(expected))


def test_trivial_group_is_a_solver_failure():
    # a non-Delzant quadrilateral whose normals no lattice map but the identity permutes
    p = DelzantPolytope([Facet(nu, 1) for nu in ((1, 0), (0, 1), (-1, -2), (-2, 1))])
    assert lattice_automorphisms(p) == (((1, 0), (0, 1)),)
    with pytest.raises(NonConvergenceError, match="no lattice automorphism but the identity"):
        solve_soliton_vector(p)
