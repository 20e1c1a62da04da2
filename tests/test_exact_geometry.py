"""Exact 2-D polygon kernel: LP and elimination oracles, lattice metamorphisms, dimension and range limits."""

from __future__ import annotations

import itertools
import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_soliton.errors import (
    DegenerateVertexError,
    EmptyInteriorError,
    MalformedInputError,
    NonPrimitiveNormalError,
    NotFanoError,
    RedundantFacetError,
    UnboundedPolytopeError,
    UnboundedRootRegionError,
    UnsupportedDimensionError,
)
from toric_soliton.polytope import (
    CENTER_TOL,
    DelzantPolytope,
    Facet,
    normalize_algebraic,
    parse_polytope,
    privileged_center,
)
from toric_soliton.roots import _facet_roots, automorphism_dimensions, enumerate_roots
from oracles import brute_force_roots

DATA = Path(__file__).parent / "data"
SURFACES = {name: parse_polytope((DATA / f"{name}.json").read_text()) for name in ("cp2", "blowup", "bl3", "square")}
UNIMODULAR = [
    ((a, b), (c, d)) for a, b, c, d in itertools.product(range(-2, 3), repeat=4) if abs(a * d - b * c) == 1
]


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


def exact_verdict(facets: list[Facet]) -> str:
    try:
        DelzantPolytope(facets)
    except UnboundedPolytopeError:
        return "unbounded"
    except EmptyInteriorError:
        return "empty"
    except (DegenerateVertexError, RedundantFacetError):
        # raised only after boundedness and a nonempty interior are established
        pass
    return "bounded"


def lp_verdict(linprog, facets: list[Facet]) -> str:
    normals = np.array([f.normal for f in facets], dtype=float)
    offsets = np.array([float(f.offset) for f in facets])
    # a nonzero recession direction {v : <nu_r, v> >= 0} reaches the unit box boundary
    for i, sense in itertools.product(range(2), (1.0, -1.0)):
        c = np.zeros(2)
        c[i] = -sense
        res = linprog(c, A_ub=-normals, b_ub=np.zeros(len(facets)), bounds=[(-1, 1)] * 2, method="highs")
        assert res.status == 0
        if -res.fun > 1e-9:
            return "unbounded"
    # Chebyshev radius: maximize t with <nu_r, x> + lambda_r >= t |nu_r|, t <= 1
    norms = np.linalg.norm(normals, axis=1)
    res = linprog([0.0, 0.0, -1.0], A_ub=np.hstack([-normals, norms[:, None]]), b_ub=offsets,
                  bounds=[(None, None)] * 2 + [(None, 1)], method="highs")
    assert res.status == 0
    return "bounded" if -res.fun > 1e-9 else "empty"


PRIMITIVE = [v for v in itertools.product(range(-3, 4), repeat=2) if math.gcd(*v) == 1]
offsets = st.fractions(min_value=-3, max_value=3, max_denominator=4)
facet_systems = st.lists(st.builds(lambda nu, lam: Facet(normal=nu, offset=lam), st.sampled_from(PRIMITIVE), offsets),
                         min_size=3, max_size=6)


@settings(max_examples=150, deadline=None)
@given(facets=facet_systems)
def test_verdicts_match_linear_programming(linprog, facets):
    assert exact_verdict(facets) == lp_verdict(linprog, facets)


#: PRIMITIVE split by the quarter turn [k pi/2, (k+1) pi/2) holding the
#: angle; one normal from each quarter makes the normals positively span
QUARTERS = [
    [v for v in PRIMITIVE if v[0] > 0 and v[1] >= 0],
    [v for v in PRIMITIVE if v[0] <= 0 and v[1] > 0],
    [v for v in PRIMITIVE if v[0] < 0 and v[1] <= 0],
    [v for v in PRIMITIVE if v[0] >= 0 and v[1] < 0],
]
spanning_normals = st.tuples(*(st.sampled_from(q) for q in QUARTERS)).flatmap(
    lambda base: st.lists(st.sampled_from(PRIMITIVE), max_size=3).map(lambda extra: list(base) + extra)
)


@settings(max_examples=150, deadline=None)
@given(normals=spanning_normals)
def test_facet_roots_match_a_lattice_scan(normals):
    # every -alpha lies in {<nu_r, x> + 1 >= 0}, whose vertices have coordinates
    # of at most 6 for entries of at most 3; non-unimodular normals give line
    # bounds that are not integers, which the Delzant examples never exercise
    for rho, nu in enumerate(normals):
        scan = [
            alpha for alpha in itertools.product(range(-7, 8), repeat=2)
            if alpha[0] * nu[0] + alpha[1] * nu[1] == 1
            and all(alpha[0] * m[0] + alpha[1] * m[1] <= 0 for r, m in enumerate(normals) if r != rho)
        ]
        assert sorted(_facet_roots(normals, rho)) == scan


def transformed(p: DelzantPolytope, g, perm, shift, scale) -> DelzantPolytope:
    """Image of p under x -> scale * g x + shift, facets listed in the order perm."""
    (a, b), (c, d) = g
    det = a * d - b * c
    inv_t = ((det * d, -det * c), (-det * b, det * a))
    facets = []
    for i in perm:
        f = p.facets[i]
        nu = tuple(row[0] * f.normal[0] + row[1] * f.normal[1] for row in inv_t)
        facets.append(Facet(normal=nu, offset=scale * f.offset - nu[0] * shift[0] - nu[1] * shift[1]))
    return DelzantPolytope(facets)


def apply(g, v):
    return tuple(row[0] * v[0] + row[1] * v[1] for row in g)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SURFACES)),
    g=st.sampled_from(UNIMODULAR),
    data=st.data(),
    shift=st.tuples(small_fractions, small_fractions),
    scale=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=5),
)
def test_lattice_images_transform_covariantly(name, g, data, shift, scale):
    base = SURFACES[name]
    perm = data.draw(st.permutations(range(len(base.facets))))
    image = transformed(base, g, perm, shift, scale)

    expected_vertices = {
        tuple(scale * c + t for c, t in zip(apply(g, v), shift)): frozenset(perm.index(i) for i in active)
        for v, active in base.vertex_data
    }
    assert dict(image.vertex_data) == expected_vertices
    center = privileged_center(image)
    assert center.exact_point == shift and center.exact_value == scale

    roots = enumerate_roots(normalize_algebraic(image))
    assert sorted(r.alpha for r in roots.roots) == brute_force_roots(normalize_algebraic(image))
    base_roots = enumerate_roots(base)
    assert {(r.alpha, r.distinguished_facet) for r in roots.roots} == {
        (apply(g, r.alpha), perm.index(r.distinguished_facet)) for r in base_roots.roots
    }
    assert {r.alpha for r in roots.unipotent} == {apply(g, r.alpha) for r in base_roots.unipotent}
    assert automorphism_dimensions(roots) == automorphism_dimensions(base_roots)


def eliminate(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square rational system by Gauss-Jordan elimination; None if singular."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                aug[r] = [v - aug[r][col] * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def facet_value(f: Facet, x) -> Fraction:
    return f.offset + sum(c * xi for c, xi in zip(f.normal, x))


def oracle_vertex_data(facets: list[Facet]):
    """Every feasible pairwise facet intersection with its active set, by elimination."""
    found = {}
    for pair in itertools.combinations(facets, 2):
        point = eliminate([[Fraction(c) for c in f.normal] for f in pair], [-f.offset for f in pair])
        if point is not None and all(facet_value(f, point) >= 0 for f in facets):
            found[tuple(point)] = frozenset(i for i, f in enumerate(facets) if facet_value(f, point) == 0)
    return tuple(sorted(found.items()))


def oracle_center(facets: list[Facet]):
    """(point, value, float residual) of L_1 = ... = L_d = c on the first nonsingular 3x3 subsystem, or the error text."""
    rows = [[Fraction(c) for c in f.normal] + [Fraction(-1)] for f in facets]
    for triple in itertools.combinations(range(len(facets)), 3):
        solution = eliminate([rows[i] for i in triple], [-facets[i].offset for i in triple])
        if solution is not None:
            break
    else:
        return "facet system is rank deficient; no unique center"
    point, value = tuple(solution[:2]), solution[2]
    residual = max(abs(facet_value(f, point) - value) for f in facets)
    if residual > CENTER_TOL:
        return f"no common facet value (residual {Decimal(residual.numerator) / Decimal(residual.denominator):.3e})"
    if value <= 0:
        return f"common facet value {float(value):.6g} is not positive"
    return point, value, float(residual)


def center_or_error(p: DelzantPolytope):
    try:
        center = privileged_center(p)
    except NotFanoError as exc:
        return str(exc)
    return center.exact_point, center.exact_value, center.residual


#: 4299-digit denominators drawn from two small integers, so an example stays small
HUGE = st.tuples(st.integers(0, 10**9), st.integers(1, 10**9)).map(lambda uv: 10**4298 + uv[0] * 10**2000 + uv[1])


@st.composite
def perturbed_images(draw) -> list[Facet]:
    """A lattice image of a Fano surface with permuted facets, its offsets exact,
    perturbed off the Fano locus, or given 4299-digit denominators."""
    base = SURFACES[draw(st.sampled_from(sorted(SURFACES)))]
    perm = draw(st.permutations(range(len(base.facets))))
    kind = draw(st.sampled_from(["exact", "perturbed", "huge"]))
    if kind == "huge":
        image = transformed(base, draw(st.sampled_from(UNIMODULAR)), perm, (0, 0), 1)
        # k / q with k of a few units keeps the center (residual about 1e-4298); k = +-q // m moves it
        shifts = []
        for q in draw(st.lists(HUGE, min_size=len(perm), max_size=len(perm))):
            k = draw(st.one_of(st.integers(-3, 3), st.integers(20, 100).map(lambda m: q // m),
                               st.integers(20, 100).map(lambda m: -(q // m))))
            shifts.append(Fraction(k, q))
    else:
        image = transformed(base, draw(st.sampled_from(UNIMODULAR)), perm,
                            draw(st.tuples(small_fractions, small_fractions)),
                            draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=5)))
        tiny = st.fractions(min_value=Fraction(-1, 20), max_value=Fraction(1, 20), max_denominator=40)
        shifts = [draw(tiny) if kind == "perturbed" else 0 for _ in perm]
    return [Facet(f.normal, f.offset + e) for f, e in zip(image.facets, shifts)]


@settings(max_examples=40, deadline=None)
@given(facets=perturbed_images())
def test_geometry_matches_elimination(facets):
    p = DelzantPolytope(facets)
    assert p.vertex_data == oracle_vertex_data(facets)
    assert center_or_error(p) == oracle_center(facets)


def test_hexagon_with_4299_digit_denominators():
    denominators = [10**4298 + 7 * r + 1 for r in range(6)]
    facets = [Facet(f.normal, 1 + Fraction(1, q)) for f, q in zip(SURFACES["bl3"].facets, denominators)]
    assert {len(str(f.offset.denominator)) for f in facets} == {4299} and len(set(denominators)) == 6
    p = DelzantPolytope(facets)
    assert len(p.vertex_data) == 6 and p.vertex_data == oracle_vertex_data(facets)
    center = privileged_center(p)
    assert (center.exact_point, center.exact_value, center.residual) == oracle_center(facets)
    # accepted: the exact residual is far below CENTER_TOL, and its float underflows
    residual = max(abs(facet_value(f, center.exact_point) - center.exact_value) for f in facets)
    assert 0 < residual < Fraction(1, 10**4000) and center.residual == 0.0


def test_unbounded_rejection_names_the_direction():
    with pytest.raises(UnboundedPolytopeError, match=r"direction \(1, 0\)"):
        DelzantPolytope([Facet((1, 0), 1), Facet((0, 1), 1), Facet((0, -1), 1)])


def test_infeasible_and_flat_systems_have_empty_interior():
    with pytest.raises(EmptyInteriorError, match="infeasible"):
        DelzantPolytope([Facet((1, 0), -1), Facet((0, 1), 0), Facet((-1, -1), 0)])
    with pytest.raises(EmptyInteriorError, match="empty interior"):
        DelzantPolytope([Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -1), 0)])


def test_tiny_polygon_is_accepted():
    # only zero area is rejected; an inradius far below any float tolerance is kept
    p = parse_polytope(json.dumps({"dim": 2, "facets": [
        {"normal": [1, 0], "offset": "1/1000000000000"},
        {"normal": [0, 1], "offset": "1/1000000000000"},
        {"normal": [-1, -1], "offset": "1/1000000000000"},
    ]}))
    assert len(enumerate_roots(normalize_algebraic(p)).roots) == 6


def test_dimension_one_is_unsupported():
    with pytest.raises(UnsupportedDimensionError, match="got dim 1"):
        parse_polytope(json.dumps({"dim": 1, "facets": [{"normal": [1], "offset": "1/3"},
                                                        {"normal": [-1], "offset": 2}]}))


def test_dimension_three_is_unsupported():
    normals = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    with pytest.raises(UnsupportedDimensionError, match="got dim 3"):
        parse_polytope(json.dumps({"dim": 3, "facets": [{"normal": n, "offset": 1} for n in normals]}))


@pytest.mark.parametrize("dim, normals, error, message", [
    (0, [[1, 0], [0, 1], [-1, -1]], MalformedInputError, "dim must be a positive integer, got 0"),
    (-1, [[2, 0], [0, 1], [-1, -1]], NonPrimitiveNormalError, "facet normal (2, 0) is not primitive"),
    (0, [[1], [-1]], MalformedInputError, "dim must be a positive integer, got 0"),
    (3, [[1, 0], [0, 1]], UnsupportedDimensionError, "polytopes of dim 2 only, got dim 3"),
    (2, [[1, 0], [0, 1]], MalformedInputError, "need more than 2 facets, got 2"),
    (2, [[1, 0], [0, 1], [-1, -1, 0]], MalformedInputError,
     "facet normal (-1, -1, 0) has wrong dimension (expected 2)"),
], ids=["zero", "facet-before-dim", "zero-before-shape", "dim-before-count", "count", "normal-length"])
def test_document_dim_is_checked_after_the_facets(dim, normals, error, message):
    with pytest.raises(error) as info:
        parse_polytope(json.dumps({"dim": dim, "facets": [{"normal": n, "offset": 1} for n in normals]}))
    assert str(info.value) == message


def test_root_region_without_a_bound_is_unbounded():
    # two normals do not positively span, so the line of facet 0 is cut on one side only
    with pytest.raises(UnboundedRootRegionError):
        _facet_roots([(1, 0), (0, 1)], 0)
