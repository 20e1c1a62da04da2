"""Polytope parsing, vertices, privileged center, normalization."""

from __future__ import annotations

import itertools
import json
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
    UnboundedPolytopeError,
)
from toric_soliton.futaki import fixed_direction
from toric_soliton.polytope import (
    delzant_check,
    lattice_automorphisms,
    normalize_algebraic,
    parse_polytope,
    privileged_center,
)
from conftest import BLOWUP_DOC, CP2_DOC, SQUARE_DOC
from test_futaki import FIVE_SURFACES, NORMAL_MAP, lattice_image, polygon


def doc(facets, dim=2):
    return json.dumps({"dim": dim, "facets": facets})


def test_parse_cp2(cp2):
    assert len(cp2.facets) == 3
    assert len(cp2.vertex_data) == 3


def test_parse_blowup(blowup):
    assert len(blowup.facets) == 4
    assert len(blowup.vertex_data) == 4


def test_parse_rejects_non_primitive_normal():
    with pytest.raises(NonPrimitiveNormalError):
        parse_polytope(doc([
            {"normal": [2, 4], "offset": 1},
            {"normal": [0, 1], "offset": 1},
            {"normal": [-1, -1], "offset": 1},
        ]))


def test_parse_rejects_unbounded():
    with pytest.raises(UnboundedPolytopeError):
        parse_polytope(doc([
            {"normal": [1, 0], "offset": 1},
            {"normal": [0, 1], "offset": 1},
            {"normal": [0, -1], "offset": 1},
        ]))


def test_parse_rejects_empty_interior():
    with pytest.raises(EmptyInteriorError):
        parse_polytope(doc([
            {"normal": [1, 0], "offset": 0},
            {"normal": [-1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 1},
            {"normal": [0, -1], "offset": 1},
        ]))


def test_parse_rejects_malformed():
    with pytest.raises(MalformedInputError):
        parse_polytope("not json at all {")
    with pytest.raises(MalformedInputError):
        parse_polytope(json.dumps({"facets": []}))
    with pytest.raises(MalformedInputError):
        parse_polytope(doc([{"normal": [1, 0]}]))
    with pytest.raises(MalformedInputError, match="facet normal must be a list, got 5"):
        parse_polytope(doc([{"normal": 5, "offset": 1}]))
    with pytest.raises(MalformedInputError, match="unsupported source type <class 'dict'>"):
        parse_polytope(CP2_DOC)


def test_rational_offsets_parse_exactly():
    p = parse_polytope(doc([
        {"normal": [1, 0], "offset": "1/2"},
        {"normal": [-1, 0], "offset": 0.5},
        {"normal": [0, 1], "offset": "3/2"},
        {"normal": [0, -1], "offset": 1},
    ]))
    assert p.facets[0].offset == Fraction(1, 2)
    assert p.facets[1].offset == Fraction(1, 2)
    assert p.facets[2].offset == Fraction(3, 2)


def test_cp2_vertices(cp2):
    verts = set(cp2.vertex_points)
    assert verts == {(-1.0, -1.0), (-1.0, 2.0), (2.0, -1.0)}


def test_blowup_vertices(blowup):
    verts = set(blowup.vertex_points)
    assert verts == {(-1.0, -1.0), (1.0, -1.0), (1.0, 2.0), (-1.0, 0.0)}


def test_square_vertices(square):
    verts = set(square.vertex_points)
    assert verts == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_vertices_have_exactly_n_active_facets(cp2, blowup, square):
    for p in (cp2, blowup, square):
        for vertex, (_, active) in zip(p.vertex_points, p.vertex_data):
            values = np.array(p.facet_values_many(np.array([vertex]))[0])
            assert len(active) == 2
            near_zero = np.abs(values) <= 1e-9
            assert near_zero.sum() == 2
            assert np.all(values[~near_zero] > 1e-9)


def test_degenerate_vertex_rejected():
    # three facets through the same point of a square-like region
    with pytest.raises(DegenerateVertexError):
        parse_polytope(doc([
            {"normal": [1, 0], "offset": 1},
            {"normal": [0, 1], "offset": 1},
            {"normal": [1, 1], "offset": 2},
            {"normal": [-1, 0], "offset": 1},
            {"normal": [0, -1], "offset": 1},
        ]))


def test_delzant_check_passes_on_examples(cp2, blowup, square):
    for p in (cp2, blowup, square):
        verdict = delzant_check(p)
        assert verdict.passed
        assert all(abs(d) == 1 for _, d in verdict.vertex_determinants)


def test_delzant_check_fails_on_singular_triangle():
    p = parse_polytope(doc([
        {"normal": [1, 0], "offset": 1},
        {"normal": [0, 1], "offset": 1},
        {"normal": [-1, -2], "offset": 1},
    ]))
    verdict = delzant_check(p)
    assert not verdict.passed
    dets = {d for _, d in verdict.vertex_determinants}
    assert -2 in dets or 2 in dets


def test_privileged_center_cp2(cp2):
    center = privileged_center(cp2)
    assert center.point == (0.0, 0.0)
    assert center.common_value == 1.0
    assert center.residual <= 1e-9


def test_privileged_center_blowup(blowup):
    center = privileged_center(blowup)
    assert center.point == (0.0, 0.0)
    assert center.common_value == 1.0


def test_not_fano_square_with_uneven_offsets():
    p = parse_polytope(doc([
        {"normal": [1, 0], "offset": 1},
        {"normal": [-1, 0], "offset": 1},
        {"normal": [0, 1], "offset": 1},
        {"normal": [0, -1], "offset": 2},
    ]))
    with pytest.raises(NotFanoError):
        privileged_center(p)


def test_normalize_is_identity_on_algebraic(cp2):
    assert normalize_algebraic(cp2) is cp2


def test_normalize_translated_trapezoid(blowup):
    # the trapezoid translated by (2, 1): offsets become 1 - <nu, (2, 1)>
    shift = np.array([2, 1])
    facets = []
    for f in blowup.facets:
        facets.append({"normal": list(f.normal), "offset": int(f.offset) - int(np.dot(f.normal, shift))})
    translated = parse_polytope(doc(facets))
    center = privileged_center(translated)
    assert center.point == (2.0, 1.0)
    assert center.common_value == 1.0
    assert normalize_algebraic(translated) == blowup


def test_normalize_scales_offsets():
    p = parse_polytope(doc([
        {"normal": [1, 0], "offset": 2},
        {"normal": [-1, 0], "offset": 2},
        {"normal": [0, 1], "offset": 2},
        {"normal": [0, -1], "offset": 2},
    ]))
    normalized = normalize_algebraic(p)
    assert normalized.is_algebraic
    assert set(normalized.vertex_points) == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}
    assert normalize_algebraic(normalized) is normalized


def test_facet_values_examples(cp2, blowup):
    assert np.allclose(cp2.facet_values_many(np.array([[0.0, 0.0], [2.0, -1.0]])), [[1.0, 1.0, 1.0], [3.0, 0.0, 0.0]])
    assert np.allclose(blowup.facet_values_many(np.array([[0.5, 0.5]])), [[1.5, 0.5, 1.5, 1.0]])


@settings(max_examples=24, deadline=None)
@given(permutation=st.permutations(list(range(4))))
def test_vertices_invariant_under_facet_permutation(permutation):
    base = BLOWUP_DOC["facets"]
    p = parse_polytope(json.dumps({"dim": 2, "facets": [base[i] for i in permutation]}))
    verts = set(p.vertex_points)
    assert verts == {(-1.0, -1.0), (1.0, -1.0), (1.0, 2.0), (-1.0, 0.0)}


def test_interior_grid_margin(cp2):
    grid = cp2.interior_grid(21, 0.05)
    margin = cp2.interior_margin(0.05)
    assert margin == pytest.approx(0.15)
    assert len(grid) > 0
    assert np.all(np.array(cp2.facet_values_many(grid)).min(axis=1) >= margin - 1e-12)


def test_to_dict_round_trip(cp2, blowup):
    for p in (cp2, blowup):
        again = parse_polytope(json.dumps(p.to_dict()))
        assert again == p


DOCUMENTS = ("cp2", "blowup", "square", "bl3", "non_delzant", "not_fano")


def numpy_interior_grid(p, n: int, margin_fraction: float) -> np.ndarray:
    """The oracle: numpy.linspace axes over the vertex box, an ij meshgrid, the margin filter."""
    verts = np.array(p.vertex_points)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    axes = [np.linspace(lo[i], hi[i], n) for i in range(2)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    normals = np.array([f.normal for f in p.facets], dtype=float)
    offsets = np.array([float(f.offset) for f in p.facets])
    return mesh[(mesh @ normals.T + offsets).min(axis=1) >= p.interior_margin(margin_fraction)]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_interior_grid_matches_numpy_construction(name):
    # the same points in the same order, float for float
    p = parse_polytope((Path(__file__).parent / "data" / f"{name}.json").read_text())
    for margin in (0.05, 0.3):
        for n in range(1, 61):
            expected = [tuple(row) for row in numpy_interior_grid(p, n, margin).tolist()]
            assert p.interior_grid(n, margin) == expected, (n, margin)


def permutes_normals(m, normals) -> bool:
    return sorted(tuple(int(c) for c in np.array(m) @ nu) for nu in normals) == sorted(normals)


#: group order and fixed direction of each canonical polygon
GROUPS = {"P2": (6, None), "P1xP1": (8, None), "Bl1P2": (2, (1, 0)), "Bl2P2": (2, (1, 1)), "Bl3P2": (12, None)}


@pytest.mark.parametrize("surface", FIVE_SURFACES)
def test_lattice_automorphisms_match_a_brute_force_scan(surface):
    # oracle: every integer matrix with entries in [-2, 2] that permutes the normals
    normals = FIVE_SURFACES[surface][0]
    group = lattice_automorphisms(polygon(normals))
    scan = {m for m in itertools.product(*[[(a, b) for a in range(-2, 3) for b in range(-2, 3)]] * 2)
            if permutes_normals(m, normals)}
    assert group[0] == ((1, 0), (0, 1))
    assert len(set(group)) == len(group)
    assert set(group) == scan
    assert (len(group), fixed_direction(group)) == GROUPS[surface]


@pytest.mark.parametrize("surface", FIVE_SURFACES)
def test_lattice_automorphisms_are_conjugated_on_a_lattice_image(surface):
    # the image's normals are N nu, so its group is N M N^-1, and its fixed lattice N times the fixed lattice
    normals = FIVE_SURFACES[surface][0]
    image = normalize_algebraic(lattice_image(normals))
    inverse = np.round(np.linalg.inv(NORMAL_MAP)).astype(int)
    conjugated = {tuple(map(tuple, (NORMAL_MAP @ np.array(m) @ inverse).tolist()))
                  for m in lattice_automorphisms(polygon(normals))}
    group = lattice_automorphisms(image)
    assert set(group) == conjugated
    assert all(permutes_normals(m, [f.normal for f in image.facets]) for m in group)
    fixed = fixed_direction(group)
    expected = GROUPS[surface][1]
    if expected is None:
        assert fixed is None
    else:
        assert fixed in (tuple(int(c) for c in NORMAL_MAP @ expected), tuple(int(c) for c in -(NORMAL_MAP @ expected)))

