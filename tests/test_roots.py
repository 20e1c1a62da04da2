"""Demazure root enumeration, the split, and dimension counts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from toric_soliton.errors import MalformedInputError
from toric_soliton.futaki import solve_soliton_vector
from toric_soliton.polytope import parse_polytope
from toric_soliton.roots import (
    assemble_decomposition,
    automorphism_dimensions,
    brute_force_roots,
    enumerate_roots,
)
from conftest import fibonacci, fibonacci_image


CP2_EXPECTED = {(1, 0), (1, -1), (0, 1), (-1, 1), (-1, 0), (0, -1)}
BLOWUP_EXPECTED = {(0, 1), (-1, 0), (-1, -1), (0, -1)}


def test_cp2_roots_exact(cp2_roots):
    assert {r.alpha for r in cp2_roots.roots} == CP2_EXPECTED


def test_blowup_roots_exact(blowup_roots):
    assert {r.alpha for r in blowup_roots.roots} == BLOWUP_EXPECTED


def test_square_roots(square):
    rootset = enumerate_roots(square)
    assert {r.alpha for r in rootset.roots} == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(rootset.semisimple) == 4
    assert len(rootset.unipotent) == 0


def test_brute_force_oracle_agreement(cp2, blowup, square):
    for p in (cp2, blowup, square):
        rootset = enumerate_roots(p)
        assert sorted(r.alpha for r in rootset.roots) == brute_force_roots(p)


def test_distinguished_facet_pairing(cp2_roots, blowup_roots):
    for rootset in (cp2_roots, blowup_roots):
        for root in rootset.roots:
            assert root.pairings[root.distinguished_facet] == 1
            others = [v for i, v in enumerate(root.pairings) if i != root.distinguished_facet]
            assert all(v <= 0 for v in others)
            assert root.pairings.count(1) == 1


def test_split_cp2(cp2_roots):
    assert len(cp2_roots.semisimple) == 6
    assert len(cp2_roots.unipotent) == 0
    assert {tuple(-c for c in r.alpha) for r in cp2_roots.semisimple} == {r.alpha for r in cp2_roots.semisimple}


def test_split_blowup(blowup_roots):
    assert {r.alpha for r in blowup_roots.semisimple} == {(0, 1), (0, -1)}
    assert {r.alpha for r in blowup_roots.unipotent} == {(-1, 0), (-1, -1)}
    assert len(blowup_roots.roots) == len(blowup_roots.semisimple) + len(blowup_roots.unipotent)


def test_automorphism_dimensions(cp2_roots, blowup_roots, square):
    cp2_dims = automorphism_dimensions(cp2_roots)
    assert (cp2_dims.dim_eta, cp2_dims.dim_reductive, cp2_dims.dim_unipotent) == (8, 8, 0)
    blowup_dims = automorphism_dimensions(blowup_roots)
    assert (blowup_dims.dim_eta, blowup_dims.dim_reductive, blowup_dims.dim_unipotent) == (6, 4, 2)
    square_dims = automorphism_dimensions(enumerate_roots(square))
    assert square_dims.dim_eta == 6


def test_requires_algebraic_polytope():
    p = parse_polytope(json.dumps({
        "dim": 2,
        "facets": [
            {"normal": [1, 0], "offset": 2},
            {"normal": [-1, 0], "offset": 2},
            {"normal": [0, 1], "offset": 2},
            {"normal": [0, -1], "offset": 2},
        ],
    }))
    with pytest.raises(MalformedInputError):
        enumerate_roots(p)


UNIMODULAR_MAPS = [
    np.array([[1, 1], [0, 1]]),
    np.array([[1, 0], [1, 1]]),
    np.array([[0, 1], [1, 0]]),
    np.array([[2, 1], [1, 1]]),
    np.array([[1, -1], [0, -1]]),
]


@pytest.mark.parametrize("u", UNIMODULAR_MAPS, ids=lambda m: str(m.tolist()))
def test_roots_transform_contragrediently(blowup, u):
    # vertices map by u, normals by the inverse transpose; roots live in the
    # vertex space, i.e. contragrediently to the normals
    inv_t = np.round(np.linalg.inv(u).T).astype(int)
    assert abs(round(np.linalg.det(u))) == 1
    mapped = parse_polytope(json.dumps({
        "dim": 2,
        "facets": [
            {"normal": [int(c) for c in inv_t @ np.array(f.normal)], "offset": 1}
            for f in blowup.facets
        ],
    }))
    mapped_roots = {r.alpha for r in enumerate_roots(mapped).roots}
    expected = {tuple(int(c) for c in u @ np.array(alpha)) for alpha in BLOWUP_EXPECTED}
    assert mapped_roots == expected


def test_centrally_symmetric_has_no_unipotent_part(square):
    rootset = enumerate_roots(square)
    assert rootset.unipotent == ()


#: normals of the canonical Bl1P2 and Bl2P2 polygons, every offset one
BLOWUP_NORMALS = {
    "Bl1P2": ((0, 1), (-1, 0), (1, 0), (1, -1)),
    "Bl2P2": ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1)),
}


@pytest.mark.parametrize("surface", BLOWUP_NORMALS)
@pytest.mark.parametrize("n", [2, 10, 12, 24, 340, 745], ids=lambda n: f"F{n}")
def test_fibonacci_images_give_the_canonical_blocks(surface, n):
    # gamma = 2 s <alpha, b> with <alpha, b> an exact integer, so the blocks follow the lattice
    # map and gamma rounds once on every image, entries of up to 156 digits included
    normals = BLOWUP_NORMALS[surface]
    canonical = parse_polytope(json.dumps({"dim": 2, "facets": [{"normal": list(nu), "offset": 1} for nu in normals]}))
    image = parse_polytope(json.dumps(fibonacci_image(n, normals)))
    expected = assemble_decomposition(solve_soliton_vector(canonical), enumerate_roots(canonical))
    blocks = assemble_decomposition(solve_soliton_vector(image), enumerate_roots(image)).blocks
    # normals map by M = [[F(n+1), F(n)], [F(n), F(n-1)]], so roots by M^-T and M^T maps them back
    (m11, m12), (m21, m22) = (fibonacci(n + 1), fibonacci(n)), (fibonacci(n), fibonacci(n - 1))
    assert [b["complex_dimension"] for b in blocks] == [b["complex_dimension"] for b in expected.blocks]
    for block, want in zip(blocks, expected.blocks):
        pulled = {(m11 * a1 + m21 * a2, m12 * a1 + m22 * a2) for a1, a2 in (r.alpha for r in block["roots"])}
        assert pulled == {r.alpha for r in want["roots"]}
        assert block["includes_affine"] == want["includes_affine"]
        assert block["gamma"] == pytest.approx(want["gamma"], rel=1e-14, abs=0.0)
