"""Demazure root enumeration, the split, and dimension counts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from toric_soliton.errors import MalformedInputError, NonConvergenceError
from toric_soliton.futaki import solve_soliton_vector
from toric_soliton.polytope import parse_polytope
from toric_soliton.roots import (
    GAMMA_TOL,
    assemble_decomposition,
    automorphism_dimensions,
    brute_force_roots,
    enumerate_roots,
)
from conftest import fibonacci_image


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


@pytest.mark.parametrize("n, resolved", [(2, True), (10, True), (12, True), (24, False)])
def test_gamma_rounding_bound_rejects_a_coarse_soliton_vector(blowup, blowup_roots, n, resolved):
    # gamma = 2 <alpha, a> in floats errs by about eps sum |2 alpha_i a_i|, which grows with the
    # image's entries; past a tenth of GAMMA_TOL the clusters would follow round-off
    p = parse_polytope(json.dumps(fibonacci_image(n)))
    rootset, a = enumerate_roots(p), solve_soliton_vector(p).a
    if resolved:
        gammas = sorted(assemble_decomposition(a, rootset).gamma_values)
        canonical = sorted(assemble_decomposition(solve_soliton_vector(blowup).a, blowup_roots).gamma_values)
        assert np.allclose(gammas, canonical, rtol=0.0, atol=0.1 * GAMMA_TOL)
    else:
        with pytest.raises(NonConvergenceError, match="resolved only to .* in floats"):
            assemble_decomposition(a, rootset)

