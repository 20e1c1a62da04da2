"""Shared fixtures: the two worked examples plus a product-of-lines square."""

from __future__ import annotations

import json

import numpy as np
import pytest

from toric_soliton import (
    CalabiPotential,
    CalabiSoliton,
    OperatorContext,
    enumerate_roots,
    guillemin,
    parse_polytope,
    solve_soliton_vector,
)

CP2_DOC = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": 1},
        {"normal": [0, 1], "offset": 1},
        {"normal": [-1, -1], "offset": 1},
    ],
}

BLOWUP_DOC = {
    "dim": 2,
    "facets": [
        {"normal": [0, 1], "offset": 1},
        {"normal": [-1, 0], "offset": 1},
        {"normal": [1, 0], "offset": 1},
        {"normal": [1, -1], "offset": 1},
    ],
}

SQUARE_DOC = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": 1},
        {"normal": [-1, 0], "offset": 1},
        {"normal": [0, 1], "offset": 1},
        {"normal": [0, -1], "offset": 1},
    ],
}


@pytest.fixture(scope="session")
def cp2():
    return parse_polytope(json.dumps(CP2_DOC))


@pytest.fixture(scope="session")
def blowup():
    return parse_polytope(json.dumps(BLOWUP_DOC))


@pytest.fixture(scope="session")
def square():
    return parse_polytope(json.dumps(SQUARE_DOC))


@pytest.fixture(scope="session")
def cp2_soliton(cp2):
    return solve_soliton_vector(cp2)


@pytest.fixture(scope="session")
def blowup_soliton(blowup):
    return solve_soliton_vector(blowup)


@pytest.fixture(scope="session")
def cp2_ctx(cp2, cp2_soliton):
    return OperatorContext(polytope=cp2, potential=guillemin(cp2), a=cp2_soliton.a_array)


@pytest.fixture(scope="session")
def calabi_soliton():
    return CalabiSoliton.solve()


@pytest.fixture(scope="session")
def blowup_ctx(blowup, blowup_soliton, calabi_soliton):
    return OperatorContext(
        polytope=blowup,
        potential=CalabiPotential(calabi_soliton),
        a=blowup_soliton.a_array,
    )


@pytest.fixture(scope="session")
def blowup_guillemin_ctx(blowup, blowup_soliton):
    return OperatorContext(polytope=blowup, potential=guillemin(blowup), a=blowup_soliton.a_array)


@pytest.fixture(scope="session")
def cp2_roots(cp2):
    return enumerate_roots(cp2)


@pytest.fixture(scope="session")
def blowup_roots(blowup):
    return enumerate_roots(blowup)


@pytest.fixture(scope="session")
def cp2_grid(cp2):
    return cp2.interior_grid(21, 0.05)


@pytest.fixture(scope="session")
def blowup_grid(blowup):
    return blowup.interior_grid(21, 0.05)


def interior_points(polytope, count: int, seed: int = 0, margin_fraction: float = 0.05) -> np.ndarray:
    """Deterministic rejection sample of interior points."""
    rng = np.random.default_rng(seed)
    verts = polytope.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    margin = polytope.interior_margin(margin_fraction)
    points = []
    while len(points) < count:
        candidate = lo + (hi - lo) * rng.random(polytope.dim)
        if polytope.facet_values_many(candidate[None]).min() >= margin:
            points.append(candidate)
    return np.array(points)
