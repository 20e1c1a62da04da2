"""Shared fixtures: the two worked examples plus a product-of-lines square.

The package computes on plain float columns; numpy is the tests' oracle.
``expand`` turns a :class:`~toric_soliton.Stack` into the arrays
``(m, 2)`` ... ``(m, 2, 2, 2, 2)`` with the batch axis first, ``batch``
does the same for any nested tuple of columns, and ``column_jet`` and
``array_jet`` translate profile jets between the two layouts.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from typing import NamedTuple

from toric_soliton.calabi import CalabiSoliton
from toric_soliton.futaki import solve_soliton_vector
from toric_soliton.operators import OperatorContext
from toric_soliton.polytope import parse_polytope
from toric_soliton.potentials import CalabiPotential, GuilleminPotential
from toric_soliton.quadrature import polygon_rule
from toric_soliton.roots import enumerate_roots

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
    return OperatorContext(potential=GuilleminPotential(cp2), a=cp2_soliton.a)


@pytest.fixture(scope="session")
def calabi_soliton():
    return CalabiSoliton.solve()


@pytest.fixture(scope="session")
def blowup_ctx(blowup, blowup_soliton):
    return OperatorContext(potential=CalabiPotential(blowup), a=blowup_soliton.a)


@pytest.fixture(scope="session")
def blowup_guillemin_ctx(blowup, blowup_soliton):
    return OperatorContext(potential=GuilleminPotential(blowup), a=blowup_soliton.a)


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


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci_image(n: int, normals=tuple(tuple(f["normal"]) for f in BLOWUP_DOC["facets"])) -> dict:
    """The F(n) image of a polygon document: each normal mapped by [[F(n+1), F(n)], [F(n), F(n-1)]], offsets 1.

    The matrix has determinant (-1)^n, so the image is lattice-equivalent;
    its entries have about 0.21 n digits.
    """
    (m11, m12), (m21, m22) = (fibonacci(n + 1), fibonacci(n)), (fibonacci(n), fibonacci(n - 1))
    return {"dim": 2, "facets": [{"normal": [m11 * x + m12 * y, m21 * x + m22 * y], "offset": 1} for x, y in normals]}


def interior_points(polytope, count: int, seed: int = 0, margin_fraction: float = 0.05) -> np.ndarray:
    """Deterministic rejection sample of interior points."""
    rng = np.random.default_rng(seed)
    verts = np.array(polytope.vertex_points)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    margin = polytope.interior_margin(margin_fraction)
    points = []
    while len(points) < count:
        candidate = lo + (hi - lo) * rng.random(2)
        if min(polytope.facet_values_many([candidate])[0]) >= margin:
            points.append(candidate)
    return np.array(points)


def integrate(polytope, f, order: int = 10) -> float:
    """The integral of a field over the polygon on :func:`polygon_rule`.

    ``f`` is called once, with the list of every node, and returns the
    values there.
    """
    points, weights, _ = polygon_rule(polytope, order)
    return sum([w * v for w, v in zip(weights, f(points))])


def batch(columns) -> np.ndarray:
    """A nested tuple of columns, component indices outermost, as an array with the batch axis first."""
    return np.moveaxis(np.asarray(columns), -1, 0)


def symmetric(c11, c12, c22) -> np.ndarray:
    """The (m, 2, 2) array of a symmetric field stored as its columns 11, 12 and 22."""
    c11, c12, c22 = (np.asarray(c) for c in (c11, c12, c22))
    return np.stack([np.stack([c11, c12], axis=-1), np.stack([c12, c22], axis=-1)], axis=-2)


class ArrayStack(NamedTuple):
    """A stack as arrays: ``dG[m, i, j, k] = d_k G_ij`` and ``scal[m]``."""

    points: np.ndarray
    grad: np.ndarray | None
    G: np.ndarray
    H: np.ndarray
    dG: np.ndarray
    dH: np.ndarray
    scal: np.ndarray


def expand(s) -> ArrayStack:
    """The stack's columns as the arrays (m, 2), (m, 2), (m, 2, 2), (m, 2, 2), (m, 2, 2, 2), (m, 2, 2, 2), (m,)."""

    def first(d):
        return np.stack([symmetric(*d[:3]), symmetric(*d[3:])], axis=-1)

    return ArrayStack(
        points=batch(s.points),
        grad=None if s.grad is None else batch(s.grad),
        G=symmetric(*s.G),
        H=symmetric(*s.H),
        dG=first(s.dG),
        dH=first(s.dH),
        scal=np.asarray(s.scal),
    )


def array_jet(jet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A jet of columns as the arrays u (m,), du (m, 2) and d2u (m, 2, 2)."""
    u, du, d2u = jet
    return np.asarray(u), batch(du), symmetric(*d2u)


def column_jet(jet):
    """A jet written on arrays, reading ``expand(s)`` and returning (m,), (m, 2), (m, 2, 2), as a column jet."""

    def wrapped(s):
        u, du, d2u = jet(expand(s))
        return list(u), (list(du[:, 0]), list(du[:, 1])), (list(d2u[:, 0, 0]), list(d2u[:, 0, 1]), list(d2u[:, 1, 1]))

    return wrapped
