"""Demazure roots of an algebraic Delzant polytope.

A lattice covector ``alpha`` is a root when it pairs to exactly one with a
single distinguished facet normal and non-positively with every other.
Enumeration is exact and exhaustive: the lattice points of the line
``<alpha, nu_rho> = 1`` are ``alpha_0 + k perp(nu_rho)`` for integer ``k``,
and every other facet bounds ``k`` from one side by an exact floor or
ceiling, so the roots of each facet are one integer interval of ``k``.

Given the soliton vector ``a = s b``, with b the integer generator of the
lattice that the polygon's lattice automorphisms fix, gamma = 2 <alpha, a>
is 2 s k with k = <alpha, b> an exact integer.  The roots group by k into
the solitonic eigenspace decomposition: a semisimple root's Weyl
reflection fixes b, so k = 0 on it, and the k = 0 block also holds the
affine block (complex dimension two), so the block dimensions add up to
dim eta.  With the fan-side soliton vector all gamma are non-negative.
No tolerance is involved.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import MalformedInputError, UnboundedRootRegionError
from .polytope import DIM, DelzantPolytope


class DemazureRoot(NamedTuple):
    """A root alpha with its distinguished facet and all facet pairings."""

    alpha: tuple[int, ...]
    distinguished_facet: int
    pairings: tuple[int, ...]


class RootSet(NamedTuple):
    """All roots of a polytope in ascending alpha, split into semisimple and unipotent parts."""

    roots: tuple[DemazureRoot, ...]
    semisimple: tuple[DemazureRoot, ...]
    unipotent: tuple[DemazureRoot, ...]


class AutomorphismDimensions(NamedTuple):
    """Complex dimensions of the holomorphic vector field decomposition."""

    dim_eta: int
    dim_reductive: int
    dim_unipotent: int


def _line_point(nu: tuple[int, int]) -> tuple[int, int]:
    """An integer point alpha_0 with <alpha_0, nu> = 1, by the extended gcd."""
    a, b = nu
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    # a = ±gcd = ±1 for a primitive normal
    return (a * x0, a * y0)


def _facet_roots(normals: list[tuple[int, ...]], rho: int) -> list[tuple[int, ...]]:
    """Lattice points of {alpha : <alpha, nu_rho> = 1, <alpha, nu_r> <= 0 for r != rho}."""
    nu = normals[rho]
    others = [m for r, m in enumerate(normals) if r != rho]
    base, step = _line_point(nu), (-nu[1], nu[0])
    lo = hi = None
    for m in others:
        # <m, base + k step> <= 0, i.e. k * s <= -c
        c = m[0] * base[0] + m[1] * base[1]
        s = m[0] * step[0] + m[1] * step[1]
        if s > 0:
            hi = -c // s if hi is None else min(hi, -c // s)
        elif s < 0:
            bound = -(-c // -s)
            lo = bound if lo is None else max(lo, bound)
        elif c > 0:
            return []
    if lo is None or hi is None:
        raise UnboundedRootRegionError(
            f"root region of facet {rho} is unbounded; normals do not positively span"
        )
    return [(base[0] + k * step[0], base[1] + k * step[1]) for k in range(lo, hi + 1)]


def enumerate_roots(p: DelzantPolytope) -> RootSet:
    """Enumerate all Demazure roots of an algebraic polytope.

    Raises :class:`UnboundedRootRegionError` when a facet's region is
    unbounded (the facet normals then fail to positively span, i.e. the
    input does not come from a complete fan).
    """
    if not p.is_algebraic:
        raise MalformedInputError("root enumeration requires an algebraic polytope (all offsets 1)")
    normals = [f.normal for f in p.facets]
    roots: dict[tuple[int, ...], DemazureRoot] = {}
    for rho in range(len(normals)):
        for alpha in _facet_roots(normals, rho):
            pairings = tuple(sum(a * c for a, c in zip(alpha, nu)) for nu in normals)
            roots[alpha] = DemazureRoot(alpha=alpha, distinguished_facet=rho, pairings=pairings)
    ordered = tuple(roots[a] for a in sorted(roots))
    return _split(ordered)


def _split(roots: tuple[DemazureRoot, ...]) -> RootSet:
    alphas = {r.alpha for r in roots}
    semi = tuple(r for r in roots if tuple(-c for c in r.alpha) in alphas)
    unip = tuple(r for r in roots if tuple(-c for c in r.alpha) not in alphas)
    return RootSet(roots=roots, semisimple=semi, unipotent=unip)


def automorphism_dimensions(rootset: RootSet) -> AutomorphismDimensions:
    """Complex dimensions 2 + |R|, 2 + |S|, |U| of the automorphism algebra."""
    return AutomorphismDimensions(
        dim_eta=DIM + len(rootset.roots),
        dim_reductive=DIM + len(rootset.semisimple),
        dim_unipotent=len(rootset.unipotent),
    )


class SolitonDecomposition(NamedTuple):
    """Eigenvalue blocks gamma = 2 <alpha, a>, one of them the affine block at zero."""

    blocks: tuple[dict, ...]
    gamma_values: tuple[float, ...]

    @property
    def total_complex_dimension(self) -> int:
        return sum(b["complex_dimension"] for b in self.blocks)


def assemble_decomposition(soliton, rootset: RootSet) -> SolitonDecomposition:
    """Group the roots by the integer k = <alpha, b> of the soliton vector ``a = s b``.

    ``soliton`` is the :class:`~toric_soliton.futaki.SolitonData` of the
    solve; k is 0 on every root when its ``b`` is None (``a = 0``).  The
    k = 0 block holds the affine block.  Each block's gamma is
    ``2.0 * s * k + 0.0``, one rounding and never -0.0.  Blocks are
    ordered by ascending gamma and the members of each block by ascending
    alpha, the order of ``rootset.roots``.
    """
    s, b = soliton.s, soliton.b
    levels: dict[int, list[DemazureRoot]] = {0: []}
    for root in rootset.roots:
        k = 0 if b is None else root.alpha[0] * b[0] + root.alpha[1] * b[1]
        levels.setdefault(k, []).append(root)
    blocks = sorted(
        ({
            "gamma": 2.0 * s * k + 0.0,
            "roots": tuple(members),
            "includes_affine": k == 0,
            "complex_dimension": len(members) + (DIM if k == 0 else 0),
        } for k, members in levels.items()),
        key=lambda block: block["gamma"],
    )
    return SolitonDecomposition(blocks=tuple(blocks), gamma_values=tuple(block["gamma"] for block in blocks))


def brute_force_roots(p: DelzantPolytope) -> list[tuple[int, ...]]:
    """Independent oracle: scan the integer box [-B, B]^2 against the definition.

    B = 1 + the ceiling of the largest exact vertex coordinate magnitude.
    Used by the test suite to confirm the exact line enumeration misses
    nothing.
    """
    radius = 1 + max(math.ceil(abs(c)) for pt, _ in p.vertex_data for c in pt)
    normals = [f.normal for f in p.facets]
    found = []
    for alpha in itertools.product(range(-radius, radius + 1), repeat=DIM):
        pairings = [sum(a * c for a, c in zip(alpha, nu)) for nu in normals]
        ones = [i for i, v in enumerate(pairings) if v == 1]
        if len(ones) != 1:
            continue
        if all(v <= 0 for i, v in enumerate(pairings) if i != ones[0]):
            found.append(alpha)
    return sorted(found)
