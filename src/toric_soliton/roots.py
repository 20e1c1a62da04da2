"""Demazure roots of an algebraic Delzant polytope.

A lattice covector ``alpha`` is a root when it pairs to exactly one with a
single distinguished facet normal and non-positively with every other.
Enumeration is exact and exhaustive: the lattice points of the line
``<alpha, nu_rho> = 1`` are ``alpha_0 + k perp(nu_rho)`` for integer ``k``,
and every other facet bounds ``k`` from one side by an exact floor or
ceiling, so the roots of each facet are one integer interval of ``k``.

Given the soliton vector ``a``, the roots cluster by gamma = 2 <alpha, a>
into the solitonic eigenspace decomposition.  The clusters are seeded with
the affine block (complex dimension two) at gamma = 0, which every root
with |gamma| <= ``GAMMA_TOL`` joins, so the block dimensions add up to
dim eta.  With the fan-side soliton vector all gamma are non-negative.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

from .errors import MalformedInputError, NonConvergenceError, UnboundedRootRegionError
from .polytope import DIM, DelzantPolytope


class DemazureRoot(NamedTuple):
    """A root alpha with its distinguished facet and all facet pairings."""

    alpha: tuple[int, ...]
    distinguished_facet: int
    pairings: tuple[int, ...]


class RootSet(NamedTuple):
    """All roots of a polytope, split into semisimple and unipotent parts."""

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


#: clustering tolerance for eigenvalue grouping
GAMMA_TOL = 1e-9


class SolitonDecomposition(NamedTuple):
    """Eigenvalue clusters gamma = 2 <alpha, a>, one of them the affine block at zero."""

    blocks: tuple[dict, ...]
    gamma_values: tuple[float, ...]

    @property
    def total_complex_dimension(self) -> int:
        return sum(b["complex_dimension"] for b in self.blocks)


def assemble_decomposition(a, rootset: RootSet) -> SolitonDecomposition:
    """Cluster roots by gamma = 2 <alpha, a> around the affine block at gamma = 0.

    ``a`` is the soliton vector.  The affine block has gamma 0.0 exactly
    and holds every root with |gamma| <= ``GAMMA_TOL``.  The other roots,
    in ascending gamma, join the cluster before them when within
    ``GAMMA_TOL`` of its first member; a cluster's gamma is its mean.
    Blocks are ordered by ascending gamma and the members of each block by
    ascending alpha, so neither order follows the sign of round-off in a.
    Raises :class:`NonConvergenceError` when a gamma's rounding bound
    ``2 eps sum_i |alpha_i a_i|`` exceeds a tenth of ``GAMMA_TOL``, which
    lattice images with normal entries near a thousand reach.
    """
    a = tuple(float(c) for c in a)
    # each gamma sums 2 alpha_i a_i in floats, so the rounding of a reaches it as about
    # eps sum |2 alpha_i a_i|; past a tenth of the tolerance the clusters would follow round-off
    bound = 2.0 * sys.float_info.epsilon * max((sum(abs(c * x) for c, x in zip(r.alpha, a)) for r in rootset.roots),
                                               default=0.0)
    if not bound <= 0.1 * GAMMA_TOL:
        raise NonConvergenceError(f"a root's gamma is resolved only to {bound:.1e} in floats, "
                                  f"above a tenth of the clustering tolerance {GAMMA_TOL:g}")
    entries = sorted(
        ((2.0 * sum(c * x for c, x in zip(root.alpha, a)), root) for root in rootset.roots),
        key=lambda item: item[0],
    )

    affine: list = []
    clusters: list[list] = []
    for gamma, root in entries:
        if abs(gamma) <= GAMMA_TOL:
            affine.append((gamma, root))
        elif clusters and abs(gamma - clusters[-1][0][0]) <= GAMMA_TOL:
            clusters[-1].append((gamma, root))
        else:
            clusters.append([(gamma, root)])

    blocks = []
    for cluster in (affine, *clusters):
        cluster.sort(key=lambda item: item[1].alpha)
        includes_affine = cluster is affine
        roots = tuple(r for _, r in cluster)
        blocks.append({
            "gamma": 0.0 if includes_affine else sum(g for g, _ in cluster) / len(cluster),
            "roots": roots,
            "includes_affine": includes_affine,
            "complex_dimension": len(roots) + (DIM if includes_affine else 0),
        })
    blocks.sort(key=lambda b: b["gamma"])
    return SolitonDecomposition(blocks=tuple(blocks), gamma_values=tuple(b["gamma"] for b in blocks))


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
