"""Seeded request generator for the three benchmark workloads.

Every workload is built from one seeded ``random.Random``; the same seed
gives byte-identical documents and the same request schedule.  Documents
are lattice-equivalent images of the five smooth toric Fano surfaces:

    x' = c (A x + b),   A in GL(2, Z),  b in Q^2,  c in Q_{>0}

which maps a facet ``<nu, x> + 1 >= 0`` of the canonical algebraic polygon
to ``<A^{-T} nu, x'> + c (1 - <A^{-T} nu, b>) >= 0``.  The generator keeps
``A``, ``b`` and ``c`` so the checker can predict every invariant of the
image: roots map to ``A alpha``, the soliton vector to ``A^{-T} a``, the
privileged center to ``c b`` with common value ``c``.

A request schedule is a list of cycles, each with the same mix of request
types.  A run executes whole cycles (see ``run.py``), so the mix a run
measures does not depend on the seed or on where the clock stops.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("structure", "verify-phi", "verify-calabi")

#: canonical algebraic polygons: facet normals, each facet with offset 1
SURFACES = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "Bl1P2": ((0, 1), (-1, 0), (1, 0), (1, -1)),
    "Bl2P2": ((-1, 0), (0, -1), (1, 1), (1, 0), (0, 1)),
    "Bl3P2": ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
}

#: rejection documents before the lattice image: normals and offsets
NON_DELZANT = (((1, 0), (0, 1), (-1, -2)), (1, 1, 1))
NOT_FANO = (((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 1, 1, 2))
MALFORMED_KINDS = ("truncated_json", "non_primitive_normal", "missing_facets", "bad_offset", "too_few_facets")

GRIDS = (15, 21, 27)
#: cycles written per run; a run that executes more wraps around
CYCLES = 4


@dataclass(frozen=True)
class Image:
    """A lattice image x' = c (A x + b) of a canonical polygon, facets permuted."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    shift: tuple[Fraction, Fraction]
    scale: Fraction
    order: tuple[int, ...]

    def normal(self, nu: tuple[int, int]) -> tuple[int, int]:
        """A^{-T} nu; A is unimodular, so the inverse is integral."""
        (p, q), (r, s) = self.matrix
        det = p * s - q * r
        # A^{-1} = det * [[s, -q], [-r, p]], so A^{-T} = det * [[s, -r], [-q, p]]
        return (det * (s * nu[0] - r * nu[1]), det * (-q * nu[0] + p * nu[1]))

    def covector(self, alpha: tuple[int, int]) -> tuple[int, int]:
        """A alpha, the image of a root."""
        (p, q), (r, s) = self.matrix
        return (p * alpha[0] + q * alpha[1], r * alpha[0] + s * alpha[1])

    def facets(self, normals, offsets) -> list[tuple[tuple[int, int], Fraction]]:
        out = []
        for i in self.order:
            nu = self.normal(normals[i])
            offset = self.scale * (Fraction(offsets[i]) - nu[0] * self.shift[0] - nu[1] * self.shift[1])
            out.append((nu, offset))
        return out


@dataclass(frozen=True)
class Request:
    """One CLI call and what its output must satisfy."""

    argv: tuple[str, ...]
    kind: str  # roots | soliton | decompose | verify | calabi | reject
    surface: str | None = None
    image: Image | None = None
    potential: str | None = None
    grid: int | None = None
    expect_exit: int = 0
    expect_first_failed: str | None = None
    label: str = ""


@dataclass
class Plan:
    """The documents of one workload and its request cycles."""

    workload: str
    seed: int
    cycles: list[list[Request]] = field(default_factory=list)
    documents: dict[str, bytes] = field(default_factory=dict)

    def mix(self) -> dict[str, int]:
        """Request labels and their counts in one cycle; every cycle has the same mix."""
        return dict(sorted(Counter(req.label for req in self.cycles[0]).items()))

    def write(self, directory: Path) -> None:
        for name, data in self.documents.items():
            (directory / name).write_bytes(data)


def _unimodular(bound: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    return [((p, q), (r, s)) for p, q, r, s in itertools.product(range(-bound, bound + 1), repeat=4)
            if abs(p * s - q * r) == 1]


GENERAL_MAPS = _unimodular(2)
_IDENTITY = Image(matrix=((1, 0), (0, 1)), shift=(Fraction(0), Fraction(0)), scale=Fraction(1), order=())


def automorphisms(surface: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Maps A with A^{-T} permuting the canonical normals: the polygon is unchanged as a set."""
    normals = set(SURFACES[surface])
    return [m for m in _unimodular(1) if {replace(_IDENTITY, matrix=m).normal(nu) for nu in normals} == normals]


def _draw_image(rng: random.Random, n_facets: int, maps) -> Image:
    shift = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2))
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    order = list(range(n_facets))
    rng.shuffle(order)
    return Image(matrix=rng.choice(maps), shift=shift, scale=scale, order=tuple(order))


def _offset_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _document(facets) -> bytes:
    doc = {"dim": 2, "facets": [{"normal": list(nu), "offset": _offset_text(off)} for nu, off in facets]}
    return (json.dumps(doc) + "\n").encode()


class _Generator:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.plan = Plan(workload=workload, seed=seed)

    def surface_doc(self, surface: str, maps, tag: str) -> tuple[str, Image]:
        normals = SURFACES[surface]
        image = _draw_image(self.rng, len(normals), maps)
        name = f"{tag}.json"
        self.plan.documents[name] = _document(image.facets(normals, [1] * len(normals)))
        return name, image

    def raw_doc(self, tag: str, data: bytes) -> str:
        name = f"{tag}.json"
        self.plan.documents[name] = data
        return name


def _rejection_docs(b: _Generator, cycle: int) -> list[tuple[str, str]]:
    rng = b.rng
    docs = []
    for label, (normals, offsets) in (("non_delzant", NON_DELZANT), ("not_fano", NOT_FANO)):
        image = _draw_image(rng, len(normals), GENERAL_MAPS)
        docs.append((label, b.raw_doc(f"c{cycle}-{label}", _document(image.facets(normals, offsets)))))
    kind = rng.choice(MALFORMED_KINDS)
    image = _draw_image(rng, 3, GENERAL_MAPS)
    facets = image.facets(SURFACES["P2"], [1, 1, 1])
    if kind == "truncated_json":
        text = _document(facets)
        data = text[: rng.randint(5, len(text) - 5)]
    elif kind == "non_primitive_normal":
        facets[0] = ((2 * facets[0][0][0], 2 * facets[0][0][1]), facets[0][1])
        data = _document(facets)
    elif kind == "missing_facets":
        data = b'{"dim": 2}\n'
    elif kind == "bad_offset":
        doc = json.loads(_document(facets))
        doc["facets"][rng.randrange(3)]["offset"] = "one/two"
        data = (json.dumps(doc) + "\n").encode()
    else:
        data = _document(facets[:2])
    docs.append(("malformed", b.raw_doc(f"c{cycle}-malformed-{kind}", data)))
    return docs


def _structure(b: _Generator) -> None:
    for c in range(CYCLES):
        cycle = []
        for surface in SURFACES:
            name, image = b.surface_doc(surface, GENERAL_MAPS, f"c{c}-{surface}")
            for command in ("roots", "soliton", "decompose"):
                argv = (command, name, "--format", "json")
                if command == "decompose":
                    argv += ("--potential", "guillemin")
                cycle.append(Request(argv=argv, kind=command, surface=surface, image=image,
                                     potential="guillemin" if command == "decompose" else None,
                                     label=f"{command}:{surface}"))
        grid = b.rng.choice((25, 50, 100))
        cycle.append(Request(argv=("calabi", "--grid", str(grid), "--format", "json"), kind="calabi",
                             grid=grid, label="calabi"))
        for label, name in _rejection_docs(b, c):
            command = b.rng.choice(("roots", "soliton", "decompose"))
            cycle.append(Request(argv=(command, name, "--format", "json"), kind="reject", expect_exit=2,
                                 label=f"reject:{label}"))
        b.rng.shuffle(cycle)
        b.plan.cycles.append(cycle)


#: verify-phi slots: (surface, lattice image or canonical, expected first failed check)
PHI_SLOTS = (
    ("P2", False, None),
    ("P2", True, None),
    ("P1xP1", False, None),
    ("P1xP1", True, None),
    ("Bl1P2", True, "affine_eigenfunctions_max_rel_residual"),
    ("Bl2P2", True, "affine_eigenfunctions_max_rel_residual"),
)


def _verify_phi(b: _Generator) -> None:
    # A cycle runs every slot at every grid.  The images are lattice
    # automorphisms of the canonical polygon, so they share its interior
    # grid: a general GL(2, Z) image changes the grid's point count (9 to
    # 169 on P2 at grid 21), which would tie the work of a run to the seed.
    for c in range(CYCLES):
        by_grid: dict[int, list[Request]] = {g: [] for g in GRIDS}
        for surface, imaged, first_failed in PHI_SLOTS:
            normals = SURFACES[surface]
            for grid in GRIDS:
                tag = f"c{c}-{surface}-{'image' if imaged else 'canonical'}-{grid}"
                if imaged:
                    name, image = b.surface_doc(surface, automorphisms(surface), tag)
                else:
                    image = replace(_IDENTITY, order=tuple(range(len(normals))))
                    name = b.raw_doc(tag, _document(image.facets(normals, [1] * len(normals))))
                by_grid[grid].append(Request(
                    argv=("verify", name, "--potential", "guillemin", "--grid", str(grid), "--format", "json"),
                    kind="verify", surface=surface, image=image, potential="guillemin", grid=grid,
                    expect_exit=4 if first_failed else 0, expect_first_failed=first_failed,
                    label=f"verify:{surface}:{grid}",
                ))
        grid_order = list(GRIDS)
        b.rng.shuffle(grid_order)
        for reqs in by_grid.values():
            b.rng.shuffle(reqs)
        b.plan.cycles.append([by_grid[g][i] for i in range(len(PHI_SLOTS)) for g in grid_order])


#: verify-calabi cycle: grids of the verify calls, then two decompose calls
#: (each grid drawn from ``GRIDS``; decompose time does not depend on it)
CALABI_CYCLE = (15, 15, 15, 15, 15, 21, 27, None, None)


def _verify_calabi(b: _Generator) -> None:
    # Identical requests here vary by about 15% from one call to the next,
    # and a run holds only about 18 of them.  Five grid-15 calls per cycle,
    # with the two cheaper decompose calls below them, put the median and
    # the tail percentile in the middle of the largest request type, so
    # they are order statistics of about ten samples of one type, not of
    # two or three.  A short cycle also lets a run hold two whole cycles.
    # GL(2, Z) images are left out: the closed-form potential is defined
    # only for the trapezoid's own normals.
    trivial = [((1, 0), (0, 1))]
    for c in range(CYCLES):
        cycle = []
        for k, grid in enumerate(CALABI_CYCLE):
            name, image = b.surface_doc("Bl1P2", trivial, f"c{c}-{k}")
            if grid is None:
                grid = b.rng.choice(GRIDS)
                command, label = "decompose", "decompose-calabi"
            else:
                command, label = "verify", f"verify-calabi:{grid}"
            cycle.append(Request(
                argv=(command, name, "--potential", "calabi", "--grid", str(grid), "--format", "json"),
                kind=command, surface="Bl1P2", image=image, potential="calabi", grid=grid, label=label,
            ))
        b.rng.shuffle(cycle)
        b.plan.cycles.append(cycle)


def build_plan(workload: str, seed: int) -> Plan:
    """Documents and request cycles of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    b = _Generator(workload, seed)
    {"structure": _structure, "verify-phi": _verify_phi, "verify-calabi": _verify_calabi}[workload](b)
    return b.plan
