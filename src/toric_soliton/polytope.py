"""Delzant polygons for toric Fano surfaces.

A polygon is stored by its facet data ``{x : <nu_r, x> + lambda_r >= 0}``
with primitive integer normals ``nu_r`` and rational offsets ``lambda_r``,
kept as exact ``Fraction`` values.  Every polytope has dimension two
(``DIM``): the moment images of toric surfaces.

Validation is exact.  Boundedness comes from the recession cone.  The
rest comes from one integer form of the facet system: with ``q`` the
least common denominator of the offsets, facet r is the integer row
``(a_r, b_r, l_r) = (nu_r, lambda_r q)``.  Two rows meet where Cramer's
rule puts them, ``(b m - d l, c l - a m) / (q det)`` with
``det = a d - b c``, and facet r has the sign of
``a_r X + b_r Y + l_r det`` there (``det > 0``), so feasibility, the
active facets and the interior are integer sign tests.  Only the points
kept become ``Fraction`` values, each solved from the integer rows of
its own two facets.  The privileged center is the same 2x2 solve on the
difference rows ``L_j - L_i`` and ``L_k - L_i`` of the first facet triple
whose normals allow it, and its residual over all facets is exact.

Floats appear only at the analysis boundary (quadrature, metric
evaluation, reports), so an offset or vertex coordinate outside the float
range is rejected at construction.  So is a number the interpreter could
not write back as text: an integer literal, or the exact numerator or
denominator of an offset, of more than ``MAX_DIGITS`` digits.  The float
geometry that the analysis reads (facet values, normal rows, the interior
grid) is plain tuples and lists of floats.

The records (:class:`Facet`, :class:`PrivilegedCenter`,
:class:`DelzantVerdict`) are ``typing.NamedTuple`` classes, as are those
of every other module; :class:`Facet` validates its normal and reads its
offset exactly when constructed.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DegenerateVertexError,
    EmptyInteriorError,
    MalformedInputError,
    NonPrimitiveNormalError,
    NotFanoError,
    RedundantFacetError,
    UnboundedPolytopeError,
    UnsupportedDimensionError,
)

#: the dimension of every polytope: the moment images of toric surfaces
DIM = 2

#: tolerance for the privileged-center residual
CENTER_TOL = 1e-9

#: most decimal digits in a normal entry, a JSON integer literal, and the
#: numerator or denominator of an offset: the interpreter's default int/str
#: conversion limit, so every accepted value can be written back as text
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS


class Facet(NamedTuple("Facet", [("normal", tuple[int, ...]), ("offset", Fraction)])):
    """One inequality <normal, x> + offset >= 0 of the polytope.

    Construction checks for an integer, nonzero, primitive normal of at
    most ``MAX_DIGITS`` digits per entry and reads the offset exactly as a
    ``Fraction``.
    """

    __slots__ = ()

    def __new__(cls, normal: tuple[int, ...], offset) -> Facet:
        if not normal or any(isinstance(c, bool) or not isinstance(c, int) for c in normal):
            raise MalformedInputError(f"facet normal must be an integer vector, got {normal!r}")
        if any(abs(c) >= _DIGIT_BOUND for c in normal):
            raise MalformedInputError(f"facet normal has an entry of more than {MAX_DIGITS} digits")
        if all(c == 0 for c in normal):
            raise MalformedInputError("facet normal must be nonzero")
        if math.gcd(*(abs(c) for c in normal)) != 1:
            raise NonPrimitiveNormalError(f"facet normal {normal} is not primitive")
        return super().__new__(cls, normal, _as_fraction(offset))


class PrivilegedCenter(NamedTuple):
    """The unique point where all facet functions share one positive value."""

    point: tuple[float, ...]
    common_value: float
    exact_point: tuple[Fraction, ...]
    exact_value: Fraction
    residual: float


class DelzantVerdict(NamedTuple):
    """Outcome of the per-vertex unimodularity check."""

    passed: bool
    vertex_determinants: tuple[tuple[tuple[float, ...], int], ...]

    def failures(self) -> list[tuple[tuple[float, ...], int]]:
        return [(v, d) for v, d in self.vertex_determinants if abs(d) != 1]


def _parse_int(literal: str) -> int:
    """A JSON integer literal, rejected beyond ``MAX_DIGITS`` digits."""
    digits = len(literal.lstrip("-"))
    if digits > MAX_DIGITS:
        raise MalformedInputError(f"integer literal has {digits} digits, more than {MAX_DIGITS}")
    return int(literal)


def _parse_fraction(text: str) -> Fraction:
    """Exact value of a decimal or 'p/q' text: a JSON number or an offset string.

    A run of more than ``MAX_DIGITS`` digits, or a decimal exponent beyond
    ``2 MAX_DIGITS``, is rejected before any integer is formed: when every
    digit run is at most ``MAX_DIGITS`` long, such an exponent leaves a
    nonzero value a numerator or denominator longer than ``MAX_DIGITS``.
    """
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    if longest > MAX_DIGITS:
        raise MalformedInputError(f"number has a run of {longest} digits, more than {MAX_DIGITS}")
    exponent = text.strip().lower().partition("e")[2].lstrip("+-").lstrip("0")
    if exponent.isdecimal() and int(exponent) > 2 * MAX_DIGITS:
        raise MalformedInputError(f"number {text.strip()} has a decimal exponent beyond {2 * MAX_DIGITS}")
    try:
        exact = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"cannot parse offset {text!r}") from exc
    return _bounded(exact)


def _bounded(exact: Fraction) -> Fraction:
    """The exact value, rejected when its numerator or denominator has more than ``MAX_DIGITS`` digits."""
    if abs(exact.numerator) >= _DIGIT_BOUND or exact.denominator >= _DIGIT_BOUND:
        raise MalformedInputError(
            f"number (about {_magnitude(exact)}) has more than {MAX_DIGITS} digits in its numerator or denominator"
        )
    return exact


def _as_fraction(value) -> Fraction:
    """Exact conversion of an input offset (int, Fraction, float, decimal or 'p/q' string)."""
    if isinstance(value, bool):
        raise MalformedInputError(f"offset must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise MalformedInputError(f"offset must be finite, got {value!r}")
    if isinstance(value, str):
        return _parse_fraction(value)
    if isinstance(value, (int, float, Fraction)):
        return _bounded(Fraction(value))
    raise MalformedInputError(f"offset must be a number or 'p/q' string, got {value!r}")


def _magnitude(value: Fraction) -> str:
    """Scientific notation of a rational that may not fit in a float."""
    return f"{Decimal(value.numerator) / Decimal(value.denominator):.3e}"


def _to_float(value: Fraction, what: str) -> float:
    """Float of an exact value, rejecting one beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise MalformedInputError(f"{what} (about {_magnitude(value)}) is beyond the float range") from None


def linspace(start: float, stop: float, num: int) -> list[float]:
    """The floats of ``numpy.linspace(start, stop, num)``: ``start + i * step``, the last one ``stop``."""
    step = (stop - start) / max(num - 1, 1)
    return [stop if 0 < i == num - 1 else start + i * step for i in range(num)]


#: an affine function <normal, x> + offset, as a :class:`Facet` is
Affine = tuple[tuple[int, ...], Fraction]
#: an integer row (a, b, l) of the affine function a x + b y + l
Row = tuple[int, int, int]


def _integer_system(facets: Sequence[Affine]) -> tuple[int, tuple[Row, ...]]:
    """The affine functions ``<(a, b), x> + lambda`` over the integers.

    Returns ``q``, the least common denominator of the offsets, and the
    row ``(a, b, lambda q)`` of each function: ``q`` times the function
    at ``(x, y) / q``.
    """
    q = math.lcm(*(offset.denominator for _, offset in facets))
    return q, tuple((*normal, offset.numerator * (q // offset.denominator)) for normal, offset in facets)


def _cramer(first: Row, second: Row) -> Row:
    """``(x, y, det)`` with ``a x + b y + l det = 0`` on both rows ``(a, b, l)``, and ``det >= 0``.

    ``det`` is zero when the rows are parallel; otherwise ``(x, y) / det``
    is their one common zero ``a u + b v + l = 0``.
    """
    (a, b, l), (c, d, m) = first, second
    x, y, det = b * m - d * l, c * l - a * m, a * d - b * c
    return (-x, -y, -det) if det < 0 else (x, y, det)


def _meet(first: Affine, second: Affine) -> tuple[Fraction, Fraction]:
    """The exact common zero of two affine functions ``(normal, offset)`` with independent normals.

    Cramer's rule on the integer system of these two functions alone, so
    the numbers stay as small as their own offsets.
    """
    q, rows = _integer_system((first, second))
    x, y, det = _cramer(*rows)
    return Fraction(x, q * det), Fraction(y, q * det)


def _int_det(matrix: list[tuple[int, ...]]) -> int:
    """Determinant of a 2x2 integer matrix."""
    (a, b), (c, d) = matrix
    return a * d - b * c


def _recession_directions(normals: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Integer candidates for a nonzero direction of ``{v : <nu_r, v> >= 0}``.

    That cone, when nonzero, has a boundary ray on some line
    ``<nu_i, v> = 0``, so the ``±perp(nu_i)`` suffice.
    """
    return [(-s * b, s * a) for a, b in normals for s in (1, -1)]


def _spans_full_dimension(points: list[tuple[Fraction, ...]]) -> bool:
    """True when the distinct points are not all on one line."""
    base = points[0]
    diffs = [(q[0] - base[0], q[1] - base[1]) for q in points[1:]]
    return any(diffs[0][0] * w[1] - diffs[0][1] * w[0] != 0 for w in diffs[1:])


class DelzantPolytope:
    """Bounded simple polygon with primitive integer facet normals.

    Construction validates the facet data exactly, in this order: more
    than ``DIM`` facets, each normal of length ``DIM``, boundedness (a
    nonzero recession direction is rejected, even when the system is also
    infeasible), nonempty interior (some feasible facet intersection, and
    not all of them on one line), float range of offsets and vertex
    coordinates, simplicity (exactly two facets through each vertex) and
    non-redundancy.  Primitivity is checked by :class:`Facet`, and the
    document's ``dim`` (2; any other raises
    :class:`UnsupportedDimensionError`) by :func:`parse_polytope`.
    Unimodularity of vertex normal bases is *not* enforced here;
    :func:`delzant_check` reports it.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, facets: Iterable[Facet]):
        facets = tuple(facets)
        if len(facets) <= DIM:
            raise MalformedInputError(f"need more than {DIM} facets, got {len(facets)}")
        for f in facets:
            if len(f.normal) != DIM:
                raise MalformedInputError(f"facet normal {f.normal} has wrong dimension (expected {DIM})")
        self.facets = facets
        self._check_bounded()
        self._integer_system = _integer_system(facets)
        self._vertex_data = self._enumerate_vertices()
        self._offset_floats = tuple(_to_float(f.offset, f"offset of facet {i}") for i, f in enumerate(facets))
        self._vertex_floats = tuple(
            tuple(_to_float(c, "vertex coordinate") for c in pt) for pt, _ in self._vertex_data
        )
        self._check_simple()
        self._check_facets_supported()

    # -- construction checks ------------------------------------------------

    def _check_bounded(self) -> None:
        normals = [f.normal for f in self.facets]
        for v in _recession_directions(normals):
            if all(a * v[0] + b * v[1] >= 0 for a, b in normals):
                raise UnboundedPolytopeError(f"region unbounded in direction {v}")

    def _enumerate_vertices(self) -> tuple[tuple[tuple[Fraction, ...], frozenset[int]], ...]:
        """Exact points where two facets meet inside the region, with their active sets.

        In a bounded region these are exactly the vertices.  Raises
        :class:`EmptyInteriorError` when there is none (infeasible) or when
        they all lie on one point or line (empty interior).
        """
        _, rows = self._integer_system
        found: dict[tuple[Fraction, ...], frozenset[int]] = {}
        for i, j in itertools.combinations(range(len(rows)), 2):
            x, y, det = _cramer(rows[i], rows[j])
            if det == 0:
                continue
            # facet r at the meeting point is (a x + b y + l det) / (q det): a sign test on integers
            values = [a * x + b * y + l * det for a, b, l in rows]
            if min(values) >= 0:
                found[_meet(self.facets[i], self.facets[j])] = frozenset(r for r, v in enumerate(values) if v == 0)
        if not found:
            raise EmptyInteriorError("facet inequalities are infeasible")
        if not _spans_full_dimension(list(found)):
            raise EmptyInteriorError("polytope has empty interior")
        return tuple(sorted(found.items()))

    def _check_simple(self) -> None:
        for (_, active), point in zip(self._vertex_data, self._vertex_floats):
            if len(active) > DIM:
                raise DegenerateVertexError(
                    f"{len(active)} facets meet at vertex {point}; polytope is not simple"
                )

    def _check_facets_supported(self) -> None:
        counts = [0] * len(self.facets)
        for _, active in self._vertex_data:
            for i in active:
                counts[i] += 1
        for i, c in enumerate(counts):
            if c < DIM:
                raise RedundantFacetError(f"facet {i} (normal {self.facets[i].normal}) supports no (n-1)-face")

    # -- basic geometry -----------------------------------------------------

    @cached_property
    def _facet_coefficients(self) -> tuple[tuple[float, float, float], ...]:
        """(a, b, c) of each facet value L(x) = a x1 + b x2 + c, as floats."""
        return tuple((float(f.normal[0]), float(f.normal[1]), c) for f, c in zip(self.facets, self._offset_floats))

    @property
    def vertex_points(self) -> tuple[tuple[float, ...], ...]:
        """Vertex coordinates as float tuples, sorted lexicographically."""
        return self._vertex_floats

    @property
    def vertex_data(self) -> tuple[tuple[tuple[Fraction, ...], frozenset[int]], ...]:
        """Exact vertices with their active facet index sets."""
        return self._vertex_data

    @property
    def normal_matrix(self) -> tuple[tuple[float, ...], ...]:
        """The facet normals as float rows, one per facet."""
        return tuple((a, b) for a, b, _ in self._facet_coefficients)

    @property
    def is_algebraic(self) -> bool:
        """True when every offset equals one (privileged center at the origin)."""
        return all(f.offset == 1 for f in self.facets)

    def facet_values_many(self, pts) -> list[tuple[float, ...]]:
        """The facet values (L_1(x), ..., L_d(x)) of each (x1, x2) point."""
        coefficients = self._facet_coefficients
        return [tuple([a * x + b * y + c for a, b, c in coefficients]) for x, y in pts]

    @property
    def spread(self) -> float:
        """Largest coordinate range over the vertex set."""
        return max(max(axis) - min(axis) for axis in zip(*self._vertex_floats))

    def interior_margin(self, margin_fraction: float = 0.05) -> float:
        return margin_fraction * self.spread

    def interior_grid(self, n: int = 21, margin_fraction: float = 0.05) -> list[tuple[float, float]]:
        """Tensor grid over the bounding box clipped to {min_r L_r >= margin}.

        The axes are the floats of ``numpy.linspace`` over the vertex box,
        and the points run x1 outer, x2 inner, as in an ``ij`` meshgrid.
        """
        xs, ys = zip(*self._vertex_floats)
        margin = self.interior_margin(margin_fraction)
        coefficients = self._facet_coefficients
        return [
            (x, y) for x in linspace(min(xs), max(xs), n) for y in linspace(min(ys), max(ys), n)
            if min([a * x + b * y + c for a, b, c in coefficients]) >= margin
        ]

    # -- equality and serialization ------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, DelzantPolytope) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"DelzantPolytope(facets={len(self.facets)}, vertices={len(self._vertex_data)})"

    def to_dict(self) -> dict:
        return {
            "dim": DIM,
            "facets": [
                {
                    "normal": list(f.normal),
                    "offset": int(f.offset) if f.offset.denominator == 1 else f"{f.offset.numerator}/{f.offset.denominator}",
                }
                for f in self.facets
            ],
        }


# -- module-level operations ----------------------------------------------


def parse_polytope(source: str | bytes) -> DelzantPolytope:
    """Parse and validate a polytope document.

    The document is JSON of the form
    ``{"dim": n, "facets": [{"normal": [int, ...], "offset": number|"p/q"}, ...]}``.
    Decimal offsets are read exactly (no binary-float round trip).  The
    document's ``dim`` is checked once the facets are built: a positive
    integer, and ``DIM``.
    """
    if not isinstance(source, (str, bytes)):
        raise MalformedInputError(f"unsupported source type {type(source)!r}")
    try:
        doc = json.loads(source, parse_float=_parse_fraction, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInputError("invalid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "facets" not in doc:
        raise MalformedInputError("document must be an object with 'dim' and 'facets'")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise MalformedInputError(f"'dim' must be an integer, got {dim!r}")
    raw_facets = doc["facets"]
    if not isinstance(raw_facets, list) or not raw_facets:
        raise MalformedInputError("'facets' must be a nonempty list")
    facets = []
    for entry in raw_facets:
        if not isinstance(entry, dict) or "normal" not in entry or "offset" not in entry:
            raise MalformedInputError(f"facet entry {entry!r} must have 'normal' and 'offset'")
        normal = entry["normal"]
        if not isinstance(normal, list):
            raise MalformedInputError(f"facet normal must be a list, got {normal!r}")
        facets.append(Facet(normal=tuple(normal), offset=_as_fraction(entry["offset"])))
    if dim < 1:
        raise MalformedInputError(f"dim must be a positive integer, got {dim!r}")
    if dim != DIM:
        raise UnsupportedDimensionError(f"polytopes of dim {DIM} only, got dim {dim}")
    return DelzantPolytope(facets)


def delzant_check(p: DelzantPolytope) -> DelzantVerdict:
    """Check that each vertex's active normals form a lattice basis (|det| = 1)."""
    records = []
    passed = True
    for pt, active in p.vertex_data:
        matrix = [p.facets[i].normal for i in sorted(active)]
        det = _int_det(matrix)
        if abs(det) != 1:
            passed = False
        records.append((tuple(float(c) for c in pt), det))
    return DelzantVerdict(passed=passed, vertex_determinants=tuple(records))


def privileged_center(p: DelzantPolytope) -> PrivilegedCenter:
    """Solve L_1(x) = ... = L_d(x) = c with c > 0.

    The overdetermined system is solved exactly on the first facet triple
    ``(i, j, k)`` whose differences ``L_j - L_i`` and ``L_k - L_i`` have
    independent normals: ``x`` is their common zero and ``c = L_i(x)``.
    The remaining rows must agree to ``CENTER_TOL`` (1e-9), measured
    exactly: offsets within that distance of a Fano polygon's are accepted,
    and :func:`normalize_algebraic` then normalizes them to that polygon.
    Raises :class:`NotFanoError` when no consistent positive common value
    exists.
    """
    q, rows = p._integer_system
    for i, j, k in itertools.combinations(range(len(rows)), 3):
        a, b, l = rows[i]
        differences = [(r - a, s - b, t - l) for r, s, t in rows]
        x, y, det = _cramer(differences[j], differences[k])
        if det != 0:
            break
    else:
        raise NotFanoError("facet system is rank deficient; no unique center")
    # L_r - L_i is (a x + b y + l det) / (q det) at the common zero, on its difference row (a, b, l)
    residual = Fraction(max(abs(a * x + b * y + l * det) for a, b, l in differences), q * det)
    if residual > CENTER_TOL:
        raise NotFanoError(f"no common facet value (residual {_magnitude(residual)})")
    (u, v), offset = p.facets[i]
    point = _meet(*(((c - u, d - v), other - offset) for (c, d), other in (p.facets[j], p.facets[k])))
    value = u * point[0] + v * point[1] + offset
    if value <= 0:
        raise NotFanoError(f"common facet value {float(value):.6g} is not positive")
    return PrivilegedCenter(
        point=tuple(_to_float(c, "privileged center coordinate") for c in point),
        common_value=_to_float(value, "privileged center value"),
        exact_point=point,
        exact_value=value,
        residual=float(residual),
    )


#: a 2x2 integer matrix as its rows
IntMatrix = tuple[tuple[int, int], tuple[int, int]]


def lattice_automorphisms(p: DelzantPolytope) -> tuple[IntMatrix, ...]:
    """The integer matrices M that permute the facet normals of ``p``, the identity first.

    Such an M maps the normal pair of a vertex onto the normal pair of a
    vertex, so the candidates send the first vertex's pair (nu_i, nu_j)
    onto each vertex's pair, in both orders: M = [nu_k nu_l] [nu_i nu_j]^-1,
    kept when it is integer and permutes the normals.  When every offset
    is one, M^T maps ``p`` onto itself, so M ranges over the lattice
    automorphisms of the polygon acting on normals.
    """
    normals = [f.normal for f in p.facets]
    pairs = [[normals[i] for i in sorted(active)] for _, active in p.vertex_data]
    (a, c), (b, d) = pairs[0]
    det = a * d - b * c
    found = []
    for first, second in pairs:
        for (p1, p2), (q1, q2) in ((first, second), (second, first)):
            # [nu_k nu_l] times the adjugate of [nu_i nu_j], over its determinant
            entries = (p1 * d - q1 * c, q1 * a - p1 * b, p2 * d - q2 * c, q2 * a - p2 * b)
            if any(e % det for e in entries):
                continue
            m11, m12, m21, m22 = (e // det for e in entries)
            if sorted((m11 * x + m12 * y, m21 * x + m22 * y) for x, y in normals) == sorted(normals):
                found.append(((m11, m12), (m21, m22)))
    return tuple(found)


def normalize_algebraic(p: DelzantPolytope) -> DelzantPolytope:
    """Translate the center to the origin and scale all offsets to one.

    Idempotent: an already-algebraic polytope is returned unchanged.
    """
    if p.is_algebraic:
        return p
    privileged_center(p)  # raises NotFanoError without a center
    # x -> (x - p0)/c turns every inequality into <nu_r, x'> + 1 >= 0.
    facets = [Facet(normal=f.normal, offset=Fraction(1)) for f in p.facets]
    return DelzantPolytope(facets)


def blowup_trapezoid() -> DelzantPolytope:
    """The algebraic trapezoid of the one-point blow-up of the plane."""
    one = Fraction(1)
    return DelzantPolytope([
        Facet((0, 1), one),
        Facet((-1, 0), one),
        Facet((1, 0), one),
        Facet((1, -1), one),
    ])


def require_blowup_trapezoid(p: DelzantPolytope) -> None:
    """Reject any polygon but the algebraic blow-up trapezoid, whose facets may come in any order."""
    if frozenset(p.facets) != frozenset(blowup_trapezoid().facets):
        raise MalformedInputError("the closed-form soliton potential is only available for the blow-up trapezoid")
