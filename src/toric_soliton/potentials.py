"""Symplectic potentials and their derivative stacks.

A potential is evaluated only through its :class:`Stack`: on a batch of m
interior points it holds the gradient, the Hessian ``G``, its inverse
``H``, ``dG``, ``dH`` and Abreu's scalar curvature ``scal`` as plain float
columns, one ``array('d')`` of m values per component.  Polytopes are
two-dimensional, so a symmetric 2x2 field is stored once, as its entries
``(11, 12, 22)``, and its derivatives are derivative-major:

* ``points`` and ``grad``: ``(x1, x2)`` and ``(d1 phi, d2 phi)``;
* ``G`` and ``H``: ``(11, 12, 22)``;
* ``dG`` and ``dH``: ``d1`` of ``(11, 12, 22)``, then ``d2`` of them;
* ``scal``: the one column ``-sum_ij d_i d_j H_ij``.

The stack reaches fourth order in the potential only through ``scal``, so
each family computes just the three second derivatives of ``H`` that it
contracts, ``d11 H11``, ``d12 H12`` and ``d22 H22`` (see ``_abreu``).

:meth:`SymplecticPotential.stack` runs one interior check per batch and
then evaluates every formula column by column, on blocks of ``BLOCK``
points whose list columns are copied into the arrays, so each formula
exists once and a single point is a batch of one.  Every derivative of the
other side comes from closed-form 2x2 algebra on the adjugate (see
``_inverse_jet``), in either direction.  Two families implement it:

* potentials given on the convex-function side (Guillemin, quadratic
  models) supply the gradient, ``G``, ``dG`` and ``d2G`` analytically;
* metrics given on the inverse side (:class:`CalabiPotential`, the
  one-point blow-up soliton built on the closed forms of
  :mod:`toric_soliton.calabi`) supply the gradient, ``H``, ``dH`` and
  the three second derivatives of ``H`` analytically.

Every potential is built on the caller's polygon and keeps it as
``polytope``, the one polygon that operators and checks read.  The Calabi
potential accepts only the algebraic blow-up trapezoid, in any facet
order, and rejects any other polygon with the message of the report's
potential check.

A stack built with ``gradient=False`` skips the gradient, which only the
root profiles read; its ``grad`` is None.

:func:`gradient_by_line_integral` recovers a gradient from ``G`` alone, on
the Gauss-Legendre rule of :mod:`toric_soliton.quadrature`; it is kept as
the independent oracle for closed-form gradients.

Everything here is plain Python on floats, so no command imports numpy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array
from operator import add, sub
from typing import NamedTuple, Sequence

from .calabi import (
    ALPHA1,
    ALPHA2,
    CalabiSoliton,
    from_algebraic_coordinates,
    profile_A,
    profile_B,
)
from .errors import BoundaryEvaluationError, LossOfConvexityError, MalformedInputError
from .polytope import DelzantPolytope, require_blowup_trapezoid
from .quadrature import gauss_legendre

#: points with any facet value at or below this are treated as boundary
BOUNDARY_TOL = 1e-12

#: one float per point of a batch
Column = Sequence[float]
#: (x, y) pairs as plain floats
Pairs = list[tuple[float, float]]


class Stack(NamedTuple):
    """Derivative stack of a potential on m interior points, one float column per component."""

    points: tuple[Column, Column]  # x1, x2
    grad: tuple[Column, Column] | None  # d1 phi, d2 phi; None when built without the gradient
    G: tuple[Column, Column, Column]  # 11, 12, 22
    H: tuple[Column, Column, Column]
    dG: tuple[Column, ...]  # d1 (11, 12, 22), d2 (11, 12, 22)
    dH: tuple[Column, ...]
    scal: Column  # Abreu's scalar curvature -sum_ij d_i d_j H_ij

    @property
    def size(self) -> int:
        """The number of points m."""
        return len(self.points[0])

    def select(self, index) -> Stack:
        """The stack on a subset of its points: a slice, or a sequence of point indices."""
        if isinstance(index, slice):
            def pick(column):
                return column[index]
        else:
            index = list(index)

            def pick(column):
                return array("d", [column[i] for i in index])
        *fields, scal = self
        return Stack(*(None if field is None else tuple(map(pick, field)) for field in fields), pick(scal))


def as_pairs(points) -> Pairs:
    """Float (x, y) pairs of a nonempty sequence of points (numpy arrays included)."""
    try:
        pairs = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"points must be a sequence of (x, y) pairs: {exc}") from None
    if not pairs:
        raise MalformedInputError("no points to evaluate")
    return pairs


#: points per block: a block's columns are lists, freed once copied into the stack's arrays
BLOCK = 4096
#: the number of columns of each stack field from ``grad`` to ``dH``; ``scal`` is one more
_WIDTHS = (2, 3, 3, 6, 6)


def _combine(terms, m: int) -> list[float]:
    """The column sum of c * column over the (c, column) terms, zero coefficients skipped."""
    total = None
    for c, column in terms:
        if c == 0.0:
            continue
        if total is None:
            total = [c * v for v in column]
        elif c == 1.0:
            total = list(map(add, total, column))
        elif c == -1.0:
            total = list(map(sub, total, column))
        else:
            total = [t + c * v for t, v in zip(total, column)]
    return [0.0] * m if total is None else total


# -- closed-form 2x2 algebra on columns; a symmetric matrix is (11, 12, 22) ------


#: the adjugate of (m11, m12, m22) is (m22, -m12, m11): these signs on the reversed entries
_ADJUGATE_SIGNS = (1.0, -1.0, 1.0)


def _abreu(d11h11: Column, d12h12: Column, d22h22: Column) -> list[float]:
    """Abreu's scalar curvature -sum_ij d_i d_j H_ij from the three second derivatives it reads."""
    return [-(p + q + q + r) for p, q, r in zip(d11h11, d12h12, d22h22)]


def _inverse_jet(m, dm, d2m=None) -> tuple:
    """The inverse N = M^-1 of a symmetric 2x2 field with dN, and with d2N when d2M is given.

    By the adjugate: N = A / D with A = (m22, -m12, m11) and D = det M, so
    dN_k = (dA_k - N dD_k) / D and
    d2N_kl = (d2A_kl - dN_l dD_k - dN_k dD_l - N d2D_kl) / D, where
    dD_k = A : dM_k and d2D_kl = A : d2M_kl + dA_l : dM_k, with
    P : Q = p11 q11 + 2 p12 q12 + p22 q22.  Of d2N only the entries
    ``(d11 N11, d12 N12, d22 N22)`` are formed, the ones :func:`_abreu` reads.
    """
    m11, m12, m22 = m
    det = [p * r - q * q for p, q, r in zip(m11, m12, m22)]
    n = tuple([sign * a / d for a, d in zip(column, det)] for sign, column in zip(_ADJUGATE_SIGNS, m[::-1]))

    def over_det(i, derivative, products):
        """(dA_i - products) / D for entry i, dA_i read from a derivative of M."""
        return [(_ADJUGATE_SIGNS[i] * a - t) / d for a, t, d in zip(derivative[2 - i], products, det)]

    first = (dm[:3], dm[3:])
    d_det = [[dp * r + p * dr - 2.0 * q * dq for p, q, r, dp, dq, dr in zip(m11, m12, m22, *d)] for d in first]
    dn = [[over_det(i, d, [x * e for x, e in zip(n[i], dd)]) for i in range(3)] for d, dd in zip(first, d_det)]
    if d2m is None:
        return n, (*dn[0], *dn[1])
    d2n = []
    # entry i of d2N_kl for (k, l) = (0, 0), (0, 1), (1, 1): d11 N11, d12 N12, d22 N22
    for i, (k, l), d2 in zip(range(3), ((0, 0), (0, 1), (1, 1)), (d2m[:3], d2m[3:6], d2m[6:])):
        (pk, qk, rk), (pl, ql, rl) = first[k], first[l]
        d2_det = [
            ppkl * r + p * rrkl - 2.0 * q * qqkl + pk_ * rl_ + pl_ * rk_ - 2.0 * qk_ * ql_
            for p, q, r, ppkl, qqkl, rrkl, pk_, qk_, rk_, pl_, ql_, rl_ in zip(m11, m12, m22, *d2, pk, qk, rk, pl, ql, rl)
        ]
        products = [xl * ek + xk * el + x * e
                    for xl, ek, xk, el, x, e in zip(dn[l][i], d_det[k], dn[k][i], d_det[l], n[i], d2_det)]
        d2n.append(over_det(i, d2, products))
    return n, (*dn[0], *dn[1]), tuple(d2n)


class SymplecticPotential(ABC):
    """Evaluable potential exposing the full derivative stack at interior points."""

    polytope: DelzantPolytope

    def require_interior(self, points: Pairs) -> list[tuple[float, ...]]:
        """Facet values of a batch of (x, y) pairs, every one of which must be interior."""
        rows = self.polytope.facet_values_many(points)
        for point, row in zip(points, rows):
            lowest = min(row)
            if not lowest > BOUNDARY_TOL:
                raise BoundaryEvaluationError(f"point {point} is not interior (min facet value {lowest:.3e})")
        return rows

    def stack(self, points, *, gradient: bool = True) -> Stack:
        """The derivative stack on a batch of interior (x, y) points; ``gradient=False`` skips ``grad``."""
        pairs = as_pairs(points)
        facet_values = self.require_interior(pairs)
        columns = [array("d") for _ in range(sum(_WIDTHS) + 1 - (0 if gradient else 2))]
        for start in range(0, len(pairs), BLOCK):
            end = start + BLOCK
            for column, values in zip(columns, self._columns(pairs[start:end], facet_values[start:end], gradient)):
                column.extend(values)
        fields = [] if gradient else [None]
        for width in _WIDTHS[0 if gradient else 1:]:
            fields.append(tuple(columns[:width]))
            del columns[:width]
        points = (array("d", [x for x, _ in pairs]), array("d", [y for _, y in pairs]))
        return Stack(points, *fields, columns[0])

    @abstractmethod
    def _columns(self, pairs: Pairs, facet_values: list[tuple[float, ...]], gradient: bool) -> list:
        """The stack's columns on a block, grad (if built), G, H, dG, dH and scal in order."""


class PhiSidePotential(SymplecticPotential):
    """Stack driven by analytic grad, G, dG and d2G; the H side is derived."""

    @abstractmethod
    def _phi_columns(self, pairs: Pairs, facet_values: list[tuple[float, ...]], gradient: bool) -> tuple:
        """(grad or (), G, dG, d2G) on a block, in the stack's layouts."""

    def _columns(self, pairs, facet_values, gradient):
        grad, g, dg, d2g = self._phi_columns(pairs, facet_values, gradient)
        h, dh, d2h = _inverse_jet(g, dg, d2g)
        return [*grad, *g, *h, *dg, *dh, _abreu(*d2h)]


class GuilleminPotential(PhiSidePotential):
    """Canonical potential (1/2) sum_r L_r log L_r with analytic derivatives."""

    def __init__(self, polytope: DelzantPolytope):
        self.polytope = polytope
        self._normals = polytope.normal_matrix

    def _phi_columns(self, pairs, facet_values, gradient):
        # G = (1/2) sum_r nu nu^T / L_r, dG = -(1/2) sum_r nu^3 / L_r^2, d2G = sum_r nu^4 / L_r^3
        m = len(pairs)
        ells = list(zip(*facet_values))
        inverse = [[1.0 / v for v in ell] for ell in ells]
        squares = [[v * v for v in r] for r in inverse]
        cubes = [[v * w for v, w in zip(r2, r)] for r2, r in zip(squares, inverse)]

        def moments(scale, degree, columns):
            """scale sum_r a_r^i b_r^(degree - i) columns_r for i = degree, ..., 0, with nu_r = (a_r, b_r)."""
            return [_combine([(scale * a**i * b ** (degree - i), c) for (a, b), c in zip(self._normals, columns)], m)
                    for i in range(degree, -1, -1)]

        g = tuple(moments(0.5, 2, inverse))
        t111, t112, t122, t222 = moments(-0.5, 3, squares)
        q1111, q1112, q1122, q1222, q2222 = moments(1.0, 4, cubes)
        grad = ()
        if gradient:
            logs = [[0.5 * (1.0 + math.log(v)) for v in ell] for ell in ells]
            grad = tuple(_combine([(nu[i], c) for nu, c in zip(self._normals, logs)], m) for i in (0, 1))
        return (
            grad,
            g,
            (t111, t112, t122, t112, t122, t222),
            (q1111, q1112, q1122, q1112, q1122, q1222, q1122, q1222, q2222),
        )


class QuadraticPotential(PhiSidePotential):
    """phi = (1/2) x^T M x; the flat model when M is the identity."""

    def __init__(self, polytope: DelzantPolytope, matrix=None):
        self.polytope = polytope
        (m11, m12), (m21, m22) = ((1.0, 0.0), (0.0, 1.0)) if matrix is None else matrix
        sym = (float(m11), 0.5 * (float(m12) + float(m21)), float(m22))
        # a symmetric 2x2 matrix is positive definite iff its trace and determinant are positive
        if not (sym[0] + sym[2] > 0.0 and sym[0] * sym[2] - sym[1] * sym[1] > 0.0):
            raise LossOfConvexityError("quadratic potential requires a positive definite matrix")
        self._matrix = sym

    def _phi_columns(self, pairs, facet_values, gradient):
        m11, m12, m22 = self._matrix
        m = len(pairs)
        grad = ()
        if gradient:
            grad = ([m11 * x + m12 * y for x, y in pairs], [m12 * x + m22 * y for x, y in pairs])
        zero = [0.0] * m
        return grad, ([m11] * m, [m12] * m, [m22] * m), (zero,) * 6, (zero,) * 9


class HSidePotential(SymplecticPotential):
    """Stack driven by analytic grad, H, dH and the second derivatives scal reads; the G side is derived."""

    @abstractmethod
    def _h_columns(self, pairs: Pairs, gradient: bool) -> tuple:
        """(grad or (), H, dH, (d11 H11, d12 H12, d22 H22)) on a block, in the stack's layouts."""

    def _columns(self, pairs, facet_values, gradient):
        grad, h, dh, d2h = self._h_columns(pairs, gradient)
        g, dg = _inverse_jet(h, dh)
        return [*grad, *g, *h, *dg, *dh, _abreu(*d2h)]


def _calabi_h_jet(s: CalabiSoliton, t: float, mu2: float):
    """H, dH and (d11 H11, d12 H12, d22 H22) at the point (t, mu2) of tau, in the stack's layouts."""
    y = mu2 / t
    a_val, a1d, a2d = profile_A(s, t)
    b_val, b1d, b2d = profile_B(s, y)
    ax = a1d / t - a_val / t**2
    axx = a2d / t - 2.0 * a1d / t**2 + 2.0 * a_val / t**3
    # (f, f_x, f_y) of each entry 11, 12, 22 in the rectangle coordinates (x, y)
    entries = (
        (a_val / t, ax, 0.0),
        (y * a_val / t, y * ax, a_val / t),
        (t * b_val + y * y * a_val / t, b_val + y * y * ax, t * b1d + 2.0 * y * a_val / t),
    )
    # chain rule through y = mu2 / mu1
    h = [f for f, _, _ in entries]
    dh = (*(fx - (y / t) * fy for _, fx, fy in entries), *(fy / t for _, _, fy in entries))
    # d11 = f_xx - 2 (y/t) f_xy + (y/t)^2 f_yy + 2 y f_y / t^2, d12 = f_xy / t - (f_y + y f_yy) / t^2 and
    # d22 = f_yy / t^2, with f_y = f_xy = f_yy = 0 on entry 11 and f_yy = 0 on entry 12
    return h, dh, (axx, -(a_val / t) / t**2 + ax / t, (t * b2d + 2.0 * a_val / t) / t**2)


class CalabiPotential(HSidePotential):
    """Derivative stack of the blow-up soliton metric on the algebraic trapezoid.

    Built on the caller's polygon, which must be the algebraic blow-up
    trapezoid (in any facet order).  The stack lives in algebraic
    coordinates (the trapezoid translated so the privileged center is the
    origin); the metric data is evaluated at the translated point.  The
    gradient has gauge zero at the origin, which rescales root profiles by
    harmless positive constants.  Construction solves the soliton's
    coefficient, ``CalabiSoliton.solve()``, kept as ``soliton``.
    """

    def __init__(self, polytope: DelzantPolytope):
        require_blowup_trapezoid(polytope)
        self.polytope = polytope
        self.soliton = CalabiSoliton.solve()
        # t / A(t) has simple poles at the ends of [ALPHA1, ALPHA2], residue t / A'(t)
        self._poles = tuple((end, end / profile_A(self.soliton, end)[1]) for end in (ALPHA1, ALPHA2))
        self._f_rule = tuple(zip(*gauss_legendre(48)))

    def _h_columns(self, pairs, gradient):
        mus = [from_algebraic_coordinates(p) for p in pairs]
        h, dh, d2h = (list(zip(*field)) for field in zip(*(_calabi_h_jet(self.soliton, t, mu2) for t, mu2 in mus)))
        grad = ()
        if gradient:
            # F depends on mu1 alone: a tensor grid has one value of it per column
            f_of = dict.fromkeys(t for t, _ in mus)
            f_of = dict(zip(f_of, self._f_values(list(f_of))))
            t0, mu20 = from_algebraic_coordinates((0.0, 0.0))
            y0 = mu20 / t0
            c1, c2 = 0.5 * math.log(1.0 - y0), 0.5 * math.log(y0 / (1.0 - y0))
            ys = [mu2 / t for t, mu2 in mus]
            grad = ([f_of[t] + 0.5 * math.log(1.0 - y) - c1 for (t, _), y in zip(mus, ys)],
                    [0.5 * math.log(y / (1.0 - y)) - c2 for y in ys])
        return grad, h, dh, d2h

    def _f_values(self, ts: list[float]) -> list[float]:
        """F(t) - F(t0) at each t, with F'(t) = t / A(t) and t0 the origin's mu1.

        Integrating the rows of G in closed form gives
        grad_2 = (1/2) log(y / (1 - y)) + c2 and
        grad_1 = F(mu1) + (1/2) log(1 - y) + c1.
        The poles of t / A at alpha1 and alpha2 integrate to logarithms;
        the smooth rest of F, from the origin to t, is a 48-node
        Gauss-Legendre sum, accurate up to the boundary.  Constants are
        fixed by the gauge grad(0) = 0.
        """
        t0 = from_algebraic_coordinates((0.0, 0.0))[0]
        out = []
        for t in ts:
            mid, half = 0.5 * (t0 + t), 0.5 * (t - t0)
            smooth = 0.0
            for node, weight in self._f_rule:
                u = mid + half * node
                smooth += weight * (u / profile_A(self.soliton, u)[0] - sum(c / (u - end) for end, c in self._poles))
            out.append(half * smooth + sum(c * math.log((t - end) / (t0 - end)) for end, c in self._poles))
        return out


def gradient_by_line_integral(potential: SymplecticPotential, x, x0) -> tuple[float, float]:
    """Recover grad phi(x) - grad phi(x0) from the Hessian field G alone.

    Integrates G(x0 + s (x - x0)) (x - x0) over s in [0, 1] with composite
    16-node Gauss-Legendre panels, doubling the panel count (at most ten
    times) until the result is stable to 1e-12 relative.  Each level reads
    G from one stack on all of its nodes, built without the gradient, so
    the result is an independent check of closed-form gradients.  Both
    ends must be interior; by convexity the whole segment then is.
    """
    (x1, x2), (a1, a2) = as_pairs([x, x0])
    potential.require_interior([(a1, a2), (x1, x2)])
    d1, d2 = x1 - a1, x2 - a2
    if abs(d1) <= 1e-8 and abs(d2) <= 1e-8:
        return 0.0, 0.0
    nodes, weights = gauss_legendre(16)

    def composite(panels: int) -> tuple[float, float]:
        s = [(p + 0.5 * (node + 1.0)) / panels for p in range(panels) for node in nodes]
        g11, g12, g22 = potential.stack([(a1 + si * d1, a2 + si * d2) for si in s], gradient=False).G
        scale = 0.5 / panels
        w = [wi * scale for wi in weights] * panels
        return (sum([wi * (p * d1 + q * d2) for wi, p, q in zip(w, g11, g12)]),
                sum([wi * (q * d1 + r * d2) for wi, q, r in zip(w, g12, g22)]))

    previous = composite(1)
    for level in range(1, 11):
        current = composite(2**level)
        change = max(abs(current[0] - previous[0]), abs(current[1] - previous[1]))
        if change <= 1e-12 * (1.0 + max(abs(current[0]), abs(current[1]))):
            return current
        previous = current
    return previous

