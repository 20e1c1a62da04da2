"""Differential operators on torus-Fourier modes in action-angle coordinates.

A function is represented as a radial profile ``u(x)`` on the polytope
interior together with an integer mode ``k``; the represented function is
``u(x) exp(i <k, t>)``.  Phase factors are never sampled: the angular
sector acts diagonally on modes, contributing ``k^T G k`` from the second
angular derivatives and ``-2 <a, k>`` from the first-order imaginary
term, so every evaluation reduces to x-space.  The conjugate complex
structure flips the sign of that term: its operator is the conjugate
shift ``+4 <a, k> u`` away.

Evaluation surface.  Operators read the potential only through a
:class:`~toric_soliton.potentials.Stack` and evaluate on all of its points
at once, in plain float columns laid out like the stack's: a profile's
``jet`` gives ``(u, (u1, u2), (u11, u12, u22))``, one column of m floats
each, and every operator (``weighted_laplacian``,
``complex_weighted_laplacian``, ``scalar_curvature`` ...) returns a
column of m values; one point is a stack of one.  The components of
``ricci_and_lie_components`` are columns too, indexed component first.
Every value is a real float: the angular sector enters through the real
coefficients above, so no operator needs complex arithmetic.  The
finite-difference oracle reads stacks too, on nine-point stencils: one
stack of 81 points for the profile values and ``H`` and ``G`` at the
stencil centres, and one of nine points for the ``H`` values whose second
differences give the Abreu curvature.
The context, :class:`OperatorContext`, is a named tuple of the potential
and ``a``, read as a tuple of floats; the polygon is the potential's own.

Sign conventions.  The plain Laplacian is the positive-spectrum operator
``-sum_ij d_i(H_ij d_j u)`` (constants are harmonic, ``x^2`` on the flat
model maps to ``-2``); it is ``weighted_laplacian`` in a context with
``a = 0``, and has no function of its own.  The context stores the
fan-side soliton vector ``a`` (see :mod:`toric_soliton.futaki`); the drift
covector on the moment image is its negative, so the weighted Laplacian is

    Delta^{g,a} u = Delta^g u - 2 sum_ij a_i H_ij d_j u,

which makes every affine function an eigenfunction with eigenvalue two on
a soliton and keeps the solitonic spectrum 2 <alpha, a> non-negative.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, NamedTuple

from .errors import MalformedInputError
from .polytope import DIM
from .potentials import Column, Stack, SymplecticPotential, as_pairs

#: (u, (u1, u2), (u11, u12, u22)) on a batch, one column of m floats each
Jet = tuple[Column, tuple[Column, Column], tuple[Column, Column, Column]]


class EquivariantFunction(NamedTuple):
    """Torus mode k plus a radial profile with analytic derivatives.

    ``jet`` evaluates the profile on a whole stack, so a profile that
    reads the potential sees it only through the stack it is given.
    """

    mode: tuple[int, ...]
    jet: Callable[[Stack], Jet]


def max_abs(values) -> float:
    """max |v| over a column; 0.0 for none, and NaN when any entry is NaN."""
    magnitudes = list(map(abs, values))
    total = sum(magnitudes)
    return total if total != total else max(magnitudes, default=0.0)


def dot(u, v) -> float:
    return sum(map(mul, u, v))


def affine_jet(b, c: float, s: Stack) -> Jet:
    """The jet of <x, b> + c on the stack."""
    b1, b2 = (float(v) for v in b)
    m = s.size
    zero = [0.0] * m
    return [b1 * x + b2 * y + c for x, y in zip(*s.points)], ([b1] * m, [b2] * m), (zero, zero, zero)


def affine_exp_jet(b, c: float, alpha, s: Stack) -> Jet:
    """The jet of w exp(-<alpha, grad phi>) with w = <x, b> + c, through G and dG.

    With e = exp(-<alpha, grad phi>) and g = G alpha: de = -g e and
    d_j d_k e = (g_j g_k - d_k g_j) e, so
    d(w e) = (b - w g) e and d_j d_k (w e) = (w (g_j g_k - d_k g_j) - b_j g_k - b_k g_j) e.
    """
    (b1, b2), (a1, a2) = (float(v) for v in b), (float(v) for v in alpha)
    exp = math.exp
    e = [exp(-(p * a1 + q * a2)) for p, q in zip(*s.grad)]
    w = [b1 * x + b2 * y + c for x, y in zip(*s.points)]
    g11, g12, g22 = s.G
    ga1 = [a1 * p + a2 * q for p, q in zip(g11, g12)]
    ga2 = [a1 * q + a2 * r for q, r in zip(g12, g22)]
    d1g11, d1g12, _, d2g11, d2g12, d2g22 = s.dG
    return (
        [v * x for v, x in zip(w, e)],
        ([(b1 - v * p) * x for v, p, x in zip(w, ga1, e)], [(b2 - v * q) * x for v, q, x in zip(w, ga2, e)]),
        ([(v * (p * p - (a1 * d11 + a2 * d12)) - 2.0 * b1 * p) * x
          for v, p, d11, d12, x in zip(w, ga1, d1g11, d1g12, e)],
         [(v * (p * q - (a1 * d11 + a2 * d12)) - b1 * q - b2 * p) * x
          for v, p, q, d11, d12, x in zip(w, ga1, ga2, d2g11, d2g12, e)],
         [(v * (q * q - (a1 * d12 + a2 * d22)) - 2.0 * b2 * q) * x
          for v, q, d12, d22, x in zip(w, ga2, d2g12, d2g22, e)]),
    )


def profile_constant(c: float, mode: tuple[int, ...] = (0,) * DIM) -> EquivariantFunction:
    return EquivariantFunction(mode, lambda s: affine_jet((0.0, 0.0), float(c), s))


def profile_linear(b) -> EquivariantFunction:
    """Torus-invariant profile <x, b>."""
    b = tuple(float(v) for v in b)
    return EquivariantFunction((0,) * DIM, lambda s: affine_jet(b, 0.0, s))


def profile_coordinate(i: int) -> EquivariantFunction:
    return profile_linear([1.0 if j == i else 0.0 for j in range(DIM)])


def profile_product(u: EquivariantFunction, v: EquivariantFunction) -> EquivariantFunction:
    """Product of two torus-invariant profiles."""
    if any(u.mode) or any(v.mode):
        raise MalformedInputError("profile products are defined for torus-invariant factors")

    def jet(s) -> Jet:
        (fu, (f1, f2), (f11, f12, f22)), (gu, (g1, g2), (g11, g12, g22)) = u.jet(s), v.jet(s)
        return (
            [p * q for p, q in zip(fu, gu)],
            ([a * q + p * b for a, p, b, q in zip(f1, fu, g1, gu)],
             [a * q + p * b for a, p, b, q in zip(f2, fu, g2, gu)]),
            ([a * q + p * b + 2.0 * c * d for a, q, p, b, c, d in zip(f11, gu, fu, g11, f1, g1)],
             [a * q + p * b + c * d + e * r for a, q, p, b, c, d, e, r in zip(f12, gu, fu, g12, f1, g2, g1, f2)],
             [a * q + p * b + 2.0 * c * d for a, q, p, b, c, d in zip(f22, gu, fu, g22, f2, g2)]),
        )

    return EquivariantFunction(u.mode, jet)


def profile_exp_pairing(alpha, mode: tuple[int, ...] = (0,) * DIM) -> EquivariantFunction:
    """Profile exp(-<alpha, grad phi>) with derivatives through G and dG."""
    alpha = tuple(float(c) for c in alpha)
    return EquivariantFunction(mode, lambda s: affine_exp_jet((0.0, 0.0), 1.0, alpha, s))


class OperatorContext(NamedTuple("OperatorContext", [
    ("potential", SymplecticPotential), ("a", tuple[float, ...]),
])):
    """Potential, whose polygon the operators read, and fan-side soliton vector.

    Construction reads ``a`` as a tuple of two floats.
    """

    __slots__ = ()

    def __new__(cls, potential: SymplecticPotential, a) -> OperatorContext:
        try:
            a = tuple(float(c) for c in a)
        except (TypeError, ValueError):
            a = None
        if a is None or len(a) != DIM:
            raise MalformedInputError(f"soliton vector must be {DIM} numbers")
        return super().__new__(cls, potential, a)


# -- operators -------------------------------------------------------------------


def apply_to_jet(s: Stack, jet: Jet, mode: tuple[int, ...], a, shift: float = 0.0) -> list[float]:
    """-div(H grad u) + (k^T G k + shift) u - 2 a^T H grad u on every stack point, from the jet of u.

    The weighted Laplacian on mode k has the context's a and no shift, and
    the complex weighted one also shift = -2 <a, k>.
    """
    u, (u1, u2), (u11, u12, u22) = jet
    d1h11, d1h12, _, _, d2h12, d2h22 = s.dH
    k1, k2 = mode
    a1, a2 = a
    c11, c12, c22 = k1 * k1, 2.0 * k1 * k2, k2 * k2
    # sum_ij d_i(H_ij d_j u) = sum_j (sum_i d_i H_ij) d_j u + sum_ij H_ij d_i d_j u
    return [
        (c11 * g11 + c12 * g12 + c22 * g22 + shift) * v
        - ((p + q + 2.0 * (a1 * h11 + a2 * h12)) * v1 + (r + t + 2.0 * (a1 * h12 + a2 * h22)) * v2
           + (h11 * w11 + 2.0 * h12 * w12 + h22 * w22))
        for p, q, r, t, v, v1, v2, w11, w12, w22, h11, h12, h22, g11, g12, g22
        in zip(d1h11, d2h12, d1h12, d2h22, u, u1, u2, u11, u12, u22, *s.H, *s.G)
    ]


def weighted_laplacian(ctx: OperatorContext, f: EquivariantFunction, s: Stack) -> list[float]:
    """Weighted Laplacian: -div(H grad u) + (k^T G k) u plus the moment-image drift -2 a^T H grad u."""
    return apply_to_jet(s, f.jet(s), f.mode, ctx.a)


def complex_weighted_laplacian(ctx: OperatorContext, f: EquivariantFunction, s: Stack) -> list[float]:
    """Complex weighted Laplacian (real part).

    On mode k the angular sector contributes (k^T G k - 2 <a, k>) u in
    total; the conjugate structure's operator is this one plus the
    conjugate shift 4 <a, k> u.
    """
    return apply_to_jet(s, f.jet(s), f.mode, ctx.a, -2.0 * dot(ctx.a, f.mode))


def product_rule_defects(ctx: OperatorContext, u: EquivariantFunction, v: EquivariantFunction,
                         s: Stack) -> list[float]:
    """Delta(uv) - v Delta u - u Delta v + 2 grad u^T H grad v for torus-invariant profiles."""
    ju, jv = u.jet(s), v.jet(s)
    lhs = weighted_laplacian(ctx, profile_product(u, v), s)
    (fu, (u1, u2), _), (fv, (v1, v2), _) = ju, jv
    return [
        left - (q * lu + p * lv - 2.0 * (x1 * (h11 * y1 + h12 * y2) + x2 * (h12 * y1 + h22 * y2)))
        for left, p, q, lu, lv, x1, x2, y1, y2, h11, h12, h22
        in zip(lhs, fu, fv, apply_to_jet(s, ju, u.mode, ctx.a), apply_to_jet(s, jv, v.mode, ctx.a),
               u1, u2, v1, v2, *s.H)
    ]


def scalar_curvature(s: Stack) -> list[float]:
    """Abreu scalar curvature -sum_ij d^2 H_ij / dx_i dx_j on every stack point."""
    d2h = s.d2H
    return [-(p + q + q + r) for p, q, r in zip(d2h[0], d2h[4], d2h[8])]


def soliton_residuals(ctx: OperatorContext, s: Stack, scal_mean: float) -> list[float]:
    """Defect Scal(x) - scal_mean + 2 Delta^g <x, a> of the soliton equation on every stack point."""
    a1, a2 = ctx.a
    d1h11, d1h12, _, _, d2h12, d2h22 = s.dH
    # Delta^g <x, a> = -sum_ij a_j d_i H_ij
    return [
        scal - scal_mean - 2.0 * ((p + q) * a1 + (r + t) * a2)
        for scal, p, q, r, t in zip(scalar_curvature(s), d1h11, d2h12, d1h12, d2h22)
    ]


def ricci_and_lie_components(ctx: OperatorContext, s: Stack) -> tuple:
    """Ricci components and the Lie-derivative components of the soliton field.

    Each is ``((c11, c12), (c21, c22))``, a column per entry.
    Ric[k, l] = -(1/2) sum_i d^2 H_li / dx_i dx_k; the Lie components use
    the moment-image drift covector (-a), which makes the soliton identity
    Ric - Lie = identity hold with the fan-side vector stored in the context.
    """
    d11h11, d11h12, _, d12h11, d12h12, d12h22, _, d22h12, d22h22 = s.d2H
    d1h11, d1h12, d1h22, d2h11, d2h12, d2h22 = s.dH
    a1, a2 = ctx.a

    def half_sum(p, q):
        return [-0.5 * (x + y) for x, y in zip(p, q)]

    def pairing(p, q):
        return [a1 * x + a2 * y for x, y in zip(p, q)]

    ric = ((half_sum(d11h11, d12h12), half_sum(d11h12, d12h22)),
           (half_sum(d12h11, d22h12), half_sum(d12h12, d22h22)))
    lie = ((pairing(d1h11, d1h12), pairing(d1h12, d1h22)),
           (pairing(d2h11, d2h12), pairing(d2h12, d2h22)))
    return ric, lie


# -- finite-difference oracle ------------------------------------------------

#: the nine-point stencil in units of the step, offset (a, b) at index 3 (a + 1) + (b + 1)
_STENCIL = tuple((a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0))


def _first_differences(v, h: float) -> tuple[float, float]:
    """Central first differences at the centre of nine values v on the stencil."""
    return (v[7] - v[1]) / (2.0 * h), (v[5] - v[3]) / (2.0 * h)


def _second_differences(v, h: float) -> tuple[float, float, float]:
    """Central second differences (11, 12, 22) at the centre of nine values v on the stencil."""
    return (
        (v[7] - 2.0 * v[4] + v[1]) / h**2,
        (v[8] - v[6] - v[2] + v[0]) / (4.0 * h**2),
        (v[5] - 2.0 * v[4] + v[3]) / h**2,
    )


def _around(centers, h: float) -> list[tuple[float, float]]:
    """The stencil of step h around every centre, stencil-major: point s of centre c at 9 s + c."""
    return [(x + h * a, y + h * b) for a, b in _STENCIL for x, y in centers]


def finite_difference_oracle(ctx: OperatorContext, f: EquivariantFunction, x) -> tuple[float, float]:
    """Re-evaluate the complex weighted Laplacian of f and the Abreu curvature at x.

    Returns ``(complex_weighted, abreu)``, computed from values of the
    profile, ``H`` and ``G`` alone, so both are independent of the
    analytic derivatives ``dH``, ``d2H`` and the operator assembly.  Every
    value comes from one of two stacks of the context potential, so the
    oracle runs on either potential family.  The complex weighted term
    takes first differences of u and of the flux ``H grad u`` over the
    stencil of step ``h = 0.005 d`` around x: one 81-point stack on the
    stencils around its nine centres gives every value of u, and ``H``
    and ``G`` at the centres.  The Abreu term takes second differences of
    ``H`` from one nine-point stack, without the gradient, on the stencil
    of step ``0.02 d``.  Here ``d`` is the distance from x to the boundary.
    """
    x = as_pairs([x])
    ell = ctx.potential.require_interior(x)[0]
    distance = min(v / math.sqrt(a * a + b * b) for v, (a, b) in zip(ell, ctx.potential.polytope.normal_matrix))

    h = 0.005 * distance
    s = ctx.potential.stack(_around(_around(x, h), h))
    u = f.jet(s)[0]
    # stencil point 4 is the offset (0, 0), so the nine centres are points 36 to 44
    centres = s.select(slice(36, 45))
    h11, h12, h22 = centres.H
    du1, du2 = zip(*(_first_differences(u[c::9], h) for c in range(9)))
    flux1 = [p * a + q * b for p, q, a, b in zip(h11, h12, du1, du2)]
    flux2 = [q * a + r * b for q, r, a, b in zip(h12, h22, du1, du2)]
    divergence = _first_differences(flux1, h)[0] + _first_differences(flux2, h)[1]
    # x is centre 4, point 40 of the stack
    (k1, k2), (a1, a2), (g11, g12, g22) = f.mode, ctx.a, (c[4] for c in centres.G)
    weighted = (
        -divergence
        + (((k1 * g11 + k2 * g12) * k1 + (k1 * g12 + k2 * g22) * k2) - 2.0 * (a1 * k1 + a2 * k2)) * u[40]
        - 2.0 * ((a1 * h11[4] + a2 * h12[4]) * du1[4] + (a1 * h12[4] + a2 * h22[4]) * du2[4])
    )

    h3 = 0.02 * distance
    h11, h12, h22 = ctx.potential.stack(_around(x, h3), gradient=False).H
    abreu = -(_second_differences(h11, h3)[0] + 2.0 * _second_differences(h12, h3)[1] + _second_differences(h22, h3)[2])
    return weighted, abreu
