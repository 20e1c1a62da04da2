"""Soliton vector from the vanishing of the weighted affine moments.

Sign convention.  The input polytope is the moment image P; the fan-side
(algebraic) polytope is its reflection -P.  The soliton vector reported
here is the fan-side one (Wang-Zhu): the unique minimizer of the strictly
convex functional

    W(a) = integral over P of exp(+2 <a, x>) dv
         = integral over -P of exp(-2 <a, x>) dv,

evaluated as written, with no change of sign anywhere in the solve; its
vanishing gradient is the weighted-moment condition on the fan-side
polytope.  With this convention the nonzero pairings 2 <alpha, a> with
the Demazure roots are non-negative (the solitonic spectrum is
positive), and for the blown-up plane the first component of ``a`` is the
negative root of the one-point blow-up transcendental equation (see
:mod:`toric_soliton.calabi`).  The moment-image drift covector used by
the differential operators is ``-a``.

The solve is exact up to one scalar root.  Every lattice automorphism M
of P (:func:`~toric_soliton.polytope.lattice_automorphisms`) leaves W
invariant under a -> M a, so the minimizer lies on the lattice that the
whole group fixes, the image of the group sum R = sum M (Wang-Zhu,
Adv. Math. 188, 2004).  When R = 0, ``a`` is (0.0, 0.0) with no
iteration.  Otherwise a primitive column b of R spans it, and ``a = s b``
with s the minimizer of

    W(s b) = integral of exp(2 s t) rho(t) dt,

where rho is the Duistermaat-Heckman density of P along b: the
push-forward of dv under t = <b, x>, which is piecewise linear with
breakpoints at the vertex levels <b, v> (:func:`line_density`).  On each
piece W, its first two derivatives in s and the first moment
int x exp(2 s t) dv are closed forms in ``I_m(y) = int_0^1 u^m e^(y u)
du``, m <= 3 (:func:`exp_moments`), so the solve reads no quadrature.
The scalar Newton iteration carries the last evaluation, so each point is
evaluated once and the reported residuals reuse the final one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import NonConvergenceError
from .polytope import DelzantPolytope, lattice_automorphisms, normalize_algebraic

MAX_NEWTON_ITERATIONS = 60

#: terms of the |y| < 2 series of :func:`exp_moments`: the k-th is at most 2^k / k!, below 1e-21 at k = 30
SERIES_TERMS = 30

#: (W, dW/ds, d2W/ds2, (int x_1 w dv, int x_2 w dv)) at one point s, with w = exp(2 s <b, x>)
Volume = tuple[float, float, float, tuple[float, float]]
#: the pieces (t0, h, rho0, drho, m0x, m0y, dmx, dmy) of a density: on t = t0 + h u, 0 <= u <= 1,
#: the density is rho0 + drho u and the chord midpoint (m0x + dmx u, m0y + dmy u)
Density = tuple[tuple[float, ...], ...]


class SolitonData(NamedTuple):
    """Solved soliton vector a = s b with Einstein constant and diagnostics.

    ``b`` is the primitive generator of the group's fixed lattice, None
    when that lattice is 0; ``a`` is ``(s b_1 + 0.0, s b_2 + 0.0)``, or
    ``(0.0, 0.0)`` with ``s = 0.0`` when ``b`` is None.
    """

    a: tuple[float, ...]
    s: float
    b: tuple[int, int] | None
    lam: float
    futaki_residual: float
    residuals: tuple[float, ...]
    iterations: tuple[dict, ...]


def fixed_direction(group) -> tuple[int, int] | None:
    """A primitive generator b of the lattice that every matrix of ``group`` fixes; None when it is 0.

    That lattice is the image of the group sum R, so b is the first
    nonzero column of R divided by the gcd of its entries.
    """
    for b in zip(*[[sum(m[i][j] for m in group) for j in range(2)] for i in range(2)]):
        if b != (0, 0):
            g = math.gcd(*b)
            return b[0] // g, b[1] // g
    return None


def chords(p: DelzantPolytope, b: tuple[int, int]) -> list[tuple[Fraction, Fraction, tuple[Fraction, Fraction]]]:
    """The exact ``(t, rho(t), m(t))`` at each vertex level t = <b, v> of ``p``, ascending in t.

    With x = (t b + sigma b_perp) / |b|^2 and b_perp = (-b_2, b_1), the map
    (t, sigma / |b|^2) -> x has Jacobian 1, so rho(t) is the extent of
    sigma / |b|^2 on the chord <b, x> = t and m(t) is the chord's
    midpoint.  Facet <nu, x> + lambda >= 0 reads
    t <nu, b> + sigma <nu, b_perp> + lambda |b|^2 >= 0 there, a lower bound
    on sigma when <nu, b_perp> > 0 and an upper one when it is negative.
    """
    b1, b2 = b
    norm2 = b1 * b1 + b2 * b2
    rows = [(nu1 * b1 + nu2 * b2, nu2 * b1 - nu1 * b2, offset * norm2) for (nu1, nu2), offset in p.facets]
    result = []
    for t in sorted({b1 * v[0] + b2 * v[1] for v, _ in p.vertex_data}):
        low = max(-(t * a + lam) / c for a, c, lam in rows if c > 0)
        high = min(-(t * a + lam) / c for a, c, lam in rows if c < 0)
        mid = (low + high) / 2
        result.append((t, (high - low) / norm2, ((t * b1 - mid * b2) / norm2, (t * b2 + mid * b1) / norm2)))
    return result


def line_density(p: DelzantPolytope, b: tuple[int, int]) -> Density:
    """The Duistermaat-Heckman density of ``p`` along ``b`` as float pieces between its :func:`chords`.

    Each exact quantity (a level, a step, a density value or slope, a
    midpoint or its slope) becomes a float once, through ``Fraction``, so
    no exact integer such as |b|^2 is ever converted on its own.
    """
    exact = chords(p, b)
    pieces = []
    for (t0, rho0, (m0x, m0y)), (t1, rho1, (m1x, m1y)) in zip(exact, exact[1:]):
        pieces.append(tuple(float(c) for c in (t0, t1 - t0, rho0, rho1 - rho0, m0x, m0y, m1x - m0x, m1y - m0y)))
    return tuple(pieces)


def exp_moments(y: float) -> tuple[float, ...]:
    """``(I_0, I_1, I_2, I_3)`` at ``y``, with ``I_m(y) = int_0^1 u^m exp(y u) du``.

    For |y| >= 2, the recursion ``I_0 = expm1(y) / y`` and
    ``I_m = (e^y - m I_(m-1)) / y``.  For |y| < 2, a series of positive
    terms in x = |y|: ``sum_k x^k / (k! (m + k + 1))`` when y >= 0, and
    ``e^y sum_k m! x^k / (m + k + 1)!`` when y < 0, where the first
    would alternate; ``m! k! / (m + k)! = 1 / C(m + k, m)``.
    """
    if abs(y) >= 2.0:
        e = math.exp(y)
        moments = [math.expm1(y) / y]
        for m in (1, 2, 3):
            moments.append((e - m * moments[-1]) / y)
        return tuple(moments)
    sums, term = [0.0] * 4, 1.0  # x^k / k!
    for k in range(SERIES_TERMS):
        for m in range(4):
            sums[m] += term / ((m + k + 1) * (math.comb(m + k, m) if y < 0.0 else 1))
        term *= abs(y) / (k + 1)
    return tuple(sums) if y >= 0.0 else tuple(math.exp(y) * v for v in sums)


def weighted_volume(density: Density, s: float) -> Volume:
    """W(s b) = int_P exp(2 s <b, x>) dv with dW/ds, d2W/ds2 and the first moment, from ``density``.

    On a piece t = t0 + h u with density rho0 + drho u, the weight is
    h exp(2 s t0) exp(y u), y = 2 s h, so the piece contributes
    h exp(2 s t0) (rho0 I_j + drho I_(j+1)) to int u^j rho, j = 0, 1, 2;
    W' = 2 int t rho and W'' = 4 int t^2 rho follow by t = t0 + h u, and
    the first moment from the chord midpoint, int x w dv = int m rho.
    The sums are plain loops, the same on every Python version.
    """
    value = slope = curvature = mx = my = 0.0
    for t0, h, rho0, drho, m0x, m0y, dmx, dmy in density:
        i0, i1, i2, i3 = exp_moments(2.0 * s * h)
        scale = h * math.exp(2.0 * s * t0)
        # r_j = int over the piece of u^j rho w dt
        r0, r1, r2 = (scale * (rho0 * lower + drho * upper) for lower, upper in ((i0, i1), (i1, i2), (i2, i3)))
        value += r0
        slope += t0 * r0 + h * r1
        curvature += t0 * t0 * r0 + 2.0 * t0 * h * r1 + h * h * r2
        mx += m0x * r0 + dmx * r1
        my += m0y * r0 + dmy * r1
    return value, 2.0 * slope, 4.0 * curvature, (mx, my)


def _minimize(density: Density, tol: float, trace: list[dict]) -> tuple[float, Volume]:
    """The minimizer s of W(s b) from s = 0, with its :func:`weighted_volume`.

    Newton steps with step halving until |dW/ds| / W <= tol, then up to
    three full steps while |dW/ds| falls; each Newton step appends its
    |dW/ds| to ``trace`` as ``grad_norm``.  W is strictly convex in s, so
    dW/ds has one root.  Each point is evaluated once: an accepted trial
    is the next iterate, and the polish and the caller read the
    evaluation already held.
    """
    s = 0.0
    volume = weighted_volume(density, s)
    for iteration in range(MAX_NEWTON_ITERATIONS):
        value, slope, curvature, _ = volume
        trace.append({"iteration": iteration, "grad_norm": abs(slope)})
        if abs(slope) <= tol * value:
            break
        step, t = -slope / curvature, 1.0
        while True:
            candidate = s + t * step
            if t <= 1e-12 or candidate == s:
                raise NonConvergenceError("damping underflow in Newton line search")
            trial = weighted_volume(density, candidate)
            if trial[0] < value:
                break
            t *= 0.5
        s, volume = candidate, trial
    else:
        raise NonConvergenceError(f"no convergence after {MAX_NEWTON_ITERATIONS} Newton iterations")
    # quadratic polish to the round-off floor, well below the user tolerance
    for _ in range(3):
        _, slope, curvature, _ = volume
        candidate = s - slope / curvature
        if candidate == s:
            break
        trial = weighted_volume(density, candidate)
        if not abs(trial[1]) < abs(slope):
            break
        s, volume = candidate, trial
    return s, volume


def solve_soliton_vector(p: DelzantPolytope, tol: float = 1e-10) -> SolitonData:
    """Solve the weighted-moment condition for the soliton vector on the group's fixed lattice.

    Non-algebraic input is normalized first.  Every accepted polygon has a
    nontrivial lattice automorphism group, so its fixed lattice is 0 or a
    line; a polygon whose group is trivial (reachable only with a
    non-Delzant polygon from the library) raises
    :class:`NonConvergenceError`.  The residuals are |int x_i w dv| / W at
    the reported ``a``, over the affine basis {1, x_1, x_2}; the constant's
    is exactly 0.
    """
    p = normalize_algebraic(p)
    group = lattice_automorphisms(p)
    if len(group) == 1:
        raise NonConvergenceError("the polygon has no lattice automorphism but the identity, "
                                  "so the soliton vector has no fixed line to be solved on")
    trace: list[dict] = []
    b = fixed_direction(group)
    if b is None:  # a = 0 exactly; the residuals there read the density along any direction
        s, a, volume = 0.0, (0.0, 0.0), weighted_volume(line_density(p, (1, 0)), 0.0)
    else:
        s, volume = _minimize(line_density(p, b), tol, trace)
        a = (s * b[0] + 0.0, s * b[1] + 0.0)
    value, _, _, moment = volume
    residuals = (0.0, abs(moment[0]) / value, abs(moment[1]) / value)
    return SolitonData(a=a, s=s, b=b, lam=1.0, futaki_residual=max(residuals), residuals=residuals,
                       iterations=tuple(trace))
