"""Soliton vector from the vanishing of the weighted affine moments.

Sign convention.  The input polytope is the moment image P; the fan-side
(algebraic) polytope is its reflection -P.  The soliton vector reported
here is the fan-side one (Wang-Zhu): the unique minimizer of the strictly
convex functional

    W(a) = integral over P of exp(+2 <a, x>) dv
         = integral over -P of exp(-2 <a, x>) dv,

which :func:`weighted_volume` evaluates as written, with no change of
sign anywhere in the solve; its vanishing gradient is the weighted-moment
condition on the fan-side polytope.  With this convention the nonzero
pairings 2 <alpha, a> with the Demazure roots are non-negative (the
solitonic spectrum is positive), and for the blown-up plane the first
component of ``a`` is the negative root of the one-point blow-up
transcendental equation (see :mod:`toric_soliton.calabi`).  The
moment-image drift covector used by the differential operators is ``-a``.

The solve is plain Python on floats and tuples, like every other stage,
so no command imports numpy.  It integrates on
:func:`~toric_soliton.quadrature.fan_rule`, the rule ``verify``
integrates with, summing along its rays, one exponent slope per ray:
0.12-0.52 ms a call at orders 10-22 against 0.17-1.00 ms for a loop over
the nodes (2-core Xeon).  The surface is two-dimensional, so the Newton
step and the definiteness check are 2x2 closed forms.  The Newton loop
builds the fan rule once per quadrature order and carries the last
``(W, grad W, hess W)`` it computed, so each point of a solve is evaluated
once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NonConvergenceError
from .polytope import DelzantPolytope, normalize_algebraic
from .quadrature import FanRule, fan_rule

MAX_NEWTON_ITERATIONS = 60
MAX_QUADRATURE_ORDER = 40

Vector = tuple[float, float]
Matrix = tuple[Vector, Vector]
#: (W, grad W, hess W) at one point
Volume = tuple[float, Vector, Matrix]


class SolitonData(NamedTuple):
    """Solved soliton vector with Einstein constant and diagnostics."""

    a: tuple[float, ...]
    lam: float
    futaki_residual: float
    residuals: tuple[float, ...]
    iterations: tuple[dict, ...]
    quadrature_order: int


def weighted_volume(rule: FanRule, a) -> Volume:
    """W(a) = int_P exp(2<a,x>) dv with gradient and Hessian in a, on the polygon's fan rule.

    Returns (W, grad W, hess W) where grad W = 2 int x w dv and
    hess W = 4 int x x^T w dv; the Hessian is a Gram matrix of the
    coordinates and therefore symmetric positive definite.

    The moments are taken on ``rule``, the
    :func:`~toric_soliton.quadrature.fan_rule` of P, along its rays: the
    node c + u d_j has weight exp(2<a,c>) exp(k_j u) with
    k_j = 2<a,d_j>, so the ray contributes S_p = J w_j sum_i w_i
    u_i^(1+p) exp(k_j u_i), p = 0, 1, 2, to the moments of {1, x, x x^T}:
    S_0, c S_0 + d S_1 and c c^T S_0 + (c d^T + d c^T) S_1 + d d^T S_2.
    """
    a1, a2 = (float(c) for c in a)
    (cx, cy), rays, radial, _ = rule
    exp = math.exp
    m0 = mx = my = mxx = mxy = myy = 0.0
    for dx, dy, jw in rays:
        k = 2.0 * (a1 * dx + a2 * dy)
        s0 = s1 = s2 = 0.0
        for ui, wu in radial:
            term = wu * exp(k * ui)
            s0 += term
            term *= ui
            s1 += term
            s2 += term * ui
        s0 *= jw
        s1 *= jw
        s2 *= jw
        m0 += s0
        mx += dx * s1
        my += dy * s1
        mxx += dx * dx * s2
        mxy += dx * dy * s2
        myy += dy * dy * s2
    # shift the ray moments (about c) to moments about the origin
    scale = exp(2.0 * (a1 * cx + a2 * cy))
    value = scale * m0
    ix = scale * (cx * m0 + mx)
    iy = scale * (cy * m0 + my)
    ixx = scale * (cx * cx * m0 + 2.0 * cx * mx + mxx)
    ixy = scale * (cx * cy * m0 + cx * my + cy * mx + mxy)
    iyy = scale * (cy * cy * m0 + 2.0 * cy * my + myy)
    return value, (2.0 * ix, 2.0 * iy), ((4.0 * ixx, 4.0 * ixy), (4.0 * ixy, 4.0 * iyy))


def _norm(v: Vector) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1])


def _smallest_eigenvalue(h: Matrix) -> float:
    (h11, h12), (_, h22) = h
    return 0.5 * (h11 + h22) - math.hypot(0.5 * (h11 - h22), h12)


def _newton_step(h: Matrix, g: Vector) -> Vector:
    """The solution s of h s = -g (Cramer's rule)."""
    (h11, h12), (h21, h22) = h
    det = h11 * h22 - h12 * h21
    return (h12 * g[1] - h22 * g[0]) / det, (h21 * g[0] - h11 * g[1]) / det


def _newton_minimize(p: DelzantPolytope, a: Vector, tol: float, order: int,
                     trace: list[dict]) -> tuple[Vector, Volume]:
    """Minimize W at one quadrature order from ``a``; the minimizer and its :func:`weighted_volume`.

    Every evaluation reads the one fan rule of ``p`` at ``order``.  Newton
    steps with step halving until |grad W| / W <= tol, then a quadratic
    polish.  Each point is evaluated once: an accepted
    line-search trial is the next iterate, and the polish and the caller
    read the evaluation already held.
    """
    rule = fan_rule(p, order)
    volume = weighted_volume(rule, a)
    for iteration in range(MAX_NEWTON_ITERATIONS):
        value, grad, hess = volume
        grad_norm = _norm(grad)
        trace.append({"iteration": iteration, "order": order, "grad_norm": grad_norm})
        if grad_norm / value <= tol:
            break
        if _smallest_eigenvalue(hess) <= 0:
            raise NonConvergenceError("weighted-volume Hessian lost positive definiteness")
        step = _newton_step(hess, grad)
        t = 1.0
        while t > 1e-12:
            candidate = (a[0] + t * step[0], a[1] + t * step[1])
            trial = weighted_volume(rule, candidate)
            if trial[0] < value:
                break
            t *= 0.5
        else:
            raise NonConvergenceError("damping underflow in Newton line search")
        a, volume = candidate, trial
    else:
        raise NonConvergenceError(f"no convergence after {MAX_NEWTON_ITERATIONS} Newton iterations")
    # Quadratic polish to the quadrature noise floor, so that minimizers at
    # successive orders can be compared well below the user tolerance.
    for _ in range(3):
        _, grad, hess = volume
        grad_norm = _norm(grad)
        if grad_norm == 0.0:
            break
        step = _newton_step(hess, grad)
        candidate = (a[0] + step[0], a[1] + step[1])
        trial = weighted_volume(rule, candidate)
        if _norm(trial[1]) < grad_norm:
            a, volume = candidate, trial
        else:
            break
    return a, volume


def solve_soliton_vector(p: DelzantPolytope, tol: float = 1e-10, order: int = 10) -> SolitonData:
    """Solve the weighted-moment condition for the soliton vector.

    Non-algebraic input is normalized first.  Newton iteration starts at
    zero with step halving; the quadrature order is raised until two
    successive orders agree to 0.1 tol.  Existence and uniqueness hold for
    any valid Fano input, so non-convergence signals numerical trouble.
    """
    p = normalize_algebraic(p)
    trace: list[dict] = []
    a, _ = _newton_minimize(p, (0.0, 0.0), tol, order, trace)
    cap = max(MAX_QUADRATURE_ORDER, order + 12)
    while order + 6 <= cap:
        refined, volume = _newton_minimize(p, a, tol, order + 6, trace)
        agreed = max(abs(refined[0] - a[0]), abs(refined[1] - a[1])) <= 0.1 * tol
        a, order = refined, order + 6
        if agreed:
            break
    else:
        raise NonConvergenceError("quadrature orders failed to agree at the maximum order")

    value, grad, _ = volume
    # Defect of the weighted-moment condition over the affine basis {1, x_1..x_n}:
    # the constant is exact, each coordinate defect is |int x_i w| / V = |grad_i| / (2V).
    residuals = (0.0,) + tuple(float(abs(g)) / (2.0 * value) for g in grad)
    return SolitonData(
        a=tuple(float(c) for c in a),
        lam=1.0,
        futaki_residual=max(residuals),
        residuals=residuals,
        iterations=tuple(trace),
        quadrature_order=order,
    )
