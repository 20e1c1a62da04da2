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
so no command imports numpy.  It integrates on the nodes of
:func:`~toric_soliton.quadrature.polygon_rule` in ray form, one exponent
slope per ray: 0.12-0.52 ms a call at orders 10-22 against 0.17-1.00 ms
for a loop over the nodes (2-core Xeon).  The surface is two-dimensional,
so the Newton step and the definiteness check are 2x2 closed forms.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import NonConvergenceError
from .polytope import DelzantPolytope, normalize_algebraic
from .quadrature import line_rule, triangulate

MAX_NEWTON_ITERATIONS = 60
MAX_QUADRATURE_ORDER = 40

Vector = tuple[float, float]
Matrix = tuple[Vector, Vector]


class SolitonData(NamedTuple):
    """Solved soliton vector with Einstein constant and diagnostics."""

    a: tuple[float, ...]
    lam: float
    futaki_residual: float
    residuals: tuple[float, ...]
    iterations: tuple[dict, ...]
    quadrature_order: int


def weighted_volume(p: DelzantPolytope, a, order: int = 10) -> tuple[float, Vector, Matrix]:
    """W(a) = int_P exp(2<a,x>) dv with gradient and Hessian in a.

    Returns (W, grad W, hess W) where grad W = 2 int x w dv and
    hess W = 4 int x x^T w dv; the Hessian is a Gram matrix of the
    coordinates and therefore symmetric positive definite.

    The moments are taken on the collapsed Gauss rule of
    :mod:`toric_soliton.quadrature` in ray form.  Each fan triangle
    (c, v_1, v_2) has its angular nodes t_j on the edge, d_j = (1 - t_j)
    (v_1 - c) + t_j (v_2 - c), and its radial nodes u_i on the ray
    x = c + u d_j, where the weight is exp(2<a,c>) exp(k_j u) with
    k_j = 2<a,d_j>.  So the ray contributes S_p = sum_i w_i u_i^(1+p)
    exp(k_j u_i), p = 0, 1, 2, to the moments of {1, x, x x^T}:
    S_0, c S_0 + d S_1 and c c^T S_0 + (c d^T + d c^T) S_1 + d d^T S_2.
    """
    a1, a2 = (float(c) for c in a)
    u, w = line_rule(order)
    radial = tuple(zip(u, tuple(wi * ui for wi, ui in zip(w, u))))
    exp = math.exp
    m0 = mx = my = mxx = mxy = myy = 0.0
    tiling = triangulate(p)
    cx, cy = tiling.simplices[0][0]
    for _, v1, v2 in tiling.simplices:
        e1x, e1y, e2x, e2y = v1[0] - cx, v1[1] - cy, v2[0] - cx, v2[1] - cy
        jac = abs(e1x * e2y - e2x * e1y)
        for t, wt in zip(u, w):
            dx = (1.0 - t) * e1x + t * e2x
            dy = (1.0 - t) * e1y + t * e2y
            k = 2.0 * (a1 * dx + a2 * dy)
            s0 = s1 = s2 = 0.0
            for ui, wu in radial:
                term = wu * exp(k * ui)
                s0 += term
                term *= ui
                s1 += term
                s2 += term * ui
            s0 *= jac * wt
            s1 *= jac * wt
            s2 *= jac * wt
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


FanSideVolume = Callable[[Vector, int], tuple[float, Vector, Matrix]]


def _fan_side_volume(p: DelzantPolytope) -> FanSideVolume:
    """:func:`weighted_volume` of ``p`` at (a, order), each (a, order) evaluated once.

    The line search accepts a point that the next Newton step starts
    from, the polish starts from the last Newton point and the residuals
    are read at the final one, so the solve asks for a point it already
    has about every other time; it gets the stored result instead.
    """
    memo: dict[tuple[Vector, int], tuple[float, Vector, Matrix]] = {}

    def volume(a: Vector, order: int) -> tuple[float, Vector, Matrix]:
        key = (a, order)
        if key not in memo:
            memo[key] = weighted_volume(p, a, order=order)
        return memo[key]

    return volume


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


def _newton_minimize(volume: FanSideVolume, a0: Vector, tol: float, order: int,
                     trace: list[dict]) -> Vector:
    a = a0
    for iteration in range(MAX_NEWTON_ITERATIONS):
        value, grad, hess = volume(a, order)
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
            if volume(candidate, order)[0] < value:
                break
            t *= 0.5
        else:
            raise NonConvergenceError("damping underflow in Newton line search")
        a = (a[0] + t * step[0], a[1] + t * step[1])
    else:
        raise NonConvergenceError(f"no convergence after {MAX_NEWTON_ITERATIONS} Newton iterations")
    # Quadratic polish to the quadrature noise floor, so that minimizers at
    # successive orders can be compared well below the user tolerance.
    for _ in range(3):
        _, grad, hess = volume(a, order)
        grad_norm = _norm(grad)
        if grad_norm == 0.0:
            break
        step = _newton_step(hess, grad)
        candidate = (a[0] + step[0], a[1] + step[1])
        if _norm(volume(candidate, order)[1]) < grad_norm:
            a = candidate
        else:
            break
    return a


def solve_soliton_vector(p: DelzantPolytope, tol: float = 1e-10, order: int = 10) -> SolitonData:
    """Solve the weighted-moment condition for the soliton vector.

    Non-algebraic input is normalized first.  Newton iteration starts at
    zero with step halving; the quadrature order is raised until two
    successive orders agree to 0.1 tol.  Existence and uniqueness hold for
    any valid Fano input, so non-convergence signals numerical trouble.
    """
    volume = _fan_side_volume(normalize_algebraic(p))
    trace: list[dict] = []
    a = _newton_minimize(volume, (0.0, 0.0), tol, order, trace)
    cap = max(MAX_QUADRATURE_ORDER, order + 12)
    while order + 6 <= cap:
        refined = _newton_minimize(volume, a, tol, order + 6, trace)
        if max(abs(refined[0] - a[0]), abs(refined[1] - a[1])) <= 0.1 * tol:
            a = refined
            order = order + 6
            break
        a, order = refined, order + 6
    else:
        raise NonConvergenceError("quadrature orders failed to agree at the maximum order")

    value, grad, _ = volume(a, order)
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
