"""Closed-form soliton metric on the plane blown up at a point.

The moment image is the trapezoid
:func:`~toric_soliton.polytope.blowup_trapezoid`, the diffeomorphic image
of the rectangle [ALPHA1, ALPHA2] x [BETA1, BETA2] = [1, 3] x [0, 1]
under (x, y) -> (x, x y).  The metric is separable in the rectangle coordinates
with radial profiles A and B, written in closed form for these labels;
the matrix ``H`` of the associated potential is assembled from them (in
:mod:`toric_soliton.potentials`) and all its derivatives are analytic,
so every operator check on this example runs with exact formulas.
``finite_difference_oracle`` cross-checks them against values of ``H``
alone, as for any potential; ``verify`` does not list its two checks for
this metric.

Two sign wrinkles are resolved here once and for all:

* the mean scalar curvature of the blow-up is +4 (the value forced
  by the Einstein-constant normalization lambda = 1 in real dimension 4);
  a printed value of -4 floating around for this metric is inconsistent
  with that normalization and is flagged in reports;
* the boundary slope conditions A'(alpha_i) = 2 / C_alpha_i hold with
  sign on the A side, while on the B side only the magnitudes
  |B'(beta_i)| = |2 / C_beta_i| are convention independent.

Each closed form is written once, on floats through ``math``; the
derivative stack of this metric,
:class:`~toric_soliton.potentials.CalabiPotential`, evaluates them point
by point and lives with the other potentials.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BoundaryEvaluationError, MalformedInputError, NonConvergenceError
from .polytope import blowup_trapezoid  # noqa: F401  (perfbench/test_perfbench.py imports it from here)

#: translation taking the trapezoid tau to algebraic coordinates
ALGEBRAIC_SHIFT = (2.0, 1.0)

#: default solver bracket for the nonzero soliton coefficient
DEFAULT_BRACKET = (-0.5, -0.05)

#: the labels of the blow-up trapezoid: interval endpoints of the rectangle
#: and the normal scalings of its four facets
ALPHA1, ALPHA2 = 1.0, 3.0
BETA1, BETA2 = 0.0, 1.0
C_ALPHA1, C_ALPHA2 = 1.0, -1.0 / 3.0
C_BETA1, C_BETA2 = -1.0, 1.0


def m_constant() -> float:
    """The constant m = (2/C_beta1 - 2/C_beta2) / (beta2 - beta1)."""
    return (2.0 / C_BETA1 - 2.0 / C_BETA2) / (BETA2 - BETA1)


def mean_scalar_curvature() -> float:
    """Mean scalar curvature of the labelled trapezoid."""
    alpha_part = (1.0 / C_ALPHA1 - 1.0 / C_ALPHA2) / (ALPHA2 - ALPHA1)
    beta_part = (1.0 / C_BETA1 - 1.0 / C_BETA2) / (BETA2 - BETA1)
    return 4.0 / (ALPHA1 + ALPHA2) * (alpha_part - beta_part)


def soliton_equation(a1: float) -> float:
    """Transcendental equation whose nonzero root is the soliton coefficient."""
    return (a1 * a1 - 0.5) * math.exp(-4.0 * a1) + 3.0 * a1 * a1 - 2.0 * a1 + 0.5


def solve_a1(bracket: tuple[float, float] = DEFAULT_BRACKET) -> float:
    """Nonzero root of the soliton equation by bisection.

    Bisection stops once the bracket is narrower than 1e-14, and the root
    must then leave a residual of at most 1e-12.  ``a1 = 0`` also
    satisfies the equation and is rejected; the bracket must produce a
    sign change away from zero.
    """
    lo, hi = bracket
    flo, fhi = soliton_equation(lo), soliton_equation(hi)
    if flo == 0.0:
        root = lo
    elif fhi == 0.0:
        root = hi
    elif flo * fhi > 0.0:
        raise NonConvergenceError(f"no sign change of the soliton equation on [{lo}, {hi}]")
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = soliton_equation(mid)
            if fmid == 0.0:
                break
            if flo * fmid < 0.0:
                hi, fhi = mid, fmid
            else:
                lo, flo = mid, fmid
            if hi - lo < 1e-14:
                break
        root = 0.5 * (lo + hi)
    if abs(soliton_equation(root)) > 1e-12:
        raise NonConvergenceError("bisection of the soliton coefficient left a residual above 1e-12")
    if abs(root) < 1e-6:
        raise NonConvergenceError("bracket collapsed onto the trivial root a1 = 0")
    return root


class CalabiSoliton(NamedTuple):
    """Solved blow-up soliton: coefficient, m, and mean curvature."""

    a1: float
    m: float
    scal_mean: float

    @staticmethod
    def solve() -> "CalabiSoliton":
        return CalabiSoliton(a1=solve_a1(), m=m_constant(), scal_mean=mean_scalar_curvature())


def _require_between(name: str, t: float, lo: float, hi: float) -> None:
    """Reject a number outside [lo, hi] (NaN included)."""
    if not lo - 1e-12 <= t <= hi + 1e-12:
        raise BoundaryEvaluationError(f"{name} = {t} outside [{lo}, {hi}]")


def profile_A(s: CalabiSoliton, x: float) -> tuple[float, float, float]:
    """Radial profile A with first and second derivatives on [ALPHA1, ALPHA2]."""
    _require_between("x", x, ALPHA1, ALPHA2)
    a = s.a1
    if a == 0.0:
        raise MalformedInputError("profile requires a nonzero soliton coefficient")
    e = math.exp(-2.0 * a * (x - 1.0))
    c = a * a - 0.5
    scale = -1.0 / a**3
    value = scale * (c * e + a * a * x * x - (2.0 * a * a + a) * x + (a + 0.5))
    first = scale * (-2.0 * a * c * e + 2.0 * a * a * x - (2.0 * a * a + a))
    second = scale * (4.0 * a * a * c * e + 2.0 * a * a)
    return value, first, second


def profile_B(s: CalabiSoliton, y: float) -> tuple[float, float, float]:
    """Radial profile B(y) = -2 y^2 + 2 y with derivatives on [BETA1, BETA2]."""
    _require_between("y", y, BETA1, BETA2)
    return -2.0 * y * y + 2.0 * y, -4.0 * y + 2.0, -4.0


def ode_residual(s: CalabiSoliton, x: float) -> float:
    """Defect of -A'' - 2 a1 A' - x scal_mean = m at x."""
    _, first, second = profile_A(s, x)
    return -second - 2.0 * s.a1 * first - x * s.scal_mean - s.m


def boundary_residuals(s: CalabiSoliton) -> dict[str, float]:
    """Boundary interlocks of the closed forms (values and slope magnitudes)."""
    a_lo = profile_A(s, ALPHA1)
    a_hi = profile_A(s, ALPHA2)
    b_lo = profile_B(s, BETA1)
    b_hi = profile_B(s, BETA2)
    return {
        "A_alpha1": abs(a_lo[0]),
        "A_alpha2": abs(a_hi[0]),
        "B_beta1": abs(b_lo[0]),
        "B_beta2": abs(b_hi[0]),
        "slope_A_alpha1": abs(a_lo[1] - 2.0 / C_ALPHA1),
        "slope_A_alpha2_magnitude": abs(abs(a_hi[1]) - abs(2.0 / C_ALPHA2)),
        "slope_B_beta1_magnitude": abs(abs(b_lo[1]) - abs(2.0 / C_BETA1)),
        "slope_B_beta2_magnitude": abs(abs(b_hi[1]) - abs(2.0 / C_BETA2)),
    }


def from_algebraic_coordinates(x) -> tuple[float, float]:
    """The point of tau at the algebraic point x = (x1, x2)."""
    return float(x[0]) + ALGEBRAIC_SHIFT[0], float(x[1]) + ALGEBRAIC_SHIFT[1]
