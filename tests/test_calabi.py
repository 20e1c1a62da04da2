"""Blow-up closed forms: labels, profiles, the transcendental root, the metric matrix."""

from __future__ import annotations

import numpy as np
import pytest

from toric_soliton import calabi
from toric_soliton.calabi import (
    CalabiSoliton,
    boundary_residuals,
    from_algebraic_coordinates,
    g_matrix,
    m_constant,
    mean_scalar_curvature,
    ode_residual,
    profile_A,
    profile_B,
    soliton_equation,
    solve_a1,
)
from toric_soliton.errors import BoundaryEvaluationError, MalformedInputError, NonConvergenceError
from toric_soliton.polytope import blowup_trapezoid, linspace
from toric_soliton.potentials import CalabiPotential, gradient_by_line_integral
from toric_soliton.report import calabi_report
from conftest import expand, interior_points


def to_algebraic_coordinates(mu) -> np.ndarray:
    """Translate points of the trapezoid tau to algebraic coordinates."""
    return np.asarray(mu, dtype=float) - calabi.ALGEBRAIC_SHIFT


def tau_stack(mu):
    """The Calabi potential's derivative stack at the rows of mu, points of the trapezoid tau, as arrays."""
    return expand(CalabiPotential(blowup_trapezoid()).stack(to_algebraic_coordinates(np.atleast_2d(mu))))


def array_profile_A(s: CalabiSoliton, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed form of A and its derivatives evaluated on a numpy array, the oracle of the float code."""
    a, c = s.a1, s.a1 * s.a1 - 0.5
    e, scale = np.exp(-2.0 * a * (xs - 1.0)), -1.0 / a**3
    return (
        scale * (c * e + a * a * xs * xs - (2.0 * a * a + a) * xs + (a + 0.5)),
        scale * (-2.0 * a * c * e + 2.0 * a * a * xs - (2.0 * a * a + a)),
        scale * (4.0 * a * a * c * e + 2.0 * a * a),
    )


def test_parameter_validation():
    # the fixed labels satisfy the Calabi trapezoid sign conditions ...
    assert calabi.ALPHA1 > 0 and calabi.BETA1 >= 0
    assert calabi.ALPHA2 > calabi.ALPHA1 and calabi.BETA2 > calabi.BETA1
    assert calabi.C_ALPHA1 > 0 > calabi.C_ALPHA2 and calabi.C_BETA1 < 0 < calabi.C_BETA2
    # ... and (x, y) -> (x, x y) maps their rectangle onto the blow-up trapezoid
    corners = [(x, x * y) for x in (calabi.ALPHA1, calabi.ALPHA2) for y in (calabi.BETA1, calabi.BETA2)]
    expected = {tuple(v) for v in to_algebraic_coordinates(corners).tolist()}
    assert set(blowup_trapezoid().vertex_points) == expected


def test_m_and_mean_curvature():
    assert m_constant() == pytest.approx(-4.0, abs=1e-15)
    assert mean_scalar_curvature() == pytest.approx(4.0, abs=1e-15)


def test_solve_a1_bracket_and_residual(calabi_soliton):
    a1 = calabi_soliton.a1
    assert -0.5 < a1 < 0.0
    assert abs(soliton_equation(a1)) <= 1e-12
    # the trivial root is excluded but satisfies the equation
    assert soliton_equation(0.0) == 0.0
    # the default bracket carries a sign change
    assert soliton_equation(-0.5) > 0.0
    assert soliton_equation(-0.05) < 0.0


def test_solve_a1_rejects_bad_bracket():
    with pytest.raises(NonConvergenceError):
        solve_a1(bracket=(-0.04, -0.01))


def test_profile_A_boundary_values(calabi_soliton):
    a_lo, _, _ = profile_A(calabi_soliton, 1.0)
    a_hi, _, _ = profile_A(calabi_soliton, 3.0)
    assert abs(a_lo) <= 1e-10
    assert abs(a_hi) <= 1e-10


def test_profile_A_positive_inside(calabi_soliton):
    for x in np.linspace(1.0, 3.0, 52)[1:-1]:
        value, _, _ = profile_A(calabi_soliton, float(x))
        assert value > 0.0


def test_profile_A_domain(calabi_soliton):
    with pytest.raises(BoundaryEvaluationError):
        profile_A(calabi_soliton, 3.5)


@pytest.mark.parametrize("x", [0.5, float("nan"), np.array([2.0, 3.5]), np.array([np.nan])],
                         ids=["float-below", "float-nan", "array-above", "array-nan"])
def test_profile_A_domain_on_floats_and_arrays(calabi_soliton, x):
    # a batch is evaluated point by point; its first point outside the interval is rejected
    with pytest.raises(BoundaryEvaluationError):
        for value in np.atleast_1d(x):
            profile_A(calabi_soliton, float(value))


def test_profile_A_rejects_a_zero_coefficient(calabi_soliton):
    with pytest.raises(MalformedInputError, match="nonzero soliton coefficient"):
        profile_A(calabi_soliton._replace(a1=0.0), 2.0)


def test_profile_A_slopes(calabi_soliton):
    _, slope_lo, _ = profile_A(calabi_soliton, 1.0)
    _, slope_hi, _ = profile_A(calabi_soliton, 3.0)
    assert slope_lo == pytest.approx(2.0 / calabi.C_ALPHA1, abs=1e-9)  # = 2
    assert abs(slope_hi) == pytest.approx(abs(2.0 / calabi.C_ALPHA2), abs=1e-9)  # = 6


def test_profile_B_values(calabi_soliton):
    b0, db0, d2b0 = profile_B(calabi_soliton, 0.0)
    b1, db1, d2b1 = profile_B(calabi_soliton, 1.0)
    bh, _, d2bh = profile_B(calabi_soliton, 0.5)
    assert b0 == 0.0 and b1 == 0.0
    assert bh == pytest.approx(0.5)
    assert d2b0 == d2b1 == d2bh == -4.0 == calabi_soliton.m
    assert abs(abs(db0) - 2.0) <= 1e-15
    assert abs(abs(db1) - 2.0) <= 1e-15


def test_boundary_residuals_all_small(calabi_soliton):
    residuals = boundary_residuals(calabi_soliton)
    assert max(residuals.values()) <= 1e-9


def test_ode_residual_with_correct_mean(calabi_soliton):
    xs = np.linspace(1.0, 3.0, 50)
    worst = max(abs(ode_residual(calabi_soliton, float(x))) for x in xs)
    assert worst <= 1e-9


def test_profile_A_float_branch_matches_array_branch(calabi_soliton):
    # the float code and the same formula on numpy arrays, with exp from math and
    # from numpy, agree to round-off of the terms summed (relative to their size:
    # the sum cancels near the ends, where A vanishes)
    xs = np.linspace(calabi.ALPHA1, calabi.ALPHA2, 1002)[1:-1]
    a = calabi_soliton.a1
    c, e, scale = a * a - 0.5, np.exp(-2.0 * a * (xs - 1.0)), abs(a) ** -3
    sizes = (
        scale * (abs(c) * e + a * a * xs * xs + abs(2.0 * a * a + a) * xs + abs(a + 0.5)),
        scale * (2.0 * abs(a * c) * e + 2.0 * a * a * xs + abs(2.0 * a * a + a)),
        scale * (4.0 * a * a * abs(c) * e + 2.0 * a * a),
    )
    on_array = array_profile_A(calabi_soliton, xs)
    on_floats = np.array([profile_A(calabi_soliton, x) for x in xs.tolist()]).T
    assert all(type(v) is float for v in profile_A(calabi_soliton, 2.0))
    for floats, array, size in zip(on_floats, on_array, sizes):
        assert np.all(np.abs(floats - array) <= 1e-15 * size)


def test_report_grid_is_numpy_linspace():
    for num in range(501):
        for start, stop in ((calabi.ALPHA1, calabi.ALPHA2), (0.1, 0.7), (-3.0, 1e-3)):
            assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


@pytest.mark.parametrize("grid", [1, 2, 25, 100, 500])
def test_calabi_report_matches_array_evaluation(calabi_soliton, grid):
    # oracle: the same closed forms on numpy arrays, sampled on numpy.linspace
    report = calabi_report(grid)
    xs = np.linspace(calabi.ALPHA1, calabi.ALPHA2, grid)
    _, first, second = array_profile_A(calabi_soliton, xs)
    ode = np.max(np.abs(-second - 2.0 * calabi_soliton.a1 * first - xs * calabi_soliton.scal_mean - calabi_soliton.m))
    assert type(report["ode_max_residual"]) is float
    assert abs(report["ode_max_residual"] - ode) <= 1e-14
    a_val, a_slope, _ = array_profile_A(calabi_soliton, np.array([calabi.ALPHA1, calabi.ALPHA2]))
    ys = np.array([calabi.BETA1, calabi.BETA2])
    b_val, b_slope = -2.0 * ys * ys + 2.0 * ys, -4.0 * ys + 2.0
    expected = {
        "A_alpha1": abs(a_val[0]),
        "A_alpha2": abs(a_val[1]),
        "B_beta1": abs(b_val[0]),
        "B_beta2": abs(b_val[1]),
        "slope_A_alpha1": abs(a_slope[0] - 2.0 / calabi.C_ALPHA1),
        "slope_A_alpha2_magnitude": abs(abs(a_slope[1]) - abs(2.0 / calabi.C_ALPHA2)),
        "slope_B_beta1_magnitude": abs(abs(b_slope[0]) - abs(2.0 / calabi.C_BETA1)),
        "slope_B_beta2_magnitude": abs(abs(b_slope[1]) - abs(2.0 / calabi.C_BETA2)),
    }
    assert list(report["boundary_residuals"]) == list(expected)
    for key, value in expected.items():
        assert abs(report["boundary_residuals"][key] - value) <= 1e-14, key


def test_ode_residual_with_sign_flipped_mean_is_8x(calabi_soliton):
    # the other printed sign leaves a linear defect 8x
    for x in (1.2, 2.0, 2.8):
        defect = ode_residual(calabi_soliton._replace(scal_mean=-4.0), x)
        assert defect == pytest.approx(8.0 * x, rel=1e-10)


def test_b_side_ode(calabi_soliton):
    for y in np.linspace(0.0, 1.0, 11):
        _, _, second = profile_B(calabi_soliton, float(y))
        assert second - calabi_soliton.m == 0.0


def test_h_matrix_positive_definite_at_center_image():
    h = tau_stack([2.0, 1.0]).H[0]
    assert np.allclose(h, h.T)
    assert np.linalg.eigvalsh(h)[0] > 0.0


def test_g_h_inverse_identity(calabi_soliton, blowup):
    # the closed-form G against the H the stack assembles from the profiles
    points = interior_points(blowup, 20, seed=11)
    for x, h in zip(points, expand(CalabiPotential(blowup).stack(points)).H):
        g = np.array(g_matrix(calabi_soliton, from_algebraic_coordinates(x)))
        assert np.max(np.abs(g @ h - np.eye(2))) <= 1e-10


def test_det_h_degenerates_on_lower_edge():
    dets = np.linalg.det(tau_stack([[2.0, 2.0 * y] for y in (0.4, 0.2, 0.1, 0.05, 0.01)]).H)
    assert all(d > 0 for d in dets)
    assert all(b < a for a, b in zip(dets, dets[1:]))
    assert dets[-1] < 0.05 * dets[0]


def test_h_matrix_boundary_rejected(calabi_soliton):
    with pytest.raises(BoundaryEvaluationError):
        tau_stack([0.5, 0.2])
    with pytest.raises(BoundaryEvaluationError):
        tau_stack([2.0, 2.0])
    with pytest.raises(BoundaryEvaluationError):
        g_matrix(calabi_soliton, [2.0, 2.0])
    with pytest.raises(BoundaryEvaluationError, match="mu1 = 0.5 outside"):
        g_matrix(calabi_soliton, [0.5, 0.2])


def test_derivatives_match_finite_differences():
    step = 1e-6
    for mu in (np.array([1.7, 0.9]), np.array([2.4, 1.3])):
        offsets = [(0.0, 0.0), (step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)]
        s = tau_stack(mu + np.array(offsets))
        for k in range(2):
            plus, minus = 1 + 2 * k, 2 + 2 * k
            fd = (s.H[plus] - s.H[minus]) / (2 * step)
            assert np.max(np.abs(fd - s.dH[0, :, :, k])) <= 1e-7


def test_abreu_curvature_closed_form(calabi_soliton):
    # -sum d2H_ij/dmu_i dmu_j collapses to -(A'' + B'')/mu1
    for mu in (np.array([1.5, 0.7]), np.array([2.5, 1.1])):
        s = tau_stack(mu).scal[0]
        _, _, a2 = profile_A(calabi_soliton, float(mu[0]))
        _, _, b2 = profile_B(calabi_soliton, float(mu[1] / mu[0]))
        assert s == pytest.approx(-(a2 + b2) / mu[0], abs=1e-12)


def test_coordinate_translation():
    assert np.allclose(from_algebraic_coordinates([0.0, 0.0]), [2.0, 1.0])
    assert np.allclose(from_algebraic_coordinates([-1.0, -1.0]), [1.0, 0.0])
    assert np.allclose(from_algebraic_coordinates(np.array([1.0, 2.0])), [3.0, 3.0])


def test_potential_gradient_matches_semi_closed_form(blowup):
    # the production gradient is the closed form; the line integral of G is its oracle
    pot = CalabiPotential(blowup)
    pts = interior_points(blowup, 6, seed=12)
    for x, closed in zip(pts, expand(pot.stack(pts)).grad):
        line = np.array(gradient_by_line_integral(pot, x, (0.0, 0.0)))
        assert np.max(np.abs(line - closed)) <= 1e-9


def test_potential_interior_guard(blowup):
    pot = CalabiPotential(blowup)
    with pytest.raises(BoundaryEvaluationError):
        pot.stack(np.array([[1.0, 2.0]]))


def test_soliton_reuses_params(calabi_soliton):
    # m and the mean curvature are the formulas on the fixed labels
    assert calabi_soliton.m == m_constant()
    assert calabi_soliton.scal_mean == mean_scalar_curvature()


def test_gradient_evaluates_f_once_per_grid_column(blowup, monkeypatch):
    # F depends on mu1 alone, so a tensor grid asks for it once per distinct x1
    pot = CalabiPotential(blowup)
    f_values = CalabiPotential._f_values
    asked = []

    def counting(self, ts):
        asked.extend(ts)
        return f_values(self, ts)

    monkeypatch.setattr(CalabiPotential, "_f_values", counting)
    grid = blowup.interior_grid(21, 0.05)
    pot.stack(grid)
    assert sorted(asked) == sorted({x + calabi.ALGEBRAIC_SHIFT[0] for x, _ in grid})
    assert len(asked) <= 21
