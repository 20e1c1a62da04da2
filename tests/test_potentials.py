"""Derivative stacks: closed forms, cross-checks, degeneration at facets."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from toric_soliton.errors import BoundaryEvaluationError, LossOfConvexityError, MalformedInputError
from toric_soliton.polytope import DelzantPolytope, parse_polytope
from toric_soliton.potentials import (
    CalabiPotential,
    GuilleminPotential,
    QuadraticPotential,
    gradient_by_line_integral,
)
from conftest import expand, interior_points


def finite_difference_jacobian(field, points, h):
    """Central differences of a batched field: (m, ...) values at (m, n) points -> (m, ..., n)."""
    return np.stack([(field(points + h * e) - field(points - h * e)) / (2.0 * h) for e in np.eye(points.shape[1])],
                    axis=-1)


def test_guillemin_closed_form_at_origin(cp2):
    pot = GuilleminPotential(cp2)
    origin = np.zeros(2)
    s = expand(pot.stack(origin[None]))
    assert np.allclose(s.grad[0], 0.0, atol=1e-15)
    assert np.allclose(s.G[0], 0.5 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(s.H[0], (2.0 / 3.0) * np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_guillemin_gradient_closed_form(cp2):
    # gradient components are half log-ratios of facet values
    pot = GuilleminPotential(cp2)
    pts = interior_points(cp2, 10, seed=1)
    l1, l2, l3 = np.array(cp2.facet_values_many(pts)).T
    expected = 0.5 * np.stack([np.log(l1 / l3), np.log(l2 / l3)], axis=1)
    assert np.allclose(expand(pot.stack(pts)).grad, expected, atol=1e-13)


def test_boundary_evaluation_rejected(cp2):
    pot = GuilleminPotential(cp2)
    with pytest.raises(BoundaryEvaluationError):
        pot.stack(np.array([[0.0, 0.0], [5.0, 5.0]]))


def test_G_is_the_hessian_of_phi(cp2, blowup):
    # the package never evaluates phi = (1/2) sum_r L_r log L_r; its central second differences check G
    bl3 = parse_polytope((Path(__file__).parent / "data" / "bl3.json").read_text())
    h = 1e-4
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    for p in (cp2, blowup, bl3):
        def phi(points):
            return np.array([0.5 * sum(ell * math.log(ell) for ell in row) for row in p.facet_values_many(points)])

        pts = interior_points(p, 12, seed=3)
        centre = phi(pts)
        g11 = (phi(pts + e1) - 2.0 * centre + phi(pts - e1)) / h**2
        g12 = (phi(pts + e1 + e2) - phi(pts + e1 - e2) - phi(pts - e1 + e2) + phi(pts - e1 - e2)) / (4.0 * h**2)
        g22 = (phi(pts + e2) - 2.0 * centre + phi(pts - e2)) / h**2
        assert np.max(np.abs(np.array(GuilleminPotential(p).stack(pts).G) - [g11, g12, g22])) <= 1e-5


def test_stack_rejects_a_bare_point(cp2):
    # a single point is a batch of one, shape (1, n)
    with pytest.raises(MalformedInputError):
        GuilleminPotential(cp2).stack(np.zeros(2))


def test_stack_rejects_an_empty_batch(cp2):
    with pytest.raises(MalformedInputError, match="no points to evaluate"):
        GuilleminPotential(cp2).stack([])


def test_hessian_inverse_identity(cp2, blowup):
    for p in (cp2, blowup):
        s = expand(GuilleminPotential(p).stack(interior_points(p, 20, seed=2)))
        assert np.max(np.abs(s.G @ s.H - np.eye(2))) <= 1e-10
        assert np.all(np.linalg.eigvalsh(s.G)[:, 0] > 0)


def test_hessian_matches_finite_differences(cp2):
    pot = GuilleminPotential(cp2)
    margin = cp2.interior_margin(0.05)
    step = 1e-5 * margin
    pts = interior_points(cp2, 20, seed=3)
    fd = finite_difference_jacobian(lambda q: expand(pot.stack(q)).grad, pts, step)
    assert np.max(np.abs(fd - expand(pot.stack(pts)).G)) <= 1e-6


def test_inv_hessian_derivative_matches_finite_differences(cp2):
    pot = GuilleminPotential(cp2)
    margin = cp2.interior_margin(0.05)
    step = 1e-5 * margin
    pts = interior_points(cp2, 20, seed=4)
    fd = finite_difference_jacobian(lambda q: expand(pot.stack(q)).H, pts, step)
    assert np.max(np.abs(fd - expand(pot.stack(pts)).dH)) <= 1e-5


def test_inv_hessian_second_matches_finite_differences(cp2):
    pot = GuilleminPotential(cp2)
    step = 1e-4
    pts = interior_points(cp2, 5, seed=5)
    fd = finite_difference_jacobian(lambda q: expand(pot.stack(q)).dH, pts, step)
    assert np.max(np.abs(fd - expand(pot.stack(pts)).d2H)) <= 1e-5


def test_third_derivative_tensor_symmetry(cp2, blowup):
    for p in (cp2, blowup):
        dg = expand(GuilleminPotential(p).stack(interior_points(p, 10, seed=6))).dG
        for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)):
            assert np.max(np.abs(dg - np.transpose(dg, perm))) <= 1e-9


def test_det_h_degenerates_toward_facet(cp2):
    pot = GuilleminPotential(cp2)
    # walk toward facet 0 (normal e1) along its inward normal
    target = np.array([-1.0, 0.2])
    walk = target + np.linspace(0.5, 1e-3, 8)[:, None] * np.array([1.0, 0.0])
    dets = np.linalg.det(expand(pot.stack(walk)).H)
    assert all(d > 0 for d in dets)
    assert all(dets[i + 1] < dets[i] for i in range(len(dets) - 5, len(dets) - 1))
    assert dets[-1] < 1e-2 * dets[0]


def test_line_integral_constant_hessian(square):
    x0 = np.zeros(2)
    x = np.array([0.3, -0.5])
    result = gradient_by_line_integral(QuadraticPotential(square), x, x0)
    assert np.allclose(result, x, atol=1e-13)


def test_line_integral_matches_guillemin_gradient(cp2):
    pot = GuilleminPotential(cp2)
    x0 = np.zeros(2)
    for x in interior_points(cp2, 8, seed=10):
        recovered = np.array(gradient_by_line_integral(pot, x, x0))
        grad = expand(pot.stack(np.array([x, x0]))).grad
        assert np.max(np.abs(recovered - (grad[0] - grad[1]))) <= 1e-9


def test_line_integral_path_independence(cp2):
    pot = GuilleminPotential(cp2)
    x0 = np.array([0.1, 0.1])
    mid = np.array([-0.4, 0.3])
    x = np.array([0.5, -0.7])
    direct = np.array(gradient_by_line_integral(pot, x, x0))
    via = np.add(gradient_by_line_integral(pot, mid, x0), gradient_by_line_integral(pot, x, mid))
    assert np.max(np.abs(direct - via)) <= 1e-9


def test_line_integral_segment_exits_interior(cp2):
    pot = GuilleminPotential(cp2)
    with pytest.raises(BoundaryEvaluationError):
        gradient_by_line_integral(pot, np.array([3.0, 0.0]), np.zeros(2))


def test_quadratic_potential_stack(square):
    pot = QuadraticPotential(square)
    s = expand(pot.stack(np.array([[0.2, -0.1]])))
    assert np.allclose(s.G, np.eye(2))
    assert np.allclose(s.H, np.eye(2))
    assert np.allclose(s.dH, 0.0)
    assert np.allclose(s.d2H, 0.0)
    with pytest.raises(LossOfConvexityError):
        QuadraticPotential(square, matrix=-np.eye(2))


@pytest.mark.parametrize("name", ["cp2", "square"])
def test_calabi_potential_rejects_another_polygon(request, name):
    # the same test and message as verify's and decompose's potential check
    with pytest.raises(MalformedInputError) as info:
        CalabiPotential(request.getfixturevalue(name))
    assert str(info.value) == "the closed-form soliton potential is only available for the blow-up trapezoid"


def test_calabi_potential_keeps_the_callers_facet_order(blowup, calabi_soliton):
    reversed_trapezoid = DelzantPolytope(blowup.facets[::-1])
    pot = CalabiPotential(reversed_trapezoid)
    assert pot.polytope is reversed_trapezoid
    assert pot.soliton == calabi_soliton
    points = interior_points(blowup, 5, seed=3)
    canonical = CalabiPotential(blowup)
    assert expand(pot.stack(points)).H.tolist() == expand(canonical.stack(points)).H.tolist()
