"""Laplacians, curvature operators, soliton residuals, and the FD oracle."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from toric_soliton.eigenbasis import build_root_function, check_root
from toric_soliton.errors import BoundaryEvaluationError, MalformedInputError
from toric_soliton.operators import (
    EquivariantFunction,
    OperatorContext,
    complex_weighted_laplacian,
    finite_difference_oracle,
    product_rule_defects,
    profile_constant,
    profile_coordinate,
    profile_exp_pairing,
    profile_linear,
    profile_product,
    ricci_and_lie_components,
    scalar_curvature,
    soliton_residuals,
    weighted_laplacian,
)
from toric_soliton.potentials import GuilleminPotential, QuadraticPotential
from toric_soliton.quadrature import integrate
from toric_soliton.roots import enumerate_roots
from conftest import batch, column_jet, expand, interior_points


@pytest.fixture(scope="module")
def flat_ctx(square):
    return OperatorContext(potential=QuadraticPotential(square), a=np.zeros(2))


def square_profile(i: int, n: int) -> EquivariantFunction:
    @column_jet
    def jet(s):
        m = len(s.points)
        grad = np.zeros((m, n))
        grad[:, i] = 2.0 * s.points[:, i]
        hess = np.zeros((m, n, n))
        hess[:, i, i] = 2.0
        return s.points[:, i] ** 2, grad, hess

    return EquivariantFunction(mode=(0,) * n, jet=jet)


def bump_profile(center, radius) -> EquivariantFunction:
    """Smooth compactly supported bump with analytic derivatives."""
    center = np.asarray(center, dtype=float)
    r2 = radius * radius

    @column_jet
    def jet(s):
        d = s.points - center
        q = np.einsum("mi,mi->m", d, d) / r2
        inside = q < 1.0
        t = np.where(inside, 1.0 - q, 1.0)
        f = np.where(inside, np.exp(-1.0 / t), 0.0)
        fp = -f / t**2
        fpp = f / t**4 - 2.0 * f / t**3
        dq = 2.0 * d / r2
        hess = fpp[:, None, None] * np.einsum("mi,mj->mij", dq, dq) + fp[:, None, None] * 2.0 * np.eye(2) / r2
        return f, fp[:, None] * dq, hess

    return EquivariantFunction(mode=(0, 0), jet=jet)


def test_constants_are_harmonic(cp2_ctx, blowup_ctx, flat_ctx):
    one = profile_constant(1.0)
    for ctx, x in ((cp2_ctx, [0.1, 0.2]), (blowup_ctx, [0.3, -0.4]), (flat_ctx, [0.5, 0.5])):
        assert weighted_laplacian(ctx, one, ctx.potential.stack(np.array([x])))[0] == 0.0


def test_flat_model_square_coordinate(flat_ctx):
    f = square_profile(0, 2)
    s = flat_ctx.potential.stack(np.array([[0.3, -0.2]]))
    assert weighted_laplacian(flat_ctx, f, s)[0] == pytest.approx(-2.0, abs=1e-14)


def test_cp2_coordinate_at_origin(cp2_ctx):
    f = profile_coordinate(0)
    s = cp2_ctx.potential.stack(np.zeros((1, 2)))
    assert weighted_laplacian(cp2_ctx, f, s)[0] == pytest.approx(0.0, abs=1e-13)


def test_lemma_4_1_cp2(cp2_ctx, cp2_grid):
    # affine moment-map components are eigenfunctions with eigenvalue two
    s = cp2_ctx.potential.stack(cp2_grid)
    grid = np.array(cp2_grid)
    for i in range(2):
        f = profile_coordinate(i)
        worst = np.max(np.abs(weighted_laplacian(cp2_ctx, f, s) - 2.0 * grid[:, i]))
        assert worst / np.max(np.abs(grid[:, i])) <= 1e-6


def test_lemma_4_1_blowup(blowup_ctx, blowup_grid):
    s = blowup_ctx.potential.stack(blowup_grid)
    for b in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        f = profile_linear(b)
        values = np.array(blowup_grid) @ b
        lhs = weighted_laplacian(blowup_ctx, f, s)
        assert np.max(np.abs(lhs - 2.0 * values)) / np.max(np.abs(values)) <= 1e-6


@pytest.mark.parametrize("ctx_name", ["cp2_ctx", "blowup_ctx"])
def test_mode_diagonal_identities(ctx_name, request):
    # angular sector on a pure mode; radial exponential; their null product
    ctx = request.getfixturevalue(ctx_name)
    s = ctx.potential.stack(interior_points(ctx.potential.polytope, 12, seed=14))
    for alpha in [r.alpha for r in enumerate_roots(ctx.potential.polytope).roots]:
        alpha_arr = np.array(alpha, dtype=float)
        pure = profile_constant(1.0, mode=alpha)
        radial = profile_exp_pairing(alpha)
        null = profile_exp_pairing(alpha, mode=alpha)
        coeff = np.einsum("i,mij,j->m", alpha_arr, expand(s).G, alpha_arr) - 2.0 * float(ctx.a @ alpha_arr)
        assert complex_weighted_laplacian(ctx, pure, s) == pytest.approx(coeff, abs=1e-8)
        value = radial.jet(s)[0]
        assert complex_weighted_laplacian(ctx, radial, s) == pytest.approx(-coeff * value, abs=1e-8)
        assert complex_weighted_laplacian(ctx, null, s) == pytest.approx(np.zeros(len(value)), abs=1e-8)


@pytest.mark.parametrize("ctx_name", ["cp2_ctx", "blowup_ctx"])
def test_product_rule(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    u = profile_coordinate(0)
    v = profile_coordinate(1)
    w = profile_exp_pairing([1, 0] if ctx_name == "cp2_ctx" else [0, 1])
    s = ctx.potential.stack(interior_points(ctx.potential.polytope, 20, seed=15))
    assert np.max(np.abs(product_rule_defects(ctx, u, v, s))) <= 1e-8
    assert np.max(np.abs(product_rule_defects(ctx, u, w, s))) <= 1e-8
    one = ctx.potential.stack(interior_points(ctx.potential.polytope, 1, seed=16))
    trivial = product_rule_defects(ctx, profile_constant(1.0), profile_constant(1.0), one)
    assert trivial[0] == 0.0


def test_abreu_cp2_constant_four(cp2_ctx, cp2_grid):
    values = np.array(scalar_curvature(cp2_ctx.potential.stack(cp2_grid)))
    assert np.max(np.abs(values - 4.0)) <= 1e-6


def test_abreu_flat_model_zero(flat_ctx):
    assert scalar_curvature(flat_ctx.potential.stack(np.array([[0.4, -0.4]])))[0] == 0.0


def test_abreu_blowup_nonconstant_with_mean_four(blowup, blowup_ctx):
    sample = interior_points(blowup, 10, seed=17)
    values = scalar_curvature(blowup_ctx.potential.stack(sample))
    assert np.std(values) > 1e-3  # genuinely non-constant
    mean = integrate(blowup, lambda pts: scalar_curvature(blowup_ctx.potential.stack(pts)), 10) / 4.0
    assert mean == pytest.approx(4.0, abs=1e-4)


def test_ricci_identity_cp2(cp2_ctx):
    s = cp2_ctx.potential.stack(interior_points(cp2_ctx.potential.polytope, 8, seed=18))
    ric, lie = map(batch, ricci_and_lie_components(cp2_ctx, s))
    assert np.max(np.abs(ric - np.eye(2))) <= 1e-6
    assert np.max(np.abs(lie)) <= 1e-9


def test_soliton_identity_blowup(blowup_ctx):
    s = blowup_ctx.potential.stack(interior_points(blowup_ctx.potential.polytope, 12, seed=19))
    ric, lie = map(batch, ricci_and_lie_components(blowup_ctx, s))
    assert ric.shape == lie.shape == (12, 2, 2)
    assert np.max(np.abs(ric - lie - np.eye(2))) <= 1e-6


def test_ricci_flat_model(flat_ctx):
    ric, lie = map(batch, ricci_and_lie_components(flat_ctx, flat_ctx.potential.stack(np.array([[0.2, 0.3]]))))
    assert np.max(np.abs(ric)) == 0.0
    assert np.max(np.abs(lie)) == 0.0


def test_soliton_residual_both_examples(cp2_ctx, cp2_grid, blowup_ctx, blowup_grid):
    for ctx, grid in ((cp2_ctx, cp2_grid), (blowup_ctx, blowup_grid)):
        worst = np.max(np.abs(soliton_residuals(ctx, ctx.potential.stack(grid), 4.0)))
        assert worst <= 1e-6


def test_soliton_residual_negative_control(blowup, blowup_ctx, blowup_grid):
    halved = OperatorContext(potential=blowup_ctx.potential, a=np.divide(blowup_ctx.a, 2.0))
    worst = np.max(np.abs(soliton_residuals(halved, blowup_ctx.potential.stack(blowup_grid), 4.0)))
    assert worst > 1e-2


def test_fd_oracle_weighted_on_root_functions(cp2, cp2_ctx, cp2_grid):
    rootset = enumerate_roots(cp2)
    x = np.array([0.15, -0.1])
    sample = cp2_ctx.potential.stack(cp2_grid[:24])
    at_x = cp2_ctx.potential.stack(x[None])
    for root in rootset.roots:
        profile = check_root(cp2_ctx, root, sample).profile
        analytic = complex_weighted_laplacian(cp2_ctx, profile, at_x)[0]
        oracle = finite_difference_oracle(cp2_ctx, profile, x)[0]
        assert abs(oracle - analytic) / max(1.0, abs(analytic)) <= 1e-4


def test_fd_oracle_abreu(cp2_ctx):
    # H is quadratic on P^2, so its second differences are exact up to rounding
    f = profile_constant(1.0)
    for x in (np.array([0.0, 0.0]), np.array([0.3, -0.2])):
        oracle = finite_difference_oracle(cp2_ctx, f, x)[1]
        assert abs(oracle - 4.0) / 4.0 <= 1e-9


def fd_check_values(ctx, f, x) -> tuple[float, float]:
    """The relative values of verify's two FD checks at x: the oracle against the analytic stack."""
    at_x = ctx.potential.stack([x])
    analytic, abreu = complex_weighted_laplacian(ctx, f, at_x)[0], scalar_curvature(at_x)[0]
    oracle, abreu_fd = finite_difference_oracle(ctx, f, x)
    return (oracle - analytic) / max(1.0, abs(analytic)), (abreu_fd - abreu) / max(1.0, abs(abreu))


def grid_middle(polytope) -> tuple[float, float]:
    """The point at which verify runs the oracle on its default grid."""
    grid = polytope.interior_grid(21, 0.05)
    return grid[len(grid) // 2]


class PerturbedStacks:
    """A potential whose stacks carry ``change`` applied to every entry of one field."""

    def __init__(self, potential, field: str, change):
        self.polytope, self.require_interior = potential.polytope, potential.require_interior
        self._stack, self._field, self._change = potential.stack, field, change

    def stack(self, points, **options):
        s = self._stack(points, **options)
        return s._replace(**{self._field: tuple([self._change(v) for v in c] for c in getattr(s, self._field))})


def test_fd_oracle_on_the_calabi_metric(blowup_ctx, blowup_roots):
    # the soliton metric is given by H, which is all of the potential the oracle differences
    x = grid_middle(blowup_ctx.potential.polytope)
    for root in blowup_roots.roots:
        weighted, abreu = fd_check_values(blowup_ctx, build_root_function(blowup_ctx, root), x)
        assert abs(weighted) <= 1e-4 and abs(abreu) <= 1e-3, root.alpha


@pytest.mark.parametrize("ctx_name", ["cp2_ctx", "blowup_ctx"])
def test_fd_checks_catch_a_shifted_derivative(ctx_name, request):
    # the oracle reads H and G only, so an error in dH or d2H moves the analytic side alone
    ctx = request.getfixturevalue(ctx_name)
    f, x = profile_coordinate(0), grid_middle(ctx.potential.polytope)
    weighted, abreu = fd_check_values(ctx, f, x)
    assert abs(weighted) <= 1e-4 and abs(abreu) <= 1e-3

    def shifted(field):
        return OperatorContext(PerturbedStacks(ctx.potential, field, lambda v: v + 1e-2), ctx.a)

    weighted, abreu = fd_check_values(shifted("d2H"), f, x)
    assert abs(weighted) <= 1e-4 and abs(abreu) > 1e-3
    weighted, abreu = fd_check_values(shifted("dH"), f, x)
    assert abs(weighted) > 1e-4 and abs(abreu) <= 1e-3


@pytest.mark.parametrize("ctx_name", ["cp2_ctx", "blowup_ctx"])
def test_fd_oracle_is_stable_under_one_ulp_of_H(ctx_name, request):
    # the Abreu term takes second differences of H, so one ulp of H reaches it magnified by h^-2 only
    ctx = request.getfixturevalue(ctx_name)
    rng = random.Random(24)
    jittered = OperatorContext(
        PerturbedStacks(ctx.potential, "H", lambda v: v + rng.choice((-1.0, 1.0)) * math.ulp(v)), ctx.a)
    x = grid_middle(ctx.potential.polytope)
    for root in enumerate_roots(ctx.potential.polytope).roots:
        f = build_root_function(ctx, root)
        base, moved = finite_difference_oracle(ctx, f, x), finite_difference_oracle(jittered, f, x)
        assert max(abs(b - m) for b, m in zip(base, moved)) < 1e-10, root.alpha


def test_fd_oracle_flat_model_exact(flat_ctx):
    f = square_profile(0, 2)
    x = np.array([0.1, -0.3])
    # a = 0 and mode 0 make the complex weighted term the plain Laplacian; the flat metric has no curvature
    weighted, abreu = finite_difference_oracle(flat_ctx, f, x)
    assert weighted == pytest.approx(-2.0, abs=1e-9)
    assert abreu == pytest.approx(0.0, abs=1e-6)


def test_fd_oracle_rejects_boundary_point(cp2_ctx):
    with pytest.raises(BoundaryEvaluationError):
        finite_difference_oracle(cp2_ctx, profile_constant(1.0), np.array([3.0, 0.0]))


def test_fd_oracle_rejects_malformed_point(cp2_ctx):
    with pytest.raises(MalformedInputError):
        finite_difference_oracle(cp2_ctx, profile_constant(1.0), np.zeros(3))


def test_profile_product_rejects_a_moded_factor():
    with pytest.raises(MalformedInputError, match="torus-invariant factors"):
        profile_product(profile_constant(1.0, mode=(1, 0)), profile_coordinate(0))


def test_fd_oracle_is_batched(cp2):
    # the oracle reads everything from two stacks: 81 points on the nested stencil of the
    # weighted term, and the Abreu term's 9 without the gradient; no value of phi
    pot = GuilleminPotential(cp2)
    calls = []
    stack = pot.stack

    def counting(points, **options):
        calls.append((len(points), options))
        return stack(points, **options)

    pot.stack = counting
    ctx = OperatorContext(potential=pot, a=np.zeros(2))
    finite_difference_oracle(ctx, profile_exp_pairing((1, 0)), np.array([0.1, -0.2]))
    assert calls == [(81, {}), (9, {"gradient": False})]
    assert not hasattr(pot, "values")


def test_conjugation_symmetry(blowup_ctx):
    # the conjugate operator (the conjugate shift +4 <a, k> u added) on the conjugate
    # mode equals the conjugate of the operator on the mode
    alpha = (-1, 0)
    u_plus = profile_exp_pairing(alpha, mode=alpha)
    u_minus = profile_exp_pairing(alpha, mode=tuple(-c for c in alpha))
    s = blowup_ctx.potential.stack(interior_points(blowup_ctx.potential.polytope, 8, seed=20))
    plus = complex_weighted_laplacian(blowup_ctx, u_plus, s)
    conjugate_shift = 4.0 * float(np.dot(blowup_ctx.a, u_minus.mode)) * np.array(u_minus.jet(s)[0])
    minus = complex_weighted_laplacian(blowup_ctx, u_minus, s) + conjugate_shift
    assert minus == pytest.approx(np.conj(plus), abs=1e-12)


@pytest.mark.parametrize("ctx_name", ["cp2_ctx", "blowup_ctx"])
def test_weighted_symmetry_under_refinement(ctx_name, request):
    # discrete integration by parts: the mode-0 weighted operator is symmetric
    # for the weight exp(-2 <drift, x>) with drift covector -a
    ctx = request.getfixturevalue(ctx_name)
    if ctx_name == "cp2_ctx":
        u = bump_profile([-0.1, -0.1], 0.4)
        v = bump_profile([0.1, 0.0], 0.4)
    else:
        u = bump_profile([0.0, -0.3], 0.4)
        v = bump_profile([0.2, -0.2], 0.4)
    verts = np.array(ctx.potential.polytope.vertex_points)
    lo, hi = verts.min(axis=0), verts.max(axis=0)

    def antisymmetric_sum(n):
        axes = [np.linspace(lo[i], hi[i], n) for i in range(2)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        keep = np.array(ctx.potential.polytope.facet_values_many(mesh)).min(axis=1) > 1e-9
        pts = mesh[keep]
        cell = (hi[0] - lo[0]) * (hi[1] - lo[1]) / (n - 1) ** 2
        s = ctx.potential.stack(pts)
        uv, vv = np.array(u.jet(s)[0]), np.array(v.jet(s)[0])
        support = (uv != 0.0) | (vv != 0.0)
        pts, uv, vv, s = pts[support], uv[support], vv[support], s.select(np.flatnonzero(support))
        du = np.array(weighted_laplacian(ctx, u, s))
        dv = np.array(weighted_laplacian(ctx, v, s))
        weight = np.exp(2.0 * (pts @ np.array(ctx.a)))
        total = np.sum((du * vv - uv * dv) * weight * cell)
        scale = np.sum((np.abs(du * vv) + np.abs(uv * dv)) * weight * cell)
        return abs(total) / scale

    coarse = antisymmetric_sum(20)
    fine = antisymmetric_sum(160)
    assert fine <= 1e-3
    assert fine <= 0.05 * coarse
