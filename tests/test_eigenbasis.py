"""Root eigenfunctions, boundary extensions, eigenvalue clustering."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_soliton.eigenbasis import affine_block, boundary_product_form, build_root_function, check_root
from toric_soliton.errors import MalformedInputError
from toric_soliton.futaki import solve_soliton_vector
from toric_soliton.operators import EquivariantFunction, OperatorContext, complex_weighted_laplacian
from toric_soliton.polytope import DelzantPolytope, parse_polytope
from toric_soliton.potentials import GuilleminPotential
from toric_soliton.roots import assemble_decomposition, automorphism_dimensions, enumerate_roots
from conftest import array_jet, column_jet, interior_points

DATA = Path(__file__).parent / "data"


# the canonical-potential profiles on the simplex, indexed by root
CP2_CLOSED_FORMS = {
    (1, 0): lambda l: np.sqrt(l[0] * l[2]),
    (1, -1): lambda l: np.sqrt(l[0] * l[1]),
    (0, 1): lambda l: np.sqrt(l[1] * l[2]),
    (-1, 1): lambda l: np.sqrt(l[1] * l[0]),
    (-1, 0): lambda l: np.sqrt(l[0] * l[2]),
    (0, -1): lambda l: np.sqrt(l[1] * l[2]),
}


def test_cp2_profiles_match_closed_forms(cp2, cp2_ctx):
    rootset = enumerate_roots(cp2)
    pts = interior_points(cp2, 25, seed=21)
    for root in rootset.roots:
        profile = build_root_function(cp2_ctx, root)
        expected = CP2_CLOSED_FORMS[root.alpha](np.array(cp2.facet_values_many(pts)).T)
        assert np.max(np.abs(profile.jet(cp2_ctx.potential.stack(pts))[0] - expected)) <= 1e-10


def test_blowup_profile_closed_form_up_to_gauge(blowup, blowup_ctx):
    # for the root e2 the profile is proportional to mu1 sqrt(y (1 - y)) with
    # y = mu2/mu1; the gauge constant of the recovered gradient scales it
    from toric_soliton.calabi import from_algebraic_coordinates

    root = next(r for r in enumerate_roots(blowup).roots if r.alpha == (0, 1))
    profile = build_root_function(blowup_ctx, root)
    pts = interior_points(blowup, 12, seed=24)
    mu = np.array([from_algebraic_coordinates(x) for x in pts])
    y = mu[:, 1] / mu[:, 0]
    ratios = profile.jet(blowup_ctx.potential.stack(pts))[0] / (mu[:, 0] * np.sqrt(y * (1.0 - y)))
    assert ratios[0] > 0.0
    assert np.max(np.abs(ratios - ratios[0])) <= 1e-9 * ratios[0]


def test_profile_derivatives_match_finite_differences(cp2_ctx, blowup_ctx):
    step = 1e-6
    for ctx, alpha in ((cp2_ctx, (1, -1)), (blowup_ctx, (-1, 0))):
        rootset = enumerate_roots(ctx.potential.polytope)
        root = next(r for r in rootset.roots if r.alpha == alpha)
        profile = build_root_function(ctx, root)
        pts = interior_points(ctx.potential.polytope, 5, seed=22)
        _, grad, hess = array_jet(profile.jet(ctx.potential.stack(pts)))
        shifted = [(array_jet(profile.jet(ctx.potential.stack(pts + step * e))),
                    array_jet(profile.jet(ctx.potential.stack(pts - step * e)))) for e in np.eye(2)]
        fd_grad = np.stack([(plus[0] - minus[0]) / (2 * step) for plus, minus in shifted], axis=-1)
        assert np.max(np.abs(fd_grad - grad)) <= 1e-5
        fd_hess = np.stack([(plus[1] - minus[1]) / (2 * step) for plus, minus in shifted], axis=-1)
        assert np.max(np.abs(fd_hess - hess)) <= 1e-5


@pytest.mark.parametrize("ctx_name", ["cp2_ctx", "blowup_ctx"])
def test_eigenvalue_two_for_all_roots(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    s = ctx.potential.stack(ctx.potential.polytope.interior_grid(21, 0.05))
    for root in enumerate_roots(ctx.potential.polytope).roots:
        result = check_root(ctx, root, s)
        assert result.max_rel_residual <= 1e-6
        assert result.fitted_eigenvalue == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("alpha", [(-1, -1), (-1, 0)], ids=["-1_-1", "-1_0"])
def test_wrong_mode_sign_discriminates(alpha, blowup_ctx, blowup_grid):
    # on a unipotent root <alpha, a> != 0, and the profile on mode -alpha is an exact
    # eigenfunction with eigenvalue 2 + 4 <alpha, a>, never 2
    rootset = enumerate_roots(blowup_ctx.potential.polytope)
    root = next(r for r in rootset.roots if r.alpha == alpha)
    pairing = float(np.array(root.alpha) @ blowup_ctx.a)
    assert abs(pairing) > 1e-3
    right = build_root_function(blowup_ctx, root)
    assert right.mode == alpha
    wrong = EquivariantFunction(tuple(-c for c in alpha), right.jet)
    s = blowup_ctx.potential.stack(blowup_grid)
    u = np.array(right.jet(s)[0])  # both modes share the profile
    right_fit = u @ np.array(complex_weighted_laplacian(blowup_ctx, right, s)) / (u @ u)
    wrong_fit = u @ np.array(complex_weighted_laplacian(blowup_ctx, wrong, s)) / (u @ u)
    assert right_fit == pytest.approx(2.0, abs=1e-9)
    assert wrong_fit == pytest.approx(2.0 + 4.0 * pairing, abs=1e-9)
    assert abs(wrong_fit - 2.0) > 1.0
    checked = check_root(blowup_ctx, root, s)
    assert checked.profile.mode == alpha
    assert checked.fitted_eigenvalue == pytest.approx(right_fit, abs=1e-12)


def test_dropping_the_affine_shift_breaks_the_eigenvalue(cp2_ctx, cp2_grid):
    # the +1 in the profile is exactly the distinguished-facet pairing; without
    # it the fitted eigenvalue drifts away from two (negative control)
    rootset = enumerate_roots(cp2_ctx.potential.polytope)
    root = rootset.roots[0]
    profile = build_root_function(cp2_ctx, root)
    normal = np.array(cp2_ctx.potential.polytope.facets[root.distinguished_facet].normal, dtype=float)
    alpha = np.array(root.alpha, dtype=float)
    potential = cp2_ctx.potential

    @column_jet
    def bare_jet(s):
        e = np.exp(-(s.grad @ alpha))
        w = s.points @ normal
        galpha = s.G @ alpha
        dgalpha = np.einsum("mjlk,l->mjk", s.dG, alpha)
        matrix = (-np.einsum("i,mj->mij", normal, galpha) - np.einsum("mi,j->mij", galpha, normal)
                  - w[:, None, None] * dgalpha + w[:, None, None] * np.einsum("mi,mj->mij", galpha, galpha))
        return w * e, (normal - w[:, None] * galpha) * e[:, None], matrix * e[:, None, None]

    bare = EquivariantFunction(mode=profile.mode, jet=bare_jet)
    s = potential.stack(cp2_grid)
    u = np.array(bare.jet(s)[0])
    applied = np.array(complex_weighted_laplacian(cp2_ctx, bare, s))
    fitted = u @ applied / (u @ u)
    max_rel_residual = np.max(np.abs(applied - 2.0 * u)) / np.max(np.abs(u))
    assert abs(fitted - 2.0) > 1e-2 or max_rel_residual > 1e-2


def test_boundary_product_form_matches_interior(cp2, cp2_ctx):
    rootset = enumerate_roots(cp2)
    pts = interior_points(cp2, 25, seed=23)
    for root in rootset.roots:
        form = boundary_product_form(cp2, root)
        profile = build_root_function(cp2_ctx, root)
        assert np.max(np.abs(np.subtract(form.values(pts), profile.jet(cp2_ctx.potential.stack(pts))[0]))) <= 1e-10


def test_boundary_product_form_exponents(cp2):
    rootset = enumerate_roots(cp2)
    for root in rootset.roots:
        form = boundary_product_form(cp2, root)
        for idx, exponent in enumerate(form.exponents):
            if idx == root.distinguished_facet:
                assert exponent == 0.5
            else:
                assert exponent == -0.5 * root.pairings[idx]
                assert exponent >= 0.0
                # zero exactly when the pairing vanishes: no dependence on that facet
                assert (exponent == 0.0) == (root.pairings[idx] == 0)


def test_boundary_product_form_on_closed_polytope(cp2):
    rootset = enumerate_roots(cp2)
    root = next(r for r in rootset.roots if r.alpha == (1, 0))
    form = boundary_product_form(cp2, root)
    # finite everywhere on the closed polytope, including the vertices
    assert np.all(np.isfinite(form.values(cp2.vertex_points)))
    # vanishes exactly on the facets with positive exponent
    assert {i for i, e in enumerate(form.exponents) if e > 0.0} == {0, 2}
    assert list(form.values([[-1.0, 0.0], [0.5, 0.5]])) == [0.0, 0.0]  # on facets 0 and 2
    # strictly positive on the open part of the pairing-zero facet
    edge_point = [0.5, -1.0]  # interior of facet 1
    assert form.values([edge_point])[0] > 0.0


def test_anti_holomorphic_eigenvalues_blowup(blowup_ctx, blowup_grid):
    rootset = enumerate_roots(blowup_ctx.potential.polytope)
    s = blowup_ctx.potential.stack(blowup_grid)
    for root in rootset.roots:
        result = check_root(blowup_ctx, root, s)
        assert result.gamma_fit <= 1e-6
        gamma = result.gamma_hat
        expected = 4.0 * abs(float(np.array(root.alpha) @ blowup_ctx.a))
        assert abs(abs(gamma) - expected) <= 1e-6
        if root.alpha in ((0, 1), (0, -1)):
            assert abs(gamma) <= 1e-9
        else:
            assert gamma > 1.0  # realized sign is positive for the unipotent pair


def test_anti_holomorphic_eigenvalues_cp2(cp2_ctx, cp2_grid):
    s = cp2_ctx.potential.stack(cp2_grid)
    for root in enumerate_roots(cp2_ctx.potential.polytope).roots:
        result = check_root(cp2_ctx, root, s)
        assert result.gamma_fit <= 1e-6
        assert abs(result.gamma_hat) <= 1e-9


def test_anti_holomorphic_rejects_bad_fit(blowup, blowup_soliton, blowup_grid):
    # the canonical potential is not the soliton metric here: the fit must fail
    ctx = OperatorContext(potential=GuilleminPotential(blowup), a=blowup_soliton.a)
    rootset = enumerate_roots(blowup)
    root = next(r for r in rootset.roots if r.alpha == (-1, 0))
    result = check_root(ctx, root, ctx.potential.stack(blowup_grid))
    assert result.gamma_fit > 1e-6


def test_decomposition_cp2(cp2_ctx, cp2_soliton):
    rootset = enumerate_roots(cp2_ctx.potential.polytope)
    decomposition = assemble_decomposition(cp2_soliton, rootset)
    assert decomposition.gamma_values == (0.0,)
    block = decomposition.blocks[0]
    assert block["includes_affine"]
    assert block["complex_dimension"] == 8
    assert decomposition.total_complex_dimension == 8


def test_decomposition_blowup(blowup_ctx, blowup_soliton):
    rootset = enumerate_roots(blowup_ctx.potential.polytope)
    decomposition = assemble_decomposition(blowup_soliton, rootset)
    assert len(decomposition.blocks) == 2
    zero_block, positive_block = decomposition.blocks
    assert zero_block["gamma"] == 0.0
    assert zero_block["complex_dimension"] == 4
    assert {r.alpha for r in zero_block["roots"]} == {(0, 1), (0, -1)}
    expected_gamma = -2.0 * blowup_soliton.a[0]
    assert positive_block["gamma"] == pytest.approx(expected_gamma, abs=1e-12)
    assert positive_block["gamma"] > 0.0
    assert positive_block["complex_dimension"] == 2
    assert {r.alpha for r in positive_block["roots"]} == {(-1, 0), (-1, -1)}
    # the nonzero block consists of unipotent roots, the zero block of semisimple ones
    semisimple = {r.alpha for r in rootset.semisimple}
    assert {r.alpha for r in positive_block["roots"]}.isdisjoint(semisimple)
    assert {r.alpha for r in zero_block["roots"]} <= semisimple
    assert min(decomposition.gamma_values) >= -1e-9


def test_decomposition_square(square):
    soliton = solve_soliton_vector(square)
    decomposition = assemble_decomposition(soliton, enumerate_roots(square))
    assert decomposition.gamma_values == (0.0,)
    assert decomposition.total_complex_dimension == 6


def _block_layout(decomposition):
    return [
        (b["includes_affine"], b["complex_dimension"], [r.alpha for r in b["roots"]])
        for b in decomposition.blocks
    ]


@pytest.mark.parametrize("example", ["cp2", "blowup"])
@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: v != 0.0))
def test_decomposition_independent_of_round_off_in_a(example, s, cp2_roots, blowup_roots, blowup_soliton):
    # a = s b, so round-off in a is round-off in s: for a fixed b the blocks, as root sets in
    # their order, follow only the sign of s, and each gamma is 2 s <alpha, b> in one rounding.
    # The solve fixes only 0 on P^2; b = (2, 1) stands in there to give five levels
    rootset, b = {"cp2": (cp2_roots, (2, 1)), "blowup": (blowup_roots, blowup_soliton.b)}[example]
    soliton = blowup_soliton._replace(s=s, b=b)
    decomposition = assemble_decomposition(soliton, rootset)
    unit = assemble_decomposition(soliton._replace(s=math.copysign(1.0, s)), rootset)
    assert _block_layout(decomposition) == _block_layout(unit)
    assert len(decomposition.blocks) == {"cp2": 5, "blowup": 2}[example]
    for block in decomposition.blocks:
        for root in block["roots"]:
            k = root.alpha[0] * b[0] + root.alpha[1] * b[1]
            assert block["includes_affine"] == (k == 0)
            assert block["gamma"] == 2.0 * s * k + 0.0


@pytest.mark.parametrize("name", ["cp2", "square", "bl3", "blowup"])
@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=-1e6, max_value=1e6))
def test_a_fixed_only_at_zero_gives_one_affine_block(name, s, blowup_soliton):
    # b = None (the lattice automorphisms fix only 0, a = 0): every root pairs to k = 0 with it,
    # so one affine block at gamma +0.0 holds them all, for s of either sign; on Bl1P2 the
    # solve's b is not None, and dropping it puts the unipotent roots in the affine block
    rootset = enumerate_roots(parse_polytope((DATA / f"{name}.json").read_text()))
    decomposition = assemble_decomposition(blowup_soliton._replace(s=s, b=None), rootset)
    assert [b["includes_affine"] for b in decomposition.blocks] == [True]
    assert [math.copysign(1.0, g) for g in decomposition.gamma_values] == [1.0]
    assert decomposition.gamma_values == (0.0,)
    assert decomposition.total_complex_dimension == automorphism_dimensions(rootset).dim_eta


@pytest.mark.parametrize("ctx_name", ["cp2_ctx", "blowup_ctx"])
def test_affine_block_eigenvalue_two(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    records = affine_block(ctx, ctx.potential.stack(ctx.potential.polytope.interior_grid(21, 0.05)))
    assert len(records) == 2
    for record in records:
        assert record["mode"] == (0, 0)
        assert record["fitted_eigenvalue"] == pytest.approx(2.0, abs=1e-6)
        assert record["max_rel_residual"] <= 1e-6


def test_conjugate_root_function_satisfies_conjugate_equation(cp2_ctx, cp2_grid):
    # the profile on mode -alpha solves the conjugate equation, the operator plus the
    # conjugate shift +4 <a, k> u, with the same bound
    rootset = enumerate_roots(cp2_ctx.potential.polytope)
    s = cp2_ctx.potential.stack(cp2_grid)
    for root in rootset.roots[:3]:
        profile = build_root_function(cp2_ctx, root)
        conjugate = EquivariantFunction(tuple(-c for c in root.alpha), profile.jet)
        values = np.array(conjugate.jet(s)[0])
        conjugate_shift = 4.0 * float(np.dot(cp2_ctx.a, conjugate.mode)) * values
        applied = complex_weighted_laplacian(cp2_ctx, conjugate, s) + conjugate_shift
        assert np.max(np.abs(applied - 2.0 * values)) / np.max(np.abs(values)) <= 1e-6


def test_boundary_product_form_rejects_a_non_algebraic_polygon(cp2, cp2_roots):
    scaled = DelzantPolytope([f._replace(offset=Fraction(2)) for f in cp2.facets])
    with pytest.raises(MalformedInputError, match="requires an algebraic polytope"):
        boundary_product_form(scaled, cp2_roots.roots[0])
