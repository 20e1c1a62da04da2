"""Acceptance suite: every criterion runs at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with ``-s`` or read the
captured output).  The criteria cover: exact root enumeration, dimension
counts, the soliton vector against an independent bisection oracle, the
blow-up closed forms, Abreu curvature, the affine eigenfunction identity,
the soliton equation with a negative control, eigenfunctions with their
closed forms, operator identities against the finite-difference oracle,
the eigenvalue clustering, orientation-reversed eigenvalues, and the
boundary extension of the root profiles.
"""

from __future__ import annotations

import numpy as np
import pytest

from toric_soliton.calabi import m_constant, ode_residual, profile_A, profile_B, soliton_equation, solve_a1
from toric_soliton.eigenbasis import boundary_product_form, build_root_function, check_root
from toric_soliton.operators import (
    COORDINATES,
    OperatorContext,
    Profile,
    complex_weighted_laplacian,
    finite_difference_oracle,
    product_rule_defects,
    soliton_residuals,
)
from toric_soliton.report import calabi_report
from toric_soliton.roots import assemble_decomposition, automorphism_dimensions, enumerate_roots
from test_eigenbasis import CP2_CLOSED_FORMS
from conftest import expand, integrate
from oracles import brute_force_roots


def report(index: int, description: str, passed: bool) -> None:
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {index:02d} [{flag}] {description}")
    assert passed, f"criterion {index}: {description}"


CP2_ROOTS = {(1, 0), (1, -1), (0, 1), (-1, 1), (-1, 0), (0, -1)}
BLOWUP_ROOTS = {(0, 1), (-1, 0), (-1, -1), (0, -1)}


def test_criterion_01_demazure_roots_exact(cp2, blowup):
    ok = {r.alpha for r in enumerate_roots(cp2).roots} == CP2_ROOTS
    ok = ok and {r.alpha for r in enumerate_roots(blowup).roots} == BLOWUP_ROOTS
    ok = ok and brute_force_roots(cp2) == sorted(CP2_ROOTS)
    ok = ok and brute_force_roots(blowup) == sorted(BLOWUP_ROOTS)
    report(1, "root sets exact on both examples, brute-force oracle agrees", ok)


def test_criterion_02_automorphism_dimensions(cp2_roots, blowup_roots):
    cp2_dims = automorphism_dimensions(cp2_roots)
    blowup_dims = automorphism_dimensions(blowup_roots)
    ok = (cp2_dims.dim_eta, len(cp2_roots.semisimple), len(cp2_roots.unipotent)) == (8, 6, 0)
    ok = ok and (blowup_dims.dim_eta, len(blowup_roots.semisimple), len(blowup_roots.unipotent)) == (6, 2, 2)
    report(2, "dim eta = 8 and 6 with splits (6,0) and (2,2)", ok)


def test_criterion_03_soliton_vector(cp2_soliton, blowup_soliton):
    oracle = solve_a1()  # bisection
    ok = float(np.linalg.norm(cp2_soliton.a)) <= 1e-10
    ok = ok and abs(blowup_soliton.a[1]) <= 1e-8
    ok = ok and abs(blowup_soliton.a[0] - oracle) <= 1e-8
    ok = ok and -0.5 < oracle < 0.0
    report(3, "soliton vectors: zero on the plane, oracle root on the blow-up", ok)


def test_criterion_04_calabi_closed_forms(calabi_soliton):
    s = calabi_soliton
    ok = abs(profile_A(s, 1.0)[0]) <= 1e-10 and abs(profile_A(s, 3.0)[0]) <= 1e-10
    ok = ok and s.m == -4.0 == m_constant()
    ok = ok and all(profile_B(s, float(y))[2] == s.m for y in np.linspace(0.0, 1.0, 11))
    xs = np.linspace(1.0, 3.0, 50)
    ok = ok and max(abs(ode_residual(s, float(x))) for x in xs) <= 1e-9
    note = calabi_report()["scal_mean_note"]
    ok = ok and "-4" in note and "inconsistent" in note
    report(4, "profiles vanish at the ends, B'' = m = -4, radial equation holds at +4, sign flag present", ok)


def test_criterion_05_abreu_curvature(cp2_ctx, cp2_grid, blowup, blowup_ctx):
    pointwise = np.max(np.abs(np.array(cp2_ctx.potential.stack(cp2_grid).scal) - 4.0))
    mean = integrate(blowup, lambda pts: blowup_ctx.potential.stack(pts).scal, 10) / 4.0
    ok = pointwise <= 1e-6 and abs(mean - 4.0) <= 1e-4
    report(5, "plane curvature constant 4 pointwise; blow-up mean curvature 4", ok)


def test_criterion_06_affine_eigenfunctions(cp2_ctx, cp2_grid, blowup_ctx, blowup_grid):
    worst = 0.0
    for ctx, grid in ((cp2_ctx, cp2_grid), (blowup_ctx, blowup_grid)):
        s = ctx.potential.stack(grid)
        for i, f in enumerate(COORDINATES):
            values = np.array(grid)[:, i]
            lhs = complex_weighted_laplacian(ctx, f, s)
            worst = max(worst, np.max(np.abs(lhs - 2.0 * values)) / np.max(np.abs(values)))
    report(6, f"weighted Laplacian doubles both coordinates (max rel err {worst:.2e})", worst <= 1e-6)


def test_criterion_07_soliton_equation(blowup, blowup_ctx, blowup_grid):
    s = blowup_ctx.potential.stack(blowup_grid)
    worst = np.max(np.abs(soliton_residuals(blowup_ctx, s, 4.0)))
    halved = OperatorContext(potential=blowup_ctx.potential, a=np.divide(blowup_ctx.a, 2.0))
    control = np.max(np.abs(soliton_residuals(halved, s, 4.0)))
    ok = worst <= 1e-6 and control > 1e-2
    report(7, f"soliton equation holds ({worst:.2e}); halved coefficient fails ({control:.2e})", ok)


def test_criterion_08_eigenfunctions(cp2, cp2_ctx, cp2_grid, blowup_ctx, blowup_grid):
    ok = True
    for ctx, grid in ((cp2_ctx, cp2_grid), (blowup_ctx, blowup_grid)):
        s = ctx.potential.stack(grid)
        for root in enumerate_roots(ctx.potential.polytope).roots:
            result = check_root(ctx, root, s)
            ok = ok and result.max_rel_residual <= 1e-6
            ok = ok and abs(result.fitted_eigenvalue - 2.0) <= 1e-6
    for root in enumerate_roots(cp2).roots:
        profile = build_root_function(cp2, root)
        closed = CP2_CLOSED_FORMS[root.alpha](np.array(cp2.facet_values_many(cp2_grid[::7])).T)
        ok = ok and np.max(np.abs(profile.jet(cp2_ctx.potential.stack(cp2_grid[::7]))[0] - closed)) <= 1e-10
    report(8, "all root functions have eigenvalue two; plane profiles match the closed forms", ok)


def test_criterion_09_operator_identities(cp2_ctx, blowup_ctx):
    ok = True
    for ctx in (cp2_ctx, blowup_ctx):
        s = ctx.potential.stack(ctx.potential.polytope.interior_grid(9, 0.1)[::4])
        for root in enumerate_roots(ctx.potential.polytope).roots[:3]:
            alpha = np.array(root.alpha, dtype=float)
            pure = Profile((0, 0), 1.0, (0, 0), root.alpha)
            radial = Profile((0, 0), 1.0, root.alpha, (0, 0))
            null = Profile((0, 0), 1.0, root.alpha, root.alpha)
            coeff = np.einsum("i,mij,j->m", alpha, expand(s).G, alpha) - 2.0 * float(ctx.a @ alpha)
            ok = ok and np.max(np.abs(complex_weighted_laplacian(ctx, pure, s) - coeff)) <= 1e-8
            ok = ok and np.max(np.abs(
                complex_weighted_laplacian(ctx, radial, s) + coeff * np.array(radial.jet(s)[0])
            )) <= 1e-8
            ok = ok and np.max(np.abs(complex_weighted_laplacian(ctx, null, s))) <= 1e-8
            ok = ok and np.max(np.abs(product_rule_defects(ctx, COORDINATES[0], radial, s))) <= 1e-8
    # finite-difference oracle against the analytic stack (closed-form potential)
    x0 = np.array([0.2, -0.15])
    at_x0 = cp2_ctx.potential.stack(x0[None])
    rootset = enumerate_roots(cp2_ctx.potential.polytope)
    profile = build_root_function(cp2_ctx.potential.polytope, rootset.roots[0])
    analytic = complex_weighted_laplacian(cp2_ctx, profile, at_x0)[0]
    oracle, abreu_fd = finite_difference_oracle(cp2_ctx, profile, x0)
    ok = ok and abs(oracle - analytic) / max(1.0, abs(analytic)) <= 1e-4
    ok = ok and abs(abreu_fd - at_x0.scal[0]) / 4.0 <= 1e-3
    report(9, "mode identities, product rule, and FD-oracle agreement", ok)


def test_criterion_10_decomposition(cp2_ctx, cp2_soliton, blowup_ctx, blowup_soliton):
    cp2_dec = assemble_decomposition(cp2_soliton, enumerate_roots(cp2_ctx.potential.polytope))
    ok = cp2_dec.gamma_values == (0.0,) and cp2_dec.blocks[0]["complex_dimension"] == 8
    blowup_rootset = enumerate_roots(blowup_ctx.potential.polytope)
    blowup_dec = assemble_decomposition(blowup_soliton, blowup_rootset)
    dims = {round(b["gamma"], 12): b["complex_dimension"] for b in blowup_dec.blocks}
    expected_gamma = round(-2.0 * blowup_soliton.a[0], 12)
    ok = ok and dims == {0.0: 4, expected_gamma: 2} and expected_gamma > 0
    ok = ok and min(blowup_dec.gamma_values) >= -1e-9
    ok = ok and all(
        abs(float(np.array(r.alpha) @ blowup_ctx.a)) <= 1e-9 for r in blowup_rootset.semisimple
    )
    report(10, "blocks {8 at 0} and {4 at 0, 2 at -2a1}; spectrum non-negative", ok)


def test_criterion_11_anti_holomorphic_eigenvalues(blowup_ctx, blowup_grid):
    ok = True
    s = blowup_ctx.potential.stack(blowup_grid)
    for root in enumerate_roots(blowup_ctx.potential.polytope).roots:
        result = check_root(blowup_ctx, root, s)
        expected = 4.0 * abs(float(np.array(root.alpha) @ blowup_ctx.a))
        ok = ok and result.gamma_fit <= 1e-6 and abs(abs(result.gamma_hat) - expected) <= 1e-6
    report(11, "orientation-reversed eigenvalues match 4|<alpha, a>| per root", ok)


def test_criterion_12_boundary_extension(cp2, cp2_ctx, cp2_grid):
    ok = True
    ring = np.array(cp2.vertex_points)
    edge_midpoints = [(ring[i] + ring[(i + 1) % len(ring)]) / 2.0 for i in range(len(ring))]
    sample = cp2_grid[::5]
    for root in enumerate_roots(cp2).roots:
        profile = build_root_function(cp2, root)
        form = boundary_product_form(cp2, root, sample)
        ok = ok and np.max(np.abs(np.subtract(form, profile.jet(cp2_ctx.potential.stack(sample))[0]))) <= 1e-10
        ok = ok and bool(np.all(np.isfinite(boundary_product_form(cp2, root, list(ring) + edge_midpoints))))
        # the exponents are positive on the distinguished facet and where the pairing is nonzero
        for idx in (i for i, v in enumerate(root.pairings) if i == root.distinguished_facet or v != 0):
            # midpoint of the facet's edge lies on it; the form vanishes there
            normal = np.array(cp2.facets[idx].normal, dtype=float)
            on_facet = [m for m in edge_midpoints if abs(normal @ m + float(cp2.facets[idx].offset)) <= 1e-12]
            ok = ok and bool(np.all(np.array(boundary_product_form(cp2, root, on_facet)) == 0.0))
    report(12, "boundary form finite on the closed polytope, vanishing exactly on predicted facets", ok)
