"""Report assembly for the command-line pipeline.

Reports are plain dictionaries with deterministic ordering; floats are
rounded to 15 significant digits at serialization time. Golden files pin
the structure exactly (keys and their order, list order, ints, strings,
bools and null) and the floats to a tolerance: quantities that vanish by
symmetry come out as round-off whose sign and last digits differ between
Python versions (the built-in ``sum`` is compensated from 3.12 on).

Each polygon report builder starts with :func:`_prepare`, the one place
a command's polygon facts are computed, each once: the Delzant verdict,
the privileged center, the normalized polygon and the ``polytope``
section.  The builder's own checks follow.

``verify`` is driven by one ordered list of ``(name, value, threshold)``
checks from :func:`verify_checks`: the affine block, the mean scalar
curvature, the soliton equation, four checks per root, the mode
identities and product rule, the finite-difference oracle, the gamma
positivity and semisimple pairings, and the boundary product form.  Grid
checks reduce their per-point residuals to ``max |r|``, and a NaN anywhere
makes that maximum NaN, so its check fails.  The finite-difference
oracle and the boundary product form are gated on the potential's type:
they run for the canonical potential only.  A report's ``config`` echoes
the command's flags.  The Newton stop (``futaki.NEWTON_TOL``) and the
order of the curvature rule (:data:`SCAL_ORDER`) are constants, not
flags: no stop moves ``a`` past round-off, and a higher order only adds
round-off to the mean curvature.

The submodules past the exact lattice work are bound as lazily loaded
modules and called qualified, so ``roots`` executes none of them,
``soliton`` and ``decompose`` only ``futaki``, and ``calabi`` only
``calabi``; ``verify`` alone executes ``quadrature``, for the mean
scalar curvature.  Every report, ``verify`` included, computes
on plain Python floats; no command imports numpy.
"""

from __future__ import annotations

import json
from typing import Any

from . import __version__, calabi, eigenbasis, futaki, operators, potentials, quadrature
from .errors import MalformedInputError
from .polytope import (
    DIM,
    DelzantPolytope,
    Facet,
    delzant_check,
    linspace,
    privileged_center,
    require_blowup_trapezoid,
)
from .roots import RootSet, SolitonDecomposition, assemble_decomposition, automorphism_dimensions, enumerate_roots

#: the ``--potential`` kinds of ``verify`` and ``decompose``
POTENTIAL_KINDS = ("guillemin", "calabi")


def format_float(x: float) -> float:
    """Round-trip a float through 15 significant digits."""
    return float(f"{float(x):.15g}")


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def to_json(report: dict) -> str:
    return json.dumps(_round_floats(report), indent=2)


def _prepare(p: DelzantPolytope) -> tuple[DelzantPolytope, dict]:
    """The normalized polygon and the report's ``polytope`` section, each fact computed once.

    Raises :class:`MalformedInputError` on a polygon that is not Delzant,
    then :class:`NotFanoError` (from :func:`privileged_center`) on one
    without a privileged center.  The normalized polygon is the one
    :func:`normalize_algebraic` builds, every offset one (an algebraic
    input as it is), without a second center solve.
    """
    verdict = delzant_check(p)
    if not verdict.passed:
        vertex, det = verdict.failures()[0]
        raise MalformedInputError(f"polytope is not Delzant: vertex {vertex} has determinant {det}")
    center = privileged_center(p)
    normalized = p if p.is_algebraic else DelzantPolytope(Facet(f.normal, 1) for f in p.facets)
    return normalized, {
        "input": p.to_dict(),
        "normalized": normalized.to_dict(),
        "privileged_center": {
            "point": list(center.point),
            "common_value": center.common_value,
            "residual": center.residual,
        },
        "delzant": {
            "passed": verdict.passed,
            "vertex_determinants": [
                {"vertex": list(v), "det": d} for v, d in verdict.vertex_determinants
            ],
        },
        "vertices": [[float(c) for c in pt] for pt, _ in normalized.vertex_data],
    }


def _roots_section(rootset: RootSet) -> dict:
    dims = automorphism_dimensions(rootset)
    return {
        "roots": [
            {
                "alpha": list(r.alpha),
                "distinguished_facet": r.distinguished_facet,
                "pairings": list(r.pairings),
            }
            for r in rootset.roots
        ],
        "semisimple": [list(r.alpha) for r in rootset.semisimple],
        "unipotent": [list(r.alpha) for r in rootset.unipotent],
        "dimensions": {
            "dim_eta": dims.dim_eta,
            "dim_reductive": dims.dim_reductive,
            "dim_unipotent": dims.dim_unipotent,
        },
    }


def _soliton_section(soliton: futaki.SolitonData) -> dict:
    return {
        "a": list(soliton.a),
        "einstein_constant": soliton.lam,
        "futaki_residual": soliton.futaki_residual,
        "residuals_affine_basis": list(soliton.residuals),
        "newton_iterations": len(soliton.iterations),
        "iterations": list(soliton.iterations),
    }


def roots_report(p: DelzantPolytope) -> dict:
    normalized, polytope = _prepare(p)
    rootset = enumerate_roots(normalized)
    return {
        "command": "roots",
        "polytope": polytope,
        **_roots_section(rootset),
    }


def soliton_report(p: DelzantPolytope) -> dict:
    normalized, polytope = _prepare(p)
    soliton = futaki.solve_soliton_vector(normalized)
    return {
        "command": "soliton",
        "polytope": polytope,
        "soliton": _soliton_section(soliton),
    }


def _check_potential(normalized: DelzantPolytope, potential_kind: str) -> None:
    """Reject a potential kind that is unknown or not available on this polygon."""
    if potential_kind not in POTENTIAL_KINDS:
        raise MalformedInputError(f"unknown potential kind {potential_kind!r}")
    if potential_kind == "calabi":
        require_blowup_trapezoid(normalized)


#: exactness order of the rule :func:`_scal_mean` integrates on, d (SCAL_ORDER + 3)^2 nodes for d
#: facets, at most 6 * 13^2 = 1014; the mean is within 1e-9 of 2 n lambda on the five surfaces and
#: the Calabi trapezoid, and a higher order only adds round-off
SCAL_ORDER = 10


def _scal_mean(ctx: operators.OperatorContext) -> float:
    """Mean of Abreu's scalar curvature over the polygon on its order-``SCAL_ORDER`` quadrature rule.

    The curvature is the stack's ``scal`` column, so the one stack over
    every node is built without the gradient.  The products ``w scal``
    are summed once in node order.
    """
    points, weights, area = quadrature.polygon_rule(ctx.potential.polytope, SCAL_ORDER)
    return sum([w * v for w, v in zip(weights, ctx.potential.stack(points, gradient=False).scal)]) / area


def _peak(*residuals) -> float:
    """max |r| over per-point residual columns; 0.0 for none, and a NaN anywhere propagates."""
    return operators.max_abs([operators.max_abs(r) for r in residuals])


def verify_checks(ctx: operators.OperatorContext, rootset: RootSet, soliton: futaki.SolitonData,
                  decomposition: SolitonDecomposition, stack: potentials.Stack
                  ) -> tuple[list[tuple[str, float, float]], list[eigenbasis.EigenFit], float]:
    """The ordered ``(name, value, threshold)`` checks of ``verify`` on the grid ``stack``.

    ``decomposition`` is that of ``soliton`` over ``rootset``, whose
    gamma values the positivity check reads.  Also returns the
    :func:`~toric_soliton.eigenbasis.check_root` fits, one per root of
    ``rootset.roots`` in its order, and the mean scalar curvature.  Every
    check reads the potential through its stack.
    Two run only for the canonical potential (a ``GuilleminPotential``):
    the finite-difference oracle, and the boundary product form, the
    closed form of that potential's root profiles.
    """
    affine = eigenbasis.affine_block(ctx, stack)
    scal_mean = _scal_mean(ctx)
    checks = [
        ("affine_eigenfunctions_max_rel_residual", operators.max_abs(f.max_rel_residual for f in affine),
         1e-6),
        ("abreu_mean_minus_2n_lambda", scal_mean - 2.0 * DIM * soliton.lam, 1e-4),
        ("soliton_pde_max_residual", _peak(operators.soliton_residuals(ctx, stack, scal_mean)), 1e-6),
    ]

    results = [eigenbasis.check_root(ctx, root, stack) for root in rootset.roots]
    for root, result in zip(rootset.roots, results):
        tag = "_".join(str(c) for c in root.alpha)
        checks += [
            (f"eigen_residual_root_{tag}", result.max_rel_residual, 1e-6),
            (f"eigen_value_root_{tag}", result.fitted_eigenvalue - 2.0, 1e-6),
            (f"anti_holomorphic_fit_root_{tag}", result.gamma_fit, 1e-6),
            (f"anti_holomorphic_root_{tag}",
             abs(result.gamma_hat) - 4.0 * abs(operators.dot(root.alpha, ctx.a)), 1e-6),
        ]

    # mode-diagonal identities and the product rule on a sample of grid points
    sample = stack.select(slice(None, None, max(1, stack.size // 16)))
    identity, product = [], []
    for root in rootset.roots[:3]:
        a1, a2 = root.alpha
        pure_mode = operators.Profile((0, 0), 1.0, (0, 0), root.alpha)
        radial = operators.Profile((0, 0), 1.0, root.alpha, (0, 0))
        null = operators.Profile((0, 0), 1.0, root.alpha, root.alpha)
        shift = 2.0 * operators.dot(ctx.a, root.alpha)
        t_expected = [a1 * a1 * g11 + 2.0 * a1 * a2 * g12 + a2 * a2 * g22 - shift for g11, g12, g22 in zip(*sample.G)]
        lhs_t = operators.complex_weighted_laplacian(ctx, pure_mode, sample)
        lhs_x = operators.complex_weighted_laplacian(ctx, radial, sample)
        lhs_null = operators.complex_weighted_laplacian(ctx, null, sample)
        identity += [[v - t for v, t in zip(lhs_t, t_expected)],
                     [v + t * u for v, t, u in zip(lhs_x, t_expected, radial.jet(sample)[0])],
                     lhs_null]
        product.append(operators.product_rule_defects(ctx, operators.COORDINATES[0], radial, sample))
    checks += [("mode_identity_max_defect", _peak(*identity), 1e-8),
               ("product_rule_max_defect", _peak(*product), 1e-8)]

    # the oracle runs on any potential, but the report contract gives its two checks to
    # Guillemin runs only (perfbench/check.py expected_check_names and the Calabi golden);
    # without roots the coordinate profile x_1 stands in for a root profile
    canonical = isinstance(ctx.potential, potentials.GuilleminPotential)
    if canonical:
        middle = stack.size // 2
        x0, at_x0 = (stack.points[0][middle], stack.points[1][middle]), stack.select([middle])
        profile = results[0].profile if results else operators.COORDINATES[0]
        analytic = float(operators.complex_weighted_laplacian(ctx, profile, at_x0)[0])
        oracle, abreu_fd = operators.finite_difference_oracle(ctx, profile, x0)
        abreu_an = at_x0.scal[0]
        checks += [("fd_oracle_weighted_rel", (oracle - analytic) / max(1.0, abs(analytic)), 1e-4),
                   ("fd_oracle_abreu_rel", (abreu_fd - abreu_an) / max(1.0, abs(abreu_an)), 1e-3)]

    semisimple = (abs(operators.dot(r.alpha, ctx.a)) for r in rootset.semisimple)
    checks += [("gamma_positivity_min", min(0.0, min(decomposition.gamma_values)), 1e-9),
               ("semisimple_pairings_max", max(semisimple, default=0.0), 1e-9)]

    if canonical:
        polygon, points = ctx.potential.polytope, list(zip(*sample.points))
        defects = (
            [v - u for v, u in zip(eigenbasis.boundary_product_form(polygon, root, points), r.profile.jet(sample)[0])]
            for root, r in zip(rootset.roots, results)
        )
        checks.append(("boundary_form_interior_match", _peak(*defects), 1e-10))
    return checks, results, scal_mean


def verify_report(p: DelzantPolytope, potential_kind: str = "guillemin", grid_n: int = 21,
                  margin: float = 0.05) -> dict:
    """Run :func:`verify_checks` on the interior grid and assemble the report.

    The report carries one record per check, each with a value, threshold
    and pass flag; the overall outcome is the conjunction.
    """
    normalized, polytope = _prepare(p)
    _check_potential(normalized, potential_kind)
    grid = normalized.interior_grid(grid_n, margin)
    if len(grid) == 0:
        raise MalformedInputError(f"grid {grid_n} with margin {margin} has no interior point")
    # the affine eigenfunction fits need points off one line (on a line through the origin
    # the largest |x_i| they divide by is 0); collinear points have a singular scatter matrix
    mx, my = (sum(axis) / len(grid) for axis in zip(*grid))
    sxx = sum([(x - mx) ** 2 for x, _ in grid])
    syy = sum([(y - my) ** 2 for _, y in grid])
    sxy = sum([(x - mx) * (y - my) for x, y in grid])
    if sxx * syy - sxy * sxy <= 1e-12 * (sxx + syy) ** 2:
        raise MalformedInputError(
            f"grid {grid_n} with margin {margin} keeps {len(grid)} point(s), all on one line"
        )
    rootset = enumerate_roots(normalized)
    soliton = futaki.solve_soliton_vector(normalized)
    family = potentials.GuilleminPotential if potential_kind == "guillemin" else potentials.CalabiPotential
    potential = family(normalized)
    ctx = operators.OperatorContext(potential=potential, a=soliton.a)
    decomposition = assemble_decomposition(soliton, rootset)
    listed, root_checks, scal_mean = verify_checks(ctx, rootset, soliton, decomposition, potential.stack(grid))
    checks = [
        {"name": name, "value": float(value), "threshold": threshold, "passed": bool(abs(value) <= threshold)}
        for name, value, threshold in listed
    ]
    gamma = {root.alpha: block["gamma"] for block in decomposition.blocks for root in block["roots"]}
    return {
        "command": "verify",
        "config": {
            "potential": potential_kind,
            "grid": grid_n,
            "margin": margin,
            "version": __version__,
        },
        "polytope": polytope,
        **_roots_section(rootset),
        "soliton": _soliton_section(soliton),
        "scal_mean": scal_mean,
        "grid_points": int(len(grid)),
        "root_records": [
            {
                "alpha": list(root.alpha),
                "rho_alpha": root.distinguished_facet,
                "lambda_hat": r.fitted_eigenvalue,
                "max_rel_residual": r.max_rel_residual,
                "gamma_hat": r.gamma_hat,
                "gamma": gamma[root.alpha],
            }
            for root, r in zip(rootset.roots, root_checks)
        ],
        "decomposition": _decomposition_section(decomposition),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "first_failed": next((c["name"] for c in checks if not c["passed"]), None),
    }


def _decomposition_section(decomposition) -> dict:
    return {
        "gamma_values": list(decomposition.gamma_values),
        "blocks": [
            {
                "gamma": b["gamma"],
                "complex_dimension": b["complex_dimension"],
                "includes_affine": b["includes_affine"],
                "roots": [list(r.alpha) for r in b["roots"]],
            }
            for b in decomposition.blocks
        ],
        "total_complex_dimension": decomposition.total_complex_dimension,
    }


def decompose_report(p: DelzantPolytope, potential_kind: str = "guillemin", grid_n: int = 21) -> dict:
    """Group the roots into blocks of gamma = 2 <alpha, a>; no potential is built.

    ``potential_kind`` and ``grid_n`` are echoed into ``config``; a
    ``calabi`` request on any polygon but the blow-up trapezoid is still
    rejected.
    """
    normalized, polytope = _prepare(p)
    _check_potential(normalized, potential_kind)
    rootset = enumerate_roots(normalized)
    soliton = futaki.solve_soliton_vector(normalized)
    decomposition = assemble_decomposition(soliton, rootset)
    semisimple = {r.alpha for r in rootset.semisimple}
    blocks = _decomposition_section(decomposition)
    for block, raw in zip(blocks["blocks"], decomposition.blocks):
        block["semisimple_roots"] = [list(r.alpha) for r in raw["roots"] if r.alpha in semisimple]
        block["unipotent_roots"] = [list(r.alpha) for r in raw["roots"] if r.alpha not in semisimple]
    return {
        "command": "decompose",
        "config": {"potential": potential_kind, "grid": grid_n},
        "polytope": polytope,
        **_roots_section(rootset),
        "soliton": _soliton_section(soliton),
        "decomposition": blocks,
    }


def calabi_report(grid_points: int = 50) -> dict:
    """Solve the blow-up closed forms and report residual diagnostics.

    The ODE residual is sampled on floats, at the points of
    ``polytope.linspace(ALPHA1, ALPHA2, grid_points)``.
    """
    soliton = calabi.CalabiSoliton.solve()
    xs = linspace(calabi.ALPHA1, calabi.ALPHA2, grid_points)
    ode = max(abs(calabi.ode_residual(soliton, x)) for x in xs)
    return {
        "command": "calabi",
        "parameters": {
            "alpha1": calabi.ALPHA1,
            "alpha2": calabi.ALPHA2,
            "beta1": calabi.BETA1,
            "beta2": calabi.BETA2,
            "c_alpha1": calabi.C_ALPHA1,
            "c_alpha2": calabi.C_ALPHA2,
            "c_beta1": calabi.C_BETA1,
            "c_beta2": calabi.C_BETA2,
        },
        "a1": soliton.a1,
        "m": soliton.m,
        "scal_mean": soliton.scal_mean,
        "scal_mean_note": (
            "scal_mean is fixed to +4 by the Einstein normalization (lambda = 1, n = 2); "
            "the value -4 sometimes quoted for this family is inconsistent with that "
            "normalization and is not used"
        ),
        "ode_max_residual": ode,
        "boundary_residuals": calabi.boundary_residuals(soliton),
    }


# -- text rendering -----------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{format_float(x):.15g}"
    return str(x)


def _vec(v) -> str:
    return "(" + ", ".join(_fmt(c) for c in v) + ")"


def _text_polytope(lines: list[str], section: dict) -> None:
    facets = section["input"]["facets"]
    lines.append(f"polytope: dim {section['input']['dim']}, {len(facets)} facets")
    for f in facets:
        lines.append(f"  normal {_vec(f['normal'])}  offset {f['offset']}")
    center = section["privileged_center"]
    lines.append(
        f"privileged center: {_vec(center['point'])}  common value {_fmt(center['common_value'])}"
    )
    lines.append(f"delzant check: {'pass' if section['delzant']['passed'] else 'FAIL'}")
    lines.append("vertices (normalized): " + "  ".join(_vec(v) for v in section["vertices"]))


def _text_roots(lines: list[str], report: dict) -> None:
    lines.append(f"demazure roots ({len(report['roots'])}):")
    for r in report["roots"]:
        lines.append(f"  alpha {_vec(r['alpha'])}  facet {r['distinguished_facet']}  pairings {_vec(r['pairings'])}")
    lines.append("semisimple: " + (" ".join(_vec(a) for a in report["semisimple"]) or "(none)"))
    lines.append("unipotent:  " + (" ".join(_vec(a) for a in report["unipotent"]) or "(none)"))
    dims = report["dimensions"]
    lines.append(
        f"complex dimensions: eta {dims['dim_eta']}, reductive {dims['dim_reductive']}, "
        f"unipotent {dims['dim_unipotent']}"
    )


def _text_soliton(lines: list[str], section: dict) -> None:
    lines.append(f"soliton vector a = {_vec(section['a'])}  (einstein constant {_fmt(section['einstein_constant'])})")
    lines.append(
        f"futaki residual {_fmt(section['futaki_residual'])} over affine basis "
        + _vec(section["residuals_affine_basis"])
    )
    lines.append(f"newton iterations {section['newton_iterations']}")


def _text_decomposition(lines: list[str], section: dict) -> None:
    lines.append("solitonic decomposition (complex dimensions):")
    for block in section["blocks"]:
        members = " ".join(_vec(a) for a in block["roots"]) or "-"
        affine = " + affine block" if block["includes_affine"] else ""
        lines.append(
            f"  gamma {_fmt(block['gamma'])}: dim {block['complex_dimension']}{affine}; roots {members}"
        )
        if "semisimple_roots" in block:
            lines.append(
                "    semisimple: " + (" ".join(_vec(a) for a in block["semisimple_roots"]) or "-")
                + "; unipotent: " + (" ".join(_vec(a) for a in block["unipotent_roots"]) or "-")
            )
    lines.append(f"total complex dimension {section['total_complex_dimension']}")


def render_text(report: dict) -> str:
    """Human-readable rendering; the JSON form is the machine contract."""
    command = report["command"]
    lines = [f"# {command}"]
    if command == "calabi":
        pars = report["parameters"]
        lines.append("parameters: " + ", ".join(f"{k} {_fmt(v)}" for k, v in pars.items()))
        lines.append(f"a1 = {_fmt(report['a1'])}")
        lines.append(f"m = {_fmt(report['m'])}, scal_mean = {_fmt(report['scal_mean'])}")
        lines.append(f"note: {report['scal_mean_note']}")
        lines.append(f"ode max residual {_fmt(report['ode_max_residual'])}")
        lines.append("boundary residuals:")
        for key, val in report["boundary_residuals"].items():
            lines.append(f"  {key}: {_fmt(val)}")
        return "\n".join(lines) + "\n"

    _text_polytope(lines, report["polytope"])
    if "roots" in report:
        _text_roots(lines, report)
    if "soliton" in report:
        _text_soliton(lines, report["soliton"])
    if "scal_mean" in report:
        lines.append(f"mean scalar curvature {_fmt(report['scal_mean'])} on {report['grid_points']} grid points")
    for record in report.get("root_records", []):
        lines.append(
            f"root {_vec(record['alpha'])}: lambda_hat {_fmt(record['lambda_hat'])}, "
            f"max rel residual {_fmt(record['max_rel_residual'])}, gamma_hat {_fmt(record['gamma_hat'])}"
        )
    if "decomposition" in report:
        _text_decomposition(lines, report["decomposition"])
    for check in report.get("checks", []):
        flag = "PASS" if check["passed"] else "FAIL"
        lines.append(f"[{flag}] {check['name']}: {_fmt(check['value'])} (threshold {_fmt(check['threshold'])})")
    if "all_passed" in report:
        lines.append("result: " + ("all checks passed" if report["all_passed"] else f"FAILED at {report['first_failed']}"))
    return "\n".join(lines) + "\n"
