"""Output checker built on invariants of the lattice image, not on goldens.

Each request carries the canonical surface and the lattice map that made
its document, so the checker predicts the output from first principles:

* exit codes 0 / 2 / 4 as the request expects, and no traceback;
* roots equal ``A alpha`` over the canonical roots, found here by brute
  force from the definition; pairings and distinguished facets follow
  from the document's normals;
* root, semisimple and unipotent counts and the (eta, red, unip)
  dimensions of the reference table;
* the multiset of ``gamma = 2 <alpha, a>``, which lattice maps preserve,
  to ``GAMMA_TOL``; ``|a| <= A_ZERO_TOL`` on the symmetric surfaces;
* decomposition clusters as sets of roots, gammas to ``GAMMA_TOL``;
* on ``verify``, every expected check is present, each pass flag agrees
  with its value and threshold, and either all pass or the expected
  check fails first.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from generate import SURFACES, Request

GAMMA_TOL = 1e-6
A_ZERO_TOL = 1e-8
CENTER_RTOL = 1e-9
CALABI_A1 = -0.263810
CALABI_RESIDUAL_TOL = 1e-8

#: (roots, semisimple, unipotent), (eta, red, unip) and the soliton vector a
#: of each canonical polygon in ``generate.SURFACES``
TABLE = {
    "P2": ((6, 6, 0), (8, 8, 0), (0.0, 0.0)),
    "P1xP1": ((4, 4, 0), (6, 6, 0), (0.0, 0.0)),
    "Bl1P2": ((4, 2, 2), (6, 4, 2), (-0.263810, 0.0)),
    "Bl2P2": ((2, 0, 2), (4, 2, 2), (-0.217374, -0.217374)),
    "Bl3P2": ((0, 0, 0), (2, 2, 0), (0.0, 0.0)),
}

#: verify checks that hold on every surface, the negative controls included
GEOMETRIC_CHECKS = (
    "abreu_mean_minus_2n_lambda",
    "mode_identity_max_defect",
    "product_rule_max_defect",
    "gamma_positivity_min",
    "semisimple_pairings_max",
)


class CheckError(Exception):
    """An output that breaks an invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def brute_force_roots(normals) -> set[tuple[int, int]]:
    """Lattice covectors pairing to 1 with one normal and to <= 0 with the rest."""
    radius = 2 * max(abs(c) for nu in normals for c in nu) + 2
    found = set()
    for alpha in itertools.product(range(-radius, radius + 1), repeat=2):
        pairings = [alpha[0] * nu[0] + alpha[1] * nu[1] for nu in normals]
        if pairings.count(1) == 1 and all(v <= 0 for v in pairings if v != 1):
            found.add(alpha)
    return found


def canonical_gammas(surface: str) -> dict[tuple[int, int], float]:
    a = TABLE[surface][2]
    return {alpha: 2.0 * (alpha[0] * a[0] + alpha[1] * a[1]) for alpha in brute_force_roots(SURFACES[surface])}


class Expected:
    """Invariants of one lattice image of a canonical surface."""

    def __init__(self, req: Request):
        image = req.image
        normals = SURFACES[req.surface]
        self.facets = image.facets(normals, [1] * len(normals))
        self.normals = [nu for nu, _ in self.facets]
        self.gamma = {image.covector(alpha): g for alpha, g in canonical_gammas(req.surface).items()}
        self.roots = set(self.gamma)
        self.semisimple = {r for r in self.roots if (-r[0], -r[1]) in self.roots}
        self.unipotent = self.roots - self.semisimple
        self.counts, self.dims, a = TABLE[req.surface]
        self.symmetric = a == (0.0, 0.0)
        self.center = tuple(float(image.scale * s) for s in image.shift)
        self.common_value = float(image.scale)

    def blocks(self) -> list[tuple[float, set, bool, int]]:
        """(gamma, roots, includes_affine, complex dimension) per cluster."""
        clusters: dict[float, set] = {0.0: set()}
        for root, g in self.gamma.items():
            clusters.setdefault(g, set()).add(root)
        return [(g, roots, g == 0.0, len(roots) + (2 if g == 0.0 else 0)) for g, roots in sorted(clusters.items())]


def _pairs(values) -> set[tuple[int, int]]:
    out = [tuple(v) for v in values]
    _require(len(out) == len(set(out)), f"duplicate roots {out}")
    return set(out)


def _gamma_multiset(label: str, got: list[float], want: list[float]) -> None:
    got, want = sorted(got), sorted(want)
    _require(len(got) == len(want), f"{label}: {len(got)} gammas, expected {len(want)}")
    for g, w in zip(got, want):
        _require(abs(g - w) <= GAMMA_TOL, f"{label}: gamma {g!r} differs from {w!r}")


def _check_polytope(section: dict, exp: Expected) -> None:
    facets = section["input"]["facets"]
    _require([tuple(f["normal"]) for f in facets] == exp.normals, "input normals differ from the document")
    _require([Fraction(str(f["offset"])) for f in facets] == [off for _, off in exp.facets],
             "input offsets differ from the document")
    normalized = section["normalized"]["facets"]
    _require([tuple(f["normal"]) for f in normalized] == exp.normals, "normalized normals changed")
    _require(all(f["offset"] == 1 for f in normalized), "normalized offsets are not all one")
    center = section["privileged_center"]
    scale = max(1.0, max(abs(c) for c in exp.center))
    _require(all(abs(c - e) <= CENTER_RTOL * scale for c, e in zip(center["point"], exp.center)),
             f"privileged center {center['point']} != {exp.center}")
    _require(abs(center["common_value"] - exp.common_value) <= CENTER_RTOL * exp.common_value,
             f"common value {center['common_value']} != {exp.common_value}")
    _require(section["delzant"]["passed"] is True, "Delzant check did not pass")
    _require(len(section["vertices"]) == len(exp.normals), "vertex count differs from facet count")


def _check_roots(report: dict, exp: Expected) -> None:
    roots = report["roots"]
    _require(_pairs(r["alpha"] for r in roots) == exp.roots,
             f"roots {sorted(tuple(r['alpha']) for r in roots)} != {sorted(exp.roots)}")
    for r in roots:
        pairings = [r["alpha"][0] * nu[0] + r["alpha"][1] * nu[1] for nu in exp.normals]
        _require(list(r["pairings"]) == pairings, f"root {r['alpha']} pairings {r['pairings']} != {pairings}")
        _require(r["distinguished_facet"] == pairings.index(1), f"root {r['alpha']} has the wrong facet")
    _require(_pairs(report["semisimple"]) == exp.semisimple, "semisimple roots differ")
    _require(_pairs(report["unipotent"]) == exp.unipotent, "unipotent roots differ")
    counts = (len(roots), len(report["semisimple"]), len(report["unipotent"]))
    _require(counts == exp.counts, f"root counts {counts} != {exp.counts}")
    d = report["dimensions"]
    dims = (d["dim_eta"], d["dim_reductive"], d["dim_unipotent"])
    _require(dims == exp.dims, f"dimensions {dims} != {exp.dims}")


def _check_soliton(section: dict, exp: Expected) -> None:
    a = section["a"]
    _require(len(a) == 2 and all(math.isfinite(c) for c in a), f"bad soliton vector {a}")
    if exp.symmetric:
        _require(math.hypot(*a) <= A_ZERO_TOL, f"|a| = {math.hypot(*a):.3e} on a symmetric surface")
    _gamma_multiset("soliton", [2.0 * (r[0] * a[0] + r[1] * a[1]) for r in exp.roots], list(exp.gamma.values()))
    _require(section["einstein_constant"] == 1.0, "Einstein constant is not one")
    _require(section["futaki_residual"] <= 1e-8, f"futaki residual {section['futaki_residual']:.3e}")


def _check_decomposition(section: dict, exp: Expected) -> None:
    want = exp.blocks()
    blocks = section["blocks"]
    _require(len(blocks) == len(want), f"{len(blocks)} blocks, expected {len(want)}")
    for block in blocks:
        roots = _pairs(block["roots"])
        match = [w for w in want if w[1] == roots and abs(w[0] - block["gamma"]) <= GAMMA_TOL]
        _require(len(match) == 1, f"block gamma {block['gamma']} roots {sorted(roots)} matches no cluster")
        _, _, affine, dim = match[0]
        _require(block["includes_affine"] == affine, f"block {block['gamma']} affine flag wrong")
        _require(block["complex_dimension"] == dim, f"block {block['gamma']} dimension wrong")
        if "semisimple_roots" in block:
            _require(_pairs(block["semisimple_roots"]) == roots & exp.semisimple, "block semisimple split wrong")
            _require(_pairs(block["unipotent_roots"]) == roots & exp.unipotent, "block unipotent split wrong")
    _require(section["total_complex_dimension"] == exp.dims[0], "total complex dimension wrong")


def expected_check_names(req: Request, exp: Expected) -> set[str]:
    names = {"affine_eigenfunctions_max_rel_residual", "abreu_mean_minus_2n_lambda", "soliton_pde_max_residual",
             "mode_identity_max_defect", "product_rule_max_defect", "gamma_positivity_min",
             "semisimple_pairings_max"}
    for alpha in exp.roots:
        tag = f"{alpha[0]}_{alpha[1]}"
        names |= {f"eigen_residual_root_{tag}", f"eigen_value_root_{tag}",
                  f"anti_holomorphic_fit_root_{tag}", f"anti_holomorphic_root_{tag}"}
    if req.potential == "guillemin":
        names |= {"fd_oracle_weighted_rel", "fd_oracle_abreu_rel", "boundary_form_interior_match"}
    return names


def _check_verify(report: dict, req: Request, exp: Expected) -> None:
    config = report["config"]
    _require(config["potential"] == req.potential and config["grid"] == req.grid, f"config {config} wrong")
    _require(report["grid_points"] > 0, "empty grid")
    records = report["root_records"]
    _require(_pairs(r["alpha"] for r in records) == exp.roots, "root records differ from the roots")
    _gamma_multiset("root_records", [r["gamma"] for r in records], list(exp.gamma.values()))
    checks = report["checks"]
    names = [c["name"] for c in checks]
    _require(len(names) == len(set(names)), "duplicate check names")
    want = expected_check_names(req, exp)
    _require(set(names) == want, f"checks missing {sorted(want - set(names))}, unexpected {sorted(set(names) - want)}")
    for c in checks:
        _require(math.isfinite(c["value"]), f"check {c['name']} value is not finite")
        _require(c["passed"] == (abs(c["value"]) <= c["threshold"]), f"check {c['name']} pass flag disagrees")
    failed = [c["name"] for c in checks if not c["passed"]]
    _require(report["all_passed"] == (not failed), "all_passed disagrees with the checks")
    _require(report["first_failed"] == (failed[0] if failed else None), "first_failed disagrees with the checks")
    _require(report["first_failed"] == req.expect_first_failed,
             f"first_failed {report['first_failed']!r}, expected {req.expect_first_failed!r}")
    for name in GEOMETRIC_CHECKS:
        _require(name not in failed, f"geometric check {name} failed")


def _check_calabi(report: dict) -> None:
    _require(abs(report["a1"] - CALABI_A1) <= GAMMA_TOL, f"a1 {report['a1']} != {CALABI_A1}")
    _require(report["scal_mean"] == 4.0, f"scal_mean {report['scal_mean']}")
    _require(report["ode_max_residual"] <= CALABI_RESIDUAL_TOL, f"ODE residual {report['ode_max_residual']:.3e}")
    for key, value in report["boundary_residuals"].items():
        _require(abs(value) <= CALABI_RESIDUAL_TOL, f"boundary residual {key} = {value:.3e}")


def check(req: Request, exit_code: int, stdout: bytes, stderr: bytes) -> None:
    """Raise :class:`CheckError` unless the output satisfies every invariant of ``req``."""
    _require(b"Traceback" not in stderr, "traceback on stderr")
    _require(exit_code == req.expect_exit, f"exit code {exit_code}, expected {req.expect_exit}")
    if req.kind == "reject":
        _require(stdout == b"", "rejection printed a report")
        _require(stderr.startswith(b"rejected: "), f"rejection stderr {stderr[:80]!r}")
        return
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    _require(report.get("command") == req.kind, f"command {report.get('command')!r} != {req.kind!r}")
    try:
        if req.kind == "calabi":
            _check_calabi(report)
            return
        exp = Expected(req)
        _check_polytope(report["polytope"], exp)
        if req.kind != "soliton":
            _check_roots(report, exp)
        if req.kind != "roots":
            _check_soliton(report["soliton"], exp)
        if req.kind in ("decompose", "verify"):
            _check_decomposition(report["decomposition"], exp)
        if req.kind == "verify":
            _check_verify(report, req, exp)
    except (KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"report layout: {exc!r}") from None
