"""Tests of the benchmark's generator, checker and traced launcher.

Run from the checkout root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from check import TABLE, CheckError, Expected, brute_force_roots, check  # noqa: E402
from generate import SURFACES, WORKLOADS, build_plan  # noqa: E402
from toric_soliton import cli  # noqa: E402
from toric_soliton.calabi import blowup_trapezoid  # noqa: E402
from toric_soliton.polytope import delzant_check, normalize_algebraic, parse_polytope  # noqa: E402


def _requests(workload: str, seed: int = 3):
    plan = build_plan(workload, seed)
    return plan, [req for cycle in plan.cycles for req in cycle]


def _find(reqs, **fields):
    return next(r for r in reqs if all(getattr(r, k) == v for k, v in fields.items()))


@pytest.fixture
def run_cli(tmp_path, monkeypatch, capsys):
    def run(plan, req):
        plan.write(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = cli.main(list(req.argv))
        out, err = capsys.readouterr()
        return code, out.encode(), err.encode()
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_byte_identical_for_the_same_seed(workload):
    a, b, other = build_plan(workload, 11), build_plan(workload, 11), build_plan(workload, 12)
    assert a.documents == b.documents
    assert a.cycles == b.cycles
    assert a.documents != other.documents


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_positive_documents_normalize_to_accepted_polytopes(workload, seed):
    plan, reqs = _requests(workload, seed)
    for req in reqs:
        if req.kind in ("reject", "calabi"):
            continue
        doc = plan.documents[req.argv[1]]
        p = parse_polytope(doc.decode())
        assert delzant_check(p).passed
        normalized = normalize_algebraic(p)
        assert normalized.is_algebraic
        assert [f.normal for f in normalized.facets] == Expected(req).normals
        if req.potential == "calabi":
            assert frozenset(normalized.facets) == frozenset(blowup_trapezoid().facets)


def test_reference_table_matches_the_root_definition():
    for surface, normals in SURFACES.items():
        roots = brute_force_roots(normals)
        semisimple = {r for r in roots if (-r[0], -r[1]) in roots}
        assert (len(roots), len(semisimple), len(roots - semisimple)) == TABLE[surface][0]


def test_checker_accepts_a_correct_decompose_and_rejects_a_wrong_gamma(run_cli):
    plan, reqs = _requests("structure")
    req = _find(reqs, kind="decompose", surface="Bl1P2")
    code, out, err = run_cli(plan, req)
    check(req, code, out, err)

    report = json.loads(out)
    for block in report["decomposition"]["blocks"]:
        if block["gamma"] > 0:
            block["gamma"] += 1e-4
    with pytest.raises(CheckError, match="matches no cluster"):
        check(req, code, json.dumps(report).encode(), err)


def test_checker_rejects_a_wrong_gamma_in_the_soliton_vector(run_cli):
    plan, reqs = _requests("structure")
    req = _find(reqs, kind="soliton", surface="Bl2P2")
    code, out, err = run_cli(plan, req)
    check(req, code, out, err)
    report = json.loads(out)
    report["soliton"]["a"] = [1.01 * c for c in report["soliton"]["a"]]
    with pytest.raises(CheckError, match="gamma"):
        check(req, code, json.dumps(report).encode(), err)


def test_checker_rejects_a_wrong_exit_code(run_cli):
    plan, reqs = _requests("structure")
    req = _find(reqs, kind="roots", surface="P2")
    code, out, err = run_cli(plan, req)
    check(req, code, out, err)
    with pytest.raises(CheckError, match="exit code"):
        check(req, 4, out, err)

    reject = _find(reqs, kind="reject")
    code, out, err = run_cli(plan, reject)
    check(reject, code, out, err)
    with pytest.raises(CheckError, match="exit code"):
        check(reject, 0, out, err)


def test_checker_rejects_a_missing_verify_check(run_cli):
    plan, reqs = _requests("verify-phi")
    req = _find(reqs, surface="P2", grid=15)
    code, out, err = run_cli(plan, req)
    check(req, code, out, err)
    report = json.loads(out)
    for name in ("eigen_residual_root_", "fd_oracle_weighted_rel"):
        broken = copy.deepcopy(report)
        broken["checks"] = [c for c in broken["checks"] if not c["name"].startswith(name)]
        with pytest.raises(CheckError, match="checks missing"):
            check(req, code, json.dumps(broken).encode(), err)


def test_checker_pins_the_negative_control_verdict(run_cli):
    plan, reqs = _requests("verify-phi")
    req = _find(reqs, surface="Bl2P2", grid=15)
    code, out, err = run_cli(plan, req)
    assert code == 4
    check(req, code, out, err)
    report = json.loads(out)
    report["checks"] = report["checks"][:1]
    with pytest.raises(CheckError, match="checks missing"):
        check(req, code, json.dumps(report).encode(), err)
    with pytest.raises(CheckError, match="exit code"):
        check(req, 0, out, err)


def _traced_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))


def test_traced_launcher_counts_calls(tmp_path):
    plan, reqs = _requests("structure")
    req = _find(reqs, kind="roots", surface="Bl1P2")
    plan.write(tmp_path)
    summary = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(HERE / "traced.py"), str(summary), *req.argv],
                          cwd=tmp_path, capture_output=True, env=_traced_env(), timeout=120)
    check(req, proc.returncode, proc.stdout, proc.stderr)
    data = json.loads(summary.read_text())
    # linprog goes once geometry is exact; every other target must be found
    assert set(data["absent"]) <= {"polytope.linprog", "roots.linprog"}
    assert data["calls"]["roots.enumerate"] == 1
    assert data["counters"]["roots"] == 4
    assert data["self_s"]["roots.enumerate"] <= data["inclusive_s"]["roots.enumerate"]


def test_traced_launcher_reports_a_missing_target_as_absent():
    code = ("import toric_soliton.cli, toric_soliton.roots as r, traced\n"
            "del r.linprog\n"
            "t = traced.Tracer()\n"
            "traced.install(t)\n"
            "print(t.absent)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_traced_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "roots.linprog" in proc.stdout and "polytope.linprog" not in proc.stdout
