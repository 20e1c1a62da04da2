"""The benchmark's report contract, in process: every seed-1 request passes its checker.

``perfbench/generate.py`` builds the documents and request cycles of the
three workloads, and ``perfbench/check.py`` is the checker a benchmark run
applies to every output before it counts as correct.  Both are imported
read-only from ``perfbench/`` through ``sys.path``; both are stdlib-only.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from toric_soliton import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from check import CheckError, check  # noqa: E402
from generate import WORKLOADS, build_plan  # noqa: E402


def run(argv) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_one_request_passes_the_benchmark_checker(workload, tmp_path, monkeypatch):
    plan = build_plan(workload, 1)
    plan.write(tmp_path)
    monkeypatch.chdir(tmp_path)
    requests = [req for cycle in plan.cycles for req in cycle]
    assert requests
    failures = []
    for req in requests:
        try:
            check(req, *run(req.argv))
        except CheckError as exc:
            failures.append((" ".join(req.argv), str(exc)))
    assert not failures, failures[:5]
