"""Fresh-process CLI benchmark for toric-soliton.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload structure --seed 1 --seconds 30 --trace 0

Each request is one ``toric-soliton`` CLI call in a fresh Python process,
import included, which is what every user pays.  One client runs a closed
loop: it starts the next child only after the previous one has exited.
Each child gets one BLAS/OpenMP thread and sees only the documents the
seeded generator wrote into a temporary directory under ``.bench_build``.
An untimed warm-up import runs first, so ``.pyc`` compilation is not
timed.  Every output is checked (``check.py``) before it counts as correct.

``--trace 0`` reports the end-to-end metrics; fresh-process import probes
for ``setup_s`` are spread through the run and their time is excluded from
the measured wall time.  ``--trace 1`` runs every request twice, plain and
under the traced launcher (``traced.py``), and reports the per-layer
metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it starting with
``#`` carry provenance and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from check import CheckError, check
from generate import WORKLOADS, Request, build_plan

HERE = Path(__file__).resolve().parent

#: fresh-process import probes per untraced run, spread evenly through it
SETUP_PROBES = 5
#: a child still running after this long is killed and counts as failed
CHILD_TIMEOUT_S = 60.0
#: highest percentile (a multiple of 5) with at least ten requests beyond
#: it in one 30 s run of the commit that added the benchmark (38 or 57
#: requests, 18 and 18); fixed, so every commit is compared at the same
#: percentile.  The verify workloads hold too few requests for a tail above
#: the median.
TAIL_PERCENTILE = {"structure": 75, "verify-phi": 45, "verify-calabi": 45}
CHILD_THREADS = {
    var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

#: per-layer metric, unit, and the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("cli.import_s", "s", "setup_s on all workloads; latency_s.p50 on structure"),
    ("polytope.parse_s", "s", "latency_s.p50, cpu_s_per_report on structure"),
    ("polytope.lp_calls", "count", "latency_s.p50, cpu_s_per_report on structure"),
    ("polytope.grid_points", "count", "work-size base of the per-point ratios"),
    ("roots.enumerate_s", "s", "latency_s.p50 on structure"),
    ("roots.lp_calls", "count", "latency_s.p50 on structure"),
    ("quadrature.integrate_calls", "count", "cpu_s_per_report on structure (no visible change until import shrinks)"),
    ("quadrature.self_s", "s", "cpu_s_per_report on structure (no visible change until import shrinks)"),
    ("futaki.solve_s", "s", "cpu_s_per_report on structure (no visible change until import shrinks)"),
    ("futaki.weighted_volume_calls", "count", "cpu_s_per_report on structure (no visible change until import shrinks)"),
    ("futaki.newton_iterations", "count", "cpu_s_per_report on structure (no visible change until import shrinks)"),
    ("futaki.volume_evals_per_iteration", "ratio", "cpu_s_per_report on structure (no visible change until import shrinks)"),
    ("potentials.stack_calls", "count", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi; none on structure"),
    ("potentials.stack_calls_per_point", "ratio", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi; none on structure"),
    ("potentials.interior_checks", "count", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi; none on structure"),
    ("potentials.self_s", "s", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi; none on structure"),
    ("potentials.line_integrals", "count", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-calabi only"),
    ("potentials.line_integral_s", "s", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-calabi only"),
    ("calabi.h_matrix_calls", "count", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-calabi only"),
    ("calabi.self_s", "s", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-calabi only"),
    ("operators.applications", "count", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi"),
    ("operators.applications_per_point", "ratio", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi"),
    ("operators.self_s", "s", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi"),
    ("operators.fd_oracle_s", "s", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi"),
    ("eigenbasis.self_s", "s", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi"),
    ("eigenbasis.select_mode_sign_s", "s", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi"),
    ("eigenbasis.residual_evals", "count", "latency_s.p50, reports_per_s, cpu_s_per_report on verify-phi and verify-calabi"),
    ("eigenbasis.residual_evals_per_root", "ratio", "useful-to-attempted: 1.0 ideal; verify-phi and verify-calabi"),
    ("report.assemble_s", "s", "none (negligible everywhere)"),
    ("report.serialize_s", "s", "none (negligible everywhere)"),
    ("trace.overhead_s", "s", "tracing overhead: traced minus plain wall time per request"),
    ("trace.overhead_frac", "ratio", "tracing overhead as a share of the plain wall time"),
)


@dataclass
class Run:
    """One finished child process."""

    exit: int
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


class Bench:
    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
        self.env.update(CHILD_THREADS, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def spawn(self, argv: list[str]) -> Run:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(exit=proc.returncode, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                   maxrss_kb=usage.ru_maxrss, stdout=out_path.read_bytes(), stderr=err_path.read_bytes())

    def request(self, req: Request) -> Run:
        return self.spawn([sys.executable, "-m", "toric_soliton.cli", *req.argv])

    def traced(self, req: Request) -> tuple[Run, dict | None]:
        summary = self.work / "trace.json"
        summary.unlink(missing_ok=True)
        run = self.spawn([sys.executable, str(HERE / "traced.py"), str(summary), *req.argv])
        return run, json.loads(summary.read_text()) if summary.exists() else None

    def probe(self) -> Run:
        return self.spawn([sys.executable, "-c", "import toric_soliton.cli"])


def verdict(req: Request, run: Run) -> str | None:
    """None when the output is correct, else the reason it is not."""
    try:
        check(req, run.exit, run.stdout, run.stderr)
    except CheckError as exc:
        return str(exc)
    return None


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Linearly interpolated percentile and the number of samples above its position."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    value = xs[lo] if frac == 0.0 or xs[lo] == xs[hi] else xs[lo] + frac * (xs[hi] - xs[lo])
    return value, len(xs) - 1 - lo


def provenance(root: Path, args, plan) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = git.stdout.strip() if git.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "child_env": dict(CHILD_THREADS, PYTHONHASHSEED="0"),
        "client": "closed loop, 1 client, fresh process per request",
        "request_mix_per_cycle": plan.mix(),
    }


def measure(bench: Bench, cycles: list[list[Request]], seconds: float, traced: bool):
    """Closed loop over whole request cycles for about ``seconds`` of measured time.

    Another cycle starts only while it is expected to end within half a
    cycle of ``seconds``, so every untraced run measures the same mix.  The
    traced run stops at ``seconds`` mid-cycle: its numbers have no bound.
    Import probes are spread through the run and excluded from its clock.
    """
    runs: list[tuple[Request, Run]] = []
    pairs: list[tuple[Request, Run, Run, dict | None]] = []
    probes: list[Run] = []
    t_begin = time.perf_counter()
    paused = 0.0

    def elapsed() -> float:
        return time.perf_counter() - t_begin - paused

    cycle_times: list[float] = []
    for index in itertools.count():
        if cycle_times and elapsed() + statistics.fmean(cycle_times) / 2 > seconds:
            break
        started = elapsed()
        for req in cycles[index % len(cycles)]:
            if traced and elapsed() >= seconds:
                break
            if not traced and len(probes) < SETUP_PROBES and elapsed() >= len(probes) * seconds / SETUP_PROBES:
                t0 = time.perf_counter()
                probes.append(bench.probe())
                paused += time.perf_counter() - t0
            if not traced:
                runs.append((req, bench.request(req)))
                continue
            # alternate which side goes first so drift cancels out of the overhead
            if len(pairs) % 2 == 0:
                plain = bench.request(req)
                run, summary = bench.traced(req)
            else:
                run, summary = bench.traced(req)
                plain = bench.request(req)
            runs += [(req, plain), (req, run)]
            pairs.append((req, plain, run, summary))
        cycle_times.append(elapsed() - started)
        if traced and elapsed() >= seconds:
            break
    wall = elapsed()
    while not traced and len(probes) < SETUP_PROBES:
        probes.append(bench.probe())
    return runs, pairs, probes, wall


def end_to_end(workload: str, runs, probes: list[Run], wall: float) -> tuple[dict, list[str]]:
    correct = sum(1 for _, _, why in runs if why is None)
    latencies = [run.wall if why is None else math.inf for _, run, why in runs]
    p50, _ = percentile(latencies, 50)
    tail_pct = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(latencies, tail_pct)
    cpu = sum(run.cpu for _, run, _ in runs)
    setup = statistics.median(p.wall for p in probes)
    metrics = {
        "latency_s.p50": (p50, "s"),
        "latency_s.tail": (tail, "s"),
        "reports_per_s": (correct / wall, "1/s"),
        "cpu_s_per_report": (cpu / correct if correct else math.inf, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(run.maxrss_kb for _, run, _ in runs) / 1024.0, "MB"),
        "ops_ok_frac": (correct / len(runs), "ratio"),
    }
    by_label: dict[str, list[float]] = {}
    for req, run, _ in runs:
        by_label.setdefault(req.label, []).append(run.wall)
    notes = [
        f"latency_s.tail is p{tail_pct} over {len(runs)} requests, {beyond} beyond it",
        "wall s by request type: " + ", ".join(f"{label} {statistics.median(ws):.3f} (n={len(ws)})"
                                               for label, ws in sorted(by_label.items())),
        f"measured wall {wall:.3f} s, setup probes {[round(p.wall, 4) for p in probes]}",
    ]
    return metrics, notes


def per_layer(pairs) -> tuple[dict, list[str]]:
    summaries = [s for _, _, _, s in pairs if s is not None]
    n = max(1, len(summaries))

    def total(section: str, pred) -> float:
        return sum(v for s in summaries for k, v in s[section].items() if pred(k))

    def calls(name: str) -> float:
        return total("calls", lambda k: k == name)

    def incl(name: str) -> float:
        return total("inclusive_s", lambda k: k == name)

    def own(prefix: str, exclude: str = "\0") -> float:
        return total("self_s", lambda k: k.startswith(prefix) and not k.startswith(exclude))

    def counter(name: str) -> float:
        return sum(s["counters"].get(name, 0) for s in summaries)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    grid = counter("grid_points")
    stack = total("calls", lambda k: k.startswith("potentials.stack."))
    applications = counter("outer_applications")
    newton = counter("newton_iterations")
    residuals = calls("eigenbasis.eigen_residual")
    verified_roots = sum(s["counters"].get("roots", 0) for s in summaries
                         if s["calls"].get("eigenbasis.eigen_residual"))
    overhead = [traced.wall - plain.wall for _, plain, traced, _ in pairs]
    plain_median = statistics.median(plain.wall for _, plain, _, _ in pairs)
    values = {
        "cli.import_s": sum(s["import_s"] for s in summaries) / n,
        "polytope.parse_s": incl("polytope.parse") / n,
        "polytope.lp_calls": calls("polytope.linprog") / n,
        "polytope.grid_points": grid / n,
        "roots.enumerate_s": incl("roots.enumerate") / n,
        "roots.lp_calls": calls("roots.linprog") / n,
        "quadrature.integrate_calls": (calls("quadrature.integrate") + calls("quadrature.integrate_vector")) / n,
        "quadrature.self_s": own("quadrature.") / n,
        "futaki.solve_s": incl("futaki.solve") / n,
        "futaki.weighted_volume_calls": calls("futaki.weighted_volume") / n,
        "futaki.newton_iterations": newton / n,
        "futaki.volume_evals_per_iteration": ratio(calls("futaki.weighted_volume"), newton),
        "potentials.stack_calls": stack / n,
        "potentials.stack_calls_per_point": ratio(stack, grid),
        "potentials.interior_checks": calls("potentials.require_interior") / n,
        "potentials.self_s": own("potentials.") / n,
        "potentials.line_integrals": calls("potentials.line_integral") / n,
        "potentials.line_integral_s": incl("potentials.line_integral") / n,
        "calabi.h_matrix_calls": calls("calabi.h_matrix") / n,
        "calabi.self_s": own("calabi.") / n,
        "operators.applications": applications / n,
        "operators.applications_per_point": ratio(applications, grid),
        "operators.self_s": own("operators.") / n,
        "operators.fd_oracle_s": incl("operators.fd_oracle") / n,
        "eigenbasis.self_s": own("eigenbasis.") / n,
        "eigenbasis.select_mode_sign_s": incl("eigenbasis.select_mode_sign") / n,
        "eigenbasis.residual_evals": residuals / n,
        "eigenbasis.residual_evals_per_root": ratio(residuals, verified_roots),
        "report.assemble_s": own("report.", exclude="report.serialize.") / n,
        "report.serialize_s": total("inclusive_s", lambda k: k.startswith("report.serialize.")) / n,
        "trace.overhead_s": statistics.median(overhead),
        "trace.overhead_frac": statistics.median(overhead) / plain_median,
    }
    absent = sorted({name for s in summaries for name in s["absent"]})
    notes = [f"{len(summaries)} traced requests; counts and times are means per request, "
             f"ratios are sums over sums; {sum(s['spans'] for s in summaries) / n:.0f} spans per request",
             f"absent wrap targets (count 0): {absent or 'none'}"]
    for name, unit, moves in LAYER_METRICS:
        notes.append(f"{name:36s} {values[name]:14.6g} {unit:6s} moves: {moves}")
    return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "toric_soliton" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no toric_soliton sources under {root / 'src'}; run from a checkout root\n")
        return 2
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        plan = build_plan(args.workload, args.seed)
        plan.write(work)
        bench = Bench(root, work)
        warm = bench.probe()
        if warm.exit != 0:
            sys.stderr.write("perfbench: warm-up import of toric_soliton.cli failed:\n"
                             + warm.stderr.decode(errors="replace")[-2000:])
            return 1
        measured, pairs, probes, wall = measure(bench, plan.cycles, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [(req, run, verdict(req, run)) for req, run in measured]
    failures = [(req, why) for req, _, why in runs if why is not None]
    probe_failures = [p for p in probes if p.exit != 0]
    if args.trace:
        metrics, notes = per_layer(pairs)
    else:
        metrics, notes = end_to_end(args.workload, runs, probes, wall)
    info = provenance(root, args, plan)
    info["executed_mix"] = dict(sorted(Counter(req.label for req, _ in measured).items()))
    print("# provenance " + json.dumps(info, sort_keys=True))
    for line in notes:
        print("# " + line)
    for req, why in failures[:10]:
        sys.stderr.write(f"perfbench: FAILED {' '.join(req.argv)}: {why}\n")
    for p in probe_failures[:3]:
        sys.stderr.write(f"perfbench: import probe exited {p.exit}: {p.stderr.decode(errors='replace')[-500:]}\n")
    result = {
        "correct": not failures and not probe_failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
