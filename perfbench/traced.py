"""Traced launcher: one ``toric-soliton`` CLI call with a span around every
call into each layer's public functions.

Usage::

    python perfbench/traced.py SUMMARY.json CLI-ARG...

The launcher imports ``toric_soliton.cli`` (timed), replaces each target
function at every binding its callers use, runs ``cli.main`` and exits
with its code.  Spans (name, start, end, parent) stay in memory; at exit
they are reduced to per-name counts, inclusive and self times and written
to ``SUMMARY.json``.  Self time is a span's duration minus the durations
of its child spans.  A target the program no longer has (for example
``linprog`` once geometry is exact) is listed as absent and counts zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

perf = time.perf_counter

#: (module, attribute, span name) for functions defined in the package;
#: every module binding of the same object is replaced
FUNCTIONS = (
    ("polytope", "parse_polytope", "polytope.parse"),
    ("polytope", "delzant_check", "polytope.delzant_check"),
    ("polytope", "normalize_algebraic", "polytope.normalize"),
    ("polytope", "privileged_center", "polytope.privileged_center"),
    ("roots", "enumerate_roots", "roots.enumerate"),
    ("quadrature", "integrate", "quadrature.integrate"),
    ("quadrature", "integrate_vector", "quadrature.integrate_vector"),
    ("quadrature", "triangulate", "quadrature.triangulate"),
    ("futaki", "solve_soliton_vector", "futaki.solve"),
    ("futaki", "weighted_volume", "futaki.weighted_volume"),
    ("potentials", "gradient_by_line_integral", "potentials.line_integral"),
    ("calabi", "h_matrix", "calabi.h_matrix"),
    ("calabi", "g_matrix", "calabi.g_matrix"),
    ("calabi", "ode_residual", "calabi.ode_residual"),
    ("calabi", "boundary_residuals", "calabi.boundary_residuals"),
    ("operators", "apply_laplacian", "operators.apply.laplacian"),
    ("operators", "apply_weighted_laplacian", "operators.apply.weighted_laplacian"),
    ("operators", "apply_complex_weighted_laplacian", "operators.apply.complex_weighted_laplacian"),
    ("operators", "abreu_scalar_curvature", "operators.abreu_scalar_curvature"),
    ("operators", "soliton_residual", "operators.soliton_residual"),
    ("operators", "product_rule_check", "operators.product_rule_check"),
    ("operators", "finite_difference_oracle", "operators.fd_oracle"),
    ("eigenbasis", "eigen_residual", "eigenbasis.eigen_residual"),
    ("eigenbasis", "select_mode_sign", "eigenbasis.select_mode_sign"),
    ("eigenbasis", "anti_holomorphic_fit", "eigenbasis.anti_holomorphic_fit"),
    ("eigenbasis", "affine_block", "eigenbasis.affine_block"),
    ("eigenbasis", "assemble_decomposition", "eigenbasis.assemble_decomposition"),
    ("eigenbasis", "build_root_function", "eigenbasis.build_root_function"),
    ("eigenbasis", "boundary_product_form", "eigenbasis.boundary_product_form"),
    ("report", "roots_report", "report.roots_report"),
    ("report", "soliton_report", "report.soliton_report"),
    ("report", "verify_report", "report.verify_report"),
    ("report", "decompose_report", "report.decompose_report"),
    ("report", "calabi_report", "report.calabi_report"),
    ("report", "make_context", "report.make_context"),
    ("report", "to_json", "report.serialize.to_json"),
    ("report", "render_text", "report.serialize.render_text"),
)

#: foreign functions: only the named module's binding is replaced, so the
#: same ``linprog`` counts separately for each caller
FOREIGN = (
    ("polytope", "linprog", "polytope.linprog"),
    ("roots", "linprog", "roots.linprog"),
)

#: (module, class, method, span name)
METHODS = (
    ("polytope", "DelzantPolytope", "interior_grid", "polytope.interior_grid"),
    ("calabi", "CalabiSoliton", "solve", "calabi.solve"),
)

#: derivative-stack methods, wrapped on every potential class that defines them
STACK_METHODS = ("value", "gradient", "hessian", "hessian_derivative", "hessian_second",
                 "inv_hessian", "inv_hessian_derivative", "inv_hessian_second")
POTENTIAL_MODULES = ("potentials", "calabi")


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []

    def wrap(self, name: str, fn, on_result=None):
        nid = self.ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, span_parent, start, end, stack = self.span_name, self.span_parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def summary(self) -> dict:
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        outer_applications = 0
        apply_ids = {i for i, name in enumerate(self.names) if name.startswith("operators.apply.")}
        for i in range(n):
            k = self.span_name[i]
            d = end[i] - start[i]
            calls[k] += 1
            inclusive[k] += d
            own[k] += d - child[i]
            if k in apply_ids and (parent[i] < 0 or self.span_name[parent[i]] not in apply_ids):
                outer_applications += 1
        return {
            "spans": n,
            "calls": {name: calls[i] for i, name in enumerate(self.names) if calls[i]},
            "inclusive_s": {name: inclusive[i] for i, name in enumerate(self.names) if calls[i]},
            "self_s": {name: own[i] for i, name in enumerate(self.names) if calls[i]},
            "counters": dict(self.counters, outer_applications=outer_applications),
            "absent": self.absent,
        }


def _module(name: str):
    return sys.modules.get(f"toric_soliton.{name}")


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "toric_soliton" or mod_name.startswith("toric_soliton."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    hooks = {
        "polytope.interior_grid": lambda grid: tracer.count("grid_points", len(grid)),
        "roots.enumerate": lambda rootset: tracer.count("roots", len(rootset.roots)),
        "futaki.solve": lambda soliton: tracer.count("newton_iterations", len(soliton.iterations)),
    }
    for mod_name, attr, name in FUNCTIONS:
        original = getattr(_module(mod_name), attr, None)
        if original is None:
            tracer.absent.append(name)
            continue
        _rebind(original, tracer.wrap(name, original, hooks.get(name)))
    for mod_name, attr, name in FOREIGN:
        mod = _module(mod_name)
        if getattr(mod, attr, None) is None:
            tracer.absent.append(name)
            continue
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
    for mod_name, cls_name, method, name in METHODS:
        cls = getattr(_module(mod_name), cls_name, None)
        raw = vars(cls).get(method) if cls is not None else None
        if raw is None:
            tracer.absent.append(name)
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, method, staticmethod(tracer.wrap(name, raw.__func__, hooks.get(name))))
        else:
            setattr(cls, method, tracer.wrap(name, raw, hooks.get(name)))
    base = getattr(_module("potentials"), "SymplecticPotential", None)
    if base is None or "require_interior" not in vars(base):
        tracer.absent.append("potentials.require_interior")
    else:
        base.require_interior = tracer.wrap("potentials.require_interior", vars(base)["require_interior"])
    for mod_name in POTENTIAL_MODULES:
        for cls in list(vars(_module(mod_name)).values()):
            if not (isinstance(cls, type) and base is not None and issubclass(cls, base)):
                continue
            if cls.__module__ != f"toric_soliton.{mod_name}":
                continue
            for method in STACK_METHODS:
                raw = vars(cls).get(method)
                if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                    setattr(cls, method, tracer.wrap(f"potentials.stack.{method}", raw))


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf()
    cli = importlib.import_module("toric_soliton.cli")
    import_s = perf() - t0
    tracer = Tracer()
    install(tracer)
    code = 1
    t1 = perf()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        main_s = perf() - t1
        sys.stdout.flush()
        t2 = perf()
        summary = tracer.summary()
        summary.update(import_s=import_s, main_s=main_s, exit=code, reduce_s=perf() - t2)
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
