"""Import set of each command: no command loads numpy.

No command loads ``dataclasses`` (records are ``NamedTuple`` classes) or
``inspect``, and every command exits as usual in an interpreter where
``import numpy`` fails.  Each case runs in a fresh interpreter, so nothing
an earlier test imported can hide a module load.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
DATA = Path(__file__).parent / "data"

#: runs ``cli.main(argv)`` and prints its exit code and the package modules
#: that executed (a lazily registered module that never executed is not a
#: plain module yet), whether numpy was imported, and which of the modules
#: the tests watch were loaded
PROBE = """
import contextlib, io, json, sys, types
import toric_soliton.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
executed = sorted(name for name, mod in sys.modules.items()
                  if name.startswith("toric_soliton.") and type(mod) is types.ModuleType)
loaded = [name for name in ("dataclasses", "inspect", "numpy.polynomial") if name in sys.modules]
print(json.dumps({"exit": code, "numpy": "numpy" in sys.modules, "executed": executed, "loaded": loaded}))
"""


#: the probe in an interpreter where ``import numpy`` raises ImportError
BLOCKED_PROBE = 'import sys\nsys.modules["numpy"] = None\n' + PROBE


def fresh(*argv: str, probe: str = PROBE) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    args = [json.dumps(list(argv))] if argv else []
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_numpy_free(result: dict) -> None:
    # no numpy, and no dataclasses or inspect, which a dataclass record pulls in
    assert result["numpy"] is False
    assert result["loaded"] == []


def test_import_cli_loads_no_numpy():
    result = fresh()
    assert_numpy_free(result)
    assert "toric_soliton.futaki" not in result["executed"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_roots_loads_no_numpy(fmt):
    result = fresh("roots", str(DATA / "blowup.json"), "--format", fmt)
    assert result["exit"] == 0
    assert_numpy_free(result)


@pytest.mark.parametrize("document", [
    '{"dim": 2, "facets": [{"normal": [1, 0], "offset": 1}, {"normal": [0, 1], "off',
    json.dumps({"dim": 2, "facets": [{"normal": [2, 0], "offset": 1}, {"normal": [0, 1], "offset": 1},
                                     {"normal": [-1, -1], "offset": 1}]}),
    (DATA / "non_delzant.json").read_text(),
    (DATA / "not_fano.json").read_text(),
    None,
    (DATA / "cp2.json").read_text().replace('"offset": 1}', '"offset": 1%s}' % ("0" * 4300), 1),
], ids=["truncated-json", "non-primitive-normal", "non-delzant", "not-fano", "missing-file",
        "integer-literal-4301-digits"])
def test_rejections_load_no_numpy(tmp_path, document):
    # no rejection reaches a module that imports numpy
    path = tmp_path / "polytope.json"
    if document is not None:
        path.write_text(document)
    result = fresh("soliton", str(path))
    assert result["exit"] == 2
    assert_numpy_free(result)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [
    ("soliton", "blowup.json"),
    ("soliton", "bl3.json"),
    ("decompose", "blowup.json", "--potential", "guillemin"),
    ("decompose", "blowup.json", "--potential", "calabi", "--grid", "15"),
    ("decompose", "cp2.json"),
], ids=["soliton-blowup", "soliton-bl3", "decompose-guillemin", "decompose-calabi", "decompose-default"])
def test_solve_loads_no_numpy(argv, fmt):
    command, document, *flags = argv
    result = fresh(command, str(DATA / document), *flags, "--format", fmt)
    assert result["exit"] == 0
    assert_numpy_free(result)
    assert "toric_soliton.futaki" in result["executed"]
    # the solve is closed-form, so no quadrature rule is built either
    for name in ("quadrature", "potentials", "operators", "eigenbasis", "calabi"):
        assert f"toric_soliton.{name}" not in result["executed"]


def test_decompose_calabi_on_other_polygon_rejected_without_numpy():
    result = fresh("decompose", str(DATA / "cp2.json"), "--potential", "calabi")
    assert result["exit"] == 2
    assert_numpy_free(result)


@pytest.mark.parametrize("flags", [
    ("--potential", "calabi"),
    ("--margin", "0"),
    ("--margin", "-0.1"),
    ("--margin", "nan"),
    ("--margin", "inf"),
], ids=["calabi-on-cp2", "margin-zero", "margin-negative", "margin-nan", "margin-inf"])
def test_verify_rejected_before_any_array_work(flags):
    result = fresh("verify", str(DATA / "cp2.json"), *flags)
    assert result["exit"] == 2
    assert_numpy_free(result)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("grid", ["1", "500"])
def test_calabi_loads_no_numpy(grid, fmt):
    # the closed forms run on floats; no potential, operator or eigenbasis module executes
    result = fresh("calabi", "--grid", grid, "--format", fmt)
    assert result["exit"] == 0
    assert_numpy_free(result)
    assert "toric_soliton.calabi" in result["executed"]
    for name in ("potentials", "operators", "eigenbasis"):
        assert f"toric_soliton.{name}" not in result["executed"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv, code", [
    (("verify", "cp2.json"), 0),
    (("verify", "blowup.json", "--potential", "calabi"), 0),
    (("verify", "bl3.json"), 4),
], ids=["guillemin", "calabi", "failing-bl3"])
def test_verify_loads_no_numpy(argv, code, fmt):
    # the stacks, operators and checks run on floats, the failing control included
    command, document, *flags = argv
    result = fresh(command, str(DATA / document), *flags, "--format", fmt)
    assert result["exit"] == code
    assert_numpy_free(result)
    for name in ("potentials", "operators", "eigenbasis"):
        assert f"toric_soliton.{name}" in result["executed"]


@pytest.mark.parametrize("argv, code", [
    (("roots", "cp2.json"), 0),
    (("soliton", "blowup.json"), 0),
    (("decompose", "blowup.json", "--potential", "calabi"), 0),
    (("calabi", "--grid", "50"), 0),
    (("verify", "cp2.json"), 0),
    (("verify", "blowup.json", "--potential", "guillemin"), 4),
    (("verify", "blowup.json", "--potential", "calabi"), 0),
    (("verify", "bl3.json"), 4),
    (("verify", "square.json", "--grid", "27"), 0),
    (("verify", "not_fano.json"), 2),
    (("soliton", "non_delzant.json"), 2),
], ids=["roots", "soliton", "decompose", "calabi", "verify", "verify-blowup-guillemin", "verify-calabi",
        "verify-bl3", "verify-square", "verify-not-fano", "soliton-non-delzant"])
def test_every_command_runs_with_numpy_blocked(argv, code):
    # the probe's own ``sys.modules["numpy"] = None`` is the only numpy entry
    result = fresh(*(str(DATA / a) if a.endswith(".json") else a for a in argv), probe=BLOCKED_PROBE)
    assert result["exit"] == code
    assert result["loaded"] == []


def test_soliton_executes_no_potential_module():
    result = fresh("soliton", str(DATA / "blowup.json"), "--format", "json")
    assert result["exit"] == 0
    assert "toric_soliton.futaki" in result["executed"]
    for name in ("quadrature", "potentials", "operators", "eigenbasis", "calabi"):
        assert f"toric_soliton.{name}" not in result["executed"]

