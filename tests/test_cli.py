"""Command-line surface: exit codes, formats, golden machine-readable reports."""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from toric_soliton.cli import MAX_GRID, MAX_ORDER, main
from toric_soliton.errors import MalformedInputError
from toric_soliton.polytope import delzant_check, parse_polytope, privileged_center
from toric_soliton.report import roots_report
from toric_soliton.roots import assemble_decomposition

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_roots_exit_zero(capsys):
    code, out = run(capsys, "roots", str(DATA / "cp2.json"))
    assert code == 0
    assert "demazure roots (6)" in out
    assert "eta 8" in out


def test_roots_blowup_dimensions(capsys):
    code, out = run(capsys, "roots", str(DATA / "blowup.json"))
    assert code == 0
    assert "demazure roots (4)" in out
    assert "eta 6, reductive 4, unipotent 2" in out


NOT_DELZANT = "polytope is not Delzant: vertex (-1.0, 1.0) has determinant -2"


@pytest.mark.parametrize("command", ["roots", "soliton", "decompose", "verify"])
def test_non_delzant_rejected(capsys, command):
    code = main([command, str(DATA / "non_delzant.json")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"rejected: {NOT_DELZANT}\n")


def test_non_delzant_library_call_raises():
    with pytest.raises(MalformedInputError) as excinfo:
        roots_report(parse_polytope((DATA / "non_delzant.json").read_text()))
    assert str(excinfo.value) == NOT_DELZANT


def test_not_fano_rejected(capsys):
    code, _ = run(capsys, "soliton", str(DATA / "not_fano.json"))
    assert code == 2


def test_missing_file_rejected(capsys):
    code, _ = run(capsys, "roots", str(DATA / "does_not_exist.json"))
    assert code == 2


def test_soliton_square(capsys):
    code, out = run(capsys, "soliton", str(DATA / "square.json"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert abs(report["soliton"]["a"][0]) <= 1e-10
    assert abs(report["soliton"]["a"][1]) <= 1e-10


def test_soliton_blowup_value(capsys):
    code, out = run(capsys, "soliton", str(DATA / "blowup.json"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    a = report["soliton"]["a"]
    assert -0.5 < a[0] < 0.0
    assert abs(a[1]) <= 1e-10


def test_verify_cp2_guillemin_passes(capsys):
    code, out = run(capsys, "verify", str(DATA / "cp2.json"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True


@pytest.mark.parametrize("document, grid", [("cp2.json", "40"), ("square.json", "32")])
def test_verify_kahler_einstein_controls_pass_on_a_fine_grid(capsys, document, grid):
    # the FD oracle's Abreu term differences H, not phi, so phi's rounding cannot fail a true soliton
    code, out = run(capsys, "verify", str(DATA / document), "--grid", grid, "--margin", "0.02", "--format", "json")
    assert (code, json.loads(out)["first_failed"]) == (0, None)


def test_verify_blowup_calabi_passes(capsys):
    code, out = run(capsys, "verify", str(DATA / "blowup.json"), "--potential", "calabi", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["soliton"]["a"][0] < 0.0


def test_verify_blowup_guillemin_fails(capsys):
    # the canonical potential is not the soliton metric on the blow-up
    code, out = run(capsys, "verify", str(DATA / "blowup.json"), "--potential", "guillemin", "--format", "json")
    assert code == 4
    report = json.loads(out)
    assert report["all_passed"] is False
    assert report["first_failed"] is not None
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "soliton_pde_max_residual" in failed


def test_verify_bl3_without_roots(capsys):
    # Bl3P2 has no Demazure roots; the FD oracle runs on the coordinate profile x_1
    code, out = run(capsys, "verify", str(DATA / "bl3.json"), "--format", "json")
    assert code == 4
    report = json.loads(out)
    assert report["roots"] == []
    assert report["first_failed"] == "affine_eigenfunctions_max_rel_residual"
    oracle = [c for c in report["checks"] if c["name"].startswith("fd_oracle_")]
    assert [c["name"] for c in oracle] == ["fd_oracle_weighted_rel", "fd_oracle_abreu_rel"]
    assert all(c["passed"] for c in oracle)


CP2_TEXT = (DATA / "cp2.json").read_text()
SIMPLEX_3D_TEXT = json.dumps({"dim": 3, "facets": [
    {"normal": [1, 0, 0], "offset": 1}, {"normal": [0, 1, 0], "offset": 1},
    {"normal": [0, 0, 1], "offset": 1}, {"normal": [-1, -1, -1], "offset": 1},
]})
INTERVAL_TEXT = json.dumps({"dim": 1, "facets": [{"normal": [1], "offset": 1}, {"normal": [-1], "offset": 1}]})


def cp2_with_offsets(offset: str) -> str:
    return CP2_TEXT.replace('"offset": 1', f'"offset": {offset}')


def cp2_with_first(key: str, value: str) -> str:
    """CP2 with the first facet's normal entry or offset replaced by a JSON literal."""
    old = {"normal": '"normal": [1, 0]', "offset": '"offset": 1}'}[key]
    new = {"normal": f'"normal": [{value}, 0]', "offset": f'"offset": {value}}}'}[key]
    return CP2_TEXT.replace(old, new, 1)


@pytest.mark.parametrize("argv, document, needle", [
    (("verify", "--grid", "1"), CP2_TEXT, "grid 1 "),
    (("verify", "--grid", "2"), CP2_TEXT, "grid 2 "),
    (("verify", "--margin", "0.9"), CP2_TEXT, "margin 0.9 "),
    (("soliton", "--order", "0"), CP2_TEXT, "--order must be at least 1, got 0"),
    (("verify", "--order", "0"), CP2_TEXT, "--order must be at least 1, got 0"),
    (("decompose", "--order", "0"), CP2_TEXT, "--order must be at least 1, got 0"),
    (("soliton",), CP2_TEXT.replace('"offset": 1}', '"offset": NaN}', 1), "got nan"),
    (("soliton",), CP2_TEXT.replace('"offset": 1}', '"offset": Infinity}', 1), "got inf"),
    (("soliton",), CP2_TEXT.replace('"dim": 2', '"dim": true'), "got True"),
    (("decompose", "--grid", "-5"), CP2_TEXT, "--grid must be at least 1, got -5"),
    (("soliton",), CP2_TEXT.replace('"offset": 1}', '"offset": 1e400}', 1),
     "offset of facet 0 (about 1.000e+400) is beyond the float range"),
    (("roots",), cp2_with_offsets("1e308"), "vertex coordinate (about 2.000e+308) is beyond the float range"),
    (("roots",), SIMPLEX_3D_TEXT, "got dim 3"),
    (("roots",), INTERVAL_TEXT, "got dim 1"),
    (("soliton", "--tol", "nan"), CP2_TEXT, "--tol must be finite and positive, got nan"),
    (("verify", "--tol", "-1"), CP2_TEXT, "--tol must be finite and positive, got -1.0"),
    (("decompose", "--tol", "inf"), CP2_TEXT, "--tol must be finite and positive, got inf"),
    (("verify", "--margin", "0"), CP2_TEXT, "--margin must be finite and positive, got 0.0"),
    (("verify", "--margin", "-0.1"), CP2_TEXT, "--margin must be finite and positive, got -0.1"),
    (("verify", "--margin", "nan"), CP2_TEXT, "--margin must be finite and positive, got nan"),
    (("verify", "--margin", "inf"), CP2_TEXT, "--margin must be finite and positive, got inf"),
    (("roots",), cp2_with_first("offset", "1" + "0" * 4300), "integer literal has 4301 digits, more than 4300"),
    (("soliton",), cp2_with_first("normal", "1" + "0" * 4300), "integer literal has 4301 digits, more than 4300"),
    (("verify",), cp2_with_first("offset", "1e-4400"),
     "number (about 1.000e-4400) has more than 4300 digits in its numerator or denominator"),
    (("decompose",), cp2_with_first("offset", '"1e-5000"'),
     "number (about 1.000e-5000) has more than 4300 digits in its numerator or denominator"),
    (("roots",), cp2_with_first("offset", "1e-4300"), "has more than 4300 digits in its numerator or denominator"),
    (("soliton",), cp2_with_first("offset", '"1e-999999999"'), "decimal exponent beyond 8600"),
    (("verify",), cp2_with_first("offset", "1." + "0" * 5000), "run of 5000 digits, more than 4300"),
    (("decompose",), cp2_with_first("normal", "1e-4400"), "has more than 4300 digits in its numerator or denominator"),
    (("roots",), b"\xff\xfe" + CP2_TEXT.encode("utf-16-le"), "document is not UTF-8 text"),
    (("soliton",), "[" * 100_000, "invalid JSON: arrays or objects nested too deeply"),
    (("roots",), CP2_TEXT.replace('"normal": [1, 0]', '"normal": 5', 1), "facet normal must be a list, got 5"),
], ids=["grid-1", "grid-2", "margin-0.9", "soliton-order-0", "verify-order-0", "decompose-order-0",
        "offset-nan", "offset-infinity", "dim-true", "decompose-grid-negative", "offset-1e400",
        "vertex-2e308", "dim-3", "dim-1", "tol-nan", "tol-negative", "tol-inf",
        "margin-zero", "margin-negative", "margin-nan", "margin-inf",
        "offset-integer-4301-digits", "normal-integer-4301-digits", "offset-1e-4400", "offset-string-1e-5000",
        "offset-1e-4300", "offset-string-exponent-huge", "offset-mantissa-5001-digits", "normal-1e-4400",
        "utf16-byte-order-mark", "nested-100000-arrays", "normal-not-a-list"])
def test_rejected_arguments_and_documents_exit_two(capsys, tmp_path, argv, document, needle):
    path = tmp_path / "polytope.json"
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(document)
    command, *flags = argv
    code = main([command, str(path), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert needle in err


def test_numbers_at_the_digit_limit_are_accepted(capsys, tmp_path):
    # a 4300-digit denominator is written back into the report as text
    path = tmp_path / "polytope.json"
    path.write_text(cp2_with_first("offset", "1e-4299"))
    code, out = run(capsys, "roots", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["polytope"]["input"]["facets"][0]["offset"] == "1/1" + "0" * 4299
    # a 4300-digit integer passes the parser and is rejected by its size alone
    path.write_text(cp2_with_first("offset", "1" + "0" * 4299))
    code = main(["roots", str(path)])
    assert code == 2
    assert "(about 1.000e+4299) is beyond the float range" in capsys.readouterr().err


BL2_TEXT = json.dumps({"dim": 2, "facets": [
    {"normal": list(n), "offset": 1} for n in ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1))
]})


@pytest.mark.parametrize("document, potential, grid, margin, kept", [
    ("cp2.json", "guillemin", 4, 0.05, 1),
    ("square.json", "guillemin", 3, 0.05, 1),
    ("blowup.json", "guillemin", 3, 0.05, 1),
    ("blowup.json", "calabi", 3, 0.05, 1),
    (BL2_TEXT, "guillemin", 3, 0.05, 1),
    ("bl3.json", "guillemin", 3, 0.05, 1),
    ("cp2.json", "guillemin", 7, 0.3, 1),
    ("square.json", "guillemin", 5, 0.3, 1),
    ("bl3.json", "guillemin", 4, 0.3, 2),
    ("blowup.json", "calabi", 12, 0.3, 1),
], ids=["cp2-4", "p1xp1-3", "bl1-3", "bl1-calabi-3", "bl2-3", "bl3-3",
        "cp2-7-margin", "p1xp1-5-margin", "bl3-4-margin-two-points", "bl1-calabi-12-margin"])
def test_verify_rejects_a_grid_on_one_line(capsys, tmp_path, document, potential, grid, margin, kept):
    # one kept point with x_1 = 0 made affine_block divide by zero and escape main;
    # one point off that line passed or failed the affine checks on no evidence
    if document.endswith(".json"):
        path = DATA / document
    else:
        path = tmp_path / "polytope.json"
        path.write_text(document)
    code = main(["verify", str(path), "--potential", potential, "--grid", str(grid), "--margin", str(margin)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert f"grid {grid} with margin {margin} keeps {kept} point(s), all on one line" in err


@pytest.mark.parametrize("argv, needle", [
    (("soliton", "cp2", "--order", str(MAX_ORDER + 1)), f"--order must be at most {MAX_ORDER}, got {MAX_ORDER + 1}"),
    (("decompose", "cp2", "--order", str(MAX_ORDER + 1)), f"--order must be at most {MAX_ORDER}, got {MAX_ORDER + 1}"),
    (("verify", "cp2", "--grid", str(MAX_GRID + 1)), f"--grid must be at most {MAX_GRID}, got {MAX_GRID + 1}"),
    (("calabi", "--grid", str(MAX_GRID + 1)), f"--grid must be at most {MAX_GRID}, got {MAX_GRID + 1}"),
    (("soliton", "cp2", "--order", "1000000"), "--order must be at most"),
    (("decompose", "cp2", "--order", "1000000"), "--order must be at most"),
    (("verify", "cp2", "--grid", "1000000"), "--grid must be at most"),
    (("calabi", "--grid", "10000000000"), "got 10000000000"),
], ids=["soliton-order", "decompose-order", "verify-grid", "calabi-grid",
        "soliton-order-huge", "decompose-order-huge", "verify-grid-huge", "calabi-grid-huge"])
def test_flag_values_over_the_maximum_exit_two(capsys, argv, needle):
    # the huge values once escaped main with numpy's _ArrayMemoryError
    argv = [str(DATA / "cp2.json") if a == "cp2" else a for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert needle in err


def test_largest_order_is_accepted(capsys):
    code, out = run(capsys, "soliton", str(DATA / "cp2.json"), "--order", str(MAX_ORDER), "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["order"] == MAX_ORDER


def test_help_states_the_maxima(capsys):
    for command, maximum in (("soliton", MAX_ORDER), ("verify", MAX_GRID), ("calabi", MAX_GRID)):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"1 to {maximum}" in out, command


def test_decompose_has_no_margin_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["decompose", str(DATA / "cp2.json"), "--margin", "0.1"])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "usage: toric-soliton" in err
    assert "unrecognized arguments: --margin 0.1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("offset", ["1e20", "1e300"])
def test_large_offsets_are_bounded(capsys, tmp_path, offset):
    # only the float range bounds the scale of an accepted polygon
    path = tmp_path / "polytope.json"
    path.write_text(cp2_with_offsets(offset))
    lam = float(offset)
    assert set(parse_polytope(path.read_text()).vertex_points) == {
        (-lam, -lam), (-lam, 2 * lam), (2 * lam, -lam),
    }
    code, out = run(capsys, "roots", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert sorted(tuple(r["alpha"]) for r in report["roots"]) == [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]


def test_import_loads_no_scipy():
    code = "import sys, toric_soliton.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_calabi_requires_blowup_polytope(capsys):
    for command in ("verify", "decompose"):
        code = main([command, str(DATA / "cp2.json"), "--potential", "calabi"])
        assert code == 2
        assert "only available for the blow-up trapezoid" in capsys.readouterr().err


def test_solver_failure_exit_code(capsys, monkeypatch):
    from toric_soliton import futaki
    from toric_soliton.errors import NonConvergenceError

    def boom(*args, **kwargs):
        raise NonConvergenceError("forced failure")

    monkeypatch.setattr(futaki, "solve_soliton_vector", boom)
    code, _ = run(capsys, "soliton", str(DATA / "cp2.json"))
    assert code == 3


def test_calabi_command(capsys):
    code, out = run(capsys, "calabi", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert -0.5 < report["a1"] < 0.0
    assert report["m"] == -4.0
    assert report["scal_mean"] == 4.0
    assert "inconsistent" in report["scal_mean_note"]
    assert report["ode_max_residual"] <= 1e-9


def test_calabi_rejects_bad_parameters(capsys):
    # the labels are fixed; the former flags only ever accepted the blow-up values
    for flag, value in (("alpha1", "1"), ("alpha2", "3"), ("beta1", "0"), ("beta2", "1"),
                        ("c-alpha1", "1"), ("c-alpha2", "-0.3333333333333333"), ("c-beta1", "-1"),
                        ("c-beta2", "1")):
        with pytest.raises(SystemExit) as exit_info:
            main(["calabi", f"--{flag}={value}"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2, flag
        assert f"unrecognized arguments: --{flag}={value}" in err
        assert "Traceback" not in err


def test_round_trip_polytope_echo(capsys):
    code, out = run(capsys, "roots", str(DATA / "blowup.json"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    original = parse_polytope((DATA / "blowup.json").read_text())
    assert parse_polytope(json.dumps(report["polytope"]["input"])) == original


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "decompose", str(DATA / "blowup.json"), "--format", "json")
    _, second = run(capsys, "decompose", str(DATA / "blowup.json"), "--format", "json")
    assert first == second


GOLDEN_REL_TOL = 1e-9


def first_difference(actual, expected, abs_tol: float, path: str = "$") -> str | None:
    """JSON path of the first mismatch between two parsed reports, or None.

    Structure is compared exactly: keys and their order, list lengths and
    order, ints, strings, bools and null. Floats are compared to a relative
    GOLDEN_REL_TOL with an absolute floor of abs_tol, since their last
    digits are round-off that differs between interpreters: the package
    computes on plain floats, and from Python 3.12 on the built-in sum()
    is compensated, so on cp2 scal_mean reads 3.99999999999957 there and
    ...958 on 3.11, and a root's gamma_hat 0.0 against 4.4e-16.
    """
    if type(actual) is not type(expected):
        return f"{path}: {type(actual).__name__} {actual!r} != {type(expected).__name__} {expected!r}"
    if isinstance(expected, float):
        if math.isclose(actual, expected, rel_tol=GOLDEN_REL_TOL, abs_tol=abs_tol):
            return None
        return f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        if list(actual) != list(expected):
            return f"{path}: keys {list(actual)} != {list(expected)}"
        for key, value in expected.items():
            found = first_difference(actual[key], value, abs_tol, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            found = first_difference(a, e, abs_tol, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if actual == expected else f"{path}: {actual!r} != {expected!r}"


#: absolute float floors of the reports without a solver tolerance: roots floats are
#: exact rationals, and the calabi residuals are round-off near 1e-14
ABS_TOL_WITHOUT_CONFIG = {"roots": 0.0, "calabi": 1e-12}


GOLDEN_ROWS = [
    ("cp2_roots", ("roots", "cp2.json"), 0),
    ("blowup_roots", ("roots", "blowup.json"), 0),
    ("cp2_decompose", ("decompose", "cp2.json"), 0),
    ("blowup_decompose", ("decompose", "blowup.json", "--potential", "calabi"), 0),
    ("cp2_verify", ("verify", "cp2.json"), 0),
    ("blowup_calabi_verify", ("verify", "blowup.json", "--potential", "calabi"), 0),
    ("calabi", ("calabi", "--grid", "50"), 0),
    # negative controls: every check still runs and is pinned on a failing report
    ("blowup_guillemin_verify", ("verify", "blowup.json", "--potential", "guillemin"), 4),
    ("bl3_verify", ("verify", "bl3.json"), 4),
]


@pytest.mark.parametrize("name, argv, exit_code", GOLDEN_ROWS,
                         ids=[f"{name}-argv{i}" for i, (name, _, _) in enumerate(GOLDEN_ROWS)])
def test_golden_reports(capsys, name, argv, exit_code):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == exit_code
    golden_path = GOLDEN / f"{name}.json"
    if os.environ.get("REGEN_GOLDEN"):
        golden_path.write_text(out)
    golden = json.loads(golden_path.read_text())
    abs_tol = golden["config"]["tol"] if "config" in golden else ABS_TOL_WITHOUT_CONFIG[golden["command"]]
    difference = first_difference(json.loads(out), golden, abs_tol)
    assert difference is None, difference


TEXT_ROWS = [row for row in GOLDEN_ROWS if row[0] in ("cp2_verify", "blowup_guillemin_verify", "bl3_verify")]


@pytest.mark.parametrize("name, argv, exit_code", TEXT_ROWS, ids=[row[0] for row in TEXT_ROWS])
def test_verify_text_lists_the_json_checks(capsys, name, argv, exit_code):
    # the text report, the default format, shows every check of the JSON report in its order
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    code_text, text = run(capsys, *argv, "--format", "text")
    assert code == code_text == exit_code
    lines = text.splitlines()
    expected = [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['value']:.15g} (threshold {c['threshold']:.15g})"
        for c in report["checks"]
    ]
    assert [line for line in lines if line.startswith(("[PASS]", "[FAIL]"))] == expected
    result = "all checks passed" if report["all_passed"] else f"FAILED at {report['first_failed']}"
    assert lines[-1] == f"result: {result}"
    assert report["all_passed"] == (exit_code == 0)


def test_calabi_text_lists_every_boundary_residual(capsys):
    code, out = run(capsys, "calabi", "--grid", "50", "--format", "json")
    residuals = json.loads(out)["boundary_residuals"]
    code_text, text = run(capsys, "calabi", "--grid", "50", "--format", "text")
    assert code == code_text == 0
    lines = text.splitlines()
    start = lines.index("boundary residuals:") + 1
    assert lines[start:] == [f"  {key}: {value:.15g}" for key, value in residuals.items()]
    assert len(residuals) > 0


def test_decompose_blowup_blocks(capsys):
    code, out = run(capsys, "decompose", str(DATA / "blowup.json"), "--potential", "calabi", "--format", "json")
    assert code == 0
    report = json.loads(out)
    blocks = report["decomposition"]["blocks"]
    assert len(blocks) == 2
    assert blocks[0]["gamma"] == 0.0
    assert blocks[0]["complex_dimension"] == 4
    assert blocks[1]["complex_dimension"] == 2
    assert blocks[1]["gamma"] > 0.0
    assert blocks[1]["unipotent_roots"] == [[-1, -1], [-1, 0]]
    assert blocks[1]["semisimple_roots"] == []


@pytest.mark.parametrize("permutation", list(itertools.permutations(range(4))),
                         ids=lambda p: "".join(map(str, p)))
def test_decompose_blowup_blocks_invariant_under_facet_permutation(capsys, tmp_path, permutation):
    doc = json.loads((DATA / "blowup.json").read_text())
    permuted = tmp_path / "blowup.json"
    permuted.write_text(json.dumps({**doc, "facets": [doc["facets"][i] for i in permutation]}))
    code, out = run(capsys, "decompose", str(permuted), "--potential", "calabi", "--format", "json")
    assert code == 0
    golden = json.loads((GOLDEN / "blowup_decompose.json").read_text())
    difference = first_difference(
        json.loads(out)["decomposition"], golden["decomposition"], golden["config"]["tol"], "$.decomposition"
    )
    assert difference is None, difference


@pytest.mark.parametrize("permutation", [(3, 2, 1, 0), (1, 2, 3, 0), (2, 0, 3, 1)],
                         ids=lambda p: "".join(map(str, p)))
def test_calabi_on_a_permuted_trapezoid(capsys, tmp_path, permutation):
    # the Calabi potential is built on the polygon as read, so its facet order changes no check
    doc = json.loads((DATA / "blowup.json").read_text())
    permuted = tmp_path / "blowup.json"
    permuted.write_text(json.dumps({**doc, "facets": [doc["facets"][i] for i in permutation]}))
    assert run(capsys, "decompose", str(permuted), "--potential", "calabi")[0] == 0
    checks = []
    for path in (DATA / "blowup.json", permuted):
        code, out = run(capsys, "verify", str(path), "--potential", "calabi", "--format", "json")
        assert code == 0
        checks.append(json.loads(out)["checks"])
    assert checks[0] == checks[1]


def calls_of(argv: list[str], *functions) -> tuple[int, Counter]:
    """Exit code of ``main(argv)`` and how often each function ran, under whatever name it was called."""
    names = {f.__code__: f.__name__ for f in functions}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(None)
    return code, counts


#: facet documents whose offsets are not all one, so the normalized polygon differs from the input
SHIFTED = {
    "cp2": {"dim": 2, "facets": [{"normal": [1, 0], "offset": 1}, {"normal": [0, 1], "offset": 2},
                                 {"normal": [-1, -1], "offset": "1/2"}]},
    "blowup": {"dim": 2, "facets": [{**facet, "offset": 2}
                                    for facet in json.loads((DATA / "blowup.json").read_text())["facets"]]},
    # the bl3 hexagon with offsets 1 + 1/q, q of 4299 digits: each center solve costs about 20 ms
    "hexagon": {"dim": 2, "facets": [{**facet, "offset": f"{q + 1}/{q}"} for facet, q in zip(
        json.loads((DATA / "bl3.json").read_text())["facets"], (10**4298 + 7 * r + 1 for r in range(6)))]},
}


@pytest.mark.parametrize("name, argv", [
    ("cp2", ("roots",)),
    ("cp2", ("soliton",)),
    ("cp2", ("decompose",)),
    ("cp2", ("verify",)),
    ("blowup", ("decompose", "--potential", "calabi")),
    ("blowup", ("verify", "--potential", "calabi")),
    ("hexagon", ("roots",)),
    ("hexagon", ("soliton",)),
], ids=["roots", "soliton", "decompose", "verify", "decompose-calabi", "verify-calabi",
        "hexagon-roots", "hexagon-soliton"])
def test_each_command_checks_delzant_and_solves_the_center_once(capsys, tmp_path, name, argv):
    # the report builder's preparation is the only caller of both; loading only parses
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SHIFTED[name]))
    command, *flags = argv
    code, counts = calls_of([command, str(path), *flags], delzant_check, privileged_center, assemble_decomposition)
    capsys.readouterr()
    assert code == 0
    assert counts["delzant_check"] == counts["privileged_center"] == 1
    assert counts["assemble_decomposition"] == (1 if command in ("verify", "decompose") else 0)


def test_decompose_square_single_block(capsys):
    code, out = run(capsys, "decompose", str(DATA / "square.json"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    blocks = report["decomposition"]["blocks"]
    assert len(blocks) == 1
    assert blocks[0]["complex_dimension"] == 6
