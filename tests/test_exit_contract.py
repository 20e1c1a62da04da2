"""Fuzzed exit-code contract: every document and flag value ends in 0, 2, 3 or 4.

Documents are JSON-like: bad types, NaN, infinite and huge offsets,
offsets with 40-digit denominators, non-primitive or zero normals, too
few facets, dimensions other than two, and truncated text, next to
well-formed Fano polygons with arbitrary offsets so the soliton solve runs
too.  ``roots``, ``soliton`` and ``decompose`` (with both ``--potential``
values and any ``--grid``) run on every document.  Flag values include
``--grid`` far past its maximum.  ``verify`` runs both potentials on the
Fano polygons and the blow-up trapezoid over small grids and margins that
are zero, negative or NaN, and ``calabi`` over ``--grid``.  ``cli.main``
runs in process; no exception may escape it and no traceback may reach
stderr.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toric_soliton.cli import MAX_GRID, main

#: facet normals of the five smooth toric Fano surfaces
FANO_NORMALS = (
    ((1, 0), (0, 1), (-1, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((1, 0), (0, 1), (-1, 0), (-1, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)),
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
)
#: the blow-up trapezoid, the one polygon with a closed-form soliton potential
TRAPEZOID_NORMALS = ((0, 1), (-1, 0), (1, 0), (1, -1))


def _exact(value):
    """A JSON offset: an integer, a float, or an exact 'p/q' string."""
    if isinstance(value, float) or value.denominator == 1:
        return value if isinstance(value, float) else int(value)
    return f"{value.numerator}/{value.denominator}"


offsets = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).map(_exact),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**40).map(_exact),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1, 1, 1e300, -1e300, 1e308, 10**400, "3/0", "one", None, True, [1]]),
)
normals = st.one_of(
    st.lists(st.integers(-4, 4), min_size=0, max_size=3),
    st.sampled_from([[2, 0], [0, 0], [2, 2], [1.5, 1], ["1", 0], [True, 0], None, "x"]),
)
facet = st.one_of(
    st.fixed_dictionaries({"normal": normals, "offset": offsets}),
    st.sampled_from([{}, {"normal": [1, 0]}, {"offset": 1}, 3, None]),
)
fano_facets = st.sampled_from(FANO_NORMALS).flatmap(
    lambda ns: st.tuples(*[offsets for _ in ns]).map(
        lambda offs: [{"normal": list(n), "offset": o} for n, o in zip(ns, offs)]
    )
)
# Fano by construction: every offset is t + <nu, v> for a scale t and a
# translation v, so the privileged center exists when t > 0
translated_fano_facets = st.tuples(
    st.sampled_from(FANO_NORMALS),
    st.one_of(st.sampled_from([1, 2, 10**6, 1e300]), st.fractions(min_value=-2, max_value=3, max_denominator=5)),
    st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * 2),
).map(lambda args: [
    {"normal": list(n), "offset": _exact(args[1] + n[0] * args[2][0] + n[1] * args[2][1])} for n in args[0]
])
documents = st.one_of(
    st.fixed_dictionaries({
        "dim": st.sampled_from([2, 2, 2, 1, 3, 0, -1, True, "2", None, 2.0]),
        "facets": st.one_of(fano_facets, st.lists(facet, max_size=6), st.sampled_from([[], None, "x"])),
    }),
    st.fixed_dictionaries({"dim": st.just(2), "facets": st.one_of(fano_facets, translated_fano_facets)}),
    st.sampled_from([[], None, "text", {}, {"dim": 2}]),
)


@st.composite
def document_texts(draw) -> str:
    text = json.dumps(draw(documents))
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


formats = st.sampled_from([[], ["--format=json"]])
grids = st.one_of(st.integers(-2, 12), st.sampled_from([MAX_GRID, MAX_GRID + 1, 10**10]))
decompose_flags = st.tuples(
    formats, st.sampled_from(["guillemin", "calabi"]), st.one_of(st.just(None), grids),
).map(lambda args: [*args[0], f"--potential={args[1]}", *([] if args[2] is None else [f"--grid={args[2]}"])])
command_lines = st.one_of(
    st.tuples(st.just("roots"), formats),
    st.tuples(st.just("soliton"), formats),
    st.tuples(st.just("decompose"), decompose_flags),
)


unit_polygons = st.sampled_from(FANO_NORMALS + (TRAPEZOID_NORMALS,)).map(
    lambda ns: json.dumps({"dim": 2, "facets": [{"normal": list(n), "offset": 1} for n in ns]})
)
margins = st.one_of(st.sampled_from([0.05, 0.3, 0.0, -0.1, float("nan")]), st.floats(-0.2, 0.6))
verify_flags = st.tuples(st.sampled_from(["guillemin", "calabi"]), st.integers(1, 12), margins).map(
    lambda args: [f"--potential={args[0]}", f"--grid={args[1]}", f"--margin={args[2]!r}"]
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_contract")


def assert_contract(command: str, argv: list[str]) -> None:
    """Run ``cli.main(argv)`` and check its exit code against stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        if "--format=json" in argv:
            assert json.loads(out.getvalue())["command"] == command
    elif code == 2:
        assert err.getvalue().startswith(("rejected: ", "cannot read input: "))
    elif code == 3:
        assert err.getvalue().startswith("solver failure: ")
    else:
        assert err.getvalue().startswith("verification failed: ")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=document_texts(), command_line=command_lines)
def test_exit_codes_hold_for_any_document_and_flags(workdir, text, command_line):
    command, flags = command_line
    path = workdir / "polytope.json"
    path.write_text(text)
    assert_contract(command, [command, str(path), *flags])


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=unit_polygons, flags=verify_flags)
def test_verify_exit_codes_hold_for_any_grid_and_margin(workdir, text, flags):
    path = workdir / "polygon.json"
    path.write_text(text)
    assert_contract("verify", ["verify", str(path), *flags, "--format=json"])


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids, fmt=st.sampled_from(["json", "text"]))
def test_calabi_exit_codes_hold_for_any_grid(grid, fmt):
    assert_contract("calabi", ["calabi", f"--grid={grid}", f"--format={fmt}"])
