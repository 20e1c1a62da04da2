"""Record types: construction checks, immutability and tuple semantics.

Every record is a ``typing.NamedTuple``; ``Facet`` and ``OperatorContext``
validate their fields when constructed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from toric_soliton.eigenbasis import check_root
from toric_soliton.errors import MalformedInputError, NonPrimitiveNormalError
from toric_soliton.operators import OperatorContext
from toric_soliton.polytope import Facet, delzant_check, privileged_center
from toric_soliton.potentials import GuilleminPotential
from toric_soliton.roots import assemble_decomposition, automorphism_dimensions
from conftest import expand


@pytest.mark.parametrize("normal, error, message", [
    ((), MalformedInputError, "facet normal must be an integer vector, got ()"),
    ((1.0, 0), MalformedInputError, "facet normal must be an integer vector, got (1.0, 0)"),
    ((True, 0), MalformedInputError, "facet normal must be an integer vector, got (True, 0)"),
    ((Fraction(1), 0), MalformedInputError, "facet normal must be an integer vector"),
    ((0, 0), MalformedInputError, "facet normal must be nonzero"),
    ((2, 4), NonPrimitiveNormalError, "facet normal (2, 4) is not primitive"),
    ((-3, 0), NonPrimitiveNormalError, "facet normal (-3, 0) is not primitive"),
    ((2 * 10**4300, 2), MalformedInputError, "facet normal has an entry of more than 4300 digits"),
], ids=["empty", "float", "bool", "fraction", "zero", "non-primitive", "non-primitive-negative",
        "long-entry"])
def test_facet_rejects_bad_normals(normal, error, message):
    with pytest.raises(error) as info:
        Facet(normal, 1)
    assert message in str(info.value)


@pytest.mark.parametrize("offset, message", [
    (None, "offset must be a number or 'p/q' string, got None"),
    (True, "offset must be a number, got True"),
    (float("nan"), "offset must be finite, got nan"),
    (float("-inf"), "offset must be finite, got -inf"),
    ("one", "cannot parse offset 'one'"),
    ("1/0", "cannot parse offset '1/0'"),
    (Fraction(1, 10**4300), "has more than 4300 digits in its numerator or denominator"),
], ids=["none", "bool", "nan", "-inf", "word", "zero-denominator", "long-denominator"])
def test_facet_rejects_bad_offsets(offset, message):
    with pytest.raises(MalformedInputError) as info:
        Facet((1, 0), offset)
    assert message in str(info.value)


@pytest.mark.parametrize("offset, exact", [
    (1, Fraction(1)),
    (0.5, Fraction(1, 2)),
    ("3/2", Fraction(3, 2)),
    ("0.1", Fraction(1, 10)),
    (Fraction(2, 3), Fraction(2, 3)),
])
def test_facet_reads_the_offset_exactly(offset, exact):
    facet = Facet(normal=(1, 0), offset=offset)
    assert type(facet.offset) is Fraction
    assert facet.offset == exact


def test_facets_compare_and_hash_as_tuples():
    facet = Facet((1, -1), "1/2")
    assert facet == Facet(normal=(1, -1), offset=Fraction(1, 2)) == ((1, -1), Fraction(1, 2))
    assert hash(facet) == hash(((1, -1), Fraction(1, 2)))
    assert facet._fields == ("normal", "offset")
    assert facet._replace(offset=Fraction(1)) == Facet((1, -1), 1)


def test_operator_context_reads_a_as_a_float_array(cp2):
    ctx = OperatorContext(GuilleminPotential(cp2), np.array([0, 1]))
    assert ctx.a == (0.0, 1.0)
    assert all(type(c) is float for c in ctx.a)


@pytest.mark.parametrize("a", [[0.0, 0.0, 0.0], [0.0], [[0.0, 0.0]], 0.0],
                         ids=["three", "one", "matrix", "scalar"])
def test_operator_context_rejects_a_of_the_wrong_shape(cp2, a):
    with pytest.raises(MalformedInputError) as info:
        OperatorContext(potential=GuilleminPotential(cp2), a=a)
    assert "soliton vector must be 2 numbers" in str(info.value)


@pytest.fixture(scope="module")
def records(cp2, cp2_ctx, cp2_roots, cp2_soliton, calabi_soliton):
    """One instance of every record type of the package."""
    stack = cp2_ctx.potential.stack(cp2.interior_grid(7, 0.05))
    check = check_root(cp2_ctx, cp2_roots.roots[0], stack)
    return {
        "Facet": cp2.facets[0],
        "PrivilegedCenter": privileged_center(cp2),
        "DelzantVerdict": delzant_check(cp2),
        "DemazureRoot": cp2_roots.roots[0],
        "RootSet": cp2_roots,
        "AutomorphismDimensions": automorphism_dimensions(cp2_roots),
        "SolitonDecomposition": assemble_decomposition(cp2_soliton, cp2_roots),
        "SolitonData": cp2_soliton,
        "Stack": stack,
        "Profile": check.profile,
        "OperatorContext": cp2_ctx,
        "EigenFit": check,
        "CalabiSoliton": calabi_soliton,
    }


RECORD_TYPES = (
    "Facet", "PrivilegedCenter", "DelzantVerdict", "DemazureRoot", "RootSet", "AutomorphismDimensions",
    "SolitonDecomposition", "SolitonData", "Stack",
    "Profile", "OperatorContext", "EigenFit",
    "CalabiSoliton",
)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_are_immutable_named_tuples(records, name):
    record = records[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple)
    assert len(record) == len(record._fields)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.no_such_field = None


@pytest.mark.parametrize("index", [
    slice(2, 5),
    np.array([0, 3, 3, 1]),
    np.array([True, False] * 7 + [True]),
    [4],
], ids=["slice", "integers", "mask", "one"])
def test_stack_select_keeps_every_batch_shape(cp2, index):
    # a mask selects through the indices of its true entries
    stack = GuilleminPotential(cp2).stack(cp2.interior_grid(8, 0.05))
    assert stack.size == 15
    selected = stack.select(np.flatnonzero(index) if getattr(index, "dtype", None) == bool else index)
    arrays, parts = expand(stack), expand(selected)
    count = len(arrays.points[index])
    assert selected._fields == stack._fields
    assert selected.size == count
    for name, full, part in zip(arrays._fields, arrays, parts):
        assert part.shape == (count,) + full.shape[1:], name
        assert np.array_equal(part, full[index]), name

