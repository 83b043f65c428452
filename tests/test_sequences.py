import json
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schoenberg import (
    ComplexSchoenbergSequence,
    RealSchoenbergSequence,
    SequenceFormatError,
    SequenceValidityError,
    loads_sequence,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_real_validity_flag():
    good = RealSchoenbergSequence(2, np.array([0.5, 0.5]))
    assert good.valid_mass
    negative = RealSchoenbergSequence(2, np.array([0.5, -0.1]))
    assert not negative.valid_mass
    heavy = RealSchoenbergSequence(2, np.array([0.9, 0.2]))
    assert not heavy.valid_mass
    # roundoff-scale negativity is tolerated
    assert RealSchoenbergSequence(2, np.array([1.0, -1e-13])).valid_mass


def test_real_json_schema():
    seq = RealSchoenbergSequence(3, np.array([0.25, 0.5, 0.25]))
    data = json.loads(seq.dumps())
    assert data == {
        "space": "real",
        "d": 3,
        "truncation": 2,
        "coeffs": [0.25, 0.5, 0.25],
        "valid_mass": True,
    }


def test_complex_json_schema_sorted_entries():
    seq = ComplexSchoenbergSequence(2, {(1, 0): 0.5, (0, 0): 0.5}, 3)
    data = json.loads(seq.dumps())
    assert data["entries"] == [[0, 0, 0.5], [1, 0, 0.5]]
    assert data["space"] == "complex" and data["q"] == 2 and data["max_degree"] == 3


def test_complex_entry_validation():
    with pytest.raises(ValueError):
        ComplexSchoenbergSequence(2, {(0, 4): 1.0}, 3)
    with pytest.raises(ValueError):
        ComplexSchoenbergSequence(2, {(-1, 0): 1.0}, 3)
    with pytest.raises(ValueError):
        ComplexSchoenbergSequence(1, {(0, 0): 1.0}, 3)
    # exact zeros are pruned from the sparse map
    seq = ComplexSchoenbergSequence(2, {(0, 0): 1.0, (1, 1): 0.0}, 3)
    assert (1, 1) not in seq.entries


def test_complex_keys_must_be_integer_pairs():
    # a non-integer or boolean index is refused by name, never truncated
    for bad in ((1.5, 0), (True, 0), (0, np.True_), ("1", 0), (1, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            ComplexSchoenbergSequence(2, {bad: 0.5, (1, 0): 0.25}, 3)
    # as in the wire format, integral floats and numpy integers are indices
    seq = ComplexSchoenbergSequence(2, {(1.0, np.int64(0)): 0.5}, 3)
    assert [tuple(map(type, key)) for key in seq.entries] == [(int, int)]
    assert seq.entries == {(1, 0): 0.5}


@seed(202)
@settings(max_examples=100, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=30), st.integers(1, 9))
def test_real_json_roundtrip_lossless(coeffs, d):
    seq = RealSchoenbergSequence(d, np.array(coeffs))
    back = loads_sequence(seq.dumps())
    assert back.d == seq.d
    assert back.coeffs.tolist() == seq.coeffs.tolist()
    assert back.valid_mass == seq.valid_mass


@seed(202)
@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        finite_floats,
        min_size=0,
        max_size=10,
    ),
    st.integers(2, 8),
)
def test_complex_json_roundtrip_lossless(entries, q):
    seq = ComplexSchoenbergSequence(q, entries, 12)
    back = loads_sequence(seq.dumps())
    assert back.q == seq.q and back.max_degree == seq.max_degree
    assert back.entries == seq.entries
    assert back.valid_mass == seq.valid_mass


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("coeffs"), "coeffs"),
        (lambda d: d.pop("d"), "d"),
        (lambda d: d.update(truncation=5), "truncation"),
        (lambda d: d.update(space="banana"), "space"),
        (lambda d: d.update(d="two"), "d"),
        (lambda d: d.update(coeffs=[0.5, "x"]), "coeffs"),
        (lambda d: d.update(valid_mass="yes"), "valid_mass"),
    ],
)
def test_malformed_real_json_names_field(mutate, field):
    data = json.loads(RealSchoenbergSequence(2, np.array([0.5, 0.5])).dumps())
    mutate(data)
    with pytest.raises(SequenceFormatError) as err:
        loads_sequence(json.dumps(data))
    assert err.value.field == field
    assert field in str(err.value)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("entries"), "entries"),
        (lambda d: d.update(entries=[[0, 0]]), "entries"),
        (lambda d: d.update(entries=[[0, 0.5, 1.0]]), "entries"),
        (lambda d: d.update(entries=[[0, 0, 0.5], [0, 0, 0.5]]), "entries"),
        (lambda d: d.update(q=1), "q"),
        (lambda d: d.pop("max_degree"), "max_degree"),
    ],
)
def test_malformed_complex_json_names_field(mutate, field):
    data = json.loads(ComplexSchoenbergSequence(2, {(0, 0): 1.0}, 2).dumps())
    mutate(data)
    with pytest.raises(SequenceFormatError) as err:
        loads_sequence(json.dumps(data))
    assert err.value.field == field


def test_declared_validity_contradiction_is_rejected():
    text = json.dumps(
        {
            "space": "real",
            "d": 2,
            "truncation": 1,
            "coeffs": [0.9, -0.5],
            "valid_mass": True,
        }
    )
    with pytest.raises(SequenceValidityError):
        loads_sequence(text)
    # declaring it invalid is fine and the computed flag wins
    seq = loads_sequence(text.replace("true", "false"))
    assert not seq.valid_mass


def test_invalid_top_level_document():
    with pytest.raises(SequenceFormatError):
        loads_sequence("not json")
    with pytest.raises(SequenceFormatError):
        loads_sequence("[1, 2, 3]")
    with pytest.raises(SequenceFormatError):
        loads_sequence('{"space": "quaternion"}')


@pytest.mark.parametrize("entry", [[True, 0, 0.5], [0, False, 0.5], [0, 0, True]])
def test_complex_entries_reject_booleans(entry):
    # JSON true/false are not numbers, as in the real format's coeffs
    data = json.loads(ComplexSchoenbergSequence(2, {(0, 0): 0.5}, 2).dumps())
    data["entries"].append(entry)
    with pytest.raises(SequenceFormatError, match="item 1") as err:
        loads_sequence(json.dumps(data))
    assert err.value.field == "entries"
