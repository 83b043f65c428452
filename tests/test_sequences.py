import json
import re
from collections.abc import Mapping

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
    support_pattern,
    walk_up_complex,
)
from schoenberg.sequences import _Entries, _mass_flags

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


def test_complex_index_sums_never_wrap():
    # 2**62 + 2**62 wraps to -2**63 in int64
    with pytest.raises(ValueError, match="exceeds max_degree 3"):
        ComplexSchoenbergSequence(2, {(2**62, 2**62): 0.5}, 3)
    seq = ComplexSchoenbergSequence(3, {(2**62, 2**62): 0.5, (0, 0): 0.5}, 2**63 + 2)
    assert loads_sequence(seq.dumps()).entries == {(2**62, 2**62): 0.5, (0, 0): 0.5}
    top = 2**62 - 1
    assert set(walk_up_complex(seq).entries) == {(0, 0), (top, top), (top + 1, top + 1)}


def test_complex_entries_are_read_only():
    seq = ComplexSchoenbergSequence(3, {(1, 0): 0.5, (0, 1): 0.5}, 2)
    with pytest.raises(TypeError):
        seq.entries[(2, 0)] = 9.0
    with pytest.raises(TypeError):
        seq.entries[(1, 0)] = float("nan")
    with pytest.raises(TypeError):
        del seq.entries[(1, 0)]
    for array in seq.entries.arrays:
        with pytest.raises(ValueError):
            array[0] = 9
    assert seq.entries == {(0, 1): 0.5, (1, 0): 0.5} and seq.total_mass == 1.0
    assert seq.valid_mass and seq.get(2, 0) == 0.0
    # the mapping reads like the dict it replaces
    assert len(seq.entries) == 2 and (1, 0) in seq.entries and (2, 0) not in seq.entries
    assert dict(seq.entries.items()) == {(1, 0): 0.5, (0, 1): 0.5}
    assert seq.entries.get((2, 0)) is None and seq.entries[(0, 1)] == 0.5
    assert all(type(i) is int for key in seq.entries for i in key)
    assert all(type(v) is float for v in seq.entries.values())
    # another sequence's entries build an equal sequence
    assert ComplexSchoenbergSequence(3, seq.entries, 4).entries == seq.entries


class PairList(Mapping):
    """A mapping over a list of (key, value) pairs, which may repeat a key."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return next(v for k, v in self.pairs if k == key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def test_complex_duplicate_bi_degrees_are_refused():
    both = ((1, 0), (1.0, 0.0))
    with pytest.raises(ValueError, match=re.escape("duplicate index pair (1, 0)")):
        ComplexSchoenbergSequence(3, PairList(list(zip(both, (0.5, 0.25)))), 2)
    # arrays carry the same pair twice, even where one of the values is 0
    for values in ([0.5, 0.25, 0.25], [0.5, 0.0, 0.5]):
        arrays = _Entries(np.array([0, 2, 2]), np.array([0, 1, 1]), np.array(values))
        with pytest.raises(ValueError, match=re.escape("duplicate index pair (2, 1)")):
            ComplexSchoenbergSequence(3, arrays, 3)
    huge = np.array([2**70, 0, 2**70], dtype=object)
    arrays = _Entries(huge, np.array([0, 0, 0], dtype=object), np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError, match=re.escape(f"duplicate index pair ({2**70}, 0)")):
        ComplexSchoenbergSequence(3, arrays, 2**70)


def test_complex_get_refuses_what_the_constructor_refuses():
    seq = ComplexSchoenbergSequence(3, {(1, 0): 0.5, (0, 0): 0.5}, 2)
    for bad in ((True, 0), (0, np.True_), (1.5, 0), ("1", 0)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            seq.get(*bad)
    assert seq.get(1.0, np.int64(0)) == 0.5 and seq.get(0, 1) == 0.0


def test_complex_support_threshold_is_checked():
    seq = ComplexSchoenbergSequence(3, {(1, 0): 0.5, (0, 0): 0.75, (2, 0): -0.25}, 2)
    for method in (seq.support, seq.diagonals):
        for bad in (float("nan"), np.nan, None, "0.1"):
            with pytest.raises(
                ValueError, match=f"^threshold must be a real number, got {re.escape(repr(bad))}$"
            ):
                method(bad)
    assert seq.support() == {(1, 0), (0, 0)} and seq.support(0.6) == {(0, 0)}
    assert seq.diagonals(-np.inf) == {0, 1, 2} and seq.diagonals(np.inf) == set()
    with pytest.raises(ValueError, match="^threshold must be a real number, got nan$"):
        support_pattern(ComplexSchoenbergSequence(3, {(0, 0): 1.0}, 2), float("nan"))


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


# small indices, and indices at and past the int64 range
wire_index = st.one_of(st.integers(0, 12), st.integers(2**63 - 2, 2**64 + 2))


@seed(202)
@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(wire_index, wire_index),
        st.one_of(finite_floats, st.just(0.0)),
        max_size=10,
    ),
    st.integers(2, 8),
    st.data(),
)
def test_complex_wire_form_is_canonical(entries, q, data):
    max_degree = max((m + n for m, n in entries), default=0) + 2
    seq = ComplexSchoenbergSequence(q, entries, max_degree)
    text = seq.dumps()
    assert loads_sequence(text).dumps() == text
    # the same entries in any order, as a dict or as arrays, give the same sequence
    items = data.draw(st.permutations(list(entries.items())))
    assert ComplexSchoenbergSequence(q, dict(items), max_degree).to_dict() == seq.to_dict()
    arrays = _Entries(
        np.array([m for (m, _), _ in items], dtype=object),
        np.array([n for (_, n), _ in items], dtype=object),
        np.array([value for _, value in items], dtype=float),
    )
    assert ComplexSchoenbergSequence(q, arrays, max_degree).to_dict() == seq.to_dict()


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


# an integer past the float range, which Python's json reads exactly
HUGE = "1" * 400


def test_integer_past_float_range_is_not_finite():
    for field, text in (
        ("coeffs", '{"space": "real", "d": 2, "truncation": 1, '
                   f'"coeffs": [0.5, {HUGE}], "valid_mass": false}}'),
        ("entries", '{"space": "complex", "q": 2, "max_degree": 2, '
                    f'"entries": [[0, 0, 0.5], [1, 0, {HUGE}]], "valid_mass": false}}'),
    ):
        with pytest.raises(SequenceFormatError, match="item 1 is not finite") as err:
            loads_sequence(text)
        assert err.value.field == field


@pytest.mark.parametrize("index", ["1e400", "Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("entry", ["[{}, 0, 0.25]", "[0, {}, 0.25]"])
def test_non_finite_indices_are_non_integer(index, entry):
    # Python's json reads all four, as floats that no integer equals
    text = (
        '{"space": "complex", "q": 2, "max_degree": 2, '
        f'"entries": [[0, 0, 0.5], {entry.format(index)}], "valid_mass": true}}'
    )
    with pytest.raises(SequenceFormatError, match="item 1 has non-integer indices") as err:
        loads_sequence(text)
    assert err.value.field == "entries"


def test_valid_mass_cannot_be_passed():
    # a flag passed in could contradict the data, and dumps would write what loads refuses
    for build in (
        lambda: RealSchoenbergSequence(2, [7.0, -2.0], True),
        lambda: RealSchoenbergSequence(2, [7.0, -2.0], valid_mass=True),
        lambda: ComplexSchoenbergSequence(2, {(0, 0): 5.0, (1, 0): -3.0}, 2, True),
        lambda: ComplexSchoenbergSequence(2, {(0, 0): 5.0, (1, 0): -3.0}, 2, valid_mass=True),
    ):
        with pytest.raises(TypeError):
            build()
    real = RealSchoenbergSequence(2, [7.0, -2.0])
    assert not real.valid_mass
    with pytest.raises(SequenceValidityError):
        loads_sequence(real.dumps().replace("false", "true"))
    heavy = ComplexSchoenbergSequence(2, {(0, 0): 5.0, (1, 0): -3.0}, 2)
    assert not heavy.valid_mass
    with pytest.raises(ValueError, match="mass-valid"):
        support_pattern(heavy)


@seed(203)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_valid_mass_is_the_mass_check_of_the_data(values):
    real = RealSchoenbergSequence(3, values)
    assert real.valid_mass == _mass_flags(np.array(values))
    entries = {(i, 0): value for i, value in enumerate(values)}
    cplx = ComplexSchoenbergSequence(3, entries, len(values) + 2)
    assert cplx.valid_mass == _mass_flags(np.array(values))
    up = walk_up_complex(cplx)
    assert up.valid_mass == _mass_flags(up.entries.arrays.values)
