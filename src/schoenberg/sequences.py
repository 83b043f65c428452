"""Coefficient sequence containers and their JSON wire formats.

A sequence's ``valid_mass`` flag is computed from its entries, never passed
in: it says whether they pass the probability mass checks (no entry below
-1e-12, total at most 1 + 1e-10). Dimension walks can legitimately produce
sequences that fail these checks, because the positive definiteness classes
shrink as the dimension grows; such sequences carry ``valid_mass=False`` and
stay fully usable as data. A file's declared flag is held to the computed one.

Wire formats:

* real:     {"space": "real", "d": int, "truncation": int,
             "coeffs": [float, ...], "valid_mass": bool}
* complex:  {"space": "complex", "q": int, "max_degree": int,
             "entries": [[m, n, value], ...], "valid_mass": bool}

Floats are written with ``repr`` (shortest round-trip decimal), so dumping
and re-loading is lossless.

A complex sequence keeps its entries as arrays sorted by diagonal m - n and
then min(m, n), the order the walks, transforms and progression test read;
the constructor sorts once, from a mapping or arrays alike.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .quadrature import _integer, _real

__all__ = [
    "MASS_TOL",
    "NEG_TOL",
    "TAIL_TOL",
    "ComplexSchoenbergSequence",
    "RealSchoenbergSequence",
    "SequenceFormatError",
    "SequenceValidityError",
    "load_sequence",
    "loads_sequence",
]

#: tolerance absorbing roundoff when certifying nonnegativity
NEG_TOL = 1e-12
#: tolerance on the total mass bound
MASS_TOL = 1e-10
#: floor below which an inverse walk's boundary entries count as decayed
TAIL_TOL = 1e-12


class SequenceFormatError(ValueError):
    """Malformed sequence JSON; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{message} (field '{field_name}')")


class SequenceValidityError(ValueError):
    """Sequence data contradicts its declared validity flag."""


def _mass_flags(values: np.ndarray) -> bool:
    return bool(np.all(values >= -NEG_TOL) and values.sum() <= 1.0 + MASS_TOL)


def _tail_bound(boundary: np.ndarray) -> float:
    """An inverse walk's ``tail_bound``: the largest magnitude among its input's
    boundary entries, or 0 if none exceeds ``TAIL_TOL``."""
    worst = float(np.abs(boundary).max(initial=0.0))
    return worst if worst > TAIL_TOL else 0.0


class _Entries(NamedTuple):
    """Entries as parallel arrays: bi-degrees ``m``, ``n`` and their values.

    A sequence keeps its entries so, sorted by diagonal l = m - n and then
    k = min(m, n), zeros dropped; the transforms pass theirs, in any order, to
    the constructor so. Indices from 2**62 up are Python integers in object
    arrays, so they and the sum of any two stay exact.
    """

    m: np.ndarray
    n: np.ndarray
    values: np.ndarray


class _EntryMap(Mapping):
    """A sequence's sorted ``arrays`` as a read-only {(m, n): value} mapping;
    the dict it reads, with Python int keys and float values, is built on first use."""

    def __init__(self, arrays: _Entries):
        self.arrays = arrays

    @functools.cached_property
    def _dict(self) -> dict:
        m, n, values = self.arrays
        return dict(zip(zip(m.tolist(), n.tolist()), values.tolist()))

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self.arrays.values)

    def __repr__(self) -> str:
        return repr(self._dict)


def _is_index(x) -> bool:
    """An integer, or a float with an integer value; never a boolean."""
    if isinstance(x, int):
        return not isinstance(x, bool)
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, numbers.Integral)


def _check_pair(key) -> tuple:
    """An (m, n) key, refused by name unless it is a pair of integers."""
    if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_index, key))):
        raise ValueError(f"bi-degree {key!r} is not a pair of integers")
    return key


class _Sequence:
    """The writers both sequence types share; each type's ``SPACE`` names its wire format."""

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")


@dataclass(frozen=True, eq=False)
class RealSchoenbergSequence(_Sequence):
    """Truncated coefficient sequence of an expansion on the real sphere S^d.

    ``coeffs[n]`` multiplies the degree-n normalized basis polynomial for
    dimension ``d``; ``valid_mass`` is computed from them; ``tail_bound`` is a
    diagnostic attached by the inverse dimension walk when the input looked
    truncated mid-decay (it is not serialized).
    """

    SPACE = "real"

    d: int
    coeffs: np.ndarray
    valid_mass: bool = field(init=False)
    tail_bound: float = field(default=0.0, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "d", _integer("d", self.d, 1))
        coeffs = np.array(self.coeffs, dtype=float, copy=True)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "valid_mass", _mass_flags(coeffs))

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @property
    def total_mass(self) -> float:
        return float(self.coeffs.sum())

    def to_dict(self) -> dict:
        return {
            "space": self.SPACE,
            "d": int(self.d),
            "truncation": int(self.truncation),
            "coeffs": [float(c) for c in self.coeffs],
            "valid_mass": bool(self.valid_mass),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RealSchoenbergSequence":
        _expect_space(data, cls.SPACE)
        d = _expect(data, "d", int)
        if d < 1:
            raise SequenceFormatError("d", "dimension must be >= 1")
        values = [_finite(v, "coeffs", i) for i, v in enumerate(_expect(data, "coeffs", list))]
        if not values:
            raise SequenceFormatError("coeffs", "must not be empty")
        truncation = _expect(data, "truncation", int)
        if truncation != len(values) - 1:
            raise SequenceFormatError(
                "truncation", f"value {truncation} inconsistent with {len(values)} coeffs"
            )
        declared = _expect(data, "valid_mass", bool)
        return _held_to(declared, cls(d, np.asarray(values)))


@dataclass(frozen=True, eq=False)
class ComplexSchoenbergSequence(_Sequence):
    """Sparse double-indexed coefficient sequence on the complex sphere.

    ``entries`` maps bi-degree ``(m, n)`` to a real coefficient; indices are
    restricted to ``m + n <= max_degree``. ``q`` fixes the sphere (points in
    C^q) and hence the disk-polynomial parameter ``q - 2``. An index is an
    integer or an integral float, as in the wire format; any other key,
    booleans included, is refused by name, and so is a bi-degree given
    twice. The sequence keeps its entries as arrays sorted by diagonal and
    then k (``_Entries``); its ``entries`` attribute is a read-only mapping
    over them, and ``valid_mass`` is computed from them.
    """

    SPACE = "complex"

    q: int
    entries: Mapping
    max_degree: int
    valid_mass: bool = field(init=False)
    tail_bound: float = field(default=0.0, compare=False, repr=False, kw_only=True)
    max_imag: float = field(default=0.0, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "q", _integer("q", self.q, 2))
        object.__setattr__(self, "max_degree", _integer("max_degree", self.max_degree, 0))
        entries = self.entries.arrays if isinstance(self.entries, _EntryMap) else self.entries
        if not isinstance(entries, _Entries):
            keys = [_check_pair(key) for key in entries]
            values = [float(v) for v in entries.values()]
            entries = _Entries([int(m) for m, _ in keys], [int(n) for _, n in keys], values)
        m, n, values = entries
        if not isinstance(m, np.ndarray):
            try:
                m, n = np.fromiter(itertools.chain(m, n), np.int64, 2 * len(m)).reshape(2, -1)
            except OverflowError:
                m, n = np.array([m, n], dtype=object)
        if m.dtype != object and (np.maximum(m, n) >= 2**62).any():
            m, n = m.astype(object), n.astype(object)  # m + n could wrap in int64
        values = np.asarray(values, dtype=float)
        diagonal, k = m - n, np.minimum(m, n)
        for bad, what in (
            (k < 0, "has a negative index"),
            (m + n > self.max_degree, f"exceeds max_degree {self.max_degree}"),
            (~np.isfinite(values), "is not finite"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"entry ({m[i]}, {n[i]}) {what}")
        # sorted, a pair given twice sits next to itself; zeros are dropped only
        # after this check, so a repeat is refused whatever its values
        order = np.lexsort((k, diagonal))
        diagonal, k = diagonal[order], k[order]
        twice = (diagonal[1:] == diagonal[:-1]) & (k[1:] == k[:-1])
        if twice.any():
            i = order[np.argmax(twice)]
            raise ValueError(f"duplicate index pair ({m[i]}, {n[i]})")
        order = order[values[order] != 0.0]
        arrays = _Entries(m[order], n[order], values[order])
        for array in arrays:
            array.flags.writeable = False
        object.__setattr__(self, "entries", _EntryMap(arrays))
        object.__setattr__(self, "valid_mass", _mass_flags(arrays.values))

    @property
    def total_mass(self) -> float:
        return float(self.entries.arrays.values.sum())

    def get(self, m: int, n: int) -> float:
        return self.entries.get(_check_pair((m, n)), 0.0)

    def support(self, threshold: float = 0.0):
        """Index pairs whose coefficient exceeds ``threshold``."""
        m, n, values = self.entries.arrays
        above = values > _real("threshold", threshold)
        return set(zip(m[above].tolist(), n[above].tolist()))

    def diagonals(self, threshold: float = 0.0):
        """Values of m - n present in the support."""
        m, n, values = self.entries.arrays
        above = values > _real("threshold", threshold)
        return set((m[above] - n[above]).tolist())

    def to_dict(self) -> dict:
        m, n, values = self.entries.arrays
        order = np.lexsort((n, m))
        rows = zip(m[order].tolist(), n[order].tolist(), values[order].tolist())
        return {
            "space": self.SPACE,
            "q": int(self.q),
            "max_degree": int(self.max_degree),
            "entries": [list(row) for row in rows],
            "valid_mass": bool(self.valid_mass),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ComplexSchoenbergSequence":
        _expect_space(data, cls.SPACE)
        q = _expect(data, "q", int)
        if q < 2:
            raise SequenceFormatError("q", "q must be >= 2")
        max_degree = _expect(data, "max_degree", int)
        if max_degree < 0:
            raise SequenceFormatError("max_degree", f"max_degree must be >= 0, got {max_degree}")
        m, n, values = [], [], []
        for i, triple in enumerate(_expect(data, "entries", list)):
            if not (isinstance(triple, (list, tuple)) and len(triple) == 3):
                raise SequenceFormatError("entries", f"item {i} is not an [m, n, value] triple")
            row_m, row_n, value = triple
            if not (_is_index(row_m) and _is_index(row_n)):
                raise SequenceFormatError("entries", f"item {i} has non-integer indices")
            values.append(_finite(value, "entries", i))
            m.append(int(row_m))
            n.append(int(row_n))
        declared = _expect(data, "valid_mass", bool)
        try:
            seq = cls(q, _Entries(m, n, values), max_degree)
        except ValueError as exc:
            raise SequenceFormatError("entries", str(exc)) from exc
        return _held_to(declared, seq)


def _expect(data: dict, key: str, typ):
    if key not in data:
        raise SequenceFormatError(key, "missing required field")
    value = data[key]
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SequenceFormatError(key, f"expected an integer, got {value!r}")
    elif typ is bool:
        if not isinstance(value, bool):
            raise SequenceFormatError(key, f"expected a boolean, got {value!r}")
    elif not isinstance(value, typ):
        raise SequenceFormatError(key, f"expected {typ.__name__}, got {value!r}")
    return value


def _expect_space(data: dict, space: str) -> None:
    if _expect(data, "space", str) != space:
        raise SequenceFormatError("space", f"expected {space!r}, got {data['space']!r}")


def _finite(value, field_name: str, i: int) -> float:
    """JSON number ``value``, item ``i`` of ``field_name``, as a finite float;
    a boolean, a non-number or a value past the float range is refused by name."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SequenceFormatError(field_name, f"item {i} is not a number")
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise SequenceFormatError(field_name, f"item {i} is not finite")
    return value


def _held_to(declared: bool, seq):
    """``seq``, unless the file declared it mass-valid and it is not."""
    if declared and not seq.valid_mass:
        raise SequenceValidityError(
            "sequence declared valid_mass=true but fails the mass/negativity checks"
        )
    return seq


def loads_sequence(text: str):
    """Parse either wire format, dispatching on the ``space`` field."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SequenceFormatError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SequenceFormatError("<document>", "top level must be an object")
    space = data.get("space")
    for kind in (RealSchoenbergSequence, ComplexSchoenbergSequence):
        if space == kind.SPACE:
            return kind.from_dict(data)
    raise SequenceFormatError("space", f"expected 'real' or 'complex', got {space!r}")


def load_sequence(path):
    """Load a sequence of either kind from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_sequence(fh.read())
