"""Coefficient sequence containers and their JSON wire formats.

A sequence flagged ``valid_mass`` is one whose entries pass the probability
mass checks (no entry below -1e-12, total at most 1 + 1e-10). Dimension
walks can legitimately produce sequences that fail these checks, because
the positive definiteness classes shrink as the dimension grows; such
sequences carry ``valid_mass=False`` and stay fully usable as data.

Wire formats:

* real:     {"space": "real", "d": int, "truncation": int,
             "coeffs": [float, ...], "valid_mass": bool}
* complex:  {"space": "complex", "q": int, "max_degree": int,
             "entries": [[m, n, value], ...], "valid_mass": bool}

Floats are written with ``repr`` (shortest round-trip decimal), so dumping
and re-loading is lossless.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .quadrature import _integer

__all__ = [
    "MASS_TOL",
    "NEG_TOL",
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


class SequenceFormatError(ValueError):
    """Malformed sequence JSON; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{message} (field '{field_name}')")


class SequenceValidityError(ValueError):
    """Sequence data contradicts its declared validity flag."""


def _mass_flags(values, total) -> bool:
    return bool(np.all(np.asarray(values) >= -NEG_TOL) and total <= 1.0 + MASS_TOL)


class _Entries(NamedTuple):
    """Entries as parallel arrays: bi-degrees ``m``, ``n`` and their values.

    Sequences the package builds from arrays pass this as ``entries``, so the
    constructor checks them as arrays; a user's dict is first converted.
    """

    m: np.ndarray
    n: np.ndarray
    values: np.ndarray


def _is_index(x) -> bool:
    """An integer, or a float with an integer value; never a boolean."""
    if isinstance(x, int):
        return not isinstance(x, bool)
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, numbers.Integral)


def _index_arrays(keys) -> tuple:
    """Arrays m and n of a collection of (m, n) integer pairs.

    Indices past the int64 range stay Python integers in object arrays, so
    they keep their exact values.
    """
    try:
        index = np.fromiter(itertools.chain.from_iterable(keys), int, 2 * len(keys))
    except OverflowError:
        index = np.array(list(keys), dtype=object)
    return tuple(index.reshape(-1, 2).T)


def _entry_arrays(entries: dict) -> _Entries:
    """A {(m, n): value} dict as arrays, refusing keys that are not integer pairs."""
    keys = []
    for key in entries:
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_index, key))):
            raise ValueError(f"bi-degree {key!r} is not a pair of integers")
        keys.append((int(key[0]), int(key[1])))
    return _Entries(*_index_arrays(keys), np.array([float(v) for v in entries.values()]))


def _diagonal_entries(seq: ComplexSchoenbergSequence):
    """The entries as arrays (l, k, values), sorted by diagonal l = m - n, then k = min(m, n)."""
    m, n = _index_arrays(seq.entries)
    values = np.fromiter(seq.entries.values(), float, len(seq.entries))
    diagonal, k = m - n, np.minimum(m, n)
    order = np.lexsort((k, diagonal))
    return diagonal[order], k[order], values[order]


@dataclass(frozen=True, eq=False)
class RealSchoenbergSequence:
    """Truncated coefficient sequence of an expansion on the real sphere S^d.

    ``coeffs[n]`` multiplies the degree-n normalized basis polynomial for
    dimension ``d``; ``tail_bound`` is a diagnostic attached by the inverse
    dimension walk when the input looked truncated mid-decay (it is not
    serialized).
    """

    d: int
    coeffs: np.ndarray
    valid_mass: bool | None = None
    tail_bound: float = field(default=0.0, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "d", _integer("d", self.d))
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        coeffs = np.array(self.coeffs, dtype=float, copy=True)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if self.valid_mass is None:
            object.__setattr__(self, "valid_mass", _mass_flags(coeffs, coeffs.sum()))

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @property
    def total_mass(self) -> float:
        return float(self.coeffs.sum())

    def to_dict(self) -> dict:
        return {
            "space": "real",
            "d": int(self.d),
            "truncation": int(self.truncation),
            "coeffs": [float(c) for c in self.coeffs],
            "valid_mass": bool(self.valid_mass),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "RealSchoenbergSequence":
        _expect(data, "space", str)
        if data["space"] != "real":
            raise SequenceFormatError("space", f"expected 'real', got {data['space']!r}")
        d = _expect(data, "d", int)
        if d < 1:
            raise SequenceFormatError("d", "dimension must be >= 1")
        coeffs = _expect(data, "coeffs", list)
        values = _finite_floats(coeffs, "coeffs")
        truncation = _expect(data, "truncation", int)
        if truncation != len(values) - 1:
            raise SequenceFormatError(
                "truncation", f"value {truncation} inconsistent with {len(values)} coeffs"
            )
        declared = _expect(data, "valid_mass", bool)
        seq = cls(d, np.asarray(values))
        if declared and not seq.valid_mass:
            raise SequenceValidityError(
                "sequence declared valid_mass=true but fails the mass/negativity checks"
            )
        return seq


@dataclass(frozen=True, eq=False)
class ComplexSchoenbergSequence:
    """Sparse double-indexed coefficient sequence on the complex sphere.

    ``entries`` maps bi-degree ``(m, n)`` to a real coefficient; indices are
    restricted to ``m + n <= max_degree``. ``q`` fixes the sphere (points in
    C^q) and hence the disk-polynomial parameter ``q - 2``. An index is an
    integer or an integral float, as in the wire format; any other key,
    booleans included, is refused by name.
    """

    q: int
    entries: dict
    max_degree: int
    valid_mass: bool | None = None
    tail_bound: float = field(default=0.0, compare=False, repr=False)
    max_imag: float = field(default=0.0, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "q", _integer("q", self.q))
        if self.q < 2:
            raise ValueError("q must be >= 2")
        object.__setattr__(self, "max_degree", _integer("max_degree", self.max_degree))
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        entries = self.entries
        m, n, values = entries if isinstance(entries, _Entries) else _entry_arrays(entries)
        for bad, what in (
            ((m < 0) | (n < 0), "has a negative index"),
            (m + n > self.max_degree, f"exceeds max_degree {self.max_degree}"),
            (~np.isfinite(values), "is not finite"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"entry ({m[i]}, {n[i]}) {what}")
        keep = values != 0.0
        kept = values[keep].tolist()
        object.__setattr__(
            self, "entries", dict(zip(zip(m[keep].tolist(), n[keep].tolist()), kept))
        )
        if self.valid_mass is None:
            object.__setattr__(self, "valid_mass", _mass_flags(values[keep], sum(kept)))

    @property
    def total_mass(self) -> float:
        return float(sum(self.entries.values()))

    def get(self, m: int, n: int) -> float:
        return self.entries.get((m, n), 0.0)

    def support(self, threshold: float = 0.0):
        """Index pairs whose coefficient exceeds ``threshold``."""
        return {key for key, value in self.entries.items() if value > threshold}

    def diagonals(self, threshold: float = 0.0):
        """Values of m - n present in the support."""
        return {m - n for (m, n) in self.support(threshold)}

    def to_dict(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "space": "complex",
            "q": int(self.q),
            "max_degree": int(self.max_degree),
            "entries": [[int(m), int(n), float(v)] for (m, n), v in items],
            "valid_mass": bool(self.valid_mass),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "ComplexSchoenbergSequence":
        _expect(data, "space", str)
        if data["space"] != "complex":
            raise SequenceFormatError(
                "space", f"expected 'complex', got {data['space']!r}"
            )
        q = _expect(data, "q", int)
        if q < 2:
            raise SequenceFormatError("q", "q must be >= 2")
        max_degree = _expect(data, "max_degree", int)
        raw = _expect(data, "entries", list)
        entries = {}
        for i, triple in enumerate(raw):
            if (
                not isinstance(triple, (list, tuple))
                or len(triple) != 3
                or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in triple
                )
            ):
                raise SequenceFormatError(
                    "entries", f"item {i} is not an [m, n, value] triple"
                )
            m, n, value = triple
            if int(m) != m or int(n) != n:
                raise SequenceFormatError("entries", f"item {i} has non-integer indices")
            if not math.isfinite(float(value)):
                raise SequenceFormatError("entries", f"item {i} has a non-finite value")
            key = (int(m), int(n))
            if key in entries:
                raise SequenceFormatError("entries", f"duplicate index pair {key}")
            entries[key] = float(value)
        declared = _expect(data, "valid_mass", bool)
        try:
            seq = cls(q, entries, max_degree)
        except ValueError as exc:
            raise SequenceFormatError("entries", str(exc)) from exc
        if declared and not seq.valid_mass:
            raise SequenceValidityError(
                "sequence declared valid_mass=true but fails the mass/negativity checks"
            )
        return seq


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


def _finite_floats(values, field_name: str):
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SequenceFormatError(field_name, f"item {i} is not a number")
        v = float(v)
        if not math.isfinite(v):
            raise SequenceFormatError(field_name, f"item {i} is not finite")
        out.append(v)
    if not out:
        raise SequenceFormatError(field_name, "must not be empty")
    return out


def loads_sequence(text: str):
    """Parse either wire format, dispatching on the ``space`` field."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SequenceFormatError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SequenceFormatError("<document>", "top level must be an object")
    space = data.get("space")
    if space == "real":
        return RealSchoenbergSequence.from_dict(data)
    if space == "complex":
        return ComplexSchoenbergSequence.from_dict(data)
    raise SequenceFormatError("space", f"expected 'real' or 'complex', got {space!r}")


def load_sequence(path):
    """Load a sequence of either kind from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_sequence(fh.read())
