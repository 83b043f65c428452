"""Built-in function library and thin wrappers for user functions.

Every family here has an independent oracle, which is what makes it useful
for testing: the constant and cosine functions have one-entry expansions in
every dimension, the normalized Poisson kernel has the closed-form cosine
series b_0 = (1-r)/(1+r), b_n = 2 r^n (1-r)/(1+r) on the circle, mixtures
are built from a coefficient sequence that is known by construction, and
disk monomials expand through low bi-degrees only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complex_coeffs import reconstruct_complex
from .quadrature import _integer, _real
from .real_coeffs import reconstruct
from .sequences import ComplexSchoenbergSequence, RealSchoenbergSequence

__all__ = [
    "IsotropicFunction",
    "DiskFunction",
    "constant_isotropic",
    "cosine_isotropic",
    "poisson_isotropic",
    "poisson_circle_coeffs",
    "random_real_sequence",
    "isotropic_from_sequence",
    "gegenbauer_mixture",
    "disk_constant",
    "disk_monomial",
    "random_complex_sequence",
    "disk_from_sequence",
    "disk_mixture",
    "make_isotropic",
    "make_disk",
]

NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class _NormalizedFunction:
    """A labelled callable whose value at ``_POINT`` must be one number, of a dtype
    that casts safely to ``_CAST``, within ``NORMALIZATION_TOL`` of 1 (so not NaN)."""

    label: str
    eval: Callable

    def __post_init__(self):
        value = self.eval(np.array(self._CAST(self._POINT)))
        array = np.asarray(value)
        if array.ndim == 0 and np.can_cast(array.dtype, self._CAST):
            value = self._CAST(array)
            if abs(value - 1.0) <= NORMALIZATION_TOL:
                return
        raise ValueError(f"{self.label!r} evaluates to {value!r} at {self._POINT}, expected 1")

    def __call__(self, x):
        return self.eval(x)


class IsotropicFunction(_NormalizedFunction):
    """Real-valued function on [0, pi] normalized to 1 at 0.

    ``eval`` must accept numpy arrays of angles. Construction verifies the
    normalization, which every positive definite candidate must satisfy.
    """

    _POINT, _CAST = "0", float


class DiskFunction(_NormalizedFunction):
    """Complex-valued function on the closed unit disk normalized to 1 at 1."""

    _POINT, _CAST = "1", complex


def constant_isotropic() -> IsotropicFunction:
    return IsotropicFunction("constant", lambda theta: np.ones_like(np.asarray(theta, dtype=float)))


def cosine_isotropic() -> IsotropicFunction:
    return IsotropicFunction("cosine", np.cos)


def poisson_isotropic(r: float) -> IsotropicFunction:
    """Poisson kernel with parameter r in (0, 1), scaled to equal 1 at 0."""
    r = _real("r", r, above=0, below=1)

    def values(theta):
        theta = np.asarray(theta, dtype=float)
        return ((1.0 - r) / (1.0 + r)) * (1.0 - r * r) / (
            1.0 - 2.0 * r * np.cos(theta) + r * r
        )

    return IsotropicFunction(f"poisson(r={r})", values)


def poisson_circle_coeffs(r: float, truncation: int) -> RealSchoenbergSequence:
    """Closed-form circle coefficients of the normalized Poisson kernel."""
    r, truncation = _real("r", r, above=0, below=1), _integer("truncation", truncation, 0)
    scale = (1.0 - r) / (1.0 + r)
    coeffs = np.empty(truncation + 1)
    coeffs[0] = scale
    coeffs[1:] = 2.0 * scale * r ** np.arange(1, truncation + 1)
    return RealSchoenbergSequence(1, coeffs)


def random_real_sequence(
    d: int, truncation: int, seed: int, pad: int = 0
) -> RealSchoenbergSequence:
    """Random nonnegative normalized sequence at dimension d.

    ``pad`` appends that many zero entries past the support, handy before a
    forward walk (whose truncation shrinks by 2).
    """
    truncation, pad = _integer("truncation", truncation, 0), _integer("pad", pad, 0)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    coeffs = rng.uniform(0.0, 1.0, truncation + 1)
    coeffs /= coeffs.sum()
    if pad:
        coeffs = np.concatenate([coeffs, np.zeros(pad)])
    return RealSchoenbergSequence(d, coeffs)


def isotropic_from_sequence(seq: RealSchoenbergSequence) -> IsotropicFunction:
    """Function realized by a finitely supported sequence, via its expansion."""
    label = f"mixture(d={seq.d}, N={seq.truncation})"
    return IsotropicFunction(label, lambda theta: reconstruct(seq, theta))


def gegenbauer_mixture(d: int, truncation: int, seed: int) -> IsotropicFunction:
    return isotropic_from_sequence(random_real_sequence(d, truncation, seed))


def disk_constant() -> DiskFunction:
    return DiskFunction("constant", lambda z: np.ones_like(np.asarray(z, dtype=complex)))


def disk_monomial(m: int, n: int) -> DiskFunction:
    """The monomial z^m conj(z)^n; equals |z|^2 for (1, 1) and z for (1, 0)."""
    m, n = _integer("m", m, 0), _integer("n", n, 0)

    def values(z):
        z = np.asarray(z, dtype=complex)
        return z**m * np.conj(z) ** n

    return DiskFunction(f"monomial({m},{n})", values)


def random_complex_sequence(
    q: int, max_degree: int, seed: int, n_terms: int = 6
) -> ComplexSchoenbergSequence:
    """Random sparse nonnegative normalized double sequence at parameter q."""
    max_degree, n_terms = _integer("max_degree", max_degree, 0), _integer("n_terms", n_terms, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    pairs = [(m, n) for m in range(max_degree + 1) for n in range(max_degree + 1 - m)]
    chosen = rng.choice(len(pairs), size=min(n_terms, len(pairs)), replace=False)
    weights = rng.uniform(0.1, 1.0, len(chosen))
    weights /= weights.sum()
    entries = {pairs[i]: float(w) for i, w in zip(chosen, weights)}
    return ComplexSchoenbergSequence(q, entries, max_degree)


def disk_from_sequence(seq: ComplexSchoenbergSequence) -> DiskFunction:
    label = f"mixture(q={seq.q}, M={seq.max_degree})"
    return DiskFunction(label, lambda z: reconstruct_complex(seq, z))


def disk_mixture(q: int, max_degree: int, seed: int) -> DiskFunction:
    return disk_from_sequence(random_complex_sequence(q, max_degree, seed))


def make_isotropic(family: str, **params) -> IsotropicFunction:
    """Build a real-sphere function from a family name and parameters."""
    if family == "constant":
        return constant_isotropic()
    if family == "cosine":
        return cosine_isotropic()
    if family == "poisson":
        return poisson_isotropic(_require(params, "r"))
    if family == "gegenbauer-mixture":
        return gegenbauer_mixture(
            _require(params, "d"), _require(params, "truncation"), _require(params, "seed")
        )
    raise ValueError(f"unknown real-sphere family {family!r}")


def make_disk(family: str, **params) -> DiskFunction:
    """Build a disk function from a family name and parameters."""
    if family == "constant":
        return disk_constant()
    if family == "disk-monomial":
        return disk_monomial(_require(params, "m"), _require(params, "n"))
    if family == "disk-mixture":
        return disk_mixture(
            _require(params, "q"), _require(params, "max_degree"), _require(params, "seed")
        )
    raise ValueError(f"unknown disk family {family!r}")


def _require(params: dict, name: str):
    if name not in params or params[name] is None:
        raise ValueError(f"family parameter {name!r} is required")
    return params[name]
