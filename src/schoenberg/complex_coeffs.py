"""Double-indexed coefficient sequences of functions on the unit disk.

The (m, n) coefficient of a function phi with respect to the sphere
parameter q is

    a_{m,n} = h(m, n, q) * integral phi(z) conj(R_{m,n}(z)) d nu(z),

evaluated with the disk product rule. Coefficients of positive definite
functions are real and nonnegative; the imaginary residue the quadrature
leaves behind is tracked as a diagnostic rather than silently dropped,
since a large residue means either a genuinely complex expansion or an
under-resolved rule.
"""
from __future__ import annotations

import warnings

import numpy as np

from .disk_polys import disk_poly_eval, disk_rule_sized, h_norm
from .quadrature import QuadratureResolutionWarning, QuadratureRule
from .sequences import ComplexSchoenbergSequence

__all__ = ["compute_complex_coeffs", "reconstruct_complex"]

ILL_CONDITION_TOL = 1e-6


def compute_complex_coeffs(
    phi,
    q: int,
    max_degree: int,
    rule: QuadratureRule | None = None,
) -> ComplexSchoenbergSequence:
    """Coefficients of ``phi`` at sphere parameter q, all m + n <= max_degree.

    ``phi`` is a DiskFunction or a plain vectorized callable on complex
    points of the closed unit disk. The returned sequence stores the real
    parts; the largest dropped imaginary magnitude is available as the
    ``max_imag`` attribute of the result.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    fn = getattr(phi, "eval", phi)
    if rule is None:
        rule = disk_rule_sized(q, max_degree)
    z = rule.complex_nodes
    weighted = rule.weights * np.asarray(fn(z), dtype=complex)
    entries = {}
    max_imag = 0.0
    abs_mass = 0.0
    for m in range(max_degree + 1):
        for n in range(max_degree + 1 - m):
            inner = np.sum(weighted * np.conj(disk_poly_eval(m, n, q - 2, z)))
            a = h_norm(m, n, q) * inner
            max_imag = max(max_imag, abs(float(a.imag)))
            abs_mass += abs(float(a.real))
            entries[(m, n)] = float(a.real)
    if abs_mass > 1.0 + ILL_CONDITION_TOL:
        warnings.warn(
            f"absolute coefficient mass {abs_mass:.6g} exceeds 1; "
            "the quadrature rule looks under-resolved",
            QuadratureResolutionWarning,
            stacklevel=2,
        )
    return ComplexSchoenbergSequence(q, entries, max_degree, max_imag=max_imag)


def reconstruct_complex(seq: ComplexSchoenbergSequence, z):
    """Evaluate the truncated disk expansion of ``seq`` at point(s) z."""
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.zeros_like(z)
    for (m, n), a in seq.entries.items():
        out += a * disk_poly_eval(m, n, seq.q - 2, z)
    return complex(out[0]) if scalar else out
