"""Coefficient sequences on real spheres: quadrature and reconstruction.

With ``u = cos(theta)`` and c_n the normalized dimension-d basis polynomial
(``c_n(1) = 1``; cosines for d = 1), the degree-n coefficient of a function
psi on ``[0, pi]`` is

    b_n = N(d, n) * integral psi(theta) c_n(u) d mu_d(u),

where mu_d is the surface measure of S^d pushed to u, normalized to a
probability measure, and N(d, n) = 1 / integral c_n^2 d mu_d is the
dimension of the degree-n spherical harmonics. The integral is evaluated
with the Gauss-Jacobi rule of mu_d, giving

    b_n = N(d, n) * sum_i w_i psi(theta_i) c_n(u_i).
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .gegenbauer import normalized_gegenbauer_table
from .quadrature import (
    QuadratureResolutionWarning,
    QuadratureRule,
    default_node_count,
    interval_rule,
)
from .sequences import RealSchoenbergSequence

__all__ = ["harmonic_dimension", "compute_real_coeffs", "reconstruct"]

#: total |coefficient| mass above 1 by more than this flags under-resolution
ILL_CONDITION_TOL = 1e-6


def harmonic_dimension(n: int, d: int) -> float:
    """Dimension N(d, n) of the degree-n spherical harmonics on S^d.

    Equals ``(2n + d - 1) (n + d - 2)! / (n! (d - 1)!)``, evaluated through
    log-gamma so large dimensions cannot overflow; N(1, n) is 1 for n = 0
    and 2 otherwise.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    if n == 0:
        return 1.0
    log_value = (
        math.log(2.0 * n + d - 1.0)
        + math.lgamma(n + d - 1.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(float(d))
    )
    return math.exp(log_value)


def _rule_for(d: int, truncation: int, rule: QuadratureRule | None) -> QuadratureRule:
    if rule is None:
        return interval_rule(d, default_node_count(truncation))
    if rule.nodes.ndim != 1:
        raise ValueError("real-sphere coefficients need an interval rule")
    # the weights carry the measure of S^d, whose second moment is 1/(d+1);
    # a rule built for another dimension would give plausible wrong numbers
    if abs(float(rule.weights @ rule.nodes**2) - 1.0 / (d + 1.0)) > 1e-12:
        raise ValueError(f"rule does not fit S^{d}; build it with interval_rule({d}, K), K >= 2")
    return rule


def _project_values(values: np.ndarray, d: int, truncation: int, rule: QuadratureRule) -> np.ndarray:
    """Coefficient vectors for function samples taken on the rule's nodes.

    ``values`` has shape ``(..., K)`` with K the node count; one coefficient
    array of length ``truncation + 1`` is produced per leading row.
    """
    scale = np.array([harmonic_dimension(n, d) for n in range(truncation + 1)])
    basis = normalized_gegenbauer_table(truncation, d, rule.nodes)
    return scale * ((np.asarray(values, dtype=float) * rule.weights) @ basis.T)


def compute_real_coeffs(
    psi,
    d: int,
    truncation: int,
    rule: QuadratureRule | None = None,
) -> RealSchoenbergSequence:
    """Coefficient sequence of ``psi`` at dimension d, degrees 0..truncation.

    ``psi`` is either an IsotropicFunction or a plain vectorized callable on
    ``[0, pi]``. A given ``rule`` must come from ``interval_rule(d, K)``.
    The default rule has ``max(128, 2 * truncation + 32)`` nodes, ample
    for the polynomial integrands arising from truncated expansions and for
    analytic inputs. Emits QuadratureResolutionWarning when the computed
    absolute mass exceeds 1 beyond roundoff, the telltale sign of an
    under-resolved rule.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    fn = getattr(psi, "eval", psi)
    rule = _rule_for(d, truncation, rule)
    coeffs = _project_values(fn(np.arccos(rule.nodes)), d, truncation, rule)
    if np.abs(coeffs).sum() > 1.0 + ILL_CONDITION_TOL:
        warnings.warn(
            f"absolute coefficient mass {np.abs(coeffs).sum():.6g} exceeds 1; "
            "the quadrature rule looks under-resolved",
            QuadratureResolutionWarning,
            stacklevel=2,
        )
    return RealSchoenbergSequence(d, coeffs)


def reconstruct(seq: RealSchoenbergSequence, theta):
    """Evaluate the truncated expansion of ``seq`` at angle(s) theta."""
    scalar = np.ndim(theta) == 0
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    outside = ~((theta >= -1e-12) & (theta <= math.pi + 1e-12))
    if np.any(outside):
        raise ValueError(f"theta must lie in [0, pi], got {theta[outside][0]}")
    basis = normalized_gegenbauer_table(seq.truncation, seq.d, np.cos(theta))
    out = seq.coeffs @ basis
    return float(out[0]) if scalar else out
