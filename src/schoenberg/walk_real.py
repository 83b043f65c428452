"""Dimension walks for real-sphere coefficient sequences.

The forward walk sends the sequence at dimension d to the one at d + 2
through the classical two-term recursion; the inverse walk comes back down
through the series

    b_{n,d} = sum_j w(j, n, d) * b_{n+2j, d+2},

whose weights telescope against the forward recursion. A single product
formula covers every j:

    w(j, n, d) = d (2n + d - 1) * prod_{l<j} (n+2l+1)(n+2l+2)
                 / prod_{l<=j} (n+2l+d-1)(n+2l+d),

computed incrementally as a ratio recurrence (each factor is a ratio in
(0, 1), so the products can never overflow and no log-space fallback is
needed). The pair d = 1 <-> 3 has its own closed forms on both sides.

The general projection d -> d' (any d' < d) evaluates the coefficient
integrals of the dimension-d basis functions at dimension d' and combines
them linearly; it must agree with reconstructing and recomputing, and with
the inverse walk when d' = d - 2.
"""
from __future__ import annotations

import numpy as np

from .quadrature import QuadratureRule
from .real_coeffs import _project_values, _rule_for
from .gegenbauer import normalized_gegenbauer_table
from .sequences import RealSchoenbergSequence

__all__ = [
    "inverse_walk_weight",
    "inverse_walk_weights",
    "walk_up",
    "walk_down",
    "cross_project",
]


def inverse_walk_weight(j: int, n: int, d: int) -> float:
    """Single inverse-walk weight w(j, n, d) for target dimension d >= 2."""
    return inverse_walk_weights(n, d, j)[j]


def inverse_walk_weights(n: int, d: int, j_max: int) -> np.ndarray:
    """Weights w(0..j_max, n, d), by the stable ratio recurrence."""
    if d < 2:
        raise ValueError("inverse-walk weights are defined for target d >= 2")
    if n < 0 or j_max < 0:
        raise ValueError("n and j_max must be nonnegative")
    w = np.empty(j_max + 1)
    w[0] = d * (2.0 * n + d - 1.0) / ((n + d - 1.0) * (n + d))
    for j in range(1, j_max + 1):
        w[j] = w[j - 1] * (
            (n + 2.0 * j - 1.0) * (n + 2.0 * j)
            / ((n + 2.0 * j + d - 1.0) * (n + 2.0 * j + d))
        )
    return w


def walk_up(seq: RealSchoenbergSequence) -> RealSchoenbergSequence:
    """Transport a sequence from dimension d to d + 2.

    The output truncation drops by 2 because entry n needs input entry
    n + 2. The result may contain negative entries even for a nonnegative
    input, since membership in the positive definiteness class is strictly
    harder in higher dimensions; the validity flag records this.
    """
    n_in = seq.truncation
    if n_in < 2:
        raise ValueError("walk_up needs truncation >= 2")
    b = seq.coeffs
    d = seq.d
    if d == 1:
        n = np.arange(1, n_in - 1)
        out = np.empty(n_in - 1)
        out[0] = b[0] - 0.5 * b[2]
        out[1:] = 0.5 * (n + 1) * (b[1:-2] - b[3:])
    else:
        n = np.arange(n_in - 1, dtype=float)
        lead = (n + d - 1.0) * (n + d) / (d * (2.0 * n + d - 1.0))
        drop = (n + 1.0) * (n + 2.0) / (d * (2.0 * n + d + 3.0))
        out = lead * b[: n_in - 1] - drop * b[2:]
    return RealSchoenbergSequence(d + 2, out)


def walk_down(
    seq: RealSchoenbergSequence,
    n_out: int | None = None,
    tail_tol: float = 1e-12,
) -> RealSchoenbergSequence:
    """Transport a sequence from dimension d + 2 back to dimension d.

    The series for each output degree is summed over the input's support,
    which is complete for finitely supported inputs (the telescoping
    identity then makes this the exact inverse of :func:`walk_up`). Trailing
    entries above ``tail_tol`` are reported on the output's ``tail_bound``
    diagnostic: if the input was a truncation of an infinite sequence, terms
    of that order were dropped from the series. For a sequence whose support
    genuinely ends at the boundary the result is still exact and the
    diagnostic is a false alarm; the data cannot distinguish the two cases.
    """
    if seq.d < 3:
        raise ValueError("walk_down needs input dimension >= 3")
    d_out = seq.d - 2
    n_in = seq.truncation
    if n_out is None:
        n_out = n_in
    b = seq.coeffs
    out = np.zeros(n_out + 1)
    if d_out == 1:
        for n in range(min(n_out, n_in) + 1):
            terms = b[n::2]
            degrees = n + 2.0 * np.arange(len(terms))
            if n == 0:
                out[0] = float(np.sum(terms / (degrees + 1.0)))
            else:
                out[n] = float(np.sum(2.0 * terms / (degrees + 1.0)))
    else:
        for n in range(min(n_out, n_in) + 1):
            terms = b[n::2]
            w = inverse_walk_weights(n, d_out, len(terms) - 1)
            out[n] = float(w @ terms)
    boundary = float(np.max(np.abs(b[-2:])))
    tail = boundary if boundary > tail_tol else 0.0
    return RealSchoenbergSequence(d_out, out, tail_bound=tail)


def cross_project(
    seq: RealSchoenbergSequence,
    d_prime: int,
    rule: QuadratureRule | None = None,
) -> RealSchoenbergSequence:
    """Project a dimension-d sequence to any lower dimension d'.

    Works term by term: each dimension-d basis polynomial is run through
    the dimension-d' coefficient integrals, and the resulting coefficient
    vectors are combined with the input weights. Reconstructing the
    function and recomputing its coefficients at d' is the independent
    route and the two must agree to quadrature accuracy. A given ``rule``
    must come from ``interval_rule(d_prime, K)``.
    """
    if not 1 <= d_prime < seq.d:
        raise ValueError("cross_project requires 1 <= d_prime < seq.d")
    truncation = seq.truncation
    rule = _rule_for(d_prime, truncation, rule)
    basis_rows = normalized_gegenbauer_table(truncation, seq.d, rule.nodes)
    per_basis = _project_values(basis_rows, d_prime, truncation, rule)
    return RealSchoenbergSequence(d_prime, seq.coeffs @ per_basis)
