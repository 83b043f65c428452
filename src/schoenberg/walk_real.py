"""Dimension walks for real-sphere coefficient sequences.

The forward walk sends the sequence at dimension d to the one at d + 2
through the two-term recursion

    b'_n = lead_n * b_n - drop_n * b_{n+2},
    lead_n = (n+d-1)(n+d) / (d (2n+d-1)),   drop_n = (n+1)(n+2) / (d (2n+d+3)),

with lead_0 = 1 for every d (at d = 1 the formula reads 0/0 there). The
inverse walk solves this upper-triangular two-band system by
back-substitution from the top, b_n = (b'_n + drop_n b_{n+2}) / lead_n.
The solve is stable: drop_n / lead_n is at most 1 (it reaches 1 only at
d = 1; for d >= 2 it is the weight ratio w(j+1, n, d) / w(j, n+2, d) of the
series below), so an error in an upper entry is never amplified on its way
down. The solve's closed form is the series

    b_{n,d} = sum_j w(j, n, d) * b_{n+2j, d+2},

    w(j, n, d) = d (2n + d - 1) * prod_{l<j} (n+2l+1)(n+2l+2)
                 / prod_{l<=j} (n+2l+d-1)(n+2l+d),

the paper's reference formula, against which the tests check the solve.

The general projection d -> d' (any d' < d) evaluates the coefficient
integrals of the dimension-d basis functions at dimension d' and combines
them linearly; it must agree with reconstructing and recomputing, and with
the inverse walk when d' = d - 2.
"""
from __future__ import annotations

import numpy as np

from .quadrature import QuadratureRule, _integer
from .real_coeffs import _project_values, _rule_for
from .gegenbauer import normalized_gegenbauer_table
from .sequences import RealSchoenbergSequence

__all__ = ["walk_up", "walk_down", "cross_project"]


def _bands(d: int, size: int):
    """``lead_n`` and ``drop_n`` of the walk d -> d + 2 for n < size."""
    n = np.arange(size, dtype=float)
    lead = np.ones(size)
    lead[1:] = (n[1:] + d - 1.0) * (n[1:] + d) / (d * (2.0 * n[1:] + d - 1.0))
    drop = (n + 1.0) * (n + 2.0) / (d * (2.0 * n + d + 3.0))
    return lead, drop


def walk_up(seq: RealSchoenbergSequence) -> RealSchoenbergSequence:
    """Transport a sequence from dimension d to d + 2.

    The output truncation drops by 2 because entry n needs input entry
    n + 2. The result may contain negative entries even for a nonnegative
    input, since membership in the positive definiteness class is strictly
    harder in higher dimensions; the validity flag records this.
    """
    if seq.truncation < 2:
        raise ValueError("walk_up needs truncation >= 2")
    b = seq.coeffs
    lead, drop = _bands(seq.d, len(b) - 2)
    return RealSchoenbergSequence(seq.d + 2, lead * b[:-2] - drop * b[2:])


def walk_down(
    seq: RealSchoenbergSequence,
    n_out: int | None = None,
    tail_tol: float = 1e-12,
) -> RealSchoenbergSequence:
    """Transport a sequence from dimension d + 2 back to dimension d.

    Solves the forward walk's two-band system from the top, with every
    entry above the input truncation taken as 0. For finitely supported
    input this is the exact inverse of :func:`walk_up`. Trailing entries
    above ``tail_tol`` are reported on the output's ``tail_bound``
    diagnostic: if the input was a truncation of an infinite sequence, the
    solve is missing their continuation. For a sequence whose support
    genuinely ends at the boundary the result is still exact and the
    diagnostic is a false alarm; the data cannot distinguish the two cases.
    """
    if seq.d < 3:
        raise ValueError("walk_down needs input dimension >= 3")
    n_in = seq.truncation
    n_out = n_in if n_out is None else _integer("n_out", n_out)
    if n_out < 0:
        raise ValueError(f"n_out must be nonnegative, got {n_out}")
    if not tail_tol >= 0.0:
        raise ValueError(f"tail_tol must be a nonnegative number, got {tail_tol}")
    # over Python floats: indexing numpy arrays one element at a time costs twice as much
    b = seq.coeffs.tolist()
    lead, drop = (band.tolist() for band in _bands(seq.d - 2, n_in + 1))
    out = [0.0] * (max(n_in, n_out) + 3)
    for n in range(n_in, -1, -1):
        out[n] = (b[n] + drop[n] * out[n + 2]) / lead[n]
    boundary = float(np.max(np.abs(b[-2:])))
    tail = boundary if boundary > tail_tol else 0.0
    return RealSchoenbergSequence(seq.d - 2, out[: n_out + 1], tail_bound=tail)


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
