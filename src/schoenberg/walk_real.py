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

The general projection d -> d' < d is exact and runs no quadrature. With
lambda = (d-1)/2 and mu = (d'-1)/2, Askey's connection formula (Askey 1975,
Orthogonal Polynomials and Special Functions, SIAM, Lecture 7)

    C^lambda_n = sum_k (lambda)_{n-k} (lambda-mu)_k (n-2k+mu)
                       / ((mu)_{n-k+1} k!) * C^mu_{n-2k}

has only nonnegative terms for lambda > mu. Rescaled to the normalized
c_n, it writes each c_n at d as a convex combination of the c_{n-2k} at d'
(the weights add up to c_n(1) = 1), so no product overflows and no sum
cancels.
"""
from __future__ import annotations

import numpy as np

from .quadrature import _integer
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


def cross_project(seq: RealSchoenbergSequence, d_prime: int) -> RealSchoenbergSequence:
    """Project a dimension-d sequence to any lower dimension d', exactly.

    Computes b'_j = sum_k W(j, k) b_{j+2k}, with W(j, k) >= 0 the weight of
    c_j at d' in c_{j+2k} at d from Askey's formula, as cumulative products
    in lambda = (d-1)/2, mu = (d'-1)/2 and n = j + 2k (mu = 0 included):

        W(j, 0) = prod_{0<i<j} (lambda+i)(2mu+i) / ((2lambda+i)(mu+i)),
        W(j, k+1) / W(j, k) = (lambda+j+k)(lambda-mu+k)(n+1)(n+2)
                              / ((mu+j+k+1)(k+1)(2lambda+n)(2lambda+n+1)).
    """
    d_prime = _integer("d_prime", d_prime)
    if not 1 <= d_prime < seq.d:
        raise ValueError("cross_project requires 1 <= d_prime < seq.d")
    lam, mu = (seq.d - 1) / 2.0, (d_prime - 1) / 2.0
    size = seq.truncation + 1
    j = np.arange(size, dtype=float)[:, None]
    k = np.arange((size + 1) // 2, dtype=float)
    n = j + 2.0 * k
    i = j[1:-1, 0]
    top = np.ones(size)
    top[2:] = np.cumprod((lam + i) * (2.0 * mu + i) / ((2.0 * lam + i) * (mu + i)))
    step = ((lam + j + k) * (lam - mu + k) * (n + 1.0) * (n + 2.0)
            / ((mu + j + k + 1.0) * (k + 1.0) * (2.0 * lam + n) * (2.0 * lam + n + 1.0)))
    weights = np.cumprod(np.concatenate([top[:, None], step[:, :-1]], axis=1), axis=1)
    padded = np.concatenate([seq.coeffs, np.zeros(size)])
    return RealSchoenbergSequence(d_prime, (weights * padded[n.astype(int)]).sum(axis=1))
