"""Dimension walks for real-sphere coefficient sequences.

The forward walk sends the sequence at dimension d to the one at d + 2
through the two-term recursion

    b'_n = lead_n * b_n - drop_n * b_{n+2},
    lead_n = (n+d-1)(n+d) / (d (2n+d-1)),   drop_n = (n+1)(n+2) / (d (2n+d+3)),

with lead_0 = 1 for every d (at d = 1 the formula reads 0/0 there). The
inverse walk solves this two-band system, b_n = g_n + r_n b_{n+2} with
g_n = b'_n / lead_n and r_n = drop_n / lead_n, by recursive doubling (Stone
1973, J. ACM 20): the pass g_n += r_n g_{n+s}, r_n *= r_{n+s} doubles the reach
s = 2, 4, 8, ..., so floor(log2 N) whole-array passes solve it. Each r_n <= 1
(= 1 only at d = 1; for d >= 2 the series ratio w(j+1, n, d) / w(j, n+2, d)), so
errors never grow; no product is a divisor, so underflow at large d drops only
terms 1e-308 below their neighbours. The solve's closed form is the series

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

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import walk_complex
from .quadrature import RULE_CACHE_SIZE, _integer
from .sequences import RealSchoenbergSequence, _tail_bound

__all__ = ["walk_up", "walk_down", "cross_project"]

#: weights per row block of ``cross_project``'s table (1 MB of doubles)
WEIGHT_BLOCK = 2**17


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _bands(d: int, size: int):
    """``lead_n`` and ``drop_n`` of the walk d -> d + 2 for n < size; cached, read-only. They
    are the complex walk's at bi-degree ((n - 1)/2, n/2) and q = d/2 + 1, bit for bit."""
    n = np.arange(size, dtype=float)
    with np.errstate(invalid="ignore"):  # lead_0 is 0/0 at d = 1
        lead, drop = walk_complex._bands((n - 1.0) / 2.0, n / 2.0, d / 2.0 + 1.0)
    lead[:1] = 1.0
    lead.flags.writeable = drop.flags.writeable = False
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


def walk_down(seq: RealSchoenbergSequence, n_out: int | None = None) -> RealSchoenbergSequence:
    """Transport a sequence from dimension d + 2 back to dimension d.

    Solves the forward walk's two-band system by recursive doubling, with
    every entry above the input truncation taken as 0. For finitely supported
    input this is the exact inverse of :func:`walk_up`. Boundary entries
    (degrees >= truncation - 1) above ``sequences.TAIL_TOL`` are reported on
    the output's ``tail_bound`` diagnostic: if the input was a truncation of
    an infinite sequence, the solve is missing their continuation. For a
    sequence whose support genuinely ends at the boundary the result is
    still exact and the diagnostic is a false alarm; the data cannot
    distinguish the two cases.
    """
    if seq.d < 3:
        raise ValueError("walk_down needs input dimension >= 3")
    n_in = seq.truncation
    n_out = n_in if n_out is None else _integer("n_out", n_out, 0)
    lead, drop = _bands(seq.d - 2, n_in + 1)
    g, r = seq.coeffs / lead, drop / lead
    for s in (1 << p for p in range(1, n_in.bit_length())):  # s = 2, 4, 8, ... <= n_in
        g[:-s] += r[:-s] * g[s:]
        r[:-s] *= r[s:]
    out = np.concatenate([g[: n_out + 1], np.zeros(max(n_out - n_in, 0))])
    return RealSchoenbergSequence(seq.d - 2, out, tail_bound=_tail_bound(seq.coeffs[-2:]))


def cross_project(seq: RealSchoenbergSequence, d_prime: int) -> RealSchoenbergSequence:
    """Project a dimension-d sequence to any lower dimension d', exactly.

    Computes b'_j = sum_k W(j, k) b_{j+2k}, with W(j, k) >= 0 the weight of
    c_j at d' in c_{j+2k} at d from Askey's formula, as cumulative products
    in lambda = (d-1)/2 and mu = (d'-1)/2 (mu = 0 included):

        W(j, 0) = prod_{0<i<j} (lambda+i)(2mu+i) / ((2lambda+i)(mu+i)),
        W(j, k+1) / W(j, k) = A(j+k) B(k) C(j+2k),  B(k) = (lambda-mu+k) / (k+1),
        A(m) = (lambda+m) / (mu+m+1),  C(n) = (n+1)(n+2) / ((2lambda+n)(2lambda+n+1)).
    """
    d_prime = _integer("d_prime", d_prime, 1)
    if d_prime >= seq.d:
        raise ValueError(f"cross_project requires d_prime < seq.d, got {d_prime} >= {seq.d}")
    lam, mu = (seq.d - 1) / 2.0, (d_prime - 1) / 2.0
    size = seq.truncation + 1
    half = (size + 1) // 2
    i = np.arange(1.0, size - 1)
    k = np.arange(half - 1.0)
    n = np.arange(size + 2.0 * half - 2.0)
    a = (lam + n) / (mu + n + 1.0)
    c = (n + 1.0) * (n + 2.0) / ((2.0 * lam + n) * (2.0 * lam + n + 1.0))
    first = np.ones(size)
    first[2:] = np.cumprod((lam + i) * (2.0 * mu + i) / ((2.0 * lam + i) * (mu + i)))
    a, b = sliding_window_view(a, half)[:size, :-1], (lam - mu + k) / (k + 1.0)
    c = sliding_window_view(c, 2 * half - 1)[:, :-1:2]
    padded = np.concatenate([seq.coeffs, np.zeros(2 * half - 2)])
    window = sliding_window_view(padded, 2 * half - 1)[:, ::2]
    # the size x half weight table is built and contracted a block of rows at
    # a time, so memory stays near WEIGHT_BLOCK weights whatever the truncation
    out = np.empty(size)
    rows = max(1, WEIGHT_BLOCK // half)
    for start in range(0, size, rows):
        block = slice(start, start + rows)
        weights = np.empty((min(rows, size - start), half))
        weights[:, 0] = first[block]
        np.multiply(a[block], b, out=weights[:, 1:])
        weights[:, 1:] *= c[block]
        np.cumprod(weights, axis=1, out=weights)
        out[block] = np.einsum("jk,jk->j", weights, window[block])
    return RealSchoenbergSequence(d_prime, out)
