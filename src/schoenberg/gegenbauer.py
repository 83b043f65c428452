"""The normalized Gegenbauer basis of the real spheres, and the Jacobi
recurrence behind it and the disk polynomials.

The sphere dimension ``d`` enters through the order ``(d - 1) / 2``, and
the basis polynomials are scaled to 1 at u = 1.
:func:`normalized_gegenbauer_table` runs the normalized recurrence at every
d, the ``d = 1`` circle included: at order 0 it reads
``c_k = 2 u c_{k-1} - c_{k-2}``, the Chebyshev recurrence of
``cos(n * theta)``.

The one recurrence for Jacobi polynomials normalized to 1 at 1 is
``_jacobi_blocks``: it yields the rows in blocks of ``BLOCK_ROWS``, each
refilled in one buffer of that many rows, so a caller that contracts each
block as it comes holds O(BLOCK_ROWS len(x)) memory at any degree. Both
real transforms stream its a = b = (d - 2) / 2 case. ``_jacobi_table`` is
its one-block case, with the same rows bit for bit: the sphere table is
its a = b case and the disk radial factors its a = q - 2, b = |m - n|
case. ``_jacobi_sums`` runs the same recurrence, from the same terms, for
many b at once and keeps only the sums over k that the disk
reconstruction needs.

The recurrence runs forward, which is stable on ``[-1, 1]`` for
nonnegative orders.
"""
from __future__ import annotations

import numpy as np

__all__ = ["BOUNDARY_TOL", "normalized_gegenbauer_table"]

# Points this close to +-1 are clamped instead of rejected: quadrature nodes
# can round a hair outside the interval.
BOUNDARY_TOL = 1e-12


def _as_unit_interval(u):
    """Coerce to float array in [-1, 1], clamping boundary roundoff."""
    u = np.asarray(u, dtype=float)
    outside = ~(np.abs(u) <= 1.0 + BOUNDARY_TOL)
    if np.any(outside):
        raise ValueError(f"argument u must lie in [-1, 1], got {u[outside].flat[0]}")
    return np.clip(u, -1.0, 1.0)


def normalized_gegenbauer_table(n_max: int, d: int, u: np.ndarray) -> np.ndarray:
    """Table of normalized basis values, shape ``(n_max + 1, len(u))``.

    Row n is the degree-n basis polynomial of S^d, equal to 1 at u = 1, from
    the Jacobi table at a = b = (d - 2) / 2; at d = 1 that is the Chebyshev
    recurrence, so row n is ``cos(n * arccos(u))``.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    u = np.atleast_1d(_as_unit_interval(u))
    a = 0.5 * (d - 2)
    return _jacobi_table(n_max, a, a, u)


#: rows per block of ``_jacobi_blocks``: its buffer is this many rows of len(x)
BLOCK_ROWS = 64


def _jacobi_table(k_max: int, a: float, b: float, x) -> np.ndarray:
    """Rows P_k^(a,b)(x) / P_k^(a,b)(1), k = 0..k_max; shape ``(k_max + 1, *x.shape)``.

    The one-block case of ``_jacobi_blocks``, so its rows are the blocks'
    rows bit for bit.
    """
    x = np.asarray(x, dtype=float)
    _, table = next(_jacobi_blocks(k_max, a, b, x.ravel(), k_max + 1))
    return table.reshape(k_max + 1, *x.shape)


def _jacobi_blocks(k_max: int, a: float, b: float, x: np.ndarray, rows: int = BLOCK_ROWS):
    """Yield ``(start, block)``: rows start.. of the normalized Jacobi recurrence at flat x.

    Row k is P_k^(a,b)(x) / P_k^(a,b)(1), k = 0..k_max. The handbook
    recurrence rescaled to p_k(1) = 1: with t = 2k + a + b,

        den_k p_k = ((t-2)(t-1)t x + (t-1)(a-b)(a+b)) p_{k-1} - 2(k-1)(k+b-1)t p_{k-2},
        den_k = 2 (k+a+b)(t-2)(k+a),

    whose products are exact for integer and half-integer a, b; p_1 is
    ((a+b+2) x + a - b) / (2a + 2). For a = b the middle term is 0, p_1 = x
    and rows are lead_k x p_{k-1} - drop_k p_{k-2} with lead_k = (t-1) / (k+2a)
    and drop_k = (k-1) / (k+2a), the Gegenbauer coefficients of order a + 1/2.
    Otherwise the division comes last: at (a, b) = (0, 24) the quotients
    reach about 7 with opposite signs, and rounding them first moves p_16(1)
    by up to 1.9e-14. Needs a, b > -1.

    Every block is a view of one buffer of ``min(rows, k_max + 1)`` rows,
    filled in place and refilled for the next block, so memory is
    O(rows len(x)) at any degree: use a block before asking for the next.
    A block starts at a multiple of ``rows`` and holds ``rows`` rows, the
    last one fewer. Row k is written over row k - rows, which the
    recurrence no longer reads when ``rows >= 3``.
    """
    buf = np.empty((min(rows, k_max + 1), x.size))
    buf[0] = 1.0
    if k_max >= 1:
        buf[1] = x if a == b else _jacobi_first(a, b, x)
    k = np.arange(2.0, k_max + 1)
    scratch = np.empty_like(x)
    if a == b:
        t = 2.0 * k + a + b
        terms = zip((t - 1.0) / (k + a + b), (k - 1.0) / (k + a + b))
    else:
        terms = zip(*_jacobi_terms(k, a, b))
    prev2, prev = buf[0], buf[min(k_max, 1)]
    for start in range(0, k_max + 1, rows):
        block = buf[: min(rows, k_max + 1 - start)]
        # zip stops at the block's end before it draws the next term
        for row, term in zip(block[2:] if start == 0 else block, terms):
            if a == b:
                lead_k, drop_k = term
                np.multiply(prev, x, out=row)
                row *= lead_k
                np.multiply(prev2, drop_k, out=scratch)
                row -= scratch
            else:
                c3_k, c2_k, c4_k, den_k = term
                np.multiply(x, c3_k, out=row)
                row += c2_k
                row *= prev
                np.multiply(prev2, c4_k, out=scratch)
                row -= scratch
                row /= den_k
            prev2, prev = prev, row
        yield start, block


def _jacobi_sums(coef: np.ndarray, a: float, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sums over k of coef[j, i, k] p_k(x), with p_k the rows of ``_jacobi_table`` at (a, b[i]).

    One pass of the same recurrence over k for every b at once, keeping only
    the last two rows, so memory is O(len(b) len(x)) at any degree. Each b
    stops at its top nonzero coefficient, as its own table would, so none is
    carried to a degree where it could overflow: the b run in order of their
    top k, and the ones still running are a prefix. Returns shape
    ``(len(coef), len(b), len(x))``.
    """
    width = coef.shape[2]
    top = (np.arange(width) * (coef != 0.0).any(axis=0)).max(axis=1, initial=0)
    order = np.argsort(-top, kind="stable")
    coef, top, b = coef[:, order], top[order], np.asarray(b, dtype=float)[order]
    terms = [term[..., None] for term in _jacobi_terms(np.arange(2.0, width)[:, None], a, b)]
    prev2 = np.ones((len(b), len(x)))
    sums = coef[:, :, :1] * prev2
    if width > 1:
        prev = _jacobi_first(a, b[:, None], x)
        sums += coef[:, :, 1:2] * prev
    for k, (c3, c2, c4, den) in enumerate(zip(*terms), start=2):
        live = np.count_nonzero(top >= k)
        row = x * c3[:live]
        row += c2[:live]
        row *= prev[:live]
        row -= c4[:live] * prev2[:live]
        row /= den[:live]
        sums[:, :live] += coef[:, :live, k, None] * row
        prev2, prev = prev[:live], row
    out = np.empty_like(sums)
    out[:, order] = sums
    return out


def _jacobi_first(a, b, x):
    """Row p_1 of ``_jacobi_table``; a, b and x broadcast."""
    return ((a + b + 2.0) * x + (a - b)) / (2.0 * a + 2.0)


def _jacobi_terms(k, a, b):
    """Terms (c3, c2, c4, den) of ``_jacobi_table``'s general recurrence at degrees k >= 2.

    Row k is ((c3 x + c2) p_{k-1} - c4 p_{k-2}) / den; k, a and b broadcast.
    """
    t = 2.0 * k + a + b
    return (
        (t - 2.0) * (t - 1.0) * t,
        (t - 1.0) * (a - b) * (a + b),
        2.0 * (k - 1.0) * (k + b - 1.0) * t,
        2.0 * (k + a + b) * (t - 2.0) * (k + a),
    )
