"""The normalized Gegenbauer basis of the real spheres, and the Jacobi
recurrences behind it and the disk polynomials.

The sphere dimension ``d`` enters through the order ``(d - 1) / 2``, and
the basis polynomials are scaled to 1 at u = 1.
:func:`normalized_gegenbauer_table` runs the normalized recurrence at every
d, the ``d = 1`` circle included: at order 0 it reads
``c_k = 2 u c_{k-1} - c_{k-2}``, the Chebyshev recurrence of
``cos(n * theta)``.

Each family has one runner of the recurrence for Jacobi polynomials
normalized to 1 at 1:

* ``_jacobi_blocks`` runs the sphere case a = b = (d - 2) / 2. It yields
  the rows in blocks of ``BLOCK_ROWS``, each refilled in one buffer of that
  many rows, so a caller that contracts each block as it comes holds
  O(BLOCK_ROWS len(x)) memory at any degree. Both real transforms stream
  it, and its one-block case is ``normalized_gegenbauer_table``.
* ``_jacobi_rows`` runs the disk case a = q - 2, b = |m - n| for many b at
  once and yields each degree's rows. The disk plan stores them,
  ``_jacobi_sums`` adds them up for the disk reconstruction, and
  ``disk_poly_eval`` keeps the last.

The recurrence runs forward, which is stable on ``[-1, 1]`` for
nonnegative orders.
"""
from __future__ import annotations

import numpy as np

from .quadrature import _integer

__all__ = ["BOUNDARY_TOL", "normalized_gegenbauer_table"]

# The one boundary margin: u, theta and |z| this far outside their domains
# are clamped, not rejected, since nodes and grids can round a hair outside.
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

    Row n is the degree-n basis polynomial of S^d, equal to 1 at u = 1: the
    one-block case of ``_jacobi_blocks`` at a = (d - 2) / 2, so its rows are
    the real transforms' rows bit for bit. At d = 1 that is the Chebyshev
    recurrence, so row n is ``cos(n * arccos(u))``.
    """
    n_max, d = _integer("n_max", n_max, 0), _integer("d", d, 1)
    u = np.atleast_1d(_as_unit_interval(u))
    _, table = next(_jacobi_blocks(n_max, 0.5 * (d - 2), u.ravel(), n_max + 1))
    return table.reshape(n_max + 1, *u.shape)


#: rows per block of ``_jacobi_blocks``: its buffer is this many rows of len(x)
BLOCK_ROWS = 64


def _jacobi_blocks(k_max: int, a: float, x: np.ndarray, rows: int = BLOCK_ROWS):
    """Yield ``(start, block)``: rows start.. of the normalized recurrence at a = b, at flat x.

    Row k is P_k^(a,a)(x) / P_k^(a,a)(1), k = 0..k_max, the Gegenbauer
    polynomial of order a + 1/2 over its value at 1: p_1 = x and
    p_k = lead_k x p_{k-1} - drop_k p_{k-2}, with t = 2k + 2a,
    lead_k = (t-1) / (k+2a) and drop_k = (k-1) / (k+2a). Needs a > -1.

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
        buf[1] = x
    k = np.arange(2.0, k_max + 1)
    t = 2.0 * k + a + a
    terms = zip((t - 1.0) / (k + a + a), (k - 1.0) / (k + a + a))
    scratch = np.empty_like(x)
    prev2, prev = buf[0], buf[min(k_max, 1)]
    for start in range(0, k_max + 1, rows):
        block = buf[: min(rows, k_max + 1 - start)]
        # zip stops at the block's end before it draws the next term
        for row, (lead_k, drop_k) in zip(block[2:] if start == 0 else block, terms):
            np.multiply(prev, x, out=row)
            row *= lead_k
            np.multiply(prev2, drop_k, out=scratch)
            row -= scratch
            prev2, prev = prev, row
        yield start, block


def _jacobi_rows(a: float, b, top, x: np.ndarray):
    """Yield ``(k, rows)``, k = 0..max(top): rows[i] = P_k^(a,b[i])(x) / P_k^(a,b[i])(1).

    ``x`` is flat, and ``top`` is nonincreasing: b[i] runs to degree top[i],
    so the b still running at degree k are the first ``len(rows)``, and
    none is carried to a degree where it could overflow. Each ``rows`` is
    a new array, which the next two degrees read: do not change it. Only
    those two are kept, so memory is O(len(b) len(x)) at any degree.

    The handbook recurrence rescaled to p_k(1) = 1: with t = 2k + a + b,

        den_k p_k = ((t-2)(t-1)t x + (t-1)(a-b)(a+b)) p_{k-1} - 2(k-1)(k+b-1)t p_{k-2},
        den_k = 2 (k+a+b)(t-2)(k+a),

    whose products are exact for integer and half-integer a, b; p_1 is
    ((a+b+2) x + a - b) / (2a + 2). The division comes last: at
    (a, b) = (0, 24) the quotients reach about 7 with opposite signs, and
    rounding them first moves p_16(1) by up to 1.9e-14. Needs a, b > -1.
    """
    b, top = np.asarray(b, dtype=float)[:, None], np.asarray(top)
    k_max = int(top.max(initial=0))
    prev2 = np.ones((len(b), len(x)))
    yield 0, prev2
    if k_max < 1:
        return
    prev = ((a + b[top >= 1] + 2.0) * x + (a - b[top >= 1])) / (2.0 * a + 2.0)
    yield 1, prev
    k = np.arange(2.0, k_max + 1)[:, None, None]
    t = 2.0 * k + a + b
    c3, c2 = (t - 2.0) * (t - 1.0) * t, (t - 1.0) * (a - b) * (a + b)
    c4, den = 2.0 * (k - 1.0) * (k + b - 1.0) * t, 2.0 * (k + a + b) * (t - 2.0) * (k + a)
    for k, c3_k, c2_k, c4_k, den_k in zip(range(2, k_max + 1), c3, c2, c4, den):
        live = np.count_nonzero(top >= k)
        row = x * c3_k[:live]
        row += c2_k[:live]
        row *= prev[:live]
        row -= c4_k[:live] * prev2[:live]
        row /= den_k[:live]
        yield k, row
        prev2, prev = prev[:live], row


def _jacobi_sums(coef: np.ndarray, a: float, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sums over k of coef[j, i, k] p_k(x), with p_k the rows of ``_jacobi_rows`` at (a, b[i]).

    Each b runs to its top nonzero coefficient, in order of those tops, and
    no table is kept: memory is O(len(b) len(x)) at any degree. Returns
    shape ``(len(coef), len(b), len(x))``.
    """
    top = (np.arange(coef.shape[2]) * (coef != 0.0).any(axis=0)).max(axis=1, initial=0)
    order = np.argsort(-top, kind="stable")
    coef = coef[:, order]
    rows = _jacobi_rows(a, np.asarray(b)[order], top[order], x)
    sums = coef[:, :, :1] * next(rows)[1]
    for k, row in rows:
        sums[:, : len(row)] += coef[:, : len(row), k, None] * row
    out = np.empty_like(sums)
    out[:, order] = sums
    return out
