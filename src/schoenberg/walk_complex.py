"""Dimension walks for complex-sphere coefficient sequences.

Both walks move mass only along the diagonals m - n = const. The forward
walk (q to q + 1) is the two-term recursion

    a'_{m,n} = lead_{m,n} * a_{m,n} - drop_{m,n} * a_{m+1,n+1},
    lead_{m,n} = (m+q-1)(n+q-1) / ((q-1)(m+n+q-1)),
    drop_{m,n} = (m+1)(n+1) / ((q-1)(m+n+q+1)),

and the inverse walk (q + 1 back to q) solves this upper-triangular
two-band system along each diagonal by back-substitution from the top,
a_{m,n} = (a'_{m,n} + drop_{m,n} a_{m+1,n+1}) / lead_{m,n}. The solve is
stable because drop / lead = V(j+1, m, n, q) / V(j, m+1, n+1, q) lies in
(0, 1), so an error in an upper entry shrinks on its way down. The solve's
closed form is the series

    a_{m,n} = sum_j V(j, m, n, q) * a'_{m+j,n+j},

    V(j, m, n, q) = (q-1)(m+n+q-1) * (m+1)^(j) (n+1)^(j)
                    / ((m+q-1)^(j+1) (n+q-1)^(j+1)),

where x^(j) is the rising factorial: the paper's reference formula,
against which the tests check the solve. The weights are strictly
positive, which is what makes the support of a nonnegative sequence
transfer faithfully down the walk: a_{m,n} > 0 exactly when
a'_{m+j,n+j} > 0 for some j >= 0.

Both walks read the sequence's entry arrays, which it keeps sorted by
diagonal l = m - n and then k = min(m, n), and hand theirs to the
constructor as arrays. The forward walk is one array expression over the
entries and the empty cells just below them, so its work and memory follow
the number of entries, whatever their degrees. The inverse walk fills each
diagonal from its top k down to 0, on a grid with one row per occupied
diagonal and one column per k up to the highest top; it takes one
back-substitution step per k, from the top, for all diagonals at once, so
about M/2 array steps at max degree M. The grid depends on the support
alone, never on max_degree, and holds at most (number of diagonals) times
the output's entries. The per-element arithmetic is the recursion above,
so results match an entry by entry walk bit for bit.
"""
from __future__ import annotations

import numpy as np

from .sequences import ComplexSchoenbergSequence, _Entries, _tail_bound

__all__ = ["walk_up_complex", "walk_down_complex"]


def _bands(m, n, q: int):
    """``lead`` and ``drop`` of the walk q -> q + 1 at bi-degree (m, n)."""
    lead = (m + q - 1.0) * (n + q - 1.0) / ((q - 1.0) * (m + n + q - 1.0))
    drop = (m + 1.0) * (n + 1.0) / ((q - 1.0) * (m + n + q + 1.0))
    # indices past int64 come as object arrays of Python integers
    return np.asarray(lead, dtype=float), np.asarray(drop, dtype=float)


def walk_up_complex(seq: ComplexSchoenbergSequence) -> ComplexSchoenbergSequence:
    """Transport a sequence from sphere parameter q to q + 1.

    The output max degree drops by 2 because entry (m, n) consumes input
    entry (m + 1, n + 1). Negative output entries flag functions that stop
    being positive definite on the larger sphere; the validity flag records
    this and the data stays usable.
    """
    if seq.max_degree < 2:
        raise ValueError("walk_up_complex needs max_degree >= 2")
    out_degree = seq.max_degree - 2
    m, n, a = seq.entries.arrays
    diagonal, k = m - n, np.minimum(m, n)
    # output cell (l, k) reads input cells (l, k) and (l, k + 1), so the
    # output cells are the entries' own cells and the empty cells just below
    # them; the entries are sorted, so the cell above an entry is filled
    # exactly when the next entry is it (the wrap from last to first never is)
    above = (np.roll(diagonal, -1) == diagonal) & (np.roll(k, -1) == k + 1)
    below = (k > 0) & ~np.roll(above, 1)
    diagonal = np.concatenate((diagonal, diagonal[below]))
    k = np.concatenate((k, k[below] - 1))
    own = np.concatenate((a, np.zeros(np.count_nonzero(below))))
    upper = np.concatenate((np.where(above, np.roll(a, -1), 0.0), a[below]))
    m, n = k + np.maximum(diagonal, 0), k + np.maximum(-diagonal, 0)
    lead, drop = _bands(m, n, seq.q)
    values = lead * own - drop * upper
    keep = m + n <= out_degree
    return ComplexSchoenbergSequence(
        seq.q + 1, _Entries(m[keep], n[keep], values[keep]), out_degree
    )


def walk_down_complex(seq: ComplexSchoenbergSequence) -> ComplexSchoenbergSequence:
    """Transport a sequence from sphere parameter q + 1 back to q.

    Solves the forward walk's two-band system along each support diagonal,
    from the diagonal's top entry down to its axis, with the entries above
    the top taken as 0; for finitely supported input the walk exactly
    inverts :func:`walk_up_complex`. Entries above ``sequences.TAIL_TOL``
    sitting on the truncation boundary (m + n >= max_degree - 1) are reported
    on the output's ``tail_bound`` diagnostic: they mean a missing continuation
    if the sequence continues beyond the truncation, and a false alarm if
    its support genuinely ends there; the data cannot distinguish the two.
    """
    if seq.q < 3:
        raise ValueError("walk_down_complex needs input parameter q >= 3")
    q_out = seq.q - 1
    m, n, a = seq.entries.arrays
    diagonal, k = m - n, np.minimum(m, n)
    tail = _tail_bound(a[m + n >= seq.max_degree - 1])
    # the output fills each diagonal from its top k down to 0, so it is laid
    # out as a grid, one row per diagonal and one column per k up to the
    # highest top; a cell above its diagonal's top stays 0, as the entries
    # above the top are
    diagonals, row = np.unique(diagonal, return_inverse=True)
    grid = np.zeros((len(diagonals), k.max(initial=-1) + 1))
    grid[row, k.astype(int)] = a
    cell_k = np.arange(grid.shape[1])
    m = cell_k + np.maximum(diagonals, 0)[:, None]
    n = cell_k + np.maximum(-diagonals, 0)[:, None]
    lead, drop = _bands(m, n, q_out)
    upper = np.zeros(len(diagonals))
    for column, lead_k, drop_k in zip(grid.T[::-1], lead.T[::-1], drop.T[::-1]):
        column += drop_k * upper
        column /= lead_k
        upper = column
    keep = m + n <= seq.max_degree
    return ComplexSchoenbergSequence(
        q_out, _Entries(m[keep], n[keep], grid[keep]), seq.max_degree, tail_bound=tail
    )
