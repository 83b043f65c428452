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

where x^(j) is the rising factorial; :func:`inverse_walk_weights_complex`
keeps it as the paper's reference formula. The weights are strictly
positive, which is what makes the support of a nonnegative sequence
transfer faithfully down the walk: a_{m,n} > 0 exactly when
a'_{m+j,n+j} > 0 for some j >= 0.
"""
from __future__ import annotations

import numpy as np

from .sequences import ComplexSchoenbergSequence

__all__ = [
    "inverse_walk_weights_complex",
    "walk_up_complex",
    "walk_down_complex",
]


def _bands(m, n, q: int):
    """``lead`` and ``drop`` of the walk q -> q + 1 at bi-degree (m, n)."""
    lead = (m + q - 1.0) * (n + q - 1.0) / ((q - 1.0) * (m + n + q - 1.0))
    drop = (m + 1.0) * (n + 1.0) / ((q - 1.0) * (m + n + q + 1.0))
    return lead, drop


def inverse_walk_weights_complex(m: int, n: int, q: int, j_max: int) -> np.ndarray:
    """Weights V(0..j_max, m, n, q) along the diagonal through (m, n)."""
    if q < 2:
        raise ValueError("inverse-walk weights are defined for target q >= 2")
    if m < 0 or n < 0 or j_max < 0:
        raise ValueError("m, n and j_max must be nonnegative")
    v = np.empty(j_max + 1)
    v[0] = (q - 1.0) * (m + n + q - 1.0) / ((m + q - 1.0) * (n + q - 1.0))
    for j in range(1, j_max + 1):
        v[j] = v[j - 1] * (
            (m + j) * (n + j) / ((m + j + q - 1.0) * (n + j + q - 1.0))
        )
    return v


def walk_up_complex(seq: ComplexSchoenbergSequence) -> ComplexSchoenbergSequence:
    """Transport a sequence from sphere parameter q to q + 1.

    The output max degree drops by 2 because entry (m, n) consumes input
    entry (m + 1, n + 1). Negative output entries flag functions that stop
    being positive definite on the larger sphere; the validity flag records
    this and the data stays usable.
    """
    if seq.max_degree < 2:
        raise ValueError("walk_up_complex needs max_degree >= 2")
    q = seq.q
    out_degree = seq.max_degree - 2
    candidates = set()
    for (m, n) in seq.entries:
        if m + n <= out_degree:
            candidates.add((m, n))
        if m >= 1 and n >= 1 and (m - 1) + (n - 1) <= out_degree:
            candidates.add((m - 1, n - 1))
    out = {}
    for (m, n) in candidates:
        lead, drop = _bands(m, n, q)
        out[(m, n)] = lead * seq.get(m, n) - drop * seq.get(m + 1, n + 1)
    return ComplexSchoenbergSequence(q + 1, out, out_degree)


def walk_down_complex(
    seq: ComplexSchoenbergSequence,
    tail_tol: float = 1e-12,
) -> ComplexSchoenbergSequence:
    """Transport a sequence from sphere parameter q + 1 back to q.

    Solves the forward walk's two-band system along each support diagonal,
    from the diagonal's top entry down to its axis, with the entries above
    the top taken as 0; for finitely supported input the walk exactly
    inverts :func:`walk_up_complex`. Entries above ``tail_tol`` sitting on
    the truncation boundary (m + n within 2 of max_degree) are reported on
    the output's ``tail_bound`` diagnostic: they mean a missing continuation
    if the sequence continues beyond the truncation, and a false alarm if
    its support genuinely ends there; the data cannot distinguish the two.
    """
    if seq.q < 3:
        raise ValueError("walk_down_complex needs input parameter q >= 3")
    if not tail_tol >= 0.0:
        raise ValueError(f"tail_tol must be a nonnegative number, got {tail_tol}")
    q_out = seq.q - 1
    tops = {}
    for (m, n) in seq.entries:
        tops[m - n] = max(tops.get(m - n, 0), min(m, n))
    out = {}
    for diag, t_top in tops.items():
        m_off, n_off = max(diag, 0), max(-diag, 0)
        upper = 0.0
        for t in range(t_top, -1, -1):
            m, n = t + m_off, t + n_off
            lead, drop = _bands(m, n, q_out)
            upper = (seq.get(m, n) + drop * upper) / lead
            out[(m, n)] = upper
    boundary = [
        abs(a) for (m, n), a in seq.entries.items() if m + n >= seq.max_degree - 1
    ]
    worst = max(boundary, default=0.0)
    tail = worst if worst > tail_tol else 0.0
    return ComplexSchoenbergSequence(q_out, out, seq.max_degree, tail_bound=tail)
