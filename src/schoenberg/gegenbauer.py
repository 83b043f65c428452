"""Gegenbauer (ultraspherical) polynomials and their normalized variants.

The sphere dimension ``d`` enters through the order ``(d - 1) / 2``; the
``d = 1`` circle case degenerates to the Chebyshev basis ``cos(n * theta)``
and is routed separately in the evaluators, never through a zero-order
Gegenbauer recurrence.

All evaluators run the three-term recurrence forward, which is stable on
``[-1, 1]`` for positive orders.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "BOUNDARY_TOL",
    "gegenbauer_eval",
    "gegenbauer_at_one",
    "normalized_gegenbauer",
    "normalized_gegenbauer_table",
    "order_for_dimension",
]

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


def _check_degree_order(n: int, order: float) -> None:
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    if not order > 0.0:
        raise ValueError("Gegenbauer order must be positive")


def order_for_dimension(d: int) -> float:
    """Gegenbauer order attached to the sphere of dimension d >= 2."""
    if d < 2:
        raise ValueError("d must be >= 2; d = 1 uses the Chebyshev path")
    return 0.5 * (d - 1)


def gegenbauer_eval(n: int, order: float, u):
    """Evaluate the degree-n Gegenbauer polynomial of the given order at u.

    Uses the forward recurrence starting from 1 and ``2 * order * u``:

        k P_k = 2 u (k + order - 1) P_{k-1} - (k + 2 order - 2) P_{k-2}

    ``u`` may be a scalar or an array; values within 1e-12 of the boundary
    are clamped.
    """
    _check_degree_order(n, order)
    scalar = np.ndim(u) == 0
    u = _as_unit_interval(u)
    c_prev = np.ones_like(u)
    if n == 0:
        return float(c_prev) if scalar else c_prev
    c_cur = 2.0 * order * u
    for k in range(2, n + 1):
        c_prev, c_cur = c_cur, (
            2.0 * u * (k + order - 1.0) * c_cur - (k + 2.0 * order - 2.0) * c_prev
        ) / k
    return float(c_cur) if scalar else c_cur


def gegenbauer_at_one(n: int, order: float) -> float:
    """Value at u = 1, the binomial ``C(n + 2 order - 1, n)``.

    Computed as an incremental product of ratios so it stays finite (growth
    is only polynomial in n) without any gamma-function calls.
    """
    _check_degree_order(n, order)
    value = 1.0
    for i in range(1, n + 1):
        value *= (2.0 * order + i - 1.0) / i
    return value


def normalized_gegenbauer(n: int, d: int, u):
    """Normalized basis polynomial for dimension d, equal to 1 at u = 1.

    For d >= 2 this is the order-(d-1)/2 Gegenbauer polynomial divided by
    its value at 1; for d = 1 it is ``cos(n * arccos(u))``.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    scalar = np.ndim(u) == 0
    u = _as_unit_interval(u)
    if d == 1:
        out = np.cos(n * np.arccos(u))
        return float(out) if scalar else out
    out = _normalized_recurrence(n, order_for_dimension(d), u)
    return float(out) if scalar else out


def _normalized_recurrence(n: int, order: float, u):
    # Same recurrence rewritten for P_k / P_k(1); keeps every iterate in
    # [-1, 1], so it cannot overflow at any degree.
    c_prev = np.ones_like(u)
    if n == 0:
        return c_prev
    c_cur = u.copy()
    for k in range(2, n + 1):
        c_prev, c_cur = c_cur, (
            2.0 * u * (k + order - 1.0) * c_cur - (k - 1.0) * c_prev
        ) / (k + 2.0 * order - 1.0)
    return c_cur


def normalized_gegenbauer_table(n_max: int, d: int, u: np.ndarray) -> np.ndarray:
    """Table of normalized basis values, shape ``(n_max + 1, len(u))``.

    Row n is ``normalized_gegenbauer(n, d, u)``; the d = 1 rows are the
    cosine basis.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    u = np.atleast_1d(_as_unit_interval(u))
    out = np.empty((n_max + 1, u.size))
    if d == 1:
        theta = np.arccos(u)
        for k in range(n_max + 1):
            out[k] = np.cos(k * theta)
        return out
    order = order_for_dimension(d)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = u
    for k in range(2, n_max + 1):
        out[k] = (
            2.0 * u * (k + order - 1.0) * out[k - 1] - (k - 1.0) * out[k - 2]
        ) / (k + 2.0 * order - 1.0)
    return out
