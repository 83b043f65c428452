"""Quadrature rules shared by the coefficient integrals.

Every coefficient integral is an integral against a Jacobi weight, so one
rule family serves them all: :func:`gauss_jacobi` builds the Gauss rule of
the probability measure proportional to ``(1 - x)^alpha (1 + x)^beta`` on
``[-1, 1]`` by the Golub-Welsch method.

* On S^d the substitution ``u = cos(theta)`` turns the surface measure into
  ``(1 - u^2)^((d-2)/2) du``, so :func:`interval_rule` is the Gauss-Jacobi
  rule with ``alpha = beta = (d - 2) / 2`` for every d >= 1 (Chebyshev at
  d = 1, Legendre at d = 2). It is exact for polynomial integrands.
* The disk rule (see ``disk_polys.disk_quadrature``) uses ``alpha = q - 2``,
  ``beta = 0`` in ``s = r^2``, crossed with a uniform angular grid.

Weights sum to 1: the rules integrate against probability measures.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "QuadratureResolutionWarning",
    "default_node_count",
    "gauss_jacobi",
    "interval_rule",
]


class QuadratureResolutionWarning(UserWarning):
    """A computed coefficient sequence looks under-resolved."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Node/weight table for interval or disk integration.

    Interval rules have nodes of shape ``(K,)`` holding ``u = cos(theta)``;
    disk rules have nodes of shape ``(K, 2)`` holding x, y.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if not np.all(self.weights > 0.0):
            raise ValueError("quadrature weights must be positive")
        if len(self.weights) != len(self.nodes):
            raise ValueError("nodes and weights must have equal length")

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def complex_nodes(self) -> np.ndarray:
        """Disk nodes as complex numbers (disk rules only)."""
        if self.nodes.ndim != 2:
            raise ValueError("complex_nodes is only defined for disk rules")
        return self.nodes[:, 0] + 1j * self.nodes[:, 1]


def gauss_jacobi(n_nodes: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes and weights for the weight (1 - x)^alpha (1 + x)^beta.

    The weight is normalized to a probability measure on [-1, 1], so the
    weights sum to 1; the rule is exact for polynomials of degree below
    ``2 * n_nodes``. Nodes are the eigenvalues of the symmetric Jacobi
    matrix (Golub & Welsch 1969), polished by one Newton step; weights are
    the Christoffel numbers ``1 / sum_k p_k(x_i)^2`` over the orthonormal
    polynomials p_0..p_{K-1}.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError("Jacobi parameters must exceed -1")
    a, b = float(alpha), float(beta)
    s = 2.0 * np.arange(1, n_nodes) + a + b
    diag = np.empty(n_nodes)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    # off[k] couples degrees k and k + 1; off[0] is the general formula with
    # its factor (a + b + 1) cancelled, which is 0 / 0 for Chebyshev
    j = np.arange(2.0, n_nodes + 1)
    t = 2.0 * j + a + b
    off_sq = np.empty(n_nodes)
    off_sq[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    off_sq[1:] = 4.0 * j * (j + a) * (j + b) * (j + a + b) / (t * t * (t + 1.0) * (t - 1.0))
    off = np.sqrt(off_sq)
    jacobi = np.diag(diag)
    jacobi.flat[n_nodes :: n_nodes + 1] = off[:-1]  # subdiagonal: only "L" is read
    x = np.linalg.eigvalsh(jacobi, UPLO="L")
    # one sweep of the orthonormal recurrence gives p_K, the Christoffel sum
    # S = sum_{k<K} p_k^2 and their derivatives (dtotal = S' / 2) at the
    # eigenvalues; a Newton step on p_K polishes the nodes, and S follows
    # them to first order
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    total, dtotal = np.zeros_like(x), np.zeros_like(x)
    for k in range(n_nodes):
        total += p * p
        dtotal += p * dp
        shifted, b_prev = x - diag[k], off[k - 1] if k else 0.0
        p_next = (shifted * p - b_prev * p_prev) / off[k]
        dp_next = (p + shifted * dp - b_prev * dp_prev) / off[k]
        p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
    step = p / dp
    return x - step, 1.0 / (total - 2.0 * step * dtotal)


def default_node_count(truncation: int) -> int:
    """Node count giving polynomial exactness plus margin for analytic inputs."""
    return max(128, 2 * truncation + 32)


def interval_rule(d: int, n_nodes: int) -> QuadratureRule:
    """Gauss-Gegenbauer rule in u = cos(theta) for the sphere S^d.

    The weight ``(1 - u^2)^((d-2)/2)`` is the surface measure of S^d in u,
    normalized to total mass 1.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    alpha = 0.5 * (d - 2)
    return QuadratureRule(*gauss_jacobi(n_nodes, alpha, alpha))
