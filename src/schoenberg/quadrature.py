"""Quadrature rules shared by the coefficient integrals.

Every coefficient integral is an integral against a Jacobi weight, so one
rule family serves them all: :func:`gauss_jacobi` builds the Gauss rule of
the probability measure proportional to ``(1 - x)^alpha (1 + x)^beta`` on
``[-1, 1]`` from seed nodes polished by one Newton sweep.

* On S^d the substitution ``u = cos(theta)`` turns the surface measure into
  ``(1 - u^2)^((d-2)/2) du``, so ``real_coeffs`` uses the Gauss-Jacobi rule
  with ``alpha = beta = (d - 2) / 2`` for every d >= 1 (Chebyshev at
  d = 1, Legendre at d = 2). It is exact for polynomial integrands.
* The disk transform in ``complex_coeffs`` uses ``alpha = q - 2``,
  ``beta = 0`` in ``s = r^2``, crossed with a uniform angular grid.

So a transform's rule is fixed by its sphere and one size, and both
transforms take that size alone, as ``nodes``.

The seeds come from one of two builders:

* For alpha, beta <= ``ASYMPTOTIC_MAX`` (5, which covers every S^d up to
  d = 12 and every disk up to q = 7) the seeds are the asymptotic interior
  nodes of Gatteschi and Pittaluga, brought to double precision by
  whole-array Newton sweeps of the three-term recurrence (Hale & Townsend
  2013, *Fast and accurate computation of Gauss-Legendre and Gauss-Jacobi
  quadrature nodes and weights*, SIAM J. Sci. Comput. 35). They take O(K)
  memory and O(K^2) time.
* Above that, and whenever the sweeps miss their budget or do not give
  strictly increasing nodes inside (-1, 1), the seeds are the eigenvalues
  of the dense Jacobi matrix (Golub & Welsch 1969), O(K^2) memory.

Weights sum to 1: the rules integrate against probability measures, so
both transforms warn when a sequence's absolute mass exceeds 1.

A symmetric rule (``alpha == beta``, every rule of S^d) is seeded from the
nodes of a problem of half the size in ``y = 2 x^2 - 1`` and mirrored, so
its nodes are exactly antisymmetric. Rules are cached per process by
``(n_nodes, alpha, beta)`` and returned as read-only arrays shared by every
caller: copy one before changing it.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
import warnings

import numpy as np

__all__ = ["QuadratureResolutionWarning", "default_node_count", "gauss_jacobi"]


#: total |coefficient| mass above 1 by more than this flags under-resolution
ILL_CONDITION_TOL = 1e-6


class QuadratureResolutionWarning(UserWarning):
    """A computed coefficient sequence looks under-resolved."""


def _warn_if_under_resolved(coeffs) -> None:
    """Warn, at the line that called the transform, if sum |coeffs| exceeds 1."""
    abs_mass = float(np.abs(coeffs).sum())
    if abs_mass > 1.0 + ILL_CONDITION_TOL:
        warnings.warn(
            f"absolute coefficient mass {abs_mass:.6g} exceeds 1; "
            "the quadrature rule looks under-resolved",
            QuadratureResolutionWarning,
            stacklevel=3,
        )


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an int; a non-integer, a boolean or a value below ``least``
    is refused by ``name``. Every integer argument of the library is read here."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f">= {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _real(name: str, value, *, least=None, above=None, below=math.inf) -> float:
    """``value`` as a float; a non-number, a boolean or NaN is refused by
    ``name``, and so is a value outside ``[least, below)`` or ``(above, below)``
    when that lower bound is given. Every real argument of the library is read here."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf if value > 0 else -math.inf
    if math.isnan(number):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if least is not None and not least <= number < below:
        raise ValueError(f"{name} must lie in [{least:g}, {below:g}), got {value!r}")
    if above is not None and not above < number < below:
        raise ValueError(f"{name} must lie in ({above:g}, {below:g}), got {value!r}")
    return number


#: Gauss-Jacobi rules kept per process; the least recently used goes first
RULE_CACHE_SIZE = 32

#: largest alpha and beta whose nodes come from asymptotic seeds and Newton
ASYMPTOTIC_MAX = 5.0

#: Newton sweeps allowed before the nodes fall back to the eigenvalue seed
NEWTON_SWEEPS = 8

#: largest node step of the sweep after which the nodes are returned
NEWTON_TOL = 1e-13


def gauss_jacobi(n_nodes: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes and weights for the weight (1 - x)^alpha (1 + x)^beta.

    The weight is normalized to a probability measure on [-1, 1], so the
    weights sum to 1; the rule is exact for polynomials of degree below
    ``2 * n_nodes``. For alpha, beta <= ``ASYMPTOTIC_MAX`` the seeds are
    asymptotic nodes (Gatteschi-Pittaluga) taken to convergence by at most
    ``NEWTON_SWEEPS`` whole-array Newton sweeps, in O(K) memory; otherwise,
    or when those sweeps fail, they are the eigenvalues of the dense
    Jacobi matrix (Golub & Welsch 1969). One Newton step on the degree-K
    orthonormal polynomial then polishes either seed; weights are the
    Christoffel numbers ``1 / sum_k p_k(x_i)^2`` over p_0..p_{K-1}.

    For ``alpha == beta`` the rule is symmetric and half of it is built:
    with ``y = 2 x^2 - 1``, the positive nodes of the K-node rule are
    ``sqrt((1 + y) / 2)`` at the ``K // 2`` Gauss nodes y of
    ``(1 - y)^alpha (1 + y)^(-1/2)`` for even K, and of
    ``(1 - y)^alpha (1 + y)^(1/2)`` plus the node 0 for odd K. The seed
    problem is half the size, the sweep runs over the nonnegative nodes
    only, and the result is mirrored: the nodes are exactly antisymmetric.

    Rules are cached per process (the last ``RULE_CACHE_SIZE`` argument
    triples), so a repeated call returns the same two arrays. They are
    read-only: copy them before changing them. ``alpha`` and ``beta`` must
    be real numbers in (-1, inf).
    """
    return _gauss_jacobi(
        _integer("n_nodes", n_nodes, 1),
        _real("alpha", alpha, above=-1),
        _real("beta", beta, above=-1),
    )


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _gauss_jacobi(n: int, a: float, b: float):
    symmetric = a == b
    if symmetric:
        half, odd = divmod(n, 2)
        y = _jacobi_eigenvalues(half, a, 0.5 if odd else -0.5)
        x = np.concatenate((np.zeros(odd), np.sqrt(0.5 * (1.0 + y))))
    else:
        x = _jacobi_eigenvalues(n, a, b)
    diag, off = _jacobi_matrix(n, a, b)
    x, w = _newton_christoffel(x, diag, off, f"n_nodes={n}, alpha={a}, beta={b}")
    if symmetric:
        x = np.concatenate((-x[odd:][::-1], x))
        w = np.concatenate((w[odd:][::-1], w))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _jacobi_matrix(n: int, a: float, b: float):
    """Diagonal and off-diagonal of the order-n Jacobi matrix of (a, b).

    ``off[k]`` couples degrees k and k + 1, so ``off[n - 1]`` lies outside
    the matrix; the recurrence needs it for p_n.
    """
    s = 2.0 * np.arange(1, n) + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    # off[0] is the general formula with its factor (a + b + 1) cancelled,
    # which is 0 / 0 for Chebyshev
    j = np.arange(2.0, n + 1)
    t = 2.0 * j + a + b
    off_sq = np.empty(n)
    off_sq[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    off_sq[1:] = 4.0 * j * (j + a) * (j + b) * (j + a + b) / (t * t * (t + 1.0) * (t - 1.0))
    return diag, np.sqrt(off_sq)


def _jacobi_eigenvalues(n: int, a: float, b: float) -> np.ndarray:
    """Gauss-Jacobi nodes of order n, ascending, unpolished.

    For alpha and beta up to ``ASYMPTOTIC_MAX``, Newton sweeps from
    asymptotic seeds give them in O(n) memory. Otherwise, or when the
    sweeps fail, they are the eigenvalues of the dense Jacobi matrix.
    """
    if n == 0:
        return np.empty(0)
    diag, off = _jacobi_matrix(n, a, b)
    if max(a, b) <= ASYMPTOTIC_MAX:
        x = _newton_nodes(_asymptotic_seeds(n, a, b), diag, off)
        if x is not None:
            return x
    jacobi = np.diag(diag)
    jacobi.flat[n :: n + 1] = off[:-1]  # subdiagonal: only "L" is read
    return np.linalg.eigvalsh(jacobi, UPLO="L")


def _asymptotic_seeds(n: int, a: float, b: float) -> np.ndarray:
    """The nodes of order n by the interior asymptotic formula, ascending.

    Gatteschi and Pittaluga's t_k = phi_k + ((1/4 - a^2) cot(phi_k / 2)
    - (1/4 - b^2) tan(phi_k / 2)) / (2 rho)^2, with rho = n + (a + b + 1) / 2
    and phi_k = (k + a / 2 - 1/4) pi / rho, gives x_k = cos(t_k) (Hale &
    Townsend 2013). It is exact for |a| = |b| = 1/2.
    """
    rho = n + 0.5 * (a + b + 1.0)
    phi = (np.arange(n, 0, -1) + 0.5 * a - 0.25) * (np.pi / rho)
    tan_half = np.tan(0.5 * phi)
    return np.cos(phi + ((0.25 - a * a) / tan_half - (0.25 - b * b) * tan_half) / (2.0 * rho) ** 2)


def _newton_nodes(x, diag, off):
    """Nodes from the seeds ``x`` by whole-array Newton sweeps on p_n, or None.

    Each sweep runs the orthonormal recurrence for p_n and p_n' at every
    node whose last step exceeded ``NEWTON_TOL``; after the first sweep
    from the asymptotic seeds only a few such nodes remain. None when
    ``NEWTON_SWEEPS`` sweeps leave one, or the nodes are not strictly
    increasing inside (-1, 1).
    """
    active = np.arange(len(x))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_SWEEPS):
            y = x[active]
            p_prev, p = np.zeros_like(y), np.ones_like(y)
            dp_prev, dp = np.zeros_like(y), np.zeros_like(y)
            for k in range(len(diag)):
                shifted, b_prev = y - diag[k], off[k - 1] if k else 0.0
                p_next = (shifted * p - b_prev * p_prev) / off[k]
                dp_next = (p + shifted * dp - b_prev * dp_prev) / off[k]
                p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
            step = p / dp
            x[active] = y - step
            # a NaN step compares False, so its node stays active
            active = active[~(np.abs(step) <= NEWTON_TOL)]
            if not active.size:
                inside = -1.0 < x[0] and x[-1] < 1.0 and bool(np.all(np.diff(x) > 0.0))
                return x if inside else None
    return None


def _newton_christoffel(x, diag, off, label):
    """Newton-polished nodes and Christoffel weights near the seeds ``x``.

    One sweep of the orthonormal recurrence gives p_K, the Christoffel sum
    S = sum_{k<K} p_k^2 and their derivatives (dtotal = S' / 2) at x; a
    Newton step on p_K polishes the nodes, and S follows them to first
    order.
    """
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    total, dtotal = np.zeros_like(x), np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(diag)):
            total += p * p
            dtotal += p * dp
            shifted, b_prev = x - diag[k], off[k - 1] if k else 0.0
            p_next = (shifted * p - b_prev * p_prev) / off[k]
            dp_next = (p + shifted * dp - b_prev * dp_prev) / off[k]
            p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        step = p / dp
    # a weight is 1 / total, so an overflowing sum means a weight below the
    # normal double range (large alpha or beta puts nodes deep in the tails)
    if not all(np.isfinite(v).all() for v in (total, dtotal, step)):
        raise ValueError(
            f"gauss_jacobi({label}): the Christoffel sums overflow double precision"
        )
    return x - step, 1.0 / (total - 2.0 * step * dtotal)


def _finite_samples(fn, nodes: np.ndarray, dtype, name: str, var: str) -> np.ndarray:
    """Values of ``fn`` at ``nodes``, one per node.

    Raises ValueError naming the function and the first node where its
    value is NaN or infinite, before any coefficient is formed from it.
    """
    values = np.broadcast_to(np.asarray(fn(nodes), dtype=dtype), nodes.shape)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{name}({var}={nodes[i]}) = {values[i]} is not finite")
    return values


def default_node_count(truncation: int) -> int:
    """Node count giving polynomial exactness plus margin for analytic inputs."""
    return max(128, 2 * _integer("truncation", truncation, 0) + 32)


def _node_count(nodes, default: int) -> int:
    """A transform's ``nodes`` argument, or ``default`` when it is None."""
    if nodes is None:
        return default
    return _integer("nodes", nodes, 1)
