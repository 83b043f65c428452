"""Coefficient sequences on real spheres: quadrature and reconstruction.

With ``u = cos(theta)`` and c_n the normalized dimension-d basis polynomial
(``c_n(1) = 1``; cosines for d = 1), the degree-n coefficient of a function
psi on ``[0, pi]`` is

    b_n = N(d, n) * integral psi(theta) c_n(u) d mu_d(u),

where mu_d is the surface measure of S^d pushed to u, normalized to a
probability measure, and N(d, n) = 1 / integral c_n^2 d mu_d is the
dimension of the degree-n spherical harmonics. The integral is evaluated
with the K-node Gauss-Jacobi rule of mu_d (alpha = beta = (d - 2) / 2),
giving

    b_n = N(d, n) * sum_i w_i psi(theta_i) c_n(u_i).

The rule is fixed by d, so a caller chooses only its size K, as ``nodes``.

The rule is mirrored exactly (u_{K-1-i} = -u_i, equal weights) and
c_n(-u) = (-1)^n c_n(u), so the samples fold onto the nonnegative nodes:
even degrees sum w_i (psi(u_i) + psi(-u_i)) c_n(u_i) and odd degrees
w_i (psi(u_i) - psi(-u_i)) c_n(u_i) over the ceil(K / 2) nodes u_i >= 0,
with the weight of u = 0 (odd K) halved. The basis rows come in blocks of
``gegenbauer.BLOCK_ROWS`` from the recurrence, and each block is
contracted with one product per parity; ``reconstruct`` adds one product
per block. Neither builds a table of all degrees, so both hold one block
of rows at any truncation.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .gegenbauer import BOUNDARY_TOL, _jacobi_blocks
from .quadrature import (
    RULE_CACHE_SIZE,
    _finite_samples,
    _integer,
    _node_count,
    _warn_if_under_resolved,
    default_node_count,
    gauss_jacobi,
)
from .sequences import RealSchoenbergSequence

__all__ = ["harmonic_dimension", "compute_real_coeffs", "reconstruct"]


def harmonic_dimension(n: int, d: int) -> float:
    """Dimension N(d, n) of the degree-n spherical harmonics on S^d.

    Equals ``(2n + d - 1) (n + d - 2)! / (n! (d - 1)!)``, evaluated through
    log-gamma so large dimensions cannot overflow; N(1, n) is 1 for n = 0
    and 2 otherwise.
    """
    n, d = _integer("n", n, 0), _integer("d", d, 1)
    if n == 0:
        return 1.0
    log_value = (
        math.log(2.0 * n + d - 1.0)
        + math.lgamma(n + d - 1.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(float(d))
    )
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(f"N(d, n) at n={n}, d={d} exceeds double precision") from None


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _harmonic_dimensions(d: int, truncation: int) -> np.ndarray:
    """N(d, n) for n = 0..truncation, cached per process; read-only."""
    scale = np.array([harmonic_dimension(n, d) for n in range(truncation + 1)])
    scale.flags.writeable = False
    return scale


def compute_real_coeffs(
    psi,
    d: int,
    truncation: int,
    nodes: int | None = None,
) -> RealSchoenbergSequence:
    """Coefficient sequence of ``psi`` at dimension d, degrees 0..truncation.

    ``psi`` is either an IsotropicFunction or a plain vectorized callable on
    ``[0, pi]``. ``nodes`` is the node count K of the Gauss-Jacobi rule of
    S^d in u = cos(theta), exact for polynomial integrands of degree below
    2K. The default, ``max(128, 2 * truncation + 32)``, is ample for the
    polynomial integrands arising from truncated expansions and for
    analytic inputs. Emits QuadratureResolutionWarning when the computed
    absolute mass exceeds 1 beyond roundoff, the telltale sign of an
    under-resolved rule.
    """
    truncation, d = _integer("truncation", truncation, 0), _integer("d", d, 1)
    fn = getattr(psi, "eval", psi)
    alpha = 0.5 * (d - 2)
    u, weights = gauss_jacobi(_node_count(nodes, default_node_count(truncation)), alpha, alpha)
    values = _finite_samples(fn, np.arccos(u), float, "psi", "theta")
    half, middle = divmod(u.size, 2)
    mirrored = values[: half + middle][::-1]
    folded_weights = weights[half:].copy()
    folded_weights[:middle] *= 0.5  # u = 0 is its own mirror
    even = folded_weights * (values[half:] + mirrored)
    odd = folded_weights * (values[half:] - mirrored)
    sums = np.empty(truncation + 1)
    for start, block in _jacobi_blocks(truncation, alpha, u[half:]):
        stop = start + len(block)
        sums[start:stop:2] = block[::2] @ even
        sums[start + 1 : stop : 2] = block[1::2] @ odd
    coeffs = _harmonic_dimensions(d, truncation) * sums
    _warn_if_under_resolved(coeffs)
    return RealSchoenbergSequence(d, coeffs)


def reconstruct(seq: RealSchoenbergSequence, theta):
    """Evaluate the truncated expansion of ``seq`` at angle(s) theta."""
    scalar = np.ndim(theta) == 0
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    outside = ~((theta >= -BOUNDARY_TOL) & (theta <= math.pi + BOUNDARY_TOL))
    if np.any(outside):
        raise ValueError(f"theta must lie in [0, pi], got {theta[outside][0]}")
    alpha = 0.5 * (seq.d - 2)
    out = np.zeros(theta.size)
    for start, block in _jacobi_blocks(seq.truncation, alpha, np.cos(theta).ravel()):
        out += seq.coeffs[start : start + len(block)] @ block
    return float(out[0]) if scalar else out.reshape(theta.shape)
