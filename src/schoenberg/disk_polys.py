"""Disk polynomials on the closed unit disk, with their product quadrature.

The bi-degree (m, n) disk polynomial of parameter alpha >= 0 used here is

    R_{m,n}(z) = p_k(2 |z|^2 - 1) * (z ** (m - n)            if m >= n
                                     conj(z) ** (n - m)      otherwise),

where k = min(m, n) and p_k is the degree-k Jacobi polynomial with
parameters (alpha, |m - n|) scaled so that p_k(1) = 1; hence
R_{m,n}(1) = 1. With alpha = q - 2 these form a complete orthogonal system
for the probability measure

    d nu(z) = ((q - 1) / pi) (1 - |z|^2)^(q-2) dx dy

on the disk, with squared norms 1 / h(m, n, q). The convention is pinned
by two identities that the test suite treats as a mandatory gate: the
numeric orthogonality relations against h, and the mixed-parameter
recursion

    (1 - |z|^2) R^{(q-1)}_{m-1,n}(z)
        = (q - 1) / (m + n + q - 1) * (R^{(q-2)}_{m-1,n}(z)
                                       - R^{(q-2)}_{m,n+1}(z)).

R_{m,n} separates into a radial factor that depends only on (k, |m - n|)
and an angular factor that depends only on the diagonal l = m - n. The
radial factors p_0, p_1, ... are the rows of ``gegenbauer._jacobi_rows``,
the normalized Jacobi recurrence run for many |m - n| at once. It serves
``disk_poly_eval`` and the transforms in ``complex_coeffs``, which take
every diagonal's rows in one pass instead of evaluating every R_{m,n}
from scratch.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .gegenbauer import BOUNDARY_TOL, _jacobi_rows
from .quadrature import _integer, _real

__all__ = ["disk_poly_eval", "h_norm"]


def _angular(ell: int, z):
    """Angular factor z**ell of the diagonal m - n = ell (conj(z)**|ell| if ell < 0)."""
    return z**ell if ell >= 0 else np.conj(z) ** -ell


def _disk_points(z):
    """``z`` as a complex array with ``|z|^2`` clamped to 1.

    Raises ValueError naming the first point that is NaN or lies outside
    the closed unit disk by more than the ``BOUNDARY_TOL`` margin.
    """
    z = np.asarray(z, dtype=complex)
    radius_sq = (z * z.conjugate()).real
    outside = ~(radius_sq <= 1.0 + 2.0 * BOUNDARY_TOL)
    if np.any(outside):
        raise ValueError(f"z must lie in the closed unit disk, got {z[outside].flat[0]}")
    return z, np.minimum(radius_sq, 1.0)


def disk_poly_eval(m: int, n: int, alpha: float, z):
    """Evaluate the bi-degree (m, n) disk polynomial of parameter alpha at z.

    z may be a scalar or array of complex numbers with |z| <= 1 (a
    ``BOUNDARY_TOL`` margin is clamped). The radial part is evaluated in
    s = |z|^2, keeping full accuracy near the rim. ``alpha`` must be a real
    number in [0, inf).
    """
    m, n, alpha = _integer("m", m, 0), _integer("n", n, 0), _real("alpha", alpha, least=0)
    scalar = np.ndim(z) == 0
    z, radius_sq = _disk_points(z)
    x = 2.0 * radius_sq.ravel() - 1.0
    for _, radial in _jacobi_rows(alpha, [abs(m - n)], [min(m, n)], x):
        pass  # the last row is degree min(m, n)
    out = radial.reshape(z.shape) * _angular(m - n, z)
    return complex(out) if scalar else out


def h_norm(m: int, n: int, q: int) -> float:
    """Reciprocal squared norm of the (m, n) disk polynomial at parameter q - 2."""
    m, n, q = _integer("m", m, 0), _integer("n", n, 0), _integer("q", q, 2)
    return (m + n + q - 1) / (q - 1) * comb(m + q - 2, q - 2) * comb(n + q - 2, q - 2)

