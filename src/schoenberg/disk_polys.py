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
"""
from __future__ import annotations

from math import comb, pi

import numpy as np

from .quadrature import QuadratureRule, gauss_jacobi

__all__ = [
    "jacobi_eval",
    "jacobi_at_one",
    "disk_poly_eval",
    "h_norm",
    "disk_quadrature",
    "disk_rule_sized",
]

#: |z| may exceed 1 by at most this before being rejected
DISK_BOUNDARY_TOL = 1e-12


def jacobi_eval(k: int, a: float, b: float, x):
    """Degree-k Jacobi polynomial with parameters (a, b), standard scaling.

    Three-term recurrence from the usual handbook form; x may be an array.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if k == 0:
        return p_prev
    p_cur = 0.5 * (a - b + (a + b + 2.0) * x)
    for m in range(2, k + 1):
        c1 = 2.0 * m * (m + a + b) * (2.0 * m + a + b - 2.0)
        c2 = (2.0 * m + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * m + a + b - 2.0) * (2.0 * m + a + b - 1.0) * (2.0 * m + a + b)
        c4 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * (2.0 * m + a + b)
        p_prev, p_cur = p_cur, ((c2 + c3 * x) * p_cur - c4 * p_prev) / c1
    return p_cur


def jacobi_at_one(k: int, a: float) -> float:
    """Value of the degree-k Jacobi polynomial at x = 1, i.e. C(k + a, k)."""
    value = 1.0
    for i in range(1, k + 1):
        value *= (a + i) / i
    return value


def disk_poly_eval(m: int, n: int, alpha: int, z):
    """Evaluate the bi-degree (m, n) disk polynomial of parameter alpha at z.

    z may be a scalar or array of complex numbers with |z| <= 1 (a 1e-12
    margin is clamped). The radial part is evaluated in s = |z|^2, keeping
    full accuracy near the rim.
    """
    if m < 0 or n < 0 or alpha < 0:
        raise ValueError("m, n and alpha must all be nonnegative")
    scalar = np.ndim(z) == 0
    z = np.asarray(z, dtype=complex)
    radius_sq = (z * z.conjugate()).real
    outside = ~(radius_sq <= 1.0 + 2.0 * DISK_BOUNDARY_TOL)
    if np.any(outside):
        raise ValueError(f"z must lie in the closed unit disk, got {z[outside].flat[0]}")
    radius_sq = np.minimum(radius_sq, 1.0)
    k, s = min(m, n), abs(m - n)
    radial = jacobi_eval(k, alpha, s, 2.0 * radius_sq - 1.0) / jacobi_at_one(k, alpha)
    if m == n:
        out = radial.astype(complex)
    elif m > n:
        out = radial * z**s
    else:
        out = radial * np.conj(z) ** s
    return complex(out) if scalar else out


def h_norm(m: int, n: int, q: int) -> float:
    """Reciprocal squared norm of the (m, n) disk polynomial at parameter q - 2."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    return (m + n + q - 1) / (q - 1) * comb(m + q - 2, q - 2) * comb(n + q - 2, q - 2)


def disk_quadrature(q: int, radial_nodes: int, angular_nodes: int) -> QuadratureRule:
    """Product quadrature for the disk probability measure at parameter q - 2.

    Gauss-Jacobi with parameters (q - 2, 0) for the radial density
    (q - 1) (1 - s)^(q-2) in s = r^2 on [0, 1], crossed with a uniform
    angular grid (exact for trigonometric polynomials of degree below the
    grid size). Total weight is 1 up to roundoff.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if radial_nodes < 1 or angular_nodes < 1:
        raise ValueError("node counts must be positive")
    t, radial_weight = gauss_jacobi(radial_nodes, q - 2, 0)
    r = np.sqrt(0.5 * (1.0 + t))  # s = r^2 = (1 + t) / 2
    phi = 2.0 * pi * np.arange(angular_nodes) / angular_nodes
    x = np.outer(r, np.cos(phi)).ravel()
    y = np.outer(r, np.sin(phi)).ravel()
    weights = np.repeat(radial_weight / angular_nodes, angular_nodes)
    return QuadratureRule(np.column_stack([x, y]), weights)


def disk_rule_sized(q: int, max_degree: int) -> QuadratureRule:
    """Disk rule resolving products of disk polynomials up to max_degree."""
    return disk_quadrature(q, max_degree + q + 12, 4 * max_degree + 8)
