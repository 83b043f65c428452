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
radial factors p_0, p_1, ... of one diagonal are the rows of
``gegenbauer._jacobi_table``, the normalized recurrence that also builds
the real-sphere basis. It serves ``disk_poly_eval`` and the transforms in
``complex_coeffs``, which take a whole diagonal's table at once instead of
evaluating every R_{m,n} from scratch.

The product quadrature of nu is a ``DiskRule``, which holds only (q, R, A):
this module alone knows the layout of its nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, pi

import numpy as np

from .gegenbauer import _jacobi_table
from .quadrature import _integer, gauss_jacobi

__all__ = ["DiskRule", "disk_poly_eval", "h_norm"]

#: |z| may exceed 1 by at most this before being rejected
DISK_BOUNDARY_TOL = 1e-12


def _angular(ell: int, z):
    """Angular factor z**ell of the diagonal m - n = ell (conj(z)**|ell| if ell < 0)."""
    return z**ell if ell >= 0 else np.conj(z) ** -ell


def _disk_points(z):
    """``z`` as a complex array with ``|z|^2`` clamped to 1.

    Raises ValueError naming the first point that is NaN or lies outside
    the closed unit disk by more than the 1e-12 boundary margin.
    """
    z = np.asarray(z, dtype=complex)
    radius_sq = (z * z.conjugate()).real
    outside = ~(radius_sq <= 1.0 + 2.0 * DISK_BOUNDARY_TOL)
    if np.any(outside):
        raise ValueError(f"z must lie in the closed unit disk, got {z[outside].flat[0]}")
    return z, np.minimum(radius_sq, 1.0)


def disk_poly_eval(m: int, n: int, alpha: int, z):
    """Evaluate the bi-degree (m, n) disk polynomial of parameter alpha at z.

    z may be a scalar or array of complex numbers with |z| <= 1 (a 1e-12
    margin is clamped). The radial part is evaluated in s = |z|^2, keeping
    full accuracy near the rim.
    """
    m, n = _integer("m", m), _integer("n", n)
    if m < 0 or n < 0 or alpha < 0:
        raise ValueError("m, n and alpha must all be nonnegative")
    scalar = np.ndim(z) == 0
    z, radius_sq = _disk_points(z)
    radial = _jacobi_table(min(m, n), alpha, abs(m - n), 2.0 * radius_sq - 1.0)[-1]
    out = radial * _angular(m - n, z)
    return complex(out) if scalar else out


def h_norm(m: int, n: int, q: int) -> float:
    """Reciprocal squared norm of the (m, n) disk polynomial at parameter q - 2."""
    m, n, q = _integer("m", m), _integer("n", n), _integer("q", q)
    if q < 2:
        raise ValueError("q must be >= 2")
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    return (m + n + q - 1) / (q - 1) * comb(m + q - 2, q - 2) * comb(n + q - 2, q - 2)


@dataclass(frozen=True)
class DiskRule:
    """Product quadrature for the disk probability measure at parameter q - 2.

    R = ``radial_nodes`` Gauss-Jacobi (q - 2, 0) nodes for the radial density
    (q - 1) (1 - s)^(q-2) in s = r^2, crossed with A = ``angular_nodes``
    uniform angles (exact for trigonometric polynomials of degree below A).
    The rule is its three integers, so equal rules hash alike; its nodes run
    over the A angles at each radius in turn, and its weights sum to 1.
    """

    q: int
    radial_nodes: int
    angular_nodes: int

    def __post_init__(self):
        for name in ("q", "radial_nodes", "angular_nodes"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.q < 2:
            raise ValueError("q must be >= 2")
        if self.radial_nodes < 1 or self.angular_nodes < 1:
            raise ValueError(
                f"need at least one node, got radial_nodes={self.radial_nodes}, "
                f"angular_nodes={self.angular_nodes}"
            )

    def polar(self):
        """The R radii, and the weight of each node on the circle of each radius."""
        t, radial_weight = gauss_jacobi(self.radial_nodes, self.q - 2, 0)
        return np.sqrt(0.5 * (1.0 + t)), radial_weight / self.angular_nodes  # s = (1 + t) / 2

    @property
    def complex_nodes(self) -> np.ndarray:
        """The R A nodes r_i e^{2 pi i j / A}, j = 0..A-1 at each radius r_i in turn."""
        radii, _ = self.polar()
        phi = 2.0 * pi * np.arange(self.angular_nodes) / self.angular_nodes
        return (np.outer(radii, np.cos(phi)) + 1j * np.outer(radii, np.sin(phi))).ravel()

    @property
    def weights(self) -> np.ndarray:
        """The weight of each node, in the order of ``complex_nodes``."""
        return np.repeat(self.polar()[1], self.angular_nodes)
