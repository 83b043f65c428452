"""Double-indexed coefficient sequences of functions on the unit disk.

The (m, n) coefficient of a function phi with respect to the sphere
parameter q is

    a_{m,n} = h(m, n, q) * integral phi(z) conj(R_{m,n}(z)) d nu(z),

evaluated with the disk product rule: R Gauss-Jacobi (q - 2, 0) radii in
s = r^2 for the measure at q, crossed with A uniform angles. The rule is
fixed by q, the radial count R a caller may choose as ``nodes``, and
A = 4M + 8 for max degree M.
Coefficients of positive definite functions are real and nonnegative; the
imaginary residue the quadrature leaves behind is tracked as a diagnostic
rather than silently dropped, since a large residue means either a
genuinely complex expansion or an under-resolved rule.

Both transforms are separated. R_{m,n}(r e^{it}) = p_k(2 r^2 - 1) r^|l| e^{ilt}
with l = m - n and k = min(m, n), so the angular factor depends only on
the diagonal l and the radial factor only on (k, |l|):

* ``compute_complex_coeffs`` works from a plan built once per process for
  each (q, R, M) and kept like the Gauss-Jacobi rules (the last
  ``RULE_CACHE_SIZE``, read-only). The plan holds the rule's R A sample
  nodes, the angular phases cos(l t) and sin(l t) for l = 0..M and the
  radial operator: for each |l| the rows h(m, n, q) w_i r_i^|l|
  p_k(2 r_i^2 - 1) over the R radii, shared by the diagonals +-|l|, from
  one pass of the Jacobi recurrence over k for every |l| at once
  (``gegenbauer._jacobi_rows``). Building it costs O(M^2 R) plus O(A M)
  phases. Each call then pays only array operations: one real matrix
  product of the R x A samples with the phases gives the modes of all
  2M + 1 diagonals at every radius, O(R A M), and one small product per
  |l| contracts them with the radial rows, O(M^2 R); against O(M^5) for
  evaluating every R_{m,n} at every node. (``np.fft`` would bring the
  angular part to O(R A log A), but it adds close to 1 MB of peak memory
  on first use, for a part that is not the bottleneck.)
* ``reconstruct_complex`` evaluates the radial factors once per distinct
  |z|^2, not once per point (a polar plotting grid repeats its radii), and
  runs one Jacobi recurrence over k for all sizes |l| at once
  (``gegenbauer._jacobi_sums``), adding each row into the sums of the
  diagonals +-|l| instead of keeping a table. So it needs O(M U) memory
  for U distinct |z|^2, plus O(P) for P points and the coefficients laid
  out by size and k; the angular factors z^|l| are then applied point by
  point.
* Both work on the arrays a sequence keeps its entries in: the
  coefficients are handed to the constructor as arrays in plan order, and
  reconstruction reads the sequence's sorted arrays, as the walks do.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .disk_polys import _disk_points, h_norm
from .gegenbauer import _jacobi_rows, _jacobi_sums
from .quadrature import (
    RULE_CACHE_SIZE,
    _finite_samples,
    _integer,
    _node_count,
    _warn_if_under_resolved,
    gauss_jacobi,
)
from .sequences import ComplexSchoenbergSequence, _Entries

__all__ = ["compute_complex_coeffs", "reconstruct_complex"]


class _DiskPlan(NamedTuple):
    """Everything of the disk transform fixed by (q, R, M); arrays read-only.

    ``nodes`` (R A,) are the rule's sample points, the A angles at each
    radius in turn; ``phases`` (A, 2M + 2) holds cos(l t_j), then
    sin(l t_j), for l = 0..M; ``radial[s]``
    (k_max + 1, R) holds the rows h(k + s, k, q) w_i r_i^s p_k(2 r_i^2 - 1),
    shared by the diagonals l = +-s, since h(m, n, q) is symmetric; ``keys``
    (rows m, n) are the entries' bi-degrees in output order, k-major within
    each s and then l = +s before l = -s.
    """

    nodes: np.ndarray
    keys: np.ndarray
    phases: np.ndarray
    radial: tuple


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _disk_plan(q: int, radial_nodes: int, max_degree: int) -> _DiskPlan:
    """The plan for coefficients up to M = max_degree at q, on R = radial_nodes by 4M + 8."""
    angles = 4 * max_degree + 8
    t, weights = gauss_jacobi(radial_nodes, q - 2, 0)
    radii, weights = np.sqrt(0.5 * (1.0 + t)), weights / angles  # s = (1 + t) / 2
    phi = 2.0 * np.pi * np.arange(angles) / angles
    nodes = (np.outer(radii, np.cos(phi)) + 1j * np.outer(radii, np.sin(phi))).ravel()
    # the phase index j l is reduced mod A, so l aliases onto l mod A exactly
    angle = 2.0 * np.pi / angles * (np.outer(np.arange(angles), np.arange(max_degree + 1)) % angles)
    phases = np.hstack((np.cos(angle), np.sin(angle)))
    sizes = np.arange(max_degree + 1)
    top = (max_degree - sizes) // 2
    radial = [np.empty((k + 1, radial_nodes)) for k in top]
    for k, rows in _jacobi_rows(q - 2, sizes, top, 2.0 * radii**2 - 1.0):
        for table, row in zip(radial, rows):
            table[k] = row
    keys = []
    for size, table in enumerate(radial):
        table *= weights * radii**size
        table *= np.array([h_norm(k + size, k, q) for k in range(len(table))])[:, None]
        table.flags.writeable = False
        for k in range(len(table)):
            keys += [(k + size, k), (k, k + size)] if size else [(k, k)]
    plan = _DiskPlan(nodes, np.array(keys), phases, tuple(radial))
    for array in plan[:3]:
        array.flags.writeable = False
    return plan


def compute_complex_coeffs(
    phi,
    q: int,
    max_degree: int,
    nodes: int | None = None,
) -> ComplexSchoenbergSequence:
    """Coefficients of ``phi`` at sphere parameter q, all m + n <= max_degree.

    ``phi`` is a DiskFunction or a plain vectorized callable on complex
    points of the closed unit disk. ``nodes`` is the radial count R of the
    disk rule, ``max_degree + q + 12`` by default; the A = 4 max_degree + 8
    angles resolve every product of disk polynomials up to max_degree, and
    a function with angular modes past A - max_degree aliases mode l onto
    l mod A, as the sum over the nodes does. The returned sequence stores
    the real parts; the largest dropped imaginary magnitude is available as
    the ``max_imag`` attribute of the result.
    """
    max_degree = _integer("max_degree", max_degree, 0)
    q = _integer("q", q, 2)
    fn = getattr(phi, "eval", phi)
    radial = _node_count(nodes, max_degree + q + 12)
    plan = _disk_plan(q, radial, max_degree)
    values = _finite_samples(fn, plan.nodes, complex, "phi", "z")
    # mode l at radius r_i is sum_j phi(r_i e^{i t_j}) e^{-i l t_j}; with
    # phi = x + iy, one real product gives x cos, x sin, y cos and y sin,
    # and mode +-l is (x cos +- y sin) + i (y cos -+ x sin). Real, not complex:
    # a complex product loads the complex BLAS kernels (about +0.4 MB).
    sums = np.stack((values.real, values.imag)).reshape(2, radial, -1) @ plan.phases
    (x_cos, y_cos), (x_sin, y_sin) = np.split(sums, 2, axis=-1)
    modes = np.stack((x_cos + y_sin, y_cos - x_sin, x_cos - y_sin, y_cos + x_sin), axis=-1)
    # per size s, the rows (k, s) times the modes of l = +-s as (re, im)
    # pairs give every entry of both diagonals, already in key order
    a = np.concatenate(
        [table @ modes[:, size, : 4 if size else 2] for size, table in enumerate(plan.radial)],
        axis=None,
    ).view(complex)
    max_imag = float(np.abs(a.imag).max())
    _warn_if_under_resolved(a.real)
    entries = _Entries(*plan.keys.T, a.real)
    return ComplexSchoenbergSequence(q, entries, max_degree, max_imag=max_imag)


def reconstruct_complex(seq: ComplexSchoenbergSequence, z):
    """Evaluate the truncated disk expansion of ``seq`` at point(s) z.

    The radial factor p_k(2|z|^2 - 1) depends on |z|^2 alone, so the Jacobi
    recurrence runs once per distinct |z|^2, over k for every size |l| at
    once, and adds each row into the sums of the diagonals +-|l| as it goes;
    z^|l| then carries diagonal +|l| and its conjugate diagonal -|l|. Memory
    is O(M U) for max degree M and U distinct |z|^2, besides O(P) for the
    P points and the coefficients laid out by size and k; z may have any
    shape.
    """
    shape = np.shape(z)
    z, radius_sq = _disk_points(np.ravel(z))
    radius_sq, at = np.unique(radius_sq, return_inverse=True)
    m, n, a = seq.entries.arrays
    try:
        m, n = m.astype(np.int64, copy=False), n.astype(np.int64, copy=False)
    except OverflowError:
        i = int(np.argmax(np.maximum(m, n) > 2**63 - 1))
        raise ValueError(
            f"bi-degree ({m[i]}, {n[i]}) is past int64: the recurrence cannot reach it"
        ) from None
    diagonal, k = m - n, np.minimum(m, n)
    sizes, row = np.unique(np.abs(diagonal), return_inverse=True)
    coef = np.zeros((2, len(sizes), k.max(initial=0) + 1))  # diagonal +|l|, then -|l|
    coef[(diagonal < 0).astype(int), row, k] = a
    plus, minus = _jacobi_sums(coef, seq.q - 2.0, sizes, 2.0 * radius_sq - 1.0)
    # a z^s + b conj(z)^s = (a + b) Re z^s + i (a - b) Im z^s, all real arithmetic
    real, imag = np.zeros(len(z)), np.zeros(len(z))
    power, reached = np.ones_like(z), 0
    for size, even, odd in zip(sizes, plus + minus, plus - minus):
        power *= z if size == reached + 1 else z ** (size - reached)  # z**1 is slow
        reached = size
        real += even[at] * power.real
        imag += odd[at] * power.imag
    out = (real + 1j * imag).reshape(shape)
    return complex(out) if out.ndim == 0 else out
