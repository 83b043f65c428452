"""Double-indexed coefficient sequences of functions on the unit disk.

The (m, n) coefficient of a function phi with respect to the sphere
parameter q is

    a_{m,n} = h(m, n, q) * integral phi(z) conj(R_{m,n}(z)) d nu(z),

evaluated with the disk product rule. Coefficients of positive definite
functions are real and nonnegative; the imaginary residue the quadrature
leaves behind is tracked as a diagnostic rather than silently dropped,
since a large residue means either a genuinely complex expansion or an
under-resolved rule.

Both transforms are separated. R_{m,n}(r e^{it}) = p_k(2 r^2 - 1) r^|l| e^{ilt}
with l = m - n and k = min(m, n), so the angular factor depends only on
the diagonal l and the radial factor only on (k, |l|):

* ``compute_complex_coeffs`` works from a plan built once per process for
  each (q, max degree M, rule) and kept like the quadrature rules (the last
  ``RULE_CACHE_SIZE``, read-only). The plan holds the angular phases
  cos(l t) and sin(l t) for l = 0..M and the radial operator: for each |l|
  the rows h(m, n, q) w_i r_i^|l| p_k(2 r_i^2 - 1) over the R radii, from
  one normalized Jacobi table, shared by the diagonals +-|l|. Building it
  costs O(M^2 R) plus O(A M) phases. Each call then pays only array
  operations: one real matrix product of the R x A samples with the
  phases gives the modes of all 2M + 1 diagonals at every radius,
  O(R A M), and one small product per |l| contracts them with the radial
  rows, O(M^2 R); against O(M^5) for evaluating every R_{m,n} at every
  node. (``np.fft`` would bring the angular part to O(R A log A), but it
  adds close to 1 MB of peak memory on first use, for a part that is not
  the bottleneck.)
* ``reconstruct_complex`` evaluates the radial factors once per distinct
  |z|^2, not once per point (a polar plotting grid repeats its radii), and
  runs one Jacobi recurrence over k for all sizes |l| at once
  (``gegenbauer._jacobi_sums``), adding each row into the sums of the
  diagonals +-|l| instead of keeping a table. So it needs O(M U) memory
  for U distinct |z|^2, plus O(P) for P points and the coefficients laid
  out by size and k; the angular factors z^|l| are then applied point by
  point.
* Both build and read sequences as arrays: the coefficients become a
  sequence through the array form of its constructor, and reconstruction
  reads the entries as arrays, as the walks do.
"""
from __future__ import annotations

import functools
import warnings
from typing import NamedTuple

import numpy as np

from .disk_polys import _disk_points, _polar_nodes, disk_rule_sized, h_norm
from .gegenbauer import _jacobi_sums, _jacobi_table
from .quadrature import (
    RULE_CACHE_SIZE,
    QuadratureResolutionWarning,
    QuadratureRule,
    _finite_samples,
)
from .sequences import ComplexSchoenbergSequence, _diagonal_entries, _Entries

__all__ = ["compute_complex_coeffs", "reconstruct_complex"]

ILL_CONDITION_TOL = 1e-6


def _polar_grid(rule: QuadratureRule, q: int):
    """Radii, per-node weights and angle count of a ``disk_quadrature`` rule.

    The rule's nodes run over the A angles 2 pi j / A at each radius in
    turn, and every node on one circle has the same weight.
    """
    hint = f"build it with disk_quadrature({q}, R, A)"
    if rule.nodes.ndim != 2:
        raise ValueError(f"disk coefficients need a disk rule; {hint}")
    x, y = rule.nodes.T
    starts = np.flatnonzero((y == 0.0) & (x > 0.0))  # angle 0 opens each circle
    angles = len(x) // max(len(starts), 1)
    radii, weights = x[starts], rule.weights[starts]
    if not (
        np.array_equal(rule.nodes, _polar_nodes(radii, angles))
        and np.array_equal(rule.weights, np.repeat(weights, angles))
    ):
        raise ValueError(f"disk coefficients need a radius x angle grid; {hint}")
    # the weights carry the disk measure at parameter q - 2, whose mean of
    # |z|^2 is 1/q; a rule built for another q would give plausible wrong numbers
    if abs(angles * float(weights @ radii**2) - 1.0 / q) > 1e-12:
        raise ValueError(f"rule does not fit the disk measure at q={q}; {hint}")
    return radii, weights, angles


class _DiskPlan(NamedTuple):
    """Everything of the disk transform fixed by (q, M, rule); arrays read-only.

    ``phases`` (A, 2M + 2) holds cos(l t_j), then sin(l t_j), for l = 0..M;
    ``radial[s]`` (k_max + 1, R) holds the rows h(k + s, k, q) w_i r_i^s
    p_k(2 r_i^2 - 1), shared by the diagonals l = +-s, since h(m, n, q) is
    symmetric; ``keys`` (rows m, n) are the entries' bi-degrees in output order, k-major
    within each s and then l = +s before l = -s.
    """

    keys: np.ndarray
    phases: np.ndarray
    radial: tuple


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _disk_plan(q: int, max_degree: int, angles: int, radii: bytes, weights: bytes) -> _DiskPlan:
    """The plan for the rule with these radii and per-node weights (as bytes)."""
    radii, weights = np.frombuffer(radii), np.frombuffer(weights)
    # the phase index j l is reduced mod A, so l aliases onto l mod A exactly
    angle = 2.0 * np.pi / angles * (np.outer(np.arange(angles), np.arange(max_degree + 1)) % angles)
    phases = np.hstack((np.cos(angle), np.sin(angle)))
    phases.flags.writeable = False
    keys, radial = [], []
    x = 2.0 * radii**2 - 1.0
    for size in range(max_degree + 1):
        table = _jacobi_table((max_degree - size) // 2, q - 2, size, x)
        table *= weights * radii**size
        table *= np.array([h_norm(k + size, k, q) for k in range(len(table))])[:, None]
        table.flags.writeable = False
        radial.append(table)
        for k in range(len(table)):
            keys += [(k + size, k), (k, k + size)] if size else [(k, k)]
    keys = np.array(keys)
    keys.flags.writeable = False
    return _DiskPlan(keys, phases, tuple(radial))


def compute_complex_coeffs(
    phi,
    q: int,
    max_degree: int,
    rule: QuadratureRule | None = None,
) -> ComplexSchoenbergSequence:
    """Coefficients of ``phi`` at sphere parameter q, all m + n <= max_degree.

    ``phi`` is a DiskFunction or a plain vectorized callable on complex
    points of the closed unit disk. A given ``rule`` must come from
    ``disk_quadrature(q, R, A)``; an angular grid too coarse for the degree
    aliases mode l onto l mod A, as the sum over its nodes does. The
    returned sequence stores the real parts; the largest dropped imaginary
    magnitude is available as the ``max_imag`` attribute of the result.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    fn = getattr(phi, "eval", phi)
    if rule is None:
        rule = disk_rule_sized(q, max_degree)
    radii, weights, angles = _polar_grid(rule, q)
    values = _finite_samples(fn, rule.complex_nodes, complex, "phi", "z")
    plan = _disk_plan(q, max_degree, angles, radii.tobytes(), weights.tobytes())
    # mode l at radius r_i is sum_j phi(r_i e^{i t_j}) e^{-i l t_j}; with
    # phi = x + iy, one real product gives x cos, x sin, y cos and y sin,
    # and mode +-l is (x cos +- y sin) + i (y cos -+ x sin). Real, not complex:
    # a complex product loads the complex BLAS kernels (about +0.4 MB).
    sums = np.concatenate((values.real, values.imag)).reshape(2, len(radii), angles) @ plan.phases
    (x_cos, y_cos), (x_sin, y_sin) = np.split(sums, 2, axis=-1)
    modes = np.stack((x_cos + y_sin, y_cos - x_sin, x_cos - y_sin, y_cos + x_sin), axis=-1)
    # per size s, the rows (k, s) times the modes of l = +-s as (re, im)
    # pairs give every entry of both diagonals, already in key order
    a = np.concatenate(
        [table @ modes[:, size, : 4 if size else 2] for size, table in enumerate(plan.radial)],
        axis=None,
    ).view(complex)
    max_imag = float(np.abs(a.imag).max())
    abs_mass = float(np.abs(a.real).sum())
    if abs_mass > 1.0 + ILL_CONDITION_TOL:
        warnings.warn(
            f"absolute coefficient mass {abs_mass:.6g} exceeds 1; "
            "the quadrature rule looks under-resolved",
            QuadratureResolutionWarning,
            stacklevel=2,
        )
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
    diagonal, k, a = _diagonal_entries(seq)
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
