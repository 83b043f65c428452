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

* ``compute_complex_coeffs`` reshapes the samples of the R x A rule to
  radius x angle. For each pair of diagonals +-|l| it sums the samples
  against e^{-ilt} over the uniform angles, which gives mode l at every
  radius; one normalized Jacobi table over the R radii then gives every k
  on those two diagonals, in one broadcast product. The angular sums cost
  O(R A M) and the tables O(M^2 R) for max degree M; with the default
  A = 4M + 8 the whole is O(M^2 R), against O(M^5) for evaluating every
  R_{m,n} at every node. (``np.fft`` would bring the angular part to
  O(R A log A), but it adds close to 1 MB of peak memory on first use,
  for a part that is not the bottleneck.)
* ``reconstruct_complex`` groups the entries by diagonal into dense
  coefficient vectors and contracts each with its diagonal's Jacobi table
  over the points, so it needs O((M/2) P) memory for P points, the same
  order as the real ``reconstruct``.
"""
from __future__ import annotations

import warnings

import numpy as np

from .disk_polys import _angular, _disk_points, _polar_nodes, disk_rule_sized, h_norm
from .gegenbauer import _jacobi_table
from .quadrature import QuadratureResolutionWarning, QuadratureRule, _finite_samples
from .sequences import ComplexSchoenbergSequence

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
    samples = values.reshape(len(radii), angles)
    entries = {}
    max_imag = 0.0
    abs_mass = 0.0
    for size in range(max_degree + 1):
        diagonals = (size, -size) if size else (0,)
        # mode l at radius r_i is sum_j phi(r_i e^{i t_j}) e^{-i l t_j}; the
        # phase index j l is reduced mod A, so l aliases onto l mod A exactly
        turns = np.outer(diagonals, np.arange(angles)) % angles
        modes = (samples * np.exp(-2j * np.pi / angles * turns)[:, None, :]).sum(axis=-1)
        # one row per diagonal l = +-size: w_i r_i^|l| times mode l at r_i
        projected = weights * radii**size * modes
        radial = _jacobi_table((max_degree - size) // 2, q - 2, size, 2.0 * radii**2 - 1.0)
        # elementwise, not a complex matmul, which would load the complex BLAS
        # kernels and add about 0.4 MB of peak memory
        inner = (projected[:, None, :] * radial).sum(axis=-1)
        for k, column in enumerate(inner.T):
            for ell, value in zip(diagonals, column):
                m, n = k + max(ell, 0), k + max(-ell, 0)
                a = h_norm(m, n, q) * value
                max_imag = max(max_imag, abs(float(a.imag)))
                abs_mass += abs(float(a.real))
                entries[(m, n)] = float(a.real)
    if abs_mass > 1.0 + ILL_CONDITION_TOL:
        warnings.warn(
            f"absolute coefficient mass {abs_mass:.6g} exceeds 1; "
            "the quadrature rule looks under-resolved",
            QuadratureResolutionWarning,
            stacklevel=2,
        )
    return ComplexSchoenbergSequence(q, entries, max_degree, max_imag=max_imag)


def reconstruct_complex(seq: ComplexSchoenbergSequence, z):
    """Evaluate the truncated disk expansion of ``seq`` at point(s) z.

    Each diagonal's coefficients, zero-filled to a dense vector, contract
    with that diagonal's radial table, so memory is O((M/2) P) for max
    degree M and P points.
    """
    scalar = np.ndim(z) == 0
    z, radius_sq = _disk_points(np.atleast_1d(z))
    by_diagonal = {}
    for (m, n), a in seq.entries.items():
        by_diagonal.setdefault(m - n, {})[min(m, n)] = a
    out = np.zeros_like(z)
    for ell, column in by_diagonal.items():
        dense = np.zeros(max(column) + 1)
        dense[list(column)] = list(column.values())
        radial = _jacobi_table(len(dense) - 1, seq.q - 2, abs(ell), 2.0 * radius_sq - 1.0)
        out += (dense @ radial) * _angular(ell, z)
    return complex(out[0]) if scalar else out
