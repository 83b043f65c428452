"""The one registry of invariant checks, behind ``schoenberg selftest``
and the acceptance suite in ``tests/test_acceptance.py``, which runs the
ten checks that carry a criterion number. Each check tests one identity
against an oracle independent of the code path under test, and draws from
``default_rng(seed + offset)``: deterministic for a fixed seed, and at the
default seed the criteria report the acceptance numbers.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complex_coeffs import compute_complex_coeffs
from .disk_polys import disk_poly_eval, h_norm
from .functions import (
    disk_from_sequence,
    isotropic_from_sequence,
    poisson_circle_coeffs,
    poisson_isotropic,
    random_complex_sequence,
    random_real_sequence,
)
from .gegenbauer import _jacobi_blocks
from .quadrature import QuadratureResolutionWarning, _integer, gauss_jacobi
from .real_coeffs import compute_real_coeffs
from .sequences import ComplexSchoenbergSequence, RealSchoenbergSequence
from .spd import check_progressions, support_pattern
from .walk_complex import walk_down_complex, walk_up_complex
from .walk_real import cross_project, walk_down, walk_up

__all__ = ["CHECKS", "SEED", "Check", "CheckResult", "run_selftest"]

SEED = 20240801


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


@dataclass(frozen=True)
class Check:
    """One identity: ``body(rng, tol)`` returns ``(passed, detail)``. A check
    with a ``time_limit`` also fails when its body takes that long or longer."""

    name: str
    body: Callable[[np.random.Generator, float | None], tuple[bool, str]]
    tol: float | None
    offset: int = 0
    criterion: int | None = None
    description: str | None = None
    time_limit: float | None = None

    def run(self, seed: int) -> CheckResult:
        rng = np.random.default_rng(seed + self.offset)
        start = time.perf_counter()
        try:
            passed, detail = self.body(rng, self.tol)
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.time_limit is not None and elapsed >= self.time_limit:
            passed, detail = False, f"{detail}; over the {self.time_limit:g}s time limit"
        return CheckResult(self.name, bool(passed), detail, elapsed)


def _within(label, worst, tol):
    # the tolerance reads as written in the registry: 1e-8, not 1e-08
    mantissa, exponent = f"{tol:.0e}".split("e")
    return worst <= tol, f"{label} {worst:.2e}, tol {mantissa}e{int(exponent)}"


def _off_class(coeffs_fn, *args):
    # a mixture built one level down need not be positive definite one level
    # up, so the absolute-mass heuristic is expected to fire on the recompute
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureResolutionWarning)
        return coeffs_fn(*args)


def _entry_error(a, b):
    keys = set(a.entries) | set(b.entries)
    return max((abs(a.get(*k) - b.get(*k)) for k in keys), default=0.0)


def _with_headroom(seq):
    return ComplexSchoenbergSequence(seq.q, seq.entries, seq.max_degree + 2)


def _legendre_rows(n_max, x):
    rows = [np.ones_like(x), x]
    for k in range(2, n_max + 1):
        rows.append(((2 * k - 1) * x * rows[-1] - (k - 1) * rows[-2]) / k)
    return np.array(rows)


def _basis_rows(n_max, a, u):
    # rows 0..n_max of the recurrence at a = b, read block by block from the
    # generator both real transforms run; past row 63 they span blocks
    return np.concatenate([block.copy() for _, block in _jacobi_blocks(n_max, a, u)])


def _gegenbauer_recurrence(rng, tol):
    # every three consecutive rows at a = order - 1/2, scaled to 1 at 1,
    # block boundaries included: the Gegenbauer recurrence of that order in
    # its normalized form
    worst = 0.0
    n = np.arange(2.0, 141.0)[:, None]
    for _ in range(40):
        order = float(rng.uniform(0.05, 8.0))
        u = rng.uniform(-1.0, 1.0, 5)
        rows = _basis_rows(140, order - 0.5, u)
        c0, c1, c2 = rows[:-2], rows[1:-1], rows[2:]
        lead, drop = 2.0 * u * (n + order - 1.0) * c1, (n - 1.0) * c0
        residual = (n + 2.0 * order - 1.0) * c2 - lead + drop
        scale = np.maximum(np.maximum(np.abs((n + 2.0 * order - 1.0) * c2), np.abs(lead)), 1.0)
        worst = max(worst, float(np.max(np.abs(residual) / scale)))
    return worst <= tol, f"max relative residual {worst:.2e}"


def _legendre_agreement(rng, tol):
    # the S^2 basis is the Legendre one
    u = rng.uniform(-1.0, 1.0, 64)
    worst = float(np.max(np.abs(_basis_rows(140, 0.0, u) - _legendre_rows(140, u))))
    return worst <= tol, f"max abs difference {worst:.2e}"


def _normalized_bound(rng, tol):
    u = np.linspace(-1.0, 1.0, 1001)
    worst = max(float(np.max(np.abs(_basis_rows(140, 0.5 * (d - 2), u)))) for d in (2, 3, 5, 8))
    return worst <= 1.0 + tol, f"max |value| {worst:.15f}"


def _coefficient_map_one_hot(rng, tol):
    # the coefficient map must send each basis polynomial to a one-hot vector
    worst = 0.0
    for d in range(2, 7):
        for n in range(0, 11, 2):
            one_hot = np.zeros(n + 1)
            one_hot[n] = 1.0
            seq = RealSchoenbergSequence(d, one_hot)
            got = compute_real_coeffs(isotropic_from_sequence(seq), d, n)
            worst = max(worst, float(np.max(np.abs(got.coeffs - one_hot))))
    return worst <= tol, f"max deviation from one-hot {worst:.2e}"


def _poisson_circle(rng, tol):
    got = compute_real_coeffs(poisson_isotropic(0.5), 1, 25)
    expected = poisson_circle_coeffs(0.5, 25)
    worst = float(np.max(np.abs(got.coeffs - expected.coeffs)))
    return worst <= tol, f"max abs error {worst:.2e}"


def _real_roundtrip(rng, tol):
    worst = 0.0
    for d in (2, 3, 4, 5, 6):
        for _ in range(200):
            support = int(rng.integers(3, 39))  # truncation support + 2 <= 40
            seq = random_real_sequence(d, support, int(rng.integers(2**31)), pad=2)
            back = walk_down(walk_up(seq), n_out=seq.truncation)
            worst = max(worst, float(np.max(np.abs(back.coeffs - seq.coeffs))))
    return _within("max err", worst, tol)


def _inverse_series_to_circle(rng, tol):
    # closed-form chain for the Poisson kernel with r = 1/2: Fourier oracle
    # on the circle, forward walk to d = 3 truncated at degree 60, inverse
    # series back down, compare for degrees <= 20
    oracle = poisson_circle_coeffs(0.5, 62)
    at_three = walk_up(oracle)
    recovered = walk_down(at_three, n_out=20)
    worst = float(np.max(np.abs(recovered.coeffs - oracle.coeffs[:21])))
    ok, detail = _within("max err", worst, tol)
    return ok and at_three.truncation == 60, detail


def _real_walk_quadrature_oracle(rng, tol):
    worst = 0.0
    for _ in range(10):
        seq = random_real_sequence(2, 15, int(rng.integers(2**31)), pad=2)
        walked = walk_up(seq)
        via = _off_class(compute_real_coeffs, isotropic_from_sequence(seq), 4, walked.truncation)
        worst = max(worst, float(np.max(np.abs(walked.coeffs - via.coeffs))))
    return _within("max err", worst, tol)


def _cross_projection(rng, tol):
    worst = 0.0
    for d, d_prime in ((5, 2), (4, 1), (6, 3)):
        for _ in range(5):
            seq = random_real_sequence(d, 12, int(rng.integers(2**31)))
            direct = cross_project(seq, d_prime)
            via = compute_real_coeffs(isotropic_from_sequence(seq), d_prime, 12)
            worst = max(worst, float(np.max(np.abs(direct.coeffs - via.coeffs))))
    return _within("max err", worst, tol)


def _disk_orthogonality(rng, tol):
    worst = 0.0
    for q in (2, 3, 4, 5):
        # the 40 x 64 product rule, built here apart from the disk plan
        t, mass = gauss_jacobi(40, q - 2, 0)
        z = (np.sqrt(0.5 * (1.0 + t))[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)).ravel()
        w = np.repeat(mass / 64, 64)
        pairs = [(m, n) for m in range(7) for n in range(7)]
        table = np.array([disk_poly_eval(m, n, q - 2, z) for m, n in pairs])
        gram = (table * w) @ table.conj().T
        target = np.diag([1.0 / h_norm(m, n, q) for m, n in pairs])
        worst = max(worst, float(np.max(np.abs(gram - target))))
    return _within("max err", worst, tol)


def _disk_recursion(rng, tol):
    worst = 0.0
    for _ in range(1000):
        q = int(rng.integers(2, 7))
        m = int(rng.integers(1, 11))
        n = int(rng.integers(0, 11))
        z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        lhs = (1.0 - abs(z) ** 2) * disk_poly_eval(m - 1, n, q - 1, z)
        rhs = (q - 1.0) / (m + n + q - 1.0) * (
            disk_poly_eval(m - 1, n, q - 2, z) - disk_poly_eval(m, n + 1, q - 2, z)
        )
        worst = max(worst, abs(lhs - rhs))
    return _within("max residual", worst, tol)


def _complex_roundtrip(rng, tol):
    worst = 0.0
    for q in (2, 3, 4, 5):
        for _ in range(200):
            degree = int(rng.integers(2, 11))  # max_degree degree + 2 <= 12
            seq = random_complex_sequence(q, degree, int(rng.integers(2**31)))
            back = walk_down_complex(walk_up_complex(_with_headroom(seq)))
            worst = max(worst, _entry_error(seq, back))
    return _within("max err", worst, tol)


def _complex_walk_quadrature_oracle(rng, tol):
    worst = 0.0
    for q in (2, 3):
        for _ in range(5):
            seq = random_complex_sequence(q, 6, int(rng.integers(2**31)))
            walked = walk_up_complex(_with_headroom(seq))  # headroom keeps degree 6
            via = _off_class(compute_complex_coeffs, disk_from_sequence(seq), q + 1, 6)
            worst = max(worst, _entry_error(walked, via))
    return _within("max err", worst, tol)


def _mass_conservation(rng, tol):
    worst = 0.0
    for d in (1, 2, 3, 4, 5, 6):
        for _ in range(50):
            support = int(rng.integers(3, 39))
            seq = random_real_sequence(d, support, int(rng.integers(2**31)), pad=2)
            up = walk_up(seq)
            for walked in (up, walk_down(up, n_out=seq.truncation)):
                worst = max(worst, abs(walked.total_mass - seq.total_mass))
    for q in (2, 3, 4, 5):
        for _ in range(50):
            degree = int(rng.integers(2, 11))
            seq = random_complex_sequence(q, degree, int(rng.integers(2**31)))
            up = walk_up_complex(_with_headroom(seq))
            for walked in (up, walk_down_complex(up)):
                worst = max(worst, abs(walked.total_mass - seq.total_mass))
    return _within("max drift", worst, tol)


def _spd_diagnostics(rng, tol):
    # (a) diagonal support: certified violation at modulus 2, residue 1
    diagonal = ComplexSchoenbergSequence(2, {(1, 1): 0.6, (3, 3): 0.4}, 6)
    verdict = check_progressions(support_pattern(diagonal), 2)
    part_a = (2, 1) in verdict.violations and verdict.certified_violation
    # (b) full support up to M = 6 passes every progression with modulus <= M
    pairs = [(m, n) for m in range(7) for n in range(7 - m)]
    full = ComplexSchoenbergSequence(2, {p: 1.0 / len(pairs) for p in pairs}, 6)
    part_b = not check_progressions(support_pattern(full), 6).violations
    # (c) support transfer through the inverse walk, 100 random sparse cases
    part_c = True
    for _ in range(100):
        upper = random_complex_sequence(int(rng.integers(3, 7)), 9, int(rng.integers(2**31)))
        lower = walk_down_complex(upper)
        for m, n in {(m - j, n - j) for (m, n) in upper.entries for j in range(min(m, n) + 1)}:
            upstairs = any(upper.get(m + j, n + j) > 0.0 for j in range(upper.max_degree + 1))
            part_c = part_c and (lower.get(m, n) > 0.0) == upstairs
    ok = part_a and part_b and part_c
    return ok, f"diagonal={part_a}, full={part_b}, transfer={part_c}"


CHECKS = (
    Check("gegenbauer-recurrence-residual", _gegenbauer_recurrence, 1e-12),
    Check("gegenbauer-legendre-agreement", _legendre_agreement, 1e-13),
    Check("normalized-basis-bounded", _normalized_bound, 1e-12),
    Check("coefficient-map-one-hot", _coefficient_map_one_hot, 1e-11),
    Check("poisson-circle-closed-form", _poisson_circle, 1e-12),
    Check("real-walk-roundtrip", _real_roundtrip, 1e-11, 0, 1,
          "real walk roundtrip == identity (1000 sequences, d=2..6, N<=40)", 5.0),
    Check("inverse-series-to-circle", _inverse_series_to_circle, 1e-8, 0, 2,
          "inverse series (d=3 -> 1) matches Fourier oracle for Poisson r=1/2"),
    Check("real-walk-quadrature-oracle", _real_walk_quadrature_oracle, 1e-9, 1, 3,
          "forward walk d=2->4 vs quadrature of the reconstruction (N=15)"),
    Check("cross-projection-agreement", _cross_projection, 1e-9, 2, 4,
          "projection d->d' vs reconstruct-then-recompute for (5,2),(4,1),(6,3)"),
    Check("disk-orthogonality", _disk_orthogonality, 1e-10, 0, 5,
          "disk orthogonality vs h for q=2..5, all bi-degrees <= 6", 10.0),
    Check("disk-recursion", _disk_recursion, 1e-12, 3, 6,
          "disk recursion residual at 1000 random (z, m<=10, n<=10, q<=6)"),
    Check("complex-walk-roundtrip", _complex_roundtrip, 1e-10, 4, 7,
          "complex walk roundtrip == identity (800 sequences, q=2..5, M<=12)"),
    Check("complex-walk-quadrature-oracle", _complex_walk_quadrature_oracle, 1e-9, 5, 8,
          "forward complex walk vs quadrature of the reconstruction (q=2,3, M<=8)"),
    Check("walk-mass-conservation", _mass_conservation, 1e-10, 6, 9,
          "every walk conserves total coefficient mass"),
    Check("spd-diagnostics", _spd_diagnostics, None, 7, 10,
          "SPD diagnostics: parity violation, full support pass, support transfer"),
)


def run_selftest(seed: int = SEED) -> list[CheckResult]:
    """Run every registered check; deterministic for a fixed seed."""
    seed = _integer("seed", seed, 0)
    return [check.run(seed) for check in CHECKS]
