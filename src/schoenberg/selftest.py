"""Built-in invariant suite behind the ``selftest`` CLI command.

Smaller, faster renditions of the checks the full test suite performs:
each check exercises one identity the implementation is supposed to
satisfy, against an oracle that is independent of the code path under
test. Deterministic for a fixed seed.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import pi

import numpy as np

from .complex_coeffs import compute_complex_coeffs
from .disk_polys import disk_poly_eval, disk_quadrature, disk_rule_sized, h_norm
from .functions import (
    disk_from_sequence,
    isotropic_from_sequence,
    poisson_circle_coeffs,
    poisson_isotropic,
    random_complex_sequence,
    random_real_sequence,
)
from .gegenbauer import gegenbauer_eval, normalized_gegenbauer
from .quadrature import QuadratureResolutionWarning
from .real_coeffs import compute_real_coeffs
from .sequences import ComplexSchoenbergSequence, RealSchoenbergSequence
from .spd import check_progressions, support_pattern
from .walk_complex import walk_down_complex, walk_up_complex
from .walk_real import cross_project, walk_down, walk_up

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _legendre(n, x):
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1


def _check_gegenbauer_recurrence(rng):
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 60))
        order = float(rng.uniform(0.05, 8.0))
        u = float(rng.uniform(-1.0, 1.0))
        c2 = gegenbauer_eval(n, order, u)
        c1 = gegenbauer_eval(n - 1, order, u)
        c0 = gegenbauer_eval(n - 2, order, u)
        residual = n * c2 - 2.0 * u * (n + order - 1.0) * c1 + (n + 2.0 * order - 2.0) * c0
        scale = max(abs(n * c2), abs(2 * u * (n + order - 1) * c1), 1.0)
        worst = max(worst, abs(residual) / scale)
    return worst <= 1e-12, f"max relative residual {worst:.2e}"


def _check_legendre_agreement(rng):
    u = rng.uniform(-1.0, 1.0, 64)
    worst = max(
        float(np.max(np.abs(gegenbauer_eval(n, 0.5, u) - _legendre(n, u))))
        for n in range(61)
    )
    return worst <= 1e-13, f"max abs difference {worst:.2e}"


def _check_normalized_bound(rng):
    u = np.linspace(-1.0, 1.0, 1001)
    worst = 0.0
    for d in (2, 3, 5, 8):
        for n in range(0, 51, 5):
            worst = max(worst, float(np.max(np.abs(normalized_gegenbauer(n, d, u)))))
    return worst <= 1.0 + 1e-12, f"max |value| {worst:.15f}"


def _check_coefficient_map_one_hot(rng):
    # the coefficient map must send each basis polynomial to a one-hot vector
    worst = 0.0
    for d in range(2, 7):
        for n in range(0, 11, 2):
            one_hot = np.zeros(n + 1)
            one_hot[n] = 1.0
            seq = RealSchoenbergSequence(d, one_hot)
            got = compute_real_coeffs(isotropic_from_sequence(seq), d, n)
            worst = max(worst, float(np.max(np.abs(got.coeffs - one_hot))))
    return worst <= 1e-11, f"max deviation from one-hot {worst:.2e}"


def _check_poisson_circle(rng):
    got = compute_real_coeffs(poisson_isotropic(0.5), 1, 25)
    expected = poisson_circle_coeffs(0.5, 25)
    worst = float(np.max(np.abs(got.coeffs - expected.coeffs)))
    return worst <= 1e-12, f"max abs error {worst:.2e}"


def _check_real_roundtrip(rng):
    worst = 0.0
    for d in range(2, 7):
        for _ in range(20):
            n = int(rng.integers(3, 30))
            seq = random_real_sequence(d, n, int(rng.integers(0, 2**31)), pad=2)
            back = walk_down(walk_up(seq), n_out=seq.truncation)
            worst = max(worst, float(np.max(np.abs(back.coeffs - seq.coeffs))))
    return worst <= 1e-11, f"max roundtrip error {worst:.2e}"


def _check_inverse_series_to_circle(rng):
    b1 = poisson_circle_coeffs(0.5, 62)
    b3 = walk_up(b1)
    back = walk_down(b3, n_out=20)
    worst = float(np.max(np.abs(back.coeffs - b1.coeffs[:21])))
    return worst <= 1e-8, f"max abs error {worst:.2e}"


def _check_cross_project(rng):
    worst = 0.0
    for d, d_prime in ((5, 2), (4, 1), (6, 3)):
        seq = random_real_sequence(d, 10, int(rng.integers(0, 2**31)))
        direct = cross_project(seq, d_prime)
        via = compute_real_coeffs(isotropic_from_sequence(seq), d_prime, 10)
        worst = max(worst, float(np.max(np.abs(direct.coeffs - via.coeffs))))
    return worst <= 1e-9, f"max path disagreement {worst:.2e}"


def _check_disk_orthogonality(rng):
    worst = 0.0
    for q in (2, 3):
        rule = disk_quadrature(q, 30, 40)
        z, w = rule.complex_nodes, rule.weights
        table = {
            (m, n): disk_poly_eval(m, n, q - 2, z)
            for m in range(5)
            for n in range(5)
        }
        for (m, n), left in table.items():
            for (k, l), right in table.items():
                inner = np.sum(w * left * np.conj(right))
                target = 1.0 / h_norm(m, n, q) if (m, n) == (k, l) else 0.0
                worst = max(worst, abs(inner - target))
    return worst <= 1e-10, f"max orthogonality error {worst:.2e}"


def _check_disk_recursion(rng):
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(2, 7))
        m = int(rng.integers(1, 11))
        n = int(rng.integers(0, 11))
        z = np.sqrt(rng.uniform()) * np.exp(2j * pi * rng.uniform())
        lhs = (1.0 - abs(z) ** 2) * disk_poly_eval(m - 1, n, q - 1, z)
        rhs = (q - 1.0) / (m + n + q - 1.0) * (
            disk_poly_eval(m - 1, n, q - 2, z) - disk_poly_eval(m, n + 1, q - 2, z)
        )
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-12, f"max residual {worst:.2e}"


def _check_complex_roundtrip(rng):
    worst = 0.0
    for q in range(2, 6):
        for _ in range(20):
            seq = random_complex_sequence(q, 10, int(rng.integers(0, 2**31)))
            lifted = ComplexSchoenbergSequence(q, seq.entries, 12)
            back = walk_down_complex(walk_up_complex(lifted))
            keys = set(seq.entries) | set(back.entries)
            worst = max(
                worst,
                max(abs(back.get(*k) - seq.get(*k)) for k in keys),
            )
    return worst <= 1e-10, f"max roundtrip error {worst:.2e}"


def _check_complex_quadrature_oracle(rng):
    seq = random_complex_sequence(2, 6, int(rng.integers(0, 2**31)))
    lifted = ComplexSchoenbergSequence(2, seq.entries, 8)
    walked = walk_up_complex(lifted)
    with warnings.catch_warnings():
        # the mixture leaves the class one level up; the absolute-mass
        # heuristic is expected to fire and is not a failure here
        warnings.simplefilter("ignore", QuadratureResolutionWarning)
        via = compute_complex_coeffs(
            disk_from_sequence(seq), 3, 6, disk_rule_sized(3, 8)
        )
    keys = set(walked.entries) | set(via.entries)
    worst = max(abs(walked.get(*k) - via.get(*k)) for k in keys)
    return worst <= 1e-9, f"max path disagreement {worst:.2e}"


def _check_mass_conservation(rng):
    worst = 0.0
    for d in (2, 5):
        seq = random_real_sequence(d, 20, int(rng.integers(0, 2**31)), pad=2)
        up = walk_up(seq)
        worst = max(worst, abs(up.total_mass - seq.total_mass))
        worst = max(worst, abs(walk_down(up, n_out=seq.truncation).total_mass - seq.total_mass))
    for q in (2, 4):
        seq = random_complex_sequence(q, 8, int(rng.integers(0, 2**31)))
        lifted = ComplexSchoenbergSequence(q, seq.entries, 10)
        up = walk_up_complex(lifted)
        worst = max(worst, abs(up.total_mass - seq.total_mass))
        worst = max(worst, abs(walk_down_complex(up).total_mass - seq.total_mass))
    return worst <= 1e-10, f"max mass drift {worst:.2e}"


def _check_spd_progressions(rng):
    diagonal = ComplexSchoenbergSequence(2, {(0, 0): 0.5, (2, 2): 0.5}, 4)
    report = check_progressions(support_pattern(diagonal), 2)
    if (2, 1) not in report.violations:
        return False, "diagonal support should miss residue 1 mod 2"
    full = ComplexSchoenbergSequence(
        3,
        {(m, n): 1.0 / 36 for m in range(6) for n in range(6 - m)},
        5,
    )
    report = check_progressions(support_pattern(full), 5)
    if report.violations:
        return False, f"full support unexpectedly violates at {report.violations[0]}"
    return True, "verdicts as expected"


def _check_support_transfer(rng):
    for _ in range(20):
        q = int(rng.integers(2, 6))
        upper = random_complex_sequence(q + 1, 9, int(rng.integers(0, 2**31)))
        lower = walk_down_complex(upper)
        for (m, n) in {(m - j, n - j) for (m, n) in upper.entries for j in range(min(m, n) + 1)}:
            expected = any(
                upper.get(m + j, n + j) > 0.0 for j in range(upper.max_degree + 1)
            )
            if (lower.get(m, n) > 0.0) != expected:
                return False, f"support mismatch at ({m}, {n})"
    return True, "support transfers exactly"


_CHECKS = [
    ("gegenbauer-recurrence-residual", _check_gegenbauer_recurrence),
    ("gegenbauer-legendre-agreement", _check_legendre_agreement),
    ("normalized-basis-bounded", _check_normalized_bound),
    ("coefficient-map-one-hot", _check_coefficient_map_one_hot),
    ("poisson-circle-closed-form", _check_poisson_circle),
    ("real-walk-roundtrip", _check_real_roundtrip),
    ("inverse-series-to-circle", _check_inverse_series_to_circle),
    ("cross-projection-agreement", _check_cross_project),
    ("disk-orthogonality", _check_disk_orthogonality),
    ("disk-recursion", _check_disk_recursion),
    ("complex-walk-roundtrip", _check_complex_roundtrip),
    ("complex-walk-quadrature-oracle", _check_complex_quadrature_oracle),
    ("walk-mass-conservation", _check_mass_conservation),
    ("spd-progression-verdicts", _check_spd_progressions),
    ("spd-support-transfer", _check_support_transfer),
]


def run_selftest(seed: int = 20240801) -> list[CheckResult]:
    """Run every registered check; deterministic for a fixed seed."""
    results = []
    for name, fn in _CHECKS:
        rng = np.random.default_rng(seed)
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail))
    return results
