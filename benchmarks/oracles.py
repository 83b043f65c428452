"""Reference values and output checks for the benchmark.

Nothing here imports ``schoenberg``. Every reference comes from a closed
form or from the benchmark's own series evaluators below, so a fault in the
program cannot pass by also sitting in its oracle. The checks read outputs
in a plain form (dicts of numpy arrays, see ``workloads.plain``), which is
what lets ``selfcheck.py`` perturb an output and watch its check fail.

Tolerances are absolute. Each one is written down with the worst error
measured over seeds 1-10, three or four tasks each, of every workload
(numpy 2.4, OpenBLAS 0.3.31, one BLAS thread). Each sits at least ten
times above its worst case and below 1e-6, the perturbation that
``selfcheck.py`` shows every check catches.
"""
from __future__ import annotations

import math

import numpy as np

#: Poisson coefficients against the d = 1 and d = 3 closed forms (worst 1.4e-12)
TOL_CLOSED_FORM = 1e-10
#: mixture coefficients against the sequence they were built from (worst 3.4e-11)
TOL_MIXTURE = 1e-9
#: benchmark's own series of a computed real sequence against the function
#: on the check grid (worst 6.4e-9: Poisson at d = 2, N = 512)
TOL_REAL_SERIES = 1e-7
#: program's ``reconstruct`` against the function (worst 6.4e-9, d = 2, N = 512)
TOL_RECONSTRUCT = 1e-7
#: walk_down(walk_up(x)) against x, real side (worst 3.0e-12 at N = 1199)
TOL_WALK_ROUNDTRIP = 1e-10
#: disk mixture coefficients against their seeded sequence (worst 8.3e-12)
TOL_DISK_MIXTURE = 1e-9
#: own disk series of a computed sequence against the function (worst 1.7e-13)
TOL_DISK_SERIES = 1e-11
#: walk_down_complex(walk_up_complex(a)) against a (worst 1.7e-14)
TOL_DISK_ROUNDTRIP = 1e-12
#: program's ``reconstruct_complex`` against the function (worst 9.0e-14)
TOL_DISK_RECONSTRUCT = 1e-11
#: |z|^2 at parameter q: a00 = 1/q, a11 = (q-1)/q, all else 0 (worst 2.8e-14
#: at q = 80; q = 100 raises today, so this check has not run at q = 100)
TOL_ZZ = 1e-10

#: the check grid: both ends of [0, pi], where every basis polynomial is +-1
CHECK_THETA = np.linspace(0.0, math.pi, 65)
#: disk check grid, from the origin to the rim, 16 angles per radius
CHECK_Z = (
    np.linspace(0.0, 1.0, 9)[:, None]
    * np.exp(2j * math.pi * np.arange(16) / 16)[None, :]
).ravel()


class Checker:
    """Collects failed checks and the worst error seen per check label."""

    def __init__(self):
        self.failures = []
        self.worst = {}

    def _record(self, label, err, tol):
        self.worst[label] = max(self.worst.get(label, 0.0), err)
        if not err <= tol:  # NaN fails too
            self.failures.append(f"{label}: error {err:.3e} above {tol:.1e}")

    def close(self, label, got, want, tol):
        got = np.asarray(got)
        want = np.asarray(want)
        if got.shape != want.shape:
            self.failures.append(f"{label}: shape {got.shape} != {want.shape}")
            return
        self._record(label, float(np.max(np.abs(got - want), initial=0.0)), tol)

    def equal(self, label, got, want):
        if got != want:
            self.failures.append(f"{label}: {got!r} != {want!r}")

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------- real side


def poisson(r: float):
    """Poisson kernel on [0, pi], scaled to equal 1 at theta = 0."""
    scale = (1.0 - r) / (1.0 + r) * (1.0 - r * r)

    def psi(theta):
        return scale / (1.0 - 2.0 * r * np.cos(theta) + r * r)

    return psi


def poisson_coeffs(r: float, d: int, truncation: int) -> np.ndarray:
    """Closed-form Poisson coefficients at d = 1 and d = 3.

    d = 1: b0 = (1-r)/(1+r), bn = 2 r^n (1-r)/(1+r).
    d = 3: bn = (1-r)^2 (n+1) r^n, from the generating function of the
    Chebyshev polynomials of the second kind.
    """
    n = np.arange(truncation + 1)
    if d == 1:
        out = 2.0 * (1.0 - r) / (1.0 + r) * r**n
        out[0] = (1.0 - r) / (1.0 + r)
        return out
    if d == 3:
        return (1.0 - r) ** 2 * (n + 1.0) * r**n
    raise ValueError("closed forms exist here for d = 1 and d = 3 only")


def real_series(coeffs, d: int, theta) -> np.ndarray:
    """Sum of b_n c_n(cos theta), c_n the dimension-d basis with c_n(1) = 1.

    d = 1 sums cosines; d >= 2 runs the normalized Gegenbauer recurrence of
    order (d - 1)/2, accumulating as it goes so memory stays O(points).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if d == 1:
        return np.cos(np.outer(theta, np.arange(coeffs.size))) @ coeffs
    u = np.cos(theta)
    two_lam = d - 1.0
    prev = np.ones_like(u)
    total = coeffs[0] * prev
    if coeffs.size == 1:
        return total
    cur = u.copy()
    total = total + coeffs[1] * cur
    for k in range(2, coeffs.size):
        prev, cur = cur, (
            (2.0 * k + two_lam - 2.0) * u * cur - (k - 1.0) * prev
        ) / (k + two_lam - 1.0)
        total += coeffs[k] * cur
    return total


def real_mixture(coeffs, d: int):
    """The isotropic function whose dimension-d sequence is ``coeffs``."""
    coeffs = np.array(coeffs, dtype=float)
    return lambda theta: real_series(coeffs, d, theta)


def check_real_closed_form(checker, label, seq, r):
    want = poisson_coeffs(r, seq["d"], seq["coeffs"].size - 1)
    checker.close(label, seq["coeffs"], want, TOL_CLOSED_FORM)


def check_real_mixture(checker, label, seq, built_from):
    want = np.zeros(seq["coeffs"].size)
    n = min(want.size, built_from.size)
    want[:n] = built_from[:n]
    checker.close(label, seq["coeffs"], want, TOL_MIXTURE)


def check_real_series(checker, label, seq, fn):
    got = real_series(seq["coeffs"], seq["d"], CHECK_THETA)
    checker.close(label, got, fn(CHECK_THETA), TOL_REAL_SERIES)


def check_reconstruct(checker, label, theta, values, fn):
    checker.close(label, values, fn(theta), TOL_RECONSTRUCT)


def check_real_roundtrip(checker, label, back, start):
    """``back`` = walk_down(walk_up(start)): it must return ``start``.

    The walk shrinks the truncation, so the entries past ``back`` must be
    zero padding in ``start``; anything else would have been lost.
    """
    n = back["coeffs"].size
    checker.equal(f"{label}.dimension", back["d"], start["d"])
    checker.close(label, back["coeffs"], start["coeffs"][:n], TOL_WALK_ROUNDTRIP)
    checker.close(f"{label}.padding", start["coeffs"][n:], np.zeros(start["coeffs"].size - n), 0.0)


# ---------------------------------------------------------------- disk side


def _jacobi_rows(k_max: int, a: float, b: float, x):
    """P_0..P_k_max of parameters (a, b) at x, each divided by P_k(1)."""
    rows = [np.ones_like(x)]
    if k_max >= 1:
        rows.append(0.5 * (a - b + (a + b + 2.0) * x))
    for k in range(2, k_max + 1):
        s = 2.0 * k + a + b
        rows.append(
            (
                (s - 1.0) * ((s - 2.0) * s * x + a * a - b * b) * rows[k - 1]
                - 2.0 * (k + a - 1.0) * (k + b - 1.0) * s * rows[k - 2]
            )
            / (2.0 * k * (k + a + b) * (s - 2.0))
        )
    at_one = 1.0
    for k in range(1, k_max + 1):
        at_one *= (a + k) / k
        rows[k] = rows[k] / at_one
    return rows


def disk_series(entries: dict, q: int, z) -> np.ndarray:
    """Sum of a_{m,n} R_{m,n}(z) for the disk polynomials of parameter q - 2.

    R_{m,n}(z) = P_k^{(q-2, |m-n|)}(2|z|^2 - 1) / P_k(1) times z^(m-n) or
    conj(z)^(n-m), with k = min(m, n). One Jacobi recurrence per diagonal.
    """
    z = np.asarray(z, dtype=complex)
    x = 2.0 * (z.real**2 + z.imag**2) - 1.0
    by_diag = {}
    for (m, n), a in entries.items():
        by_diag.setdefault(m - n, {})[min(m, n)] = a
    total = np.zeros_like(z)
    for diag, along in by_diag.items():
        rows = _jacobi_rows(max(along), q - 2.0, abs(diag), x)
        radial = sum(a * rows[k] for k, a in along.items())
        angular = z**diag if diag >= 0 else np.conj(z) ** (-diag)
        total += radial * angular
    return total


def disk_mixture(entries: dict, q: int):
    """The disk function whose parameter-q sequence is ``entries``."""
    entries = dict(entries)
    return lambda z: disk_series(entries, q, z)


def check_disk_entries(checker, label, seq, want: dict, tol):
    keys = sorted(set(seq["entries"]) | set(want))
    got = np.array([seq["entries"].get(k, 0.0) for k in keys])
    ref = np.array([want.get(k, 0.0) for k in keys])
    checker.close(label, got, ref, tol)


def check_disk_series(checker, label, seq, fn):
    got = disk_series(seq["entries"], seq["q"], CHECK_Z)
    checker.close(label, got, fn(CHECK_Z), TOL_DISK_SERIES)


def check_disk_roundtrip(checker, label, back, start):
    """walk_down_complex(walk_up_complex(start)) must return ``start``.

    The forward walk drops the top two total degrees, so only entries with
    m + n <= max_degree - 2 come back.
    """
    keep = start["max_degree"] - 2
    want = {k: v for k, v in start["entries"].items() if sum(k) <= keep}
    checker.equal(f"{label}.q", back["q"], start["q"])
    check_disk_entries(checker, label, back, want, TOL_DISK_ROUNDTRIP)


def check_squared_modulus(checker, label, seq):
    """|z|^2 at parameter q has a00 = 1/q, a11 = (q-1)/q and nothing else."""
    q = seq["q"]
    want = {(0, 0): 1.0 / q, (1, 1): (q - 1.0) / q}
    check_disk_entries(checker, label, seq, want, TOL_ZZ)


# ---------------------------------------------------------------- SPD side


def residue_scan(diffs, max_modulus: int) -> dict:
    """Which residues mod k, k = 1..max_modulus, the difference set meets.

    A strictly positive definite expansion needs its differences to meet
    every arithmetic progression; a missed residue is a violation.
    """
    hits = {k: tuple(any(x % k == r for x in diffs) for r in range(k))
            for k in range(1, max_modulus + 1)}
    violations = [(k, r) for k in hits for r in range(k) if not hits[k][r]]
    if not diffs:
        summary = "inconclusive"
    elif violations:
        summary = "violates-at-({},{})".format(*violations[0])
    else:
        summary = "consistent-with-SPD"
    return {"hits": hits, "violations": violations, "summary": summary}


def check_pattern(checker, label, pattern, diffs):
    checker.equal(label, sorted(pattern["diffs"]), sorted(diffs))


def check_verdicts(checker, label, report, diffs, max_modulus):
    want = residue_scan(diffs, max_modulus)
    checker.equal(f"{label}.hits", report["hits"], want["hits"])
    checker.equal(f"{label}.violations", report["violations"], want["violations"])
    checker.equal(f"{label}.summary", report["summary"], want["summary"])


def check_transfer(checker, label, implications, violated: bool, q_prime: int):
    """A valid sequence that is not strictly PD at q stays so at q' < q.

    With no violation and no outside evidence nothing follows, so the
    program must derive nothing.
    """
    want = [("non-strict-transfer-complex", "complex", q_prime, True, False)] if violated else []
    checker.equal(label, implications, want)
