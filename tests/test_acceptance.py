"""Acceptance suite: one test per release criterion, each printing a pass/fail
line with the measured worst case. The checks, their tolerances and seeds live
in the ``schoenberg.selftest`` registry. Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import pytest

from schoenberg import selftest
from schoenberg.selftest import CHECKS, SEED


def report(number):
    check = next(c for c in CHECKS if c.criterion == number)
    result = check.run(SEED)
    timing = f"; {result.elapsed:.2f}s < {check.time_limit:g}s" if check.time_limit else ""
    status = "PASS" if result.passed else "FAIL"
    line = f"[{status}] criterion {number:2d}: {check.description} ({result.detail}{timing})"
    print(line)
    assert result.passed, line


def test_criterion_01_real_roundtrip_identity():
    report(1)


def test_criterion_02_inverse_series_recovers_circle_coefficients():
    report(2)


def test_criterion_03_walk_up_agrees_with_quadrature():
    report(3)


def test_criterion_04_cross_projection_agrees_with_recompute():
    report(4)


def test_criterion_05_disk_orthogonality():
    report(5)


def test_criterion_06_disk_recursion_identity():
    report(6)


def test_criterion_07_complex_roundtrip_identity():
    report(7)


def test_criterion_08_complex_walk_up_agrees_with_quadrature():
    report(8)


def test_criterion_09_mass_conservation_everywhere():
    report(9)


def test_criterion_10_spd_diagnostics():
    report(10)


def test_registry_names_unique_and_criteria_complete():
    assert len({check.name for check in CHECKS}) == len(CHECKS)
    assert sorted(c.criterion for c in CHECKS if c.criterion is not None) == list(range(1, 11))


class _MustNotRun:
    def run(self, seed):
        pytest.fail(f"a check ran with seed {seed!r}")


@pytest.mark.parametrize(
    "seed, message",
    [(True, "an integer, got True"), (2.5, "an integer, got 2.5"), (-1, "nonnegative, got -1")],
)
def test_selftest_refuses_a_bad_seed_before_any_check_runs(monkeypatch, seed, message):
    # a boolean once ran the whole suite as seed 1
    monkeypatch.setattr(selftest, "CHECKS", (_MustNotRun(),))
    with pytest.raises(ValueError, match=f"^seed must be {message}$"):
        selftest.run_selftest(seed)
