import math
import re

import numpy as np
import pytest

from schoenberg import (
    ClassEvidence,
    ComplexSchoenbergSequence,
    SupportPattern,
    check_progressions,
    random_complex_sequence,
    support_pattern,
    transfer_class,
    walk_down_complex,
)
from schoenberg.spd import report_with_notes


def diagonal_sequence(q=2, levels=(0, 2), degree=4):
    entries = {(t, t): 1.0 / len(levels) for t in levels}
    return ComplexSchoenbergSequence(q, entries, degree)


def full_sequence(q=2, degree=5):
    pairs = [(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)]
    return ComplexSchoenbergSequence(q, {p: 1.0 / len(pairs) for p in pairs}, degree)


def test_support_pattern_trivials():
    assert support_pattern(diagonal_sequence()).diffs == frozenset({0})
    assert support_pattern(full_sequence(degree=5)).diffs == frozenset(range(-5, 6))
    single = ComplexSchoenbergSequence(2, {(0, 0): 1.0}, 2)
    assert support_pattern(single).diffs == frozenset({0})


def test_support_pattern_applies_threshold():
    seq = ComplexSchoenbergSequence(2, {(0, 0): 1.0 - 1e-8, (3, 0): 1e-8}, 4)
    assert support_pattern(seq, threshold=1e-6).diffs == frozenset({0})
    assert support_pattern(seq, threshold=1e-12).diffs == frozenset({0, 3})


@pytest.mark.parametrize("threshold", [-1.0, -1e-17, float("nan"), float("inf"), None])
def test_support_pattern_refuses_bad_threshold(threshold):
    # below 0, roundoff entries would count as support
    with pytest.raises(ValueError, match="^" + re.escape(
        "threshold must "
        + ("be a real number" if threshold is None or math.isnan(threshold) else "lie in [0, inf)")
        + f", got {threshold!r}"
    ) + "$"):
        support_pattern(diagonal_sequence(), threshold)


def test_support_pattern_requires_valid_mass():
    bad = ComplexSchoenbergSequence(2, {(0, 0): 2.0}, 2)
    with pytest.raises(ValueError):
        support_pattern(bad)


def test_diagonal_support_violates_parity():
    report = check_progressions(support_pattern(diagonal_sequence()), 2)
    assert report.certified_violation
    assert (2, 1) in report.violations
    assert report.summary == "violates-at-(2,1)"


def test_even_support_misses_odd_progression():
    seq = ComplexSchoenbergSequence(
        2, {(0, 0): 0.25, (2, 0): 0.25, (4, 0): 0.25, (0, 4): 0.25}, 4
    )
    report = check_progressions(support_pattern(seq), 2)
    assert (2, 1) in report.violations


def test_full_support_meets_every_progression():
    degree = 5
    report = check_progressions(support_pattern(full_sequence(degree=degree)), degree)
    assert not report.violations
    assert report.summary == "consistent-with-SPD"
    assert all(all(hit) for hit in report.hits.values())


def test_violations_stable_as_modulus_grows():
    pattern = support_pattern(diagonal_sequence())
    small = check_progressions(pattern, 2)
    large = check_progressions(pattern, 7)
    assert set(small.violations) <= set(large.violations)


def test_empty_pattern_is_inconclusive():
    seq = ComplexSchoenbergSequence(2, {(0, 0): 1e-14}, 2)
    report = check_progressions(support_pattern(seq), 2)
    assert report.summary == "inconclusive"


def test_default_modulus_is_truncation():
    report = check_progressions(support_pattern(full_sequence(degree=4)))
    assert report.max_modulus == 4


def test_support_transfer_through_inverse_walk():
    # a positive coefficient appears downstairs exactly when some diagonal
    # shift above it is positive upstairs: the walk weights are positive
    rng = np.random.default_rng(31)
    for _ in range(100):
        q_up = int(rng.integers(3, 7))
        upper = random_complex_sequence(q_up, 9, int(rng.integers(2**31)))
        lower = walk_down_complex(upper)
        candidates = {
            (m - j, n - j)
            for (m, n) in upper.entries
            for j in range(min(m, n) + 1)
        }
        for (m, n) in candidates:
            upstairs_hit = any(
                upper.get(m + j, n + j) > 0.0 for j in range(upper.max_degree + 1)
            )
            assert (lower.get(m, n) > 0.0) == upstairs_hit


def test_transfer_strict_membership_up():
    report = check_progressions(support_pattern(full_sequence(q=2)), 3)
    implications = transfer_class(
        full_sequence(q=2), report, 3, q_prime_member=True, strict_at_q=True
    )
    rules = {i.rule for i in implications}
    assert "strict-transfer-complex" in rules
    conclusion = next(i for i in implications if i.rule == "strict-transfer-complex")
    assert conclusion.conclusion.space == "complex"
    assert conclusion.conclusion.dim == 3
    assert conclusion.conclusion.strict is True


def test_transfer_non_strict_membership():
    seq = diagonal_sequence(q=2)
    report = check_progressions(support_pattern(seq), 2)  # certified violation
    implications = transfer_class(seq, report, 3, q_prime_member=True)
    rules = {i.rule for i in implications}
    assert "non-strict-transfer-complex" in rules
    conclusion = next(i for i in implications if i.rule == "non-strict-transfer-complex")
    assert conclusion.conclusion.strict is False


def test_transfer_down_uses_nesting():
    # membership at q = 4 gives membership at q' = 2 with no extra evidence
    seq = full_sequence(q=4)
    report = check_progressions(support_pattern(seq), 3)
    implications = transfer_class(seq, report, 2, strict_at_q=True)
    assert any(
        i.rule == "strict-transfer-complex" and i.conclusion.dim == 2
        for i in implications
    )


def test_transfer_real_restriction_rules():
    seq = full_sequence(q=3)
    report = check_progressions(support_pattern(seq), 3)
    strict_real = ClassEvidence("real", 4, member=True, strict=True)
    implications = transfer_class(seq, report, 3, real_evidence=strict_real)
    lifted = next(i for i in implications if i.rule == "real-strictness-lifts")
    assert lifted.conclusion.space == "real"
    assert lifted.conclusion.dim == 2 * seq.q - 1 == 5
    assert lifted.conclusion.strict is True

    member_real = ClassEvidence("real", 6, member=True)
    implications = transfer_class(
        seq, report, 3, strict_at_q=True, real_evidence=member_real
    )
    descended = next(i for i in implications if i.rule == "complex-strictness-descends")
    assert descended.conclusion.dim == 6
    assert descended.conclusion.strict is True


def test_transfer_refuses_inconclusive_premises():
    seq = full_sequence(q=2)
    report = check_progressions(support_pattern(seq), 2)  # consistent, not certified
    # strictness unknown and membership at larger q' unknown: nothing to say
    implications = transfer_class(seq, report, 4)
    assert implications == ()


def test_transfer_statements_are_readable():
    seq = diagonal_sequence(q=2)
    report = check_progressions(support_pattern(seq), 2)
    implications = transfer_class(seq, report, 3, q_prime_member=True)
    assert all("=>" in i.statement for i in implications)


def expected_conclusions(seq, report, q_prime, q_prime_member, strict_at_q, real):
    """rule -> (space, dim, strict) of every rule whose premises hold, read off the paper."""
    member_q = seq.valid_mass
    strict_q = strict_at_q
    if strict_q is None and report.violations:
        strict_q = False  # a certified violation refutes strictness at q
    if q_prime_member is None and q_prime <= seq.q and member_q:
        q_prime_member = True  # the classes are nested in q
    expected = {}
    if strict_q is True and q_prime_member is True:
        expected["strict-transfer-complex"] = ("complex", q_prime, True)
    if strict_q is False and member_q and q_prime_member is True:
        expected["non-strict-transfer-complex"] = ("complex", q_prime, False)
    if real is not None and member_q and real.strict is True:
        expected["real-strictness-lifts"] = ("real", 2 * seq.q - 1, True)
    if real is not None and strict_q is True and real.member is True:
        expected["complex-strictness-descends"] = ("real", real.dim, True)
    return expected


def test_transfer_rules_fire_exactly_when_their_premises_hold():
    # every combination of evidence: 3 sequences (one certified violation,
    # one consistent, one mass-invalid) x q' x q'-membership x strictness at
    # q x real evidence (none, or a real sphere with every member/strict)
    invalid = ComplexSchoenbergSequence(4, {(0, 0): 2.0, (1, 0): -0.5}, 3)
    cases = [
        (diagonal_sequence(q=2), check_progressions(support_pattern(diagonal_sequence(q=2)))),
        (full_sequence(q=3), check_progressions(support_pattern(full_sequence(q=3)))),
        (invalid, check_progressions(SupportPattern(frozenset({0, 1}), 1e-12, 3))),
    ]
    known = (None, True, False)
    reals = [None] + [
        ClassEvidence("real", dim, member=member, strict=strict)
        for dim in (2, 5) for member in known for strict in known
    ]
    fired = set()
    for seq, report in cases:
        for q_prime in (2, 3, 5):
            for q_prime_member in known:
                for strict_at_q in known:
                    for real in reals:
                        implications = transfer_class(
                            seq, report, q_prime, q_prime_member, strict_at_q, real
                        )
                        got = {
                            i.rule: (i.conclusion.space, i.conclusion.dim, i.conclusion.strict)
                            for i in implications
                        }
                        assert len(got) == len(implications)
                        assert got == expected_conclusions(
                            seq, report, q_prime, q_prime_member, strict_at_q, real
                        )
                        assert all(
                            i.conclusion.member is True and i.conclusion.source == "transfer"
                            and len(i.premises) == 2
                            for i in implications
                        )
                        notes = report_with_notes(report, implications).transfer_notes
                        assert notes == tuple(i.statement for i in implications)
                        fired.update(got)
    assert len(fired) == 4
