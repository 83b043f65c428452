import numpy as np
import pytest

from schoenberg import (
    ClassEvidence,
    ComplexSchoenbergSequence,
    check_progressions,
    random_complex_sequence,
    support_pattern,
    transfer_class,
    walk_down_complex,
)


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
    with pytest.raises(ValueError, match="^threshold must be a finite number >= 0"):
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
