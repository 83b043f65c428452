from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schoenberg import (
    RealSchoenbergSequence,
    compute_real_coeffs,
    cross_project,
    isotropic_from_sequence,
    poisson_circle_coeffs,
    poisson_isotropic,
    random_real_sequence,
    reconstruct,
    walk_down,
    walk_up,
)
from schoenberg.walk_real import _bands


def inverse_walk_weights(n: int, d: int, j_max: int) -> np.ndarray:
    """Weights w(0..j_max, n, d), by the stable ratio recurrence."""
    if d < 2:
        raise ValueError("inverse-walk weights are defined for target d >= 2")
    if n < 0 or j_max < 0:
        raise ValueError("n and j_max must be nonnegative")
    w = np.empty(j_max + 1)
    w[0] = d * (2.0 * n + d - 1.0) / ((n + d - 1.0) * (n + d))
    for j in range(1, j_max + 1):
        w[j] = w[j - 1] * (
            (n + 2.0 * j - 1.0) * (n + 2.0 * j)
            / ((n + 2.0 * j + d - 1.0) * (n + 2.0 * j + d))
        )
    return w


def one_hot(d, n, length):
    coeffs = np.zeros(length + 1)
    coeffs[n] = 1.0
    return RealSchoenbergSequence(d, coeffs)


def test_walk_up_keeps_degree_one_from_circle():
    up = walk_up(one_hot(1, 1, 3))
    assert up.d == 3
    assert np.allclose(up.coeffs, [0.0, 1.0], atol=1e-15)


def test_walk_up_keeps_constant():
    for d in (1, 2, 3, 5):
        up = walk_up(one_hot(d, 0, 2))
        assert up.coeffs[0] == pytest.approx(1.0)
        assert np.allclose(up.coeffs[1:], 0.0, atol=1e-15)


def test_walk_up_poisson_degree_one_value():
    # with r = 1/2 on the circle: (1/2) * 2 * (b_1 - b_3) = (2/3)(1/2 - 1/8)
    seq = poisson_circle_coeffs(0.5, 10)
    up = walk_up(seq)
    assert up.coeffs[1] == pytest.approx(0.25, abs=1e-15)


def test_walk_up_truncation_shrinks_by_two():
    seq = random_real_sequence(2, 9, seed=0)
    assert walk_up(seq).truncation == 7
    with pytest.raises(ValueError):
        walk_up(RealSchoenbergSequence(2, np.array([1.0, 0.0])))


def test_walk_down_single_terms():
    down = walk_down(one_hot(3, 0, 4))
    assert down.d == 1
    assert down.coeffs[0] == pytest.approx(1.0)
    down = walk_down(one_hot(3, 1, 4))
    assert down.coeffs[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        walk_down(one_hot(2, 0, 4))


def test_roundtrip_identity_random_sequences():
    rng = np.random.default_rng(3)
    for d in range(2, 7):
        for _ in range(25):
            n = int(rng.integers(3, 38))
            seq = random_real_sequence(d, n, int(rng.integers(2**31)), pad=2)
            back = walk_down(walk_up(seq), n_out=seq.truncation)
            assert back.d == d
            assert np.max(np.abs(back.coeffs - seq.coeffs)) <= 1e-11


def test_roundtrip_identity_circle_pair():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(3, 38))
        seq = random_real_sequence(1, n, int(rng.integers(2**31)), pad=2)
        back = walk_down(walk_up(seq), n_out=seq.truncation)
        assert np.max(np.abs(back.coeffs - seq.coeffs)) <= 1e-11


@seed(303)
@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    raw=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=20),
)
def test_roundtrip_property(d, raw):
    total = sum(raw)
    if total <= 0.0:
        raw = [1.0] + raw
        total = sum(raw)
    coeffs = np.array(raw) / total
    seq = RealSchoenbergSequence(d, np.concatenate([coeffs, [0.0, 0.0]]))
    back = walk_down(walk_up(seq), n_out=seq.truncation)
    assert np.max(np.abs(back.coeffs - seq.coeffs)) <= 1e-11


def test_mass_conservation_both_directions():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4, 6):
        seq = random_real_sequence(d, 30, int(rng.integers(2**31)), pad=2)
        up = walk_up(seq)
        assert abs(up.total_mass - seq.total_mass) <= 1e-10
        down = walk_down(up, n_out=seq.truncation)
        assert abs(down.total_mass - seq.total_mass) <= 1e-10


def test_pointwise_equivalence_after_walk_up():
    theta = np.linspace(0.0, np.pi, 501)
    for d in (1, 2, 4):
        seq = random_real_sequence(d, 20, seed=100 + d, pad=2)
        up = walk_up(seq)
        assert np.max(np.abs(reconstruct(up, theta) - reconstruct(seq, theta))) <= 1e-9


def test_walk_up_flags_lost_membership():
    # the degree-2 basis polynomial at d = 2 is not positive definite at
    # d = 4, so the walked sequence must carry a negative entry and the flag
    seq = one_hot(2, 2, 4)
    up = walk_up(seq)
    assert up.coeffs[0] < 0.0
    assert not up.valid_mass


def test_inverse_weights_positive():
    # exhaustive over j, n <= 200 and d <= 10, via cumulative ratio products
    n = np.arange(201, dtype=float)
    for d in range(2, 11):
        w = d * (2.0 * n + d - 1.0) / ((n + d - 1.0) * (n + d))
        assert np.all(w > 0.0)
        for j in range(1, 201):
            w = w * (n + 2 * j - 1) * (n + 2 * j) / ((n + 2 * j + d - 1) * (n + 2 * j + d))
            assert np.all(w > 0.0)
            if d == 5 and j == 10:
                # spot-check the vectorized sweep against the scalar recurrence
                assert inverse_walk_weights(7, 5, 10)[10] == pytest.approx(w[7])


def test_inverse_weights_sum_to_one_along_support():
    # the weights reaching one upper coefficient add up to 1; this is mass
    # conservation in basis form
    for d in (2, 3, 5, 8):
        for top in (6, 17, 40):
            total = sum(
                inverse_walk_weights(top - 2 * j, d, j)[j] for j in range(top // 2 + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_walk_down_reports_unresolved_tail():
    # geometric input truncated mid-decay: the boundary entries are not
    # negligible and the diagnostic must say so
    seq = compute_real_coeffs(poisson_isotropic(0.6), 3, 24)
    down = walk_down(seq)
    assert down.tail_bound > 0.0
    clean = walk_down(random_real_sequence(5, 10, seed=9, pad=2))
    assert clean.tail_bound == 0.0


def test_walk_down_tail_floor_is_tail_tol():
    # the boundary is degrees >= truncation - 1; an entry there at the fixed
    # floor, sequences.TAIL_TOL = 1e-12, counts as decayed
    for boundary, reported in ((1e-12, 0.0), (2e-12, 2e-12)):
        for coeffs in ([0.5, 0.5, 0.0, -boundary], [0.5, 0.5, -boundary, 0.0]):
            assert walk_down(RealSchoenbergSequence(5, coeffs)).tail_bound == reported


def test_walk_down_rejects_negative_n_out():
    seq = random_real_sequence(4, 8, seed=1)
    for n_out in (-1, -2):
        with pytest.raises(ValueError, match="n_out"):
            walk_down(seq, n_out=n_out)


def series_walk_down(b, d_out):
    """The inverse walk as the paper's series, summed per output degree."""
    out = np.empty(len(b))
    for n in range(len(b)):
        terms = b[n::2]
        if d_out == 1:
            degrees = n + 2.0 * np.arange(len(terms))
            out[n] = (1.0 if n == 0 else 2.0) * np.sum(terms / (degrees + 1.0))
        else:
            out[n] = inverse_walk_weights(n, d_out, len(terms) - 1) @ terms
    return out


def loop_walk_down(b, d_out):
    """The inverse walk as a back-substitution from the top, one degree per step."""
    d = float(d_out)
    out = [0.0] * (len(b) + 2)
    for n in range(len(b) - 1, -1, -1):
        lead = 1.0 if n == 0 else (n + d - 1.0) * (n + d) / (d * (2.0 * n + d - 1.0))
        drop = (n + 1.0) * (n + 2.0) / (d * (2.0 * n + d + 3.0))
        out[n] = (b[n] + drop * out[n + 2]) / lead
    return np.array(out[: len(b)])


def exact_walk_down(b, d_out):
    """The inverse walk's back-substitution over exact rationals."""
    out = [Fraction(0)] * (len(b) + 2)
    for n in range(len(b) - 1, -1, -1):
        lead = Fraction(1) if n == 0 else Fraction((n + d_out - 1) * (n + d_out),
                                                   d_out * (2 * n + d_out - 1))
        drop = Fraction((n + 1) * (n + 2), d_out * (2 * n + d_out + 3))
        out[n] = (Fraction(float(b[n])) + drop * out[n + 2]) / lead
    return np.array([float(x) for x in out[: len(b)]])


def test_walk_down_matches_degree_loop():
    rng = np.random.default_rng(20)
    for d in (3, 4, 41, 201):
        for n in (1199, 4000):
            coeffs = rng.random(n + 1)
            seq = RealSchoenbergSequence(d, coeffs / coeffs.sum())
            loop = loop_walk_down(seq.coeffs.tolist(), d - 2)
            got = walk_down(seq).coeffs
            assert np.max(np.abs(got - loop)) <= 4e-15 * np.max(np.abs(loop)), (d, n)


def test_walk_down_matches_exact_back_substitution():
    rng = np.random.default_rng(22)
    for d in (3, 4, 5, 41, 101, 201):
        for n in (0, 1, 2, 3, 10, 40, 200):
            raw = rng.random(n + 1)
            below = random_real_sequence(d - 2, n + 2, int(rng.integers(2**31)), pad=2)
            inputs = [raw / raw.sum(), rng.standard_normal(n + 1), walk_up(below).coeffs]
            for coeffs in inputs:
                got = walk_down(RealSchoenbergSequence(d, coeffs)).coeffs
                exact = exact_walk_down(coeffs, d - 2)
                assert np.max(np.abs(got - exact)) <= 4e-15 * np.max(np.abs(exact)), (d, n)


def test_walk_down_n_out_pads_and_truncates():
    seq = random_real_sequence(6, 30, seed=23)
    full = walk_down(seq)
    assert full.truncation == 30
    longer = walk_down(seq, n_out=45)
    assert longer.truncation == 45
    assert np.array_equal(longer.coeffs[:31], full.coeffs)
    assert np.all(longer.coeffs[31:] == 0.0)
    shorter = walk_down(seq, n_out=12)
    assert np.array_equal(shorter.coeffs, full.coeffs[:13])
    tail = compute_real_coeffs(poisson_isotropic(0.6), 3, 24)
    bounds = {walk_down(tail, n_out=n_out).tail_bound for n_out in (None, 5, 24, 40)}
    assert len(bounds) == 1 and bounds.pop() > 0.0


def test_walk_down_bands_cache_is_read_only_and_reused():
    for band in _bands(4, 16):
        assert not band.flags.writeable
        with pytest.raises(ValueError):
            band[0] = 2.0
    seq = random_real_sequence(6, 40, seed=24)
    other = random_real_sequence(6, 40, seed=25)
    kept = seq.coeffs.copy()
    first = walk_down(seq).coeffs
    walk_down(other)
    assert np.array_equal(walk_down(seq).coeffs, first)
    assert np.array_equal(seq.coeffs, kept)


def test_walk_down_matches_inverse_series():
    rng = np.random.default_rng(16)
    for d_out in (1, 3, 6, 40):
        for n in (40, 1000):
            coeffs = rng.random(n + 1)
            seq = RealSchoenbergSequence(d_out + 2, coeffs / coeffs.sum())
            down = walk_down(seq)
            assert np.max(np.abs(down.coeffs - series_walk_down(seq.coeffs, d_out))) <= 1e-15


def test_cross_project_trivials():
    assert np.allclose(
        cross_project(one_hot(5, 1, 5), 2).coeffs[:3], [0.0, 1.0, 0.0], atol=1e-12
    )
    assert np.allclose(
        cross_project(one_hot(4, 0, 5), 1).coeffs[:2], [1.0, 0.0], atol=1e-12
    )


def test_cross_project_agrees_with_recompute_path():
    rng = np.random.default_rng(8)
    for d, d_prime in ((5, 2), (4, 1), (6, 3), (7, 4)):
        seq = random_real_sequence(d, 14, int(rng.integers(2**31)))
        direct = cross_project(seq, d_prime)
        via = compute_real_coeffs(isotropic_from_sequence(seq), d_prime, 14)
        assert np.max(np.abs(direct.coeffs - via.coeffs)) <= 1e-9


def test_cross_project_agrees_with_walk_down():
    rng = np.random.default_rng(9)
    cases = [(d, 12) for d in (4, 5, 6)] + [(d, n) for d in (3, 41, 101, 201) for n in (40, 200)]
    for d, n in cases:
        seq = random_real_sequence(d, n, int(rng.integers(2**31)), pad=2)
        up = walk_up(seq)  # gives a (d, d - 2) pair via the exact inverse
        projected = cross_project(up, d)
        recovered = walk_down(up, n_out=up.truncation)
        assert np.max(np.abs(projected.coeffs - recovered.coeffs)) <= 1e-15, (d, n)


def test_cross_project_validates_dimensions():
    seq = random_real_sequence(3, 5, seed=0)
    with pytest.raises(ValueError):
        cross_project(seq, 3)
    with pytest.raises(ValueError):
        cross_project(seq, 0)
    for d_prime in (2.5, True):
        with pytest.raises(ValueError, match="d_prime must be an integer"):
            cross_project(seq, d_prime)


@lru_cache(maxsize=None)
def pochhammer(a, m):
    """(a)_m over exact rationals; cached, since the connection sums reuse every prefix."""
    return Fraction(1) if m == 0 else pochhammer(a, m - 1) * (a + m - 1)


def askey_weight(d, d_prime, j, k):
    """Exact weight of c_j at d' in c_{j+2k} at d, from Askey's connection formula.

    C^lam_n = sum_k (lam)_{n-k} (lam-mu)_k (n-2k+mu) / ((mu)_{n-k+1} k!) C^mu_{n-2k},
    rescaled by C^mu_j(1) / C^lam_n(1) with C^a_n(1) = (2a)_n / n!; the factor
    mu shared by (2mu)_j and (mu)_{n-k+1} is cancelled so that mu = 0 is exact.
    """
    lam, mu = Fraction(d - 1, 2), Fraction(d_prime - 1, 2)
    n = j + 2 * k
    if j == 0:
        low = 1 / pochhammer(mu + 1, n - k)
    else:
        low = (j + mu) * 2 * pochhammer(2 * mu + 1, j - 1) / (
            pochhammer(mu + 1, n - k) * factorial(j))
    high = pochhammer(lam, n - k) * pochhammer(lam - mu, k) * factorial(n) / (
        factorial(k) * pochhammer(2 * lam, n))
    return high * low


def exact_cross_project(coeffs, d, d_prime):
    """Askey's connection sum over exact rationals, one output degree at a time."""
    exact_in = [Fraction(float(c)) for c in coeffs]
    top = len(coeffs) - 1
    return np.array([
        float(sum(askey_weight(d, d_prime, j, k) * exact_in[j + 2 * k]
                  for k in range((top - j) // 2 + 1)))
        for j in range(top + 1)
    ])


def test_cross_project_matches_exact_connection_sum():
    rng = np.random.default_rng(21)
    coeffs = rng.random(41)
    coeffs /= coeffs.sum()
    cases = [(d, d_prime, coeffs)
             for d, d_prime in ((4, 1), (5, 2), (41, 39), (101, 99), (201, 2))]
    # truncations 0 and 1 leave a single weight column; 120 a long one
    for n in (0, 1, 2, 3, 4, 5, 120):
        short = rng.random(n + 1)
        cases += [(d, d_prime, short / short.sum()) for d, d_prime in ((5, 2), (8, 3), (201, 2))]
    for d, d_prime, b in cases:
        got = cross_project(RealSchoenbergSequence(d, b), d_prime)
        assert got.d == d_prime and got.truncation == len(b) - 1
        exact = exact_cross_project(b, d, d_prime)
        assert np.all(np.abs(got.coeffs - exact) <= 1e-14 * exact), (d, d_prime, len(b))


def test_cross_project_basis_functions_to_circle_are_probability_vectors():
    # each c_n at d is a convex combination of cosines: its weights are >= 0
    # and add up to c_n(1) = 1
    for d in (201, 5):
        for n in (0, 1, 2, 3, 10, 99, 600, 1198, 1199):
            out = cross_project(one_hot(d, n, 1199), 1).coeffs
            assert np.all(out >= 0.0), (d, n)
            assert abs(out.sum() - 1.0) <= 1e-14, (d, n)


def test_cross_project_poisson_to_circle():
    exact = poisson_circle_coeffs(0.5, 60).coeffs
    walked = walk_up(poisson_circle_coeffs(0.5, 62))
    assert np.max(np.abs(cross_project(walked, 1).coeffs - exact)) <= 1e-15
    # the sampled d = 3 coefficients are themselves off the exact ones by up
    # to 1.2e-14 (degree 42), of which the projection keeps 1.2e-15
    sampled = compute_real_coeffs(poisson_isotropic(0.5), 3, 60)
    assert np.max(np.abs(cross_project(sampled, 1).coeffs - exact)) <= 2e-15
