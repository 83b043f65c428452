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
    random_real_sequence,
    reconstruct,
    walk_down,
    walk_up,
)
from schoenberg.walk_real import inverse_walk_weights


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
                # spot-check the vectorized sweep against the public routine
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
    from schoenberg import poisson_isotropic

    seq = compute_real_coeffs(poisson_isotropic(0.6), 3, 24)
    down = walk_down(seq)
    assert down.tail_bound > 0.0
    clean = walk_down(random_real_sequence(5, 10, seed=9, pad=2))
    assert clean.tail_bound == 0.0


def test_walk_down_rejects_negative_n_out():
    seq = random_real_sequence(4, 8, seed=1)
    for n_out in (-1, -2):
        with pytest.raises(ValueError, match="n_out"):
            walk_down(seq, n_out=n_out)


def test_walk_down_rejects_bad_tail_tol():
    seq = random_real_sequence(4, 8, seed=1)
    for tail_tol in (float("nan"), -1e-3):
        with pytest.raises(ValueError, match="tail_tol"):
            walk_down(seq, tail_tol=tail_tol)


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
    for d in (4, 5, 6):
        seq = random_real_sequence(d, 12, int(rng.integers(2**31)), pad=2)
        up = walk_up(seq)  # gives a (d, d - 2) pair via the exact inverse
        projected = cross_project(up, d)
        recovered = walk_down(up, n_out=up.truncation)
        assert np.max(np.abs(projected.coeffs - recovered.coeffs)) <= 1e-9


def test_cross_project_validates_dimensions():
    seq = random_real_sequence(3, 5, seed=0)
    with pytest.raises(ValueError):
        cross_project(seq, 3)
    with pytest.raises(ValueError):
        cross_project(seq, 0)
