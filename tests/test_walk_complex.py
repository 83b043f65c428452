import numpy as np
import pytest

from schoenberg import (
    ComplexSchoenbergSequence,
    compute_complex_coeffs,
    disk_from_sequence,
    disk_rule_sized,
    inverse_walk_weights_complex,
    random_complex_sequence,
    walk_down_complex,
    walk_up_complex,
)


def entry_error(a, b) -> float:
    keys = set(a.entries) | set(b.entries)
    return max((abs(a.get(*k) - b.get(*k)) for k in keys), default=0.0)


def lift(seq, extra=2):
    """Same entries with headroom in max_degree, so a forward walk loses nothing."""
    return ComplexSchoenbergSequence(seq.q, seq.entries, seq.max_degree + extra)


def test_walk_up_keeps_origin_entry():
    for q in (2, 3, 5):
        seq = ComplexSchoenbergSequence(q, {(0, 0): 1.0}, 2)
        up = walk_up_complex(seq)
        assert up.q == q + 1
        assert up.get(0, 0) == pytest.approx(1.0)
        assert len(up.entries) == 1


def test_walk_up_keeps_linear_entry():
    for q in (2, 3, 4):
        seq = ComplexSchoenbergSequence(q, {(1, 0): 1.0}, 3)
        up = walk_up_complex(seq)
        assert up.get(1, 0) == pytest.approx(1.0)
        assert len(up.entries) == 1


def test_walk_up_needs_headroom():
    with pytest.raises(ValueError):
        walk_up_complex(ComplexSchoenbergSequence(2, {(0, 0): 1.0}, 1))


def test_walk_down_single_origin_term():
    for q_in in (3, 4, 6):
        seq = ComplexSchoenbergSequence(q_in, {(0, 0): 1.0}, 2)
        down = walk_down_complex(seq)
        assert down.q == q_in - 1
        assert down.get(0, 0) == pytest.approx(1.0)
        assert len(down.entries) == 1
    with pytest.raises(ValueError):
        walk_down_complex(ComplexSchoenbergSequence(2, {(0, 0): 1.0}, 2))


def test_roundtrip_identity_random_sparse():
    rng = np.random.default_rng(12)
    for q in (2, 3, 4, 5):
        for _ in range(25):
            degree = int(rng.integers(2, 11))
            seq = random_complex_sequence(q, degree, int(rng.integers(2**31)))
            back = walk_down_complex(walk_up_complex(lift(seq)))
            assert entry_error(seq, back) <= 1e-10


# the mixture leaves the positive definiteness class one level up, so the
# recomputed coefficients legitimately trip the absolute-mass heuristic
@pytest.mark.filterwarnings("ignore::schoenberg.QuadratureResolutionWarning")
def test_walk_up_against_quadrature_oracle():
    rng = np.random.default_rng(13)
    for q in (2, 3):
        seq = random_complex_sequence(q, 6, int(rng.integers(2**31)))
        walked = walk_up_complex(lift(seq))
        via = compute_complex_coeffs(
            disk_from_sequence(seq), q + 1, 6, disk_rule_sized(q + 1, 8)
        )
        assert entry_error(walked, via) <= 1e-10


def test_walk_down_against_quadrature_oracle():
    # one diagonal entry walked down must match reconstruct-then-recompute
    seq = ComplexSchoenbergSequence(3, {(1, 1): 1.0}, 4)
    down = walk_down_complex(seq)
    via = compute_complex_coeffs(disk_from_sequence(seq), 2, 4)
    assert entry_error(down, via) <= 1e-9


def test_mass_conservation_both_directions():
    rng = np.random.default_rng(14)
    for q in (2, 3, 5):
        seq = random_complex_sequence(q, 9, int(rng.integers(2**31)))
        up = walk_up_complex(lift(seq))
        assert abs(up.total_mass - seq.total_mass) <= 1e-10
        down = walk_down_complex(up)
        assert abs(down.total_mass - seq.total_mass) <= 1e-10


def test_walks_never_leave_support_diagonals():
    rng = np.random.default_rng(15)
    for _ in range(10):
        q = int(rng.integers(2, 6))
        seq = random_complex_sequence(q, 9, int(rng.integers(2**31)))
        up = walk_up_complex(lift(seq))
        assert up.diagonals(-np.inf) <= seq.diagonals(-np.inf)
        down = walk_down_complex(lift(seq, 0) if q >= 3 else walk_up_complex(lift(seq)))
        assert down.diagonals(-np.inf) <= seq.diagonals(-np.inf)


def test_inverse_weights_positive():
    # positivity over a wide index grid, computed by cumulative ratios
    for q in range(2, 9):
        m = np.arange(101, dtype=float)[:, None]
        n = np.arange(101, dtype=float)[None, :]
        v = (q - 1.0) * (m + n + q - 1.0) / ((m + q - 1.0) * (n + q - 1.0))
        assert np.all(v > 0.0)
        for j in range(1, 101):
            v = v * (m + j) * (n + j) / ((m + j + q - 1.0) * (n + j + q - 1.0))
            assert np.all(v > 0.0)


def test_inverse_weights_sum_to_one_along_diagonal():
    for q in (2, 3, 6):
        for top in ((4, 4), (7, 3), (2, 9)):
            total = sum(
                inverse_walk_weights_complex(top[0] - j, top[1] - j, q, j)[j]
                for j in range(min(top) + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-13)


def test_origin_weight_is_one_on_axes():
    # the leading weight equals 1 exactly when m or n is zero
    for q in (2, 4, 7):
        assert inverse_walk_weights_complex(0, 5, q, 0)[0] == pytest.approx(1.0)
        assert inverse_walk_weights_complex(3, 0, q, 0)[0] == pytest.approx(1.0)
        off_axis = inverse_walk_weights_complex(2, 3, q, 0)[0]
        assert off_axis < 1.0


def test_walk_down_reports_unresolved_tail():
    boundary_heavy = ComplexSchoenbergSequence(4, {(3, 3): 0.5, (0, 0): 0.5}, 6)
    down = walk_down_complex(boundary_heavy)
    assert down.tail_bound > 0.0
    clean = walk_down_complex(ComplexSchoenbergSequence(4, {(1, 1): 1.0}, 6))
    assert clean.tail_bound == 0.0


def test_walk_down_rejects_bad_tail_tol():
    seq = ComplexSchoenbergSequence(4, {(3, 3): 0.5, (0, 0): 0.5}, 6)
    for tail_tol in (float("nan"), -1e-3):
        with pytest.raises(ValueError, match="tail_tol"):
            walk_down_complex(seq, tail_tol=tail_tol)


def test_walk_down_matches_inverse_series():
    # dense input: every diagonal summed with the paper's closed-form weights
    rng = np.random.default_rng(17)
    top = 32
    for q in (3, 6):
        entries = {
            (m, n): rng.random() for m in range(top + 1) for n in range(top + 1 - m)
        }
        seq = ComplexSchoenbergSequence(q, entries, top)
        down = walk_down_complex(seq)
        series = {}
        for (m, n) in entries:
            weights = inverse_walk_weights_complex(m, n, q - 1, (top - m - n) // 2)
            series[(m, n)] = sum(
                w * seq.get(m + j, n + j) for j, w in enumerate(weights)
            )
        assert set(down.entries) == set(series)
        for key, value in series.items():
            assert abs(down.get(*key) - value) <= 1e-14 * value
