import json
import tracemalloc

import numpy as np
import pytest

from schoenberg import (
    ComplexSchoenbergSequence,
    compute_complex_coeffs,
    disk_from_sequence,
    random_complex_sequence,
    walk_down_complex,
    walk_up_complex,
)
from schoenberg.cli import main


def inverse_walk_weights_complex(m: int, n: int, q: int, j_max: int) -> np.ndarray:
    """Weights V(0..j_max, m, n, q) along the diagonal through (m, n)."""
    if q < 2:
        raise ValueError("inverse-walk weights are defined for target q >= 2")
    if m < 0 or n < 0 or j_max < 0:
        raise ValueError("m, n and j_max must be nonnegative")
    v = np.empty(j_max + 1)
    v[0] = (q - 1.0) * (m + n + q - 1.0) / ((m + q - 1.0) * (n + q - 1.0))
    for j in range(1, j_max + 1):
        v[j] = v[j - 1] * (
            (m + j) * (n + j) / ((m + j + q - 1.0) * (n + j + q - 1.0))
        )
    return v


def entry_error(a, b) -> float:
    keys = set(a.entries) | set(b.entries)
    return max((abs(a.get(*k) - b.get(*k)) for k in keys), default=0.0)


def with_headroom(seq, extra=2):
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
            back = walk_down_complex(walk_up_complex(with_headroom(seq)))
            assert entry_error(seq, back) <= 1e-10


# the mixture leaves the positive definiteness class one level up, so the
# recomputed coefficients legitimately trip the absolute-mass heuristic
@pytest.mark.filterwarnings("ignore::schoenberg.QuadratureResolutionWarning")
def test_walk_up_against_quadrature_oracle():
    rng = np.random.default_rng(13)
    for q in (2, 3):
        seq = random_complex_sequence(q, 6, int(rng.integers(2**31)))
        walked = walk_up_complex(with_headroom(seq))
        via = compute_complex_coeffs(disk_from_sequence(seq), q + 1, 6)
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
        up = walk_up_complex(with_headroom(seq))
        assert abs(up.total_mass - seq.total_mass) <= 1e-10
        down = walk_down_complex(up)
        assert abs(down.total_mass - seq.total_mass) <= 1e-10


def test_walks_never_leave_support_diagonals():
    rng = np.random.default_rng(15)
    for _ in range(10):
        q = int(rng.integers(2, 6))
        seq = random_complex_sequence(q, 9, int(rng.integers(2**31)))
        up = walk_up_complex(with_headroom(seq))
        assert up.diagonals(-np.inf) <= seq.diagonals(-np.inf)
        down = walk_down_complex(
            with_headroom(seq, 0) if q >= 3 else walk_up_complex(with_headroom(seq))
        )
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


def test_walk_down_tail_floor_is_tail_tol():
    # the boundary is m + n >= max_degree - 1; an entry there at the fixed
    # floor, sequences.TAIL_TOL = 1e-12, counts as decayed
    for boundary, reported in ((1e-12, 0.0), (2e-12, 2e-12)):
        for key in ((3, 3), (4, 1)):
            seq = ComplexSchoenbergSequence(4, {(0, 0): 0.5, key: -boundary}, 6)
            assert walk_down_complex(seq).tail_bound == reported


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


def _oracle_bands(m, n, q):
    lead = (m + q - 1.0) * (n + q - 1.0) / ((q - 1.0) * (m + n + q - 1.0))
    drop = (m + 1.0) * (n + 1.0) / ((q - 1.0) * (m + n + q + 1.0))
    return lead, drop


def _oracle_walk_up(seq):
    """The per-entry dict walk q -> q + 1, kept as the reference."""
    if seq.max_degree < 2:
        raise ValueError("walk_up_complex needs max_degree >= 2")
    q, out_degree = seq.q, seq.max_degree - 2
    candidates = set()
    for (m, n) in seq.entries:
        if m + n <= out_degree:
            candidates.add((m, n))
        if m >= 1 and n >= 1 and (m - 1) + (n - 1) <= out_degree:
            candidates.add((m - 1, n - 1))
    out = {}
    for (m, n) in candidates:
        lead, drop = _oracle_bands(m, n, q)
        out[(m, n)] = lead * seq.get(m, n) - drop * seq.get(m + 1, n + 1)
    return ComplexSchoenbergSequence(q + 1, out, out_degree)


def _oracle_walk_down(seq):
    """The per-entry dict walk q + 1 -> q, kept as the reference."""
    q_out = seq.q - 1
    tops = {}
    for (m, n) in seq.entries:
        tops[m - n] = max(tops.get(m - n, 0), min(m, n))
    out = {}
    for diag, t_top in tops.items():
        m_off, n_off = max(diag, 0), max(-diag, 0)
        upper = 0.0
        for t in range(t_top, -1, -1):
            m, n = t + m_off, t + n_off
            lead, drop = _oracle_bands(m, n, q_out)
            upper = (seq.get(m, n) + drop * upper) / lead
            out[(m, n)] = upper
    boundary = [abs(a) for (m, n), a in seq.entries.items() if m + n >= seq.max_degree - 1]
    worst = max(boundary, default=0.0)
    tail = worst if worst > 1e-12 else 0.0
    return ComplexSchoenbergSequence(q_out, out, seq.max_degree, tail_bound=tail)


def _oracle_inputs(q, top):
    rng = np.random.default_rng([q, top])
    dense = [(m, n) for m in range(top + 1) for n in range(top + 1 - m)]
    weights = rng.uniform(0.1, 1.0, len(dense))
    yield ComplexSchoenbergSequence(q, dict(zip(dense, weights / weights.sum())), top)
    sparse = [dense[i] for i in rng.choice(len(dense), size=min(7, len(dense)), replace=False)]
    yield ComplexSchoenbergSequence(q, dict(zip(sparse, rng.uniform(-1.0, 1.0, len(sparse)))), top)
    yield ComplexSchoenbergSequence(q, {}, top)


def _same(got, want):
    return (
        got.q == want.q
        and got.max_degree == want.max_degree
        and got.entries == want.entries
        and got.tail_bound == want.tail_bound
        and got.valid_mass == want.valid_mass
    )


def test_array_walks_are_bit_identical_to_the_dict_walks():
    for q in (3, 4, 5, 100):
        for top in (0, 1, 2, 3, 32, 80):
            for seq in _oracle_inputs(q, top):
                assert _same(walk_down_complex(seq), _oracle_walk_down(seq))
                if top < 2:
                    with pytest.raises(ValueError, match="max_degree >= 2"):
                        walk_up_complex(seq)
                    continue
                assert _same(walk_up_complex(seq), _oracle_walk_up(seq))


def test_walk_json_is_byte_identical_to_the_dict_walks(tmp_path):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    for q in (3, 100):
        for seq in _oracle_inputs(q, 32):
            seq.save(src)
            for command, oracle in (
                ("cwalk-up", _oracle_walk_up),
                ("cwalk-down", _oracle_walk_down),
            ):
                assert main([command, "--in", str(src), "--out", str(out)]) == 0
                assert out.read_text() == json.dumps(oracle(seq).to_dict()) + "\n"


def test_sparse_walks_never_size_by_max_degree():
    # an (M + 1)^2 grid at M = 10^6 would take terabytes; the support needs a few cells
    seq = ComplexSchoenbergSequence(3, {(0, 0): 0.5, (3, 1): 0.5}, 10**6)
    tracemalloc.start()
    try:
        up = walk_up_complex(seq)
        down = walk_down_complex(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _same(up, _oracle_walk_up(seq)) and _same(down, _oracle_walk_down(seq))


def test_walk_up_reads_only_the_entries_at_any_degree():
    # an entry at k = min(m, n) = 10^9 costs the forward walk its own cell and
    # the one below it, not a row of 10^9 cells; past int64, indices stay exact
    for top in (10**9, 2**70):
        entries = {(top, top): 0.5, (top + 3, 1): 0.25, (0, 0): 0.25}
        seq = ComplexSchoenbergSequence(3, entries, 2 * top + 4)
        tracemalloc.start()
        try:
            up = walk_up_complex(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert _same(up, _oracle_walk_up(seq))
        assert (top - 1, top - 1) in up.entries and (top + 2, 0) in up.entries


def test_walk_down_fills_a_tall_diagonal_from_its_top():
    # the inverse walk's output runs from each diagonal's top entry down to
    # k = 0, here 5001 entries on one diagonal next to two short ones, one of
    # them past int64
    huge = 2**70
    seq = ComplexSchoenbergSequence(3, {(5000, 5000): 0.5, (huge, 1): 0.25, (0, 0): 0.25}, huge + 1)
    down = walk_down_complex(seq)
    assert _same(down, _oracle_walk_down(seq))
    assert len(down.entries) == 5001 + 2
