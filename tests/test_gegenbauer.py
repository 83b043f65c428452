from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schoenberg import gauss_jacobi
from schoenberg.gegenbauer import (
    BLOCK_ROWS,
    _as_unit_interval,
    _jacobi_blocks,
    _jacobi_rows,
    normalized_gegenbauer_table,
)


def legendre_eval(n, x):
    """Independent Legendre recurrence; order 1/2 oracle."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p_cur = x.copy()
    for k in range(2, n + 1):
        p_prev, p_cur = p_cur, ((2 * k - 1) * x * p_cur - (k - 1) * p_prev) / k
    return p_cur


def normalized_gegenbauer(n: int, d: int, u):
    """Normalized basis polynomial for dimension d, equal to 1 at u = 1.

    For d >= 2 this is the order-(d-1)/2 Gegenbauer polynomial divided by
    its value at 1; for d = 1 it is ``cos(n * arccos(u))``.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    scalar = np.ndim(u) == 0
    u = _as_unit_interval(u)
    if d == 1:
        out = np.cos(n * np.arccos(u))
        return float(out) if scalar else out
    out = _normalized_recurrence(n, 0.5 * (d - 1), u)
    return float(out) if scalar else out


def _normalized_recurrence(n: int, order: float, u):
    # Same recurrence rewritten for P_k / P_k(1); keeps every iterate in
    # [-1, 1], so it cannot overflow at any degree.
    c_prev = np.ones_like(u)
    if n == 0:
        return c_prev
    c_cur = u.copy()
    for k in range(2, n + 1):
        c_prev, c_cur = c_cur, (
            2.0 * u * (k + order - 1.0) * c_cur - (k - 1.0) * c_prev
        ) / (k + 2.0 * order - 1.0)
    return c_cur


def jacobi_table(k_max, a, b, x):
    """Rows 0..k_max of the runner of (a, b): the one-block case at a = b, else one b."""
    if a == b:
        return next(_jacobi_blocks(k_max, a, x, k_max + 1))[1]
    return np.concatenate([rows for _, rows in _jacobi_rows(a, [b], [k_max], x)])


def test_degree_zero_is_one():
    x = np.linspace(-1.0, 1.0, 9)
    for a, b in ((-0.5, -0.5), (0.5, 0.5), (1.0, 2.0), (0.0, 7.0)):
        assert np.array_equal(jacobi_table(0, a, b, x)[0], np.ones_like(x))


def test_degree_one_is_linear():
    # P_1 = ((a + b + 2) x + a - b) / 2 over its value a + 1 at x = 1
    x = np.linspace(-1.0, 1.0, 9)
    for a, b in ((-0.5, -0.5), (2.0, 2.0), (1.0, 2.0), (0.0, 7.0)):
        expected = ((a + b + 2.0) * x + a - b) / (2.0 * a + 2.0)
        assert np.allclose(jacobi_table(1, a, b, x)[1], expected, atol=1e-15)


@pytest.mark.parametrize("a, b", [(-0.5, -0.5), (0.5, 0.5), (0.0, 24.0), (3.0, 1.0)])
def test_blocks_are_the_table_rows_bit_for_bit(a, b):
    # at a = b the table is the one-block case, and a block's first rows
    # read the last two of the block before, which its buffer has not yet
    # overwritten; at a != b a b run among others, with other tops, gives
    # the rows it gives alone (the disk plan runs every |l| at once,
    # disk_poly_eval one)
    x = np.linspace(-1.0, 1.0, 33)
    for k_max in (0, 1, 2, 63, 64, 65, 66, 130):
        table = jacobi_table(k_max, a, b, x)
        if a != b:
            others = [b + 5.0, b, b + 0.5, 2.0 * b + 1.0]
            tops = [k_max + 7, k_max, k_max // 2, 0]
            for k, rows in _jacobi_rows(a, others, tops, x):
                assert len(rows) == sum(top >= k for top in tops)
                if k <= k_max:
                    assert np.array_equal(rows[1], table[k]), (k_max, k)
            continue
        starts = []
        for start, block in _jacobi_blocks(k_max, a, x):
            starts.append(start)
            assert np.array_equal(block, table[start : start + len(block)]), (k_max, start)
        assert starts == list(range(0, k_max + 1, BLOCK_ROWS))


def test_order_half_matches_legendre_p2():
    # the S^2 basis is Legendre's: P_2(u) = (3u^2 - 1) / 2 at u = 0.5
    assert normalized_gegenbauer_table(2, 2, 0.5)[2, 0] == pytest.approx(-0.125, abs=1e-15)


def test_at_one_chebyshev_second_kind():
    # order 1 (S^3) is Chebyshev's second kind over its value n + 1 at one:
    # U_n(cos theta) / (n + 1) = sin((n + 1) theta) / ((n + 1) sin theta)
    theta = np.linspace(0.05, np.pi - 0.05, 41)
    table = normalized_gegenbauer_table(30, 3, np.cos(theta))
    for n in range(31):
        expected = np.sin((n + 1) * theta) / ((n + 1) * np.sin(theta))
        assert np.max(np.abs(table[n] - expected)) <= 1e-13, n


def test_at_one_stays_finite_at_large_degree():
    table = normalized_gegenbauer_table(10_000, 6, np.array([1.0, 0.3, -1.0]))
    assert np.all(np.isfinite(table)) and np.max(np.abs(table)) <= 1.0 + 1e-12
    # the value at one drifts by about one rounding per degree: 3.4e-12 here
    assert np.allclose(table[:, 0], 1.0, rtol=0.0, atol=1e-11)


def test_legendre_agreement_up_to_degree_60():
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, 200)
    table = normalized_gegenbauer_table(60, 2, u)
    for n in range(61):
        assert np.max(np.abs(table[n] - legendre_eval(n, u))) <= 1e-13


def test_normalized_is_one_at_one():
    for d in (1, 2, 3, 5, 9):
        table = normalized_gegenbauer_table(17, d, 1.0)
        assert np.allclose(table[[0, 1, 4, 17], 0], 1.0, rtol=0.0, atol=1e-12)


def test_normalized_degree_one_is_identity_for_every_dimension():
    u = np.linspace(-1.0, 1.0, 11)
    for d in (2, 3, 4, 7):
        assert np.allclose(normalized_gegenbauer_table(1, d, u)[1], u, atol=1e-15)


def test_circle_case_is_cosine():
    theta = np.linspace(0.0, np.pi, 50)
    got = normalized_gegenbauer_table(4, 1, np.cos(theta))[4]
    assert np.max(np.abs(got - np.cos(4 * theta))) <= 1e-12


def test_normalized_bounded_by_one_on_grid():
    u = np.linspace(-1.0, 1.0, 1001)
    for d in (2, 3, 4, 6, 11):
        assert np.max(np.abs(normalized_gegenbauer_table(50, d, u))) <= 1.0 + 1e-12


@seed(101)
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=80),
    order=st.floats(min_value=0.05, max_value=10.0),
    u=st.floats(min_value=-1.0, max_value=1.0),
)
def test_three_term_recurrence_residual(n, order, u):
    # the table at a = order - 1/2 is the Gegenbauer polynomial of that order
    # over its value at 1, whose recurrence is
    # (n + 2 order - 1) c_n = 2 u (n + order - 1) c_{n-1} - (n - 1) c_{n-2}
    c0, c1, c2 = jacobi_table(n, order - 0.5, order - 0.5, np.atleast_1d(u))[-3:]
    lead = 2.0 * u * (n + order - 1.0) * c1
    residual = (n + 2.0 * order - 1.0) * c2 - lead + (n - 1.0) * c0
    scale = max(abs((n + 2.0 * order - 1.0) * c2), abs(lead), 1.0)
    assert abs(residual) / scale <= 1e-12


def test_table_rows_match_scalar_evaluator():
    # the table runs one recurrence at every d, Chebyshev at d = 1, where the
    # scalar evaluator takes the cosine path instead
    n_max = 512
    for d in (1, 2, 3, 5, 40):
        alpha = 0.5 * (d - 2)  # the nodes of the 160-node rule of S^d
        u = np.concatenate((np.linspace(-1.0, 1.0, 201), gauss_jacobi(160, alpha, alpha)[0]))
        table = normalized_gegenbauer_table(n_max, d, u)
        assert table.shape == (n_max + 1, u.size)
        # every row at d = 1; elsewhere a spread of rows, since the scalar
        # oracle costs O(n) per row there
        rows = range(n_max + 1) if d == 1 else [*range(12), *range(64, n_max + 1, 56)]
        for n in rows:
            assert np.max(np.abs(table[n] - normalized_gegenbauer(n, d, u))) <= 1e-12, (d, n)


def test_boundary_clamping_tolerates_roundoff():
    assert normalized_gegenbauer_table(3, 2, 1.0 + 5e-13)[3, 0] == pytest.approx(1.0)


def test_domain_errors():
    with pytest.raises(ValueError, match="u must lie"):
        normalized_gegenbauer_table(2, 2, 1.1)
    with pytest.raises(ValueError, match="d must be >= 1"):
        normalized_gegenbauer_table(2, 0, 0.5)
    with pytest.raises(ValueError, match="^n_max must be nonnegative, got -1"):
        normalized_gegenbauer_table(-1, 2, 0.5)  # once a bare IndexError


def test_nan_argument_is_rejected():
    with pytest.raises(ValueError, match="u.*nan"):
        normalized_gegenbauer_table(3, 4, float("nan"))


def test_reentrant_under_threads():
    # the table is pure; concurrent calls must agree with serial ones
    from concurrent.futures import ThreadPoolExecutor

    u = np.linspace(-1.0, 1.0, 257)
    jobs = [(n, d) for n in (3, 10, 25) for d in (2, 3, 5)]
    serial = [normalized_gegenbauer_table(n, d, u) for n, d in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda nd: normalized_gegenbauer_table(*nd, u), jobs))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def normalized_jacobi_exact(k, a, b, x):
    """P_k^(a,b)(x) / P_k^(a,b)(1) = 2F1(-k, k + a + b + 1; a + 1; (1 - x) / 2).

    The terminating sum in Horner form over unreduced integer fractions,
    rounded once at the end. a and b are integers or half-integers, and x
    is rational.
    """
    two_a, two_b = int(2 * a), int(2 * b)
    assert (two_a, two_b) == (2 * a, 2 * b)
    t = (1 - Fraction(x)) / 2
    num = den = 1
    for j in range(k - 1, -1, -1):
        # term j+1 over term j: (j - k)(k + a + b + 1 + j) t / ((a + 1 + j)(j + 1))
        ratio_num = (j - k) * (2 * k + two_a + two_b + 2 + 2 * j) * t.numerator
        ratio_den = (two_a + 2 + 2 * j) * (j + 1) * t.denominator
        num, den = den * ratio_den + ratio_num * num, den * ratio_den
    return num / den


@pytest.mark.parametrize(
    "a, b",
    [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (0.0, 5.0), (3.0, 32.0), (98.0, 2.0)],
)
def test_jacobi_table_matches_exact_hypergeometric_sum(a, b):
    # dyadic x are exact doubles; a = b reads the sphere runner and a != b
    # the disk runner, whose rows (the disk radial factors, b = |l|) are
    # weighted by r^|l| = s^(b/2), s = (1 + x) / 2, as the disk polynomial
    # weights them, since unweighted they grow like C(k+b, k) toward x = -1
    xs = [Fraction(j, 32) - 1 for j in range(65)]
    x = np.array([float(v) for v in xs])
    table = jacobi_table(16, a, b, x)
    weight = (0.5 * (1.0 + x)) ** (0.5 * b) if a != b else np.ones_like(x)
    for k in range(17):
        exact = [normalized_jacobi_exact(k, a, b, v) for v in xs]
        error = np.abs(table[k] - np.array(exact)) * weight
        assert np.max(error) <= 1e-14, (k, np.max(error))


@pytest.mark.parametrize("q", [2, 3, 5, 20, 100])
def test_disk_radial_rows_match_exact_sum_on_every_diagonal(q):
    # the rim x = 1 is where rounded recurrence coefficients drift most: at
    # (a, b) = (0, 24) they reach about 7 with opposite signs. Every
    # diagonal |l| <= 32 runs in one pass, as in the disk plan, the one with
    # |l| = q - 2 (a = b) included
    xs = [Fraction(j, 16) - 1 for j in range(33)]
    x = np.array([float(v) for v in xs])
    ells = np.arange(33)
    weight = (0.5 * (1.0 + x)) ** (0.5 * ells[:, None])
    for k, rows in _jacobi_rows(q - 2, ells, np.full(33, 16), x):
        exact = [[normalized_jacobi_exact(k, q - 2, ell, v) for v in xs] for ell in ells]
        error = np.abs(rows - np.array(exact)) * weight
        assert np.max(error) <= 1e-14, (k, np.argmax(np.max(error, axis=1)), np.max(error))
