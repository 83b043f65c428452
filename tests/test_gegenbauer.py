from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schoenberg import interval_rule, normalized_gegenbauer
from schoenberg.gegenbauer import (
    _jacobi_table,
    gegenbauer_at_one,
    gegenbauer_eval,
    normalized_gegenbauer_table,
    order_for_dimension,
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


def test_degree_zero_is_one():
    assert gegenbauer_eval(0, 0.5, 0.3) == 1.0


def test_degree_one_is_linear():
    assert gegenbauer_eval(1, 0.5, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert gegenbauer_eval(1, 2.0, -0.25) == pytest.approx(-1.0, abs=1e-15)


def test_order_half_matches_legendre_p2():
    # P_2(u) = (3u^2 - 1) / 2 at u = 0.5
    assert gegenbauer_eval(2, 0.5, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_at_one_trivials():
    assert gegenbauer_at_one(0, 3.7) == 1.0
    assert gegenbauer_at_one(1, 0.5) == pytest.approx(1.0)


def test_at_one_chebyshev_second_kind():
    # order 1 value at u = 1 equals n + 1
    assert gegenbauer_at_one(3, 1.0) == pytest.approx(4.0)


def test_at_one_stays_finite_at_large_degree():
    value = gegenbauer_at_one(10_000, 2.5)
    assert np.isfinite(value) and value > 0


def test_legendre_agreement_up_to_degree_60():
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, 200)
    for n in range(61):
        got = gegenbauer_eval(n, 0.5, u)
        assert np.max(np.abs(got - legendre_eval(n, u))) <= 1e-13


def test_normalized_is_one_at_one():
    for d in (1, 2, 3, 5, 9):
        for n in (0, 1, 4, 17):
            assert normalized_gegenbauer(n, d, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_normalized_degree_one_is_identity_for_every_dimension():
    u = np.linspace(-1.0, 1.0, 11)
    for d in (2, 3, 4, 7):
        assert np.allclose(normalized_gegenbauer(1, d, u), u, atol=1e-15)


def test_circle_case_is_cosine():
    theta = np.linspace(0.0, np.pi, 50)
    got = normalized_gegenbauer(4, 1, np.cos(theta))
    assert np.max(np.abs(got - np.cos(4 * theta))) <= 1e-12


def test_normalized_bounded_by_one_on_grid():
    u = np.linspace(-1.0, 1.0, 1001)
    for d in (2, 3, 4, 6, 11):
        for n in range(51):
            assert np.max(np.abs(normalized_gegenbauer(n, d, u))) <= 1.0 + 1e-12


@seed(101)
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=80),
    order=st.floats(min_value=0.05, max_value=10.0),
    u=st.floats(min_value=-1.0, max_value=1.0),
)
def test_three_term_recurrence_residual(n, order, u):
    c2 = gegenbauer_eval(n, order, u)
    c1 = gegenbauer_eval(n - 1, order, u)
    c0 = gegenbauer_eval(n - 2, order, u)
    residual = n * c2 - 2.0 * u * (n + order - 1.0) * c1 + (n + 2.0 * order - 2.0) * c0
    scale = max(abs(n * c2), abs(2.0 * u * (n + order - 1.0) * c1), 1.0)
    assert abs(residual) / scale <= 1e-12


def test_table_rows_match_scalar_evaluator():
    # the table runs one recurrence at every d, Chebyshev at d = 1, where the
    # scalar evaluator takes the cosine path instead
    n_max = 512
    for d in (1, 2, 3, 5, 40):
        u = np.concatenate((np.linspace(-1.0, 1.0, 201), interval_rule(d, 160).nodes))
        table = normalized_gegenbauer_table(n_max, d, u)
        assert table.shape == (n_max + 1, u.size)
        # every row at d = 1; elsewhere a spread of rows, since the scalar
        # oracle costs O(n) per row there
        rows = range(n_max + 1) if d == 1 else [*range(12), *range(64, n_max + 1, 56)]
        for n in rows:
            assert np.max(np.abs(table[n] - normalized_gegenbauer(n, d, u))) <= 1e-12, (d, n)


def test_boundary_clamping_tolerates_roundoff():
    assert normalized_gegenbauer(3, 2, 1.0 + 5e-13) == pytest.approx(1.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        gegenbauer_eval(2, 0.5, 1.1)
    with pytest.raises(ValueError):
        gegenbauer_eval(2, 0.0, 0.5)
    with pytest.raises(ValueError):
        gegenbauer_eval(-1, 0.5, 0.5)
    with pytest.raises(ValueError):
        normalized_gegenbauer(2, 0, 0.5)
    with pytest.raises(ValueError):
        order_for_dimension(1)


def test_nan_argument_is_rejected():
    with pytest.raises(ValueError, match="u.*nan"):
        normalized_gegenbauer(3, 4, float("nan"))


def test_reentrant_under_threads():
    # evaluators are pure; concurrent calls must agree with serial ones
    from concurrent.futures import ThreadPoolExecutor

    u = np.linspace(-1.0, 1.0, 257)
    jobs = [(n, d) for n in (3, 10, 25) for d in (2, 3, 5)]
    serial = [normalized_gegenbauer(n, d, u) for n, d in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda nd: normalized_gegenbauer(*nd, u), jobs))
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
    # dyadic x are exact doubles; with a != b (the disk radial factors,
    # b = |l|) rows are weighted by r^|l| = s^(b/2), s = (1 + x) / 2, as the
    # disk polynomial weights them, since unweighted they grow like C(k+b, k)
    # toward x = -1
    xs = [Fraction(j, 32) - 1 for j in range(65)]
    x = np.array([float(v) for v in xs])
    table = _jacobi_table(16, a, b, x)
    weight = (0.5 * (1.0 + x)) ** (0.5 * b) if a != b else np.ones_like(x)
    for k in range(17):
        exact = [normalized_jacobi_exact(k, a, b, v) for v in xs]
        error = np.abs(table[k] - np.array(exact)) * weight
        assert np.max(error) <= 1e-14, (k, np.max(error))


@pytest.mark.parametrize("q", [2, 3, 5, 20, 100])
def test_disk_radial_rows_match_exact_sum_on_every_diagonal(q):
    # the rim x = 1 is where rounded recurrence coefficients drift most: at
    # (a, b) = (0, 24) they reach about 7 with opposite signs
    xs = [Fraction(j, 16) - 1 for j in range(33)]
    x = np.array([float(v) for v in xs])
    for ell in range(33):
        table = _jacobi_table(16, q - 2, ell, x)
        weight = (0.5 * (1.0 + x)) ** (0.5 * ell)
        for k in range(17):
            exact = [normalized_jacobi_exact(k, q - 2, ell, v) for v in xs]
            error = np.abs(table[k] - np.array(exact)) * weight
            assert np.max(error) <= 1e-14, (ell, k, np.max(error))
