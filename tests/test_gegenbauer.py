import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schoenberg import normalized_gegenbauer
from schoenberg.gegenbauer import gegenbauer_at_one, gegenbauer_eval, order_for_dimension


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
