import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schoenberg import (
    disk_poly_eval,
    disk_quadrature,
    h_norm,
    jacobi_at_one,
    jacobi_eval,
)


def random_disk_points(rng, size):
    return np.sqrt(rng.uniform(0.0, 1.0, size)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, size)
    )


def test_jacobi_low_degrees():
    x = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(jacobi_eval(0, 1.0, 2.0, x), 1.0)
    # degree one: ((a + b + 2) x + a - b) / 2
    assert np.allclose(jacobi_eval(1, 1.0, 2.0, x), (5.0 * x - 1.0) / 2.0)
    assert jacobi_at_one(3, 2.0) == pytest.approx(10.0)  # C(5, 3)


def test_jacobi_legendre_special_case():
    x = np.linspace(-1.0, 1.0, 33)
    p2 = jacobi_eval(2, 0.0, 0.0, x)
    assert np.allclose(p2, 0.5 * (3.0 * x**2 - 1.0), atol=1e-14)


def test_disk_poly_constant_and_monomials():
    rng = np.random.default_rng(0)
    z = random_disk_points(rng, 40)
    for alpha in (0, 1, 3):
        assert np.allclose(disk_poly_eval(0, 0, alpha, z), 1.0)
        assert np.allclose(disk_poly_eval(1, 0, alpha, z), z, atol=1e-15)
        assert np.allclose(disk_poly_eval(0, 1, alpha, z), np.conj(z), atol=1e-15)


def test_disk_poly_is_one_at_one():
    for alpha in (0, 2, 4):
        for m in range(5):
            for n in range(5):
                assert disk_poly_eval(m, n, alpha, 1.0 + 0.0j) == pytest.approx(1.0)


def test_disk_poly_bounded_on_disk():
    rng = np.random.default_rng(1)
    z = random_disk_points(rng, 400)
    for alpha in (0, 1, 3):
        for m in range(11):
            for n in range(11):
                assert np.max(np.abs(disk_poly_eval(m, n, alpha, z))) <= 1.0 + 1e-12


@seed(404)
@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(0, 8),
    n=st.integers(0, 8),
    alpha=st.integers(0, 4),
    radius=st.floats(0.0, 1.0),
    angle=st.floats(0.0, 2.0 * np.pi),
)
def test_conjugation_symmetry(m, n, alpha, radius, angle):
    z = radius * np.exp(1j * angle)
    left = disk_poly_eval(n, m, alpha, z)
    right = np.conj(disk_poly_eval(m, n, alpha, z))
    assert abs(left - right) <= 1e-12


def test_mixed_parameter_recursion():
    # (1 - |z|^2) R^{(q-1)}_{m-1,n} = (q-1)/(m+n+q-1) (R^{(q-2)}_{m-1,n} - R^{(q-2)}_{m,n+1})
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        q = int(rng.integers(2, 7))
        m = int(rng.integers(1, 11))
        n = int(rng.integers(0, 11))
        z = complex(random_disk_points(rng, 1)[0])
        lhs = (1.0 - abs(z) ** 2) * disk_poly_eval(m - 1, n, q - 1, z)
        rhs = (q - 1.0) / (m + n + q - 1.0) * (
            disk_poly_eval(m - 1, n, q - 2, z) - disk_poly_eval(m, n + 1, q - 2, z)
        )
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_h_norm_values_and_symmetry():
    assert h_norm(0, 0, 2) == pytest.approx(1.0)
    assert h_norm(2, 0, 2) == pytest.approx(3.0)
    for q in (2, 3, 5):
        for m in range(5):
            for n in range(5):
                assert h_norm(m, n, q) == h_norm(n, m, q)
    with pytest.raises(ValueError):
        h_norm(0, 0, 1)


def test_orthogonality_against_h():
    for q in (2, 3, 4):
        rule = disk_quadrature(q, 30, 40)
        z, w = rule.complex_nodes, rule.weights
        table = {
            (m, n): disk_poly_eval(m, n, q - 2, z)
            for m in range(5)
            for n in range(5)
        }
        for (m, n), left in table.items():
            for (k, l), right in table.items():
                inner = np.sum(w * left * np.conj(right))
                target = 1.0 / h_norm(m, n, q) if (m, n) == (k, l) else 0.0
                assert abs(inner - target) <= 1e-10


def test_first_moment_vanishes():
    rule = disk_quadrature(2, 20, 24)
    value = np.sum(rule.weights * disk_poly_eval(1, 0, 0, rule.complex_nodes))
    assert abs(value) <= 1e-14


def test_domain_rejection():
    with pytest.raises(ValueError):
        disk_poly_eval(1, 0, 0, 1.1 + 0.0j)
    with pytest.raises(ValueError):
        disk_poly_eval(-1, 0, 0, 0.0j)
    # boundary roundoff is clamped
    assert disk_poly_eval(2, 1, 1, 1.0 + 5e-13 + 0.0j) == pytest.approx(1.0)


def test_nan_point_is_rejected():
    with pytest.raises(ValueError, match="z.*nan"):
        disk_poly_eval(1, 1, 1, float("nan"))
