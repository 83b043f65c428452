import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schoenberg import disk_poly_eval, gauss_jacobi, h_norm


def disk_rule(q, radial, angular):
    """Nodes and weights of the R x A product rule of the disk measure at q.

    Gauss-Jacobi (q - 2, 0) radii in s = r^2, crossed with A uniform angles
    (exact for trigonometric polynomials of degree below A); the weights
    sum to 1.
    """
    t, mass = gauss_jacobi(radial, q - 2, 0)
    z = np.sqrt(0.5 * (1.0 + t))[:, None] * np.exp(2j * np.pi * np.arange(angular) / angular)
    return z.ravel(), np.repeat(mass / angular, angular)


def random_disk_points(rng, size):
    return np.sqrt(rng.uniform(0.0, 1.0, size)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, size)
    )


def test_jacobi_low_degrees():
    # radial factors of degree 1, p_1 = ((a + b + 2) x + a - b) / (2a + 2) at
    # x = 2|z|^2 - 1: R_{1,1} = ((alpha + 2) s - 1) / (alpha + 1) and
    # R_{2,1} = z ((alpha + 3) s - 2) / (alpha + 1), with s = |z|^2
    z = random_disk_points(np.random.default_rng(5), 40)
    s = np.abs(z) ** 2
    for alpha in (0, 1, 3):
        expected = ((alpha + 2) * s - 1) / (alpha + 1)
        assert np.allclose(disk_poly_eval(1, 1, alpha, z), expected, atol=1e-15)
        expected = z * ((alpha + 3) * s - 2) / (alpha + 1)
        assert np.allclose(disk_poly_eval(2, 1, alpha, z), expected, atol=1e-15)


def test_jacobi_legendre_special_case():
    # at alpha = 0 the diagonal radial factors are Legendre's, in x = 2|z|^2 - 1
    z = random_disk_points(np.random.default_rng(6), 33)
    x = 2.0 * np.abs(z) ** 2 - 1.0
    assert np.allclose(disk_poly_eval(2, 2, 0, z), 0.5 * (3.0 * x**2 - 1.0), atol=1e-14)


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
    for bad in (2.5, True):
        for args in ((bad, 0, 3), (0, bad, 3), (0, 0, bad)):
            with pytest.raises(ValueError, match="must be an integer"):
                h_norm(*args)


def test_orthogonality_against_h():
    for q in (2, 3, 4):
        z, w = disk_rule(q, 30, 40)
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
    z, w = disk_rule(2, 20, 24)
    value = np.sum(w * disk_poly_eval(1, 0, 0, z))
    assert abs(value) <= 1e-14


def test_domain_rejection():
    with pytest.raises(ValueError):
        disk_poly_eval(1, 0, 0, 1.1 + 0.0j)
    with pytest.raises(ValueError):
        disk_poly_eval(-1, 0, 0, 0.0j)
    for bad in (2.5, True):
        for m, n in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match="must be an integer"):
                disk_poly_eval(m, n, 1, 0.5 + 0.1j)
    for bad, match in (
        (float("nan"), "be a real number, got nan"),
        (float("inf"), "lie in [0, inf), got inf"),
        (-0.5, "lie in [0, inf), got -0.5"),
        (True, "be a real number, got True"),
        ("1", "be a real number, got '1'"),
        (1j, "be a real number, got 1j"),
    ):
        with pytest.raises(ValueError, match=f"^alpha must {re.escape(match)}$"):
            disk_poly_eval(1, 1, bad, 0.5)
    assert disk_poly_eval(1, 1, np.float64(1.5), 0.5) == disk_poly_eval(1, 1, 1.5, 0.5)
    # boundary roundoff is clamped
    assert disk_poly_eval(2, 1, 1, 1.0 + 5e-13 + 0.0j) == pytest.approx(1.0)


def test_nan_point_is_rejected():
    with pytest.raises(ValueError, match="z.*nan"):
        disk_poly_eval(1, 1, 1, float("nan"))
