import numpy as np
import pytest

from schoenberg import (
    QuadratureResolutionWarning,
    RealSchoenbergSequence,
    compute_real_coeffs,
    constant_isotropic,
    cosine_isotropic,
    harmonic_dimension,
    interval_rule,
    isotropic_from_sequence,
    poisson_circle_coeffs,
    poisson_isotropic,
    random_real_sequence,
    reconstruct,
)


def test_harmonic_dimension_closed_forms():
    for n in range(40):
        assert harmonic_dimension(n, 1) == pytest.approx(1 if n == 0 else 2, rel=1e-13)
        assert harmonic_dimension(n, 2) == pytest.approx(2 * n + 1, rel=1e-13)
        assert harmonic_dimension(n, 3) == pytest.approx((n + 1) ** 2, rel=1e-13)
    assert np.isfinite(harmonic_dimension(30, 1001))


def test_harmonic_dimension_rejects_bad_arguments():
    with pytest.raises(ValueError):
        harmonic_dimension(0, 0)
    with pytest.raises(ValueError):
        harmonic_dimension(-1, 2)


def test_kappa_orthonormality_oracle():
    # the normalization N(d, n) is correct iff the coefficient map sends the
    # degree-n basis polynomial to the one-hot vector e_n
    for d in range(2, 7):
        for n in (0, 1, 2, 5, 9):
            one_hot = np.zeros(n + 1)
            one_hot[n] = 1.0
            basis = isotropic_from_sequence(RealSchoenbergSequence(d, one_hot))
            got = compute_real_coeffs(basis, d, n)
            assert np.max(np.abs(got.coeffs - one_hot)) <= 1e-11


def test_constant_expands_to_leading_coefficient():
    for d in (1, 2, 3, 4, 6):
        seq = compute_real_coeffs(constant_isotropic(), d, 6)
        expected = np.zeros(7)
        expected[0] = 1.0
        assert np.max(np.abs(seq.coeffs - expected)) <= 1e-12
        assert seq.valid_mass


def test_cosine_expands_to_degree_one():
    for d in (1, 2, 3, 5):
        seq = compute_real_coeffs(cosine_isotropic(), d, 6)
        expected = np.zeros(7)
        expected[1] = 1.0
        assert np.max(np.abs(seq.coeffs - expected)) <= 1e-12


def test_poisson_circle_closed_form():
    # Fourier oracle: b_0 = (1-r)/(1+r), b_n = 2 r^n (1-r)/(1+r)
    got = compute_real_coeffs(poisson_isotropic(0.5), 1, 25)
    expected = poisson_circle_coeffs(0.5, 25)
    assert np.max(np.abs(got.coeffs - expected.coeffs)) <= 1e-12
    assert expected.coeffs[0] == pytest.approx(1.0 / 3.0)
    assert expected.coeffs[3] == pytest.approx((2.0 / 3.0) * 0.5**3)


def test_reconstruct_trivials():
    assert reconstruct(RealSchoenbergSequence(4, np.array([1.0])), 1.2) == pytest.approx(1.0)
    one_hot = RealSchoenbergSequence(5, np.array([0.0, 1.0]))
    theta = np.linspace(0.0, np.pi, 21)
    assert np.allclose(reconstruct(one_hot, theta), np.cos(theta), atol=1e-14)


def test_reconstruct_at_zero_is_total_mass():
    for d in (1, 2, 5):
        seq = random_real_sequence(d, 17, seed=d)
        assert reconstruct(seq, 0.0) == pytest.approx(seq.total_mass, abs=1e-12)


def test_reconstruct_rejects_angles_outside_range():
    seq = random_real_sequence(2, 3, seed=0)
    with pytest.raises(ValueError):
        reconstruct(seq, -0.5)
    with pytest.raises(ValueError):
        reconstruct(seq, 3.5)


def test_reconstruct_rejects_nan_angle():
    seq = random_real_sequence(2, 3, seed=0)
    with pytest.raises(ValueError, match="theta.*nan"):
        reconstruct(seq, float("nan"))
    with pytest.raises(ValueError, match="theta.*nan"):
        reconstruct(seq, np.array([0.5, np.nan]))


def test_quadrature_oracle_roundtrip_all_dimensions():
    # computing the coefficients of a reconstructed finite expansion must
    # give the expansion back to near machine precision
    rng = np.random.default_rng(77)
    for d in range(1, 8):
        seq = random_real_sequence(d, 24, seed=int(rng.integers(2**31)))
        got = compute_real_coeffs(isotropic_from_sequence(seq), d, 24)
        assert np.max(np.abs(got.coeffs - seq.coeffs)) <= 1e-11


def test_even_dimension_rule_is_exact_at_minimal_size():
    # the Gauss-Jacobi rule in u = cos(theta) carries the surface weight, so
    # the integrands are polynomials and a small rule is exact in every d
    for d in range(1, 8):
        seq = random_real_sequence(d, 12, seed=1)
        rule = interval_rule(d, 12 + 8)
        got = compute_real_coeffs(isotropic_from_sequence(seq), d, 12, rule)
        assert np.max(np.abs(got.coeffs - seq.coeffs)) <= 1e-13


def test_poisson_roundtrip_uniform_error():
    seq = compute_real_coeffs(poisson_isotropic(0.5), 1, 40)
    theta = np.linspace(0.0, np.pi, 501)
    values = reconstruct(seq, theta)
    target = poisson_isotropic(0.5)(theta)
    # geometric tail: the neglected mass is about 2 * 0.5**41
    assert np.max(np.abs(values - target)) <= 1e-9


def test_poisson_sphere_mass_and_tail_at_large_truncation():
    # degrees above ~460 carry less than 1e-100 at r = 1/2; rule error must
    # neither leak into them nor shift the total mass psi(0) = 1
    seq = compute_real_coeffs(poisson_isotropic(0.5), 2, 512)
    assert abs(1.0 - seq.coeffs.sum()) <= 1e-10
    assert np.max(np.abs(seq.coeffs[463:])) <= 1e-12


def test_poisson_mass_approaches_one():
    seq = compute_real_coeffs(poisson_isotropic(0.5), 1, 40)
    assert seq.total_mass >= 1.0 - 2.0 * 0.5**40
    assert seq.valid_mass


def test_rule_for_another_dimension_is_rejected():
    with pytest.raises(ValueError, match="interval_rule"):
        compute_real_coeffs(constant_isotropic(), 3, 4, interval_rule(2, 16))


def test_under_resolved_rule_is_reported():
    rule = interval_rule(1, 16)
    with pytest.warns(QuadratureResolutionWarning):
        compute_real_coeffs(poisson_isotropic(0.9), 1, 40, rule)
