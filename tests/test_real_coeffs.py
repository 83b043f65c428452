import tracemalloc
import warnings

import numpy as np
import pytest

from schoenberg import (
    QuadratureResolutionWarning,
    RealSchoenbergSequence,
    compute_real_coeffs,
    constant_isotropic,
    cosine_isotropic,
    gauss_jacobi,
    harmonic_dimension,
    isotropic_from_sequence,
    poisson_circle_coeffs,
    poisson_isotropic,
    random_real_sequence,
    reconstruct,
)
from schoenberg.gegenbauer import normalized_gegenbauer_table
from schoenberg.quadrature import default_node_count
from schoenberg.real_coeffs import _harmonic_dimensions


def _table_coeffs(psi, d, truncation, nodes=None):
    # the whole-table transform, the oracle for the folded one: samples at
    # all K nodes and one (truncation + 1) x K basis table; also returns the
    # sum of w |psi| that bounds each coefficient's rounding
    alpha = 0.5 * (d - 2)
    u, weights = gauss_jacobi(nodes or default_node_count(truncation), alpha, alpha)
    values = psi(np.arccos(u))
    basis = normalized_gegenbauer_table(truncation, d, u)
    coeffs = _harmonic_dimensions(d, truncation) * ((values * weights) @ basis.T)
    return coeffs, float(np.sum(weights * np.abs(values)))


def _table_reconstruct(seq, theta):
    # the whole-table sum, the oracle for the blocked one
    return seq.coeffs @ normalized_gegenbauer_table(seq.truncation, seq.d, np.cos(theta))


def test_harmonic_dimension_closed_forms():
    for n in range(40):
        assert harmonic_dimension(n, 1) == pytest.approx(1 if n == 0 else 2, rel=1e-13)
        assert harmonic_dimension(n, 2) == pytest.approx(2 * n + 1, rel=1e-13)
        assert harmonic_dimension(n, 3) == pytest.approx((n + 1) ** 2, rel=1e-13)
    assert np.isfinite(harmonic_dimension(30, 1001))


def test_cached_harmonic_dimensions_are_the_scalar_values_read_only():
    for d, truncation in ((1, 0), (2, 64), (5, 512), (101, 40)):
        scale = _harmonic_dimensions(d, truncation)
        assert scale.tolist() == [harmonic_dimension(n, d) for n in range(truncation + 1)]
        assert _harmonic_dimensions(d, truncation) is scale
        with pytest.raises(ValueError):
            scale[0] = 2.0


def test_harmonic_dimension_rejects_bad_arguments():
    with pytest.raises(ValueError):
        harmonic_dimension(0, 0)
    with pytest.raises(ValueError):
        harmonic_dimension(-1, 2)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            harmonic_dimension(bad, 3)
        with pytest.raises(ValueError, match="d must be an integer"):
            harmonic_dimension(3, bad)


def test_harmonic_dimension_overflow_names_its_arguments():
    # the log-gamma form cannot overflow, but its exponential can
    with pytest.raises(OverflowError, match=r"n=1000000, d=1000000 exceeds double precision"):
        harmonic_dimension(10**6, 10**6)


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
    with pytest.raises(ValueError, match="^truncation must be nonnegative, got -1"):
        poisson_circle_coeffs(0.5, -1)  # once a bare IndexError


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
        got = compute_real_coeffs(isotropic_from_sequence(seq), d, 12, nodes=12 + 8)
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


def test_under_resolved_rule_is_reported():
    with pytest.warns(QuadratureResolutionWarning):
        compute_real_coeffs(poisson_isotropic(0.9), 1, 40, nodes=16)


def test_large_dimension_at_default_size_is_flagged():
    # at d = 51 the default 160-node rule does not resolve Poisson r = 1/2
    # against degrees up to 64 (sum |b| = 3.97, min b = -1.44), so the result
    # must carry the warning; a fix that resolves it turns this test into an
    # accuracy check
    with pytest.warns(QuadratureResolutionWarning) as caught:
        seq = compute_real_coeffs(poisson_isotropic(0.5), 51, 64)
    assert len(caught) == 1 and not seq.valid_mass


def test_non_finite_psi_is_named():
    # the first node with theta > 1 carries the NaN; the error must name
    # psi and that node, not a downstream array
    def psi(theta):
        return np.where(theta > 1.0, np.nan, 1.0)

    theta = np.arccos(gauss_jacobi(16, 0.5, 0.5)[0])
    first = theta[np.flatnonzero(theta > 1.0)[0]]
    with pytest.raises(ValueError, match=r"psi\(theta=") as info:
        compute_real_coeffs(psi, 3, 4, nodes=16)
    assert str(first) in str(info.value) and "nan" in str(info.value)
    with pytest.raises(ValueError, match="psi.*inf"):
        compute_real_coeffs(lambda theta: np.full_like(theta, np.inf), 2, 4)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 21, 101, 201])
def test_reconstruct_matches_whole_table_oracle(d):
    theta = np.linspace(0.0, np.pi, 777)
    for truncation in (0, 1, 2, 63, 64, 65, 128, 512, 4000):
        seq = random_real_sequence(d, truncation, seed=truncation + d)
        bound = 1e-14 * np.abs(seq.coeffs).sum()
        got = reconstruct(seq, theta)
        assert np.max(np.abs(got - _table_reconstruct(seq, theta))) <= bound, truncation
        scalar = reconstruct(seq, 0.7)
        assert isinstance(scalar, float)
        assert abs(scalar - _table_reconstruct(seq, 0.7)) <= bound, truncation


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_coefficients_match_whole_table_oracle(d):
    # the folded sums round in another order than the whole-table ones, so
    # each coefficient may move by a few roundings of its sum, scaled by
    # N(d, n) (at most 2.7 of them here). At d <= 3, N <= 512 that is
    # within 1e-13 max|b|; it reaches 1.3e-13 max|b| at d = 3, N = 2000,
    # and at d = 5 1.5e-12 max|b| at N = 512 and 8e-11 max|b| at N = 2000,
    # where both paths are off the exact mixture by 3.4e-10. Odd node
    # counts carry u = 0.
    eps = np.finfo(float).eps
    mixture = isotropic_from_sequence(random_real_sequence(d, 16, seed=d))
    for psi in (poisson_isotropic(0.5), mixture):
        for truncation in (0, 1, 2, 63, 64, 65, 128, 512, 2000):
            for nodes in (1, 2, 3, 129, None):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", QuadratureResolutionWarning)
                    got = compute_real_coeffs(psi, d, truncation, nodes).coeffs
                want, abs_sum = _table_coeffs(psi, d, truncation, nodes)
                diff = np.abs(got - want)
                rounding = eps * _harmonic_dimensions(d, truncation) * abs_sum
                assert np.all(diff <= 16.0 * rounding), (truncation, nodes)
                if d <= 3 and truncation <= 512:
                    assert np.max(diff) <= 1e-13 * np.max(np.abs(want)), (truncation, nodes)


def test_poisson_closed_form_errors_unchanged_at_d1_and_d3():
    # d = 1: b_n = 2 r^n (1 - r) / (1 + r), b_0 half that; d = 3: b_n =
    # (1 - r)^2 (n + 1) r^n. Folding must not add error beyond rounding.
    eps = np.finfo(float).eps
    for r in (0.2, 0.5, 0.9):
        psi = poisson_isotropic(r)
        for truncation in (25, 64, 512):
            n = np.arange(truncation + 1)
            exact = {
                1: poisson_circle_coeffs(r, truncation).coeffs,
                3: (1.0 - r) ** 2 * (n + 1.0) * r**n,
            }
            for d, want in exact.items():
                new = np.max(np.abs(compute_real_coeffs(psi, d, truncation).coeffs - want))
                old = np.max(np.abs(_table_coeffs(psi, d, truncation)[0] - want))
                assert new <= 1.25 * old + 4.0 * eps, (r, truncation, d, new, old)


def test_transforms_hold_one_block_of_rows():
    # a whole basis table at N = 4000 by 2000 points, or N = 2000 by the
    # 4032-node rule, is 64 MB; one 64-row block is about 1 MB
    psi = poisson_isotropic(0.5)
    seq = random_real_sequence(3, 4000, seed=0)
    theta = np.linspace(0.0, np.pi, 2000)
    compute_real_coeffs(psi, 3, 2000)  # builds and caches the rule
    tracemalloc.start()
    try:
        reconstruct(seq, theta)
        reconstruct_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        compute_real_coeffs(psi, 3, 2000)
        coeffs_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reconstruct_peak < 4e6
    assert coeffs_peak < 8e6
