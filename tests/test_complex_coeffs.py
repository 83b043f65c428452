import numpy as np
import pytest

from schoenberg import (
    ComplexSchoenbergSequence,
    QuadratureResolutionWarning,
    compute_complex_coeffs,
    disk_constant,
    disk_from_sequence,
    disk_monomial,
    disk_quadrature,
    disk_poly_eval,
    h_norm,
    random_complex_sequence,
    reconstruct_complex,
)


def entry_error(a: ComplexSchoenbergSequence, b: ComplexSchoenbergSequence) -> float:
    keys = set(a.entries) | set(b.entries)
    return max((abs(a.get(*k) - b.get(*k)) for k in keys), default=0.0)


def test_constant_expands_to_origin_entry():
    for q in (2, 3, 5):
        seq = compute_complex_coeffs(disk_constant(), q, 3)
        assert seq.get(0, 0) == pytest.approx(1.0, abs=1e-13)
        others = {k: v for k, v in seq.entries.items() if k != (0, 0)}
        assert all(abs(v) <= 1e-13 for v in others.values())
        assert seq.max_imag <= 1e-13


def test_identity_function_expands_to_one_zero():
    seq = compute_complex_coeffs(disk_monomial(1, 0), 2, 3)
    assert seq.get(1, 0) == pytest.approx(1.0, abs=1e-13)
    assert abs(seq.get(0, 0)) <= 1e-13 and abs(seq.get(1, 1)) <= 1e-13


def test_squared_modulus_closed_form():
    # |z|^2 = (1/q) * 1 + ((q-1)/q) * R_{1,1}, so exactly two entries; at
    # q = 100 the radial weight (1 - s)^98 must not underflow the rule
    for q in (2, 3, 4, 100):
        seq = compute_complex_coeffs(disk_monomial(1, 1), q, 6)
        assert seq.get(0, 0) == pytest.approx(1.0 / q, abs=1e-12)
        assert seq.get(1, 1) == pytest.approx((q - 1.0) / q, abs=1e-12)
        rest = {k: v for k, v in seq.entries.items() if k not in ((0, 0), (1, 1))}
        assert all(abs(v) <= 1e-12 for v in rest.values())


def test_squared_modulus_against_denser_quadrature():
    # independent oracle: same integrals at double resolution
    coarse = compute_complex_coeffs(disk_monomial(1, 1), 2, 4)
    fine_rule = disk_quadrature(2, 64, 96)
    fine = compute_complex_coeffs(disk_monomial(1, 1), 2, 4, fine_rule)
    assert entry_error(coarse, fine) <= 1e-12


def test_real_valued_function_has_symmetric_coefficients():
    seq = compute_complex_coeffs(disk_monomial(1, 1), 3, 5)
    for (m, n), value in seq.entries.items():
        assert value == pytest.approx(seq.get(n, m), abs=1e-12)


def test_reconstruct_trivials():
    origin = ComplexSchoenbergSequence(2, {(0, 0): 1.0}, 2)
    z = np.array([0.3 + 0.1j, -0.5j, 0.9])
    assert np.allclose(reconstruct_complex(origin, z), 1.0)
    linear = ComplexSchoenbergSequence(2, {(1, 0): 1.0}, 2)
    assert np.allclose(reconstruct_complex(linear, z), z)


def test_reconstruct_rejects_nan_point():
    seq = random_complex_sequence(3, 4, seed=5)
    with pytest.raises(ValueError, match="z.*nan"):
        reconstruct_complex(seq, complex("nan"))


def test_reconstruct_at_one_is_total_mass():
    seq = random_complex_sequence(3, 7, seed=5)
    assert reconstruct_complex(seq, 1.0 + 0.0j) == pytest.approx(
        seq.total_mass, abs=1e-11
    )


def test_roundtrip_compute_of_reconstruction():
    rng = np.random.default_rng(6)
    for q in (2, 3, 4):
        for _ in range(4):
            seq = random_complex_sequence(q, 8, int(rng.integers(2**31)))
            back = compute_complex_coeffs(disk_from_sequence(seq), q, 8)
            assert entry_error(seq, back) <= 1e-10
            assert back.max_imag <= 1e-10


def test_coefficient_functional_is_linear():
    q, degree = 2, 6
    first = random_complex_sequence(q, degree, seed=21)
    second = random_complex_sequence(q, degree, seed=22)
    blend = 0.3

    def blended(z):
        return blend * disk_from_sequence(first)(z) + (1 - blend) * disk_from_sequence(
            second
        )(z)

    got = compute_complex_coeffs(blended, q, degree)
    expected = {
        k: blend * first.get(*k) + (1 - blend) * second.get(*k)
        for k in set(first.entries) | set(second.entries)
    }
    for k, v in expected.items():
        assert got.get(*k) == pytest.approx(v, abs=1e-12)


def test_under_resolved_rule_is_reported():
    rule = disk_quadrature(2, 3, 6)
    with pytest.warns(QuadratureResolutionWarning):
        compute_complex_coeffs(disk_mixture_high_degree(), 2, 10, rule)


def disk_mixture_high_degree():
    seq = ComplexSchoenbergSequence(2, {(5, 5): 0.5, (8, 1): 0.5}, 10)
    return disk_from_sequence(seq)


def test_basis_functions_are_orthonormal_under_map():
    # computing the coefficients of one basis polynomial yields a one-hot map
    q = 3
    for m, n in ((0, 0), (2, 1), (1, 3)):
        phi = lambda z: disk_poly_eval(m, n, q - 2, z)
        seq = compute_complex_coeffs(phi, q, 4)
        assert seq.get(m, n) == pytest.approx(1.0, abs=1e-12)
        rest = {k: v for k, v in seq.entries.items() if k != (m, n)}
        assert all(abs(v) <= 1e-12 for v in rest.values())
        assert h_norm(m, n, q) > 0.0
