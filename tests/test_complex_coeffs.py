import re
import warnings

import numpy as np
import pytest

from schoenberg import (
    ComplexSchoenbergSequence,
    QuadratureResolutionWarning,
    compute_complex_coeffs,
    disk_constant,
    disk_from_sequence,
    disk_monomial,
    disk_poly_eval,
    h_norm,
    random_complex_sequence,
    reconstruct_complex,
    walk_up_complex,
)
from schoenberg import complex_coeffs
from test_disk_polys import disk_rule


def default_rule(q, max_degree):
    """The rule compute_complex_coeffs builds when no ``nodes`` are given."""
    return disk_rule(q, max_degree + q + 12, 4 * max_degree + 8)


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


def test_radial_rule_overflow_is_named():
    # at q = 330 the Gauss-Jacobi weights for (1 - s)^328 leave the double
    # range; the error must say so, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow") as info:
            compute_complex_coeffs(disk_monomial(1, 1), 330, 6)
    assert "alpha=328" in str(info.value) and "n_nodes" in str(info.value)


def test_squared_modulus_against_denser_quadrature():
    # independent oracle: same integrals at more than three times the radii
    coarse = compute_complex_coeffs(disk_monomial(1, 1), 2, 4)
    fine = compute_complex_coeffs(disk_monomial(1, 1), 2, 4, nodes=64)
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
    # three radii cannot resolve the degree-10 mixture: sum |a| = 1.07
    with pytest.warns(QuadratureResolutionWarning):
        compute_complex_coeffs(disk_mixture_high_degree(), 2, 10, nodes=3)


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


def per_bidegree_sum(phi, q, max_degree, rule):
    """Reference: h(m, n, q) * sum_i w_i phi(z_i) conj(R_{m,n}(z_i)), entry by entry."""
    z, w = rule
    weighted = w * phi(z)
    return {
        (m, n): h_norm(m, n, q) * np.sum(weighted * np.conj(disk_poly_eval(m, n, q - 2, z)))
        for m in range(max_degree + 1)
        for n in range(max_degree + 1 - m)
    }


def test_separated_transform_matches_per_bidegree_sum():
    # both sum the same integrand on the same nodes, so they differ by the
    # rounding of the inner product, which h(m, n, q) then scales; at
    # q = 100 h reaches 1e38, so there only the inner products are compared
    for q in (2, 3, 5, 100):
        for max_degree in (0, 1, 32):
            phi = disk_from_sequence(random_complex_sequence(q, min(max_degree, 8), seed=q))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuadratureResolutionWarning)
                got = compute_complex_coeffs(phi, q, max_degree)
            reference = per_bidegree_sum(phi, q, max_degree, default_rule(q, max_degree))
            assert set(got.entries) <= set(reference)
            for (m, n), value in reference.items():
                diff = abs(got.get(m, n) - value.real)
                assert diff / h_norm(m, n, q) <= 1e-15
                assert q == 100 or diff <= 1e-12
            assert got.max_imag <= max(1e-15, max(abs(v.imag) for v in reference.values()))


def test_under_resolved_grid_aliases_like_per_node_sum():
    # at max degree 2 the 16 angles cannot tell mode l from l -+ 16, and
    # phi's modes +-15 reach past 16 - 2; the transform over angles must
    # alias them onto the diagonals -+1 exactly as the sum over the nodes does
    phi = disk_from_sequence(ComplexSchoenbergSequence(2, {(15, 0): 0.5, (1, 16): 0.5}, 17))
    got = compute_complex_coeffs(phi, 2, 2)
    reference = per_bidegree_sum(phi, 2, 2, default_rule(2, 2))
    assert min(abs(got.get(1, 0)), abs(got.get(0, 1))) > 0.05  # true entries are 0
    assert max(abs(got.get(*k) - v.real) for k, v in reference.items()) <= 1e-12
    assert got.max_imag == pytest.approx(max(abs(v.imag) for v in reference.values()), abs=1e-12)


def test_non_finite_phi_is_named():
    z = complex_coeffs._disk_plan(3, 8, 4).nodes
    first = z[np.flatnonzero(z.real < 0.0)[0]]

    def phi(points):
        return np.where(points.real < 0.0, np.nan, 1.0)

    with pytest.raises(ValueError, match=r"phi\(z=") as info:
        compute_complex_coeffs(phi, 3, 4, nodes=8)
    assert str(first) in str(info.value) and "nan" in str(info.value)


def per_entry_sum(seq, z):
    out = np.zeros_like(np.atleast_1d(np.asarray(z, dtype=complex)))
    for (m, n), a in seq.entries.items():
        out = out + a * disk_poly_eval(m, n, seq.q - 2, z)
    return out


def test_reconstruct_matches_per_entry_sum():
    rng = np.random.default_rng(8)
    points = np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 200))
    rim = (1.0 + 5e-13) * np.exp(0.3j)
    # a polar plotting grid: each radius repeats on 40 angles; the shape is kept
    polar = np.linspace(0.0, 1.0, 20)[:, None] * np.exp(2j * np.pi * np.arange(40) / 40)
    # every (m, n) with m + n <= 32, so both diagonals +-|l| at every |l| <= 32
    keys = [(m, n) for m in range(33) for n in range(33 - m)]
    for q in (2, 3, 5, 100):
        weights = rng.uniform(0.1, 1.0, len(keys))
        dense = ComplexSchoenbergSequence(q, dict(zip(keys, weights / weights.sum())), 32)
        for seq in (random_complex_sequence(q, 12, seed=q, n_terms=40), dense):
            got = reconstruct_complex(seq, points)
            assert np.max(np.abs(got - per_entry_sum(seq, points))) <= 1e-13
            on_grid = reconstruct_complex(seq, polar)
            assert on_grid.shape == polar.shape
            assert np.max(np.abs(on_grid.ravel() - per_entry_sum(seq, polar.ravel()))) <= 1e-13
            assert abs(reconstruct_complex(seq, rim) - per_entry_sum(seq, rim)[0]) <= 1e-13
            scalar = reconstruct_complex(seq, 0.4 - 0.2j)
            assert isinstance(scalar, complex)
            assert abs(scalar - per_entry_sum(seq, 0.4 - 0.2j)[0]) <= 1e-13
            assert reconstruct_complex(seq, []).shape == (0,)
            for bad in (complex("nan"), 1.01, np.array([0.1, 1j * (1.0 + 1e-9)])):
                with pytest.raises(ValueError, match="z"):
                    reconstruct_complex(seq, bad)
    empty = ComplexSchoenbergSequence(3, {}, 4)
    assert np.array_equal(reconstruct_complex(empty, points), np.zeros_like(points))
    with pytest.raises(ValueError, match="nan"):
        reconstruct_complex(empty, complex("nan"))



def test_reconstruct_stops_each_diagonal_at_its_top():
    # carried past its one entry at k = 0 up to k = 520, the Jacobi (0, 520)
    # recurrence would reach binom(1040, 520) ~ 3e311 at z = 0 and overflow
    seq = ComplexSchoenbergSequence(2, {(520, 520): 0.5, (520, 0): 0.5}, 1040)
    z = np.array([0.0, 0.5, 0.9j, 0.3 - 0.95j])
    assert np.max(np.abs(reconstruct_complex(seq, z) - per_entry_sum(seq, z))) <= 1e-13


def test_reconstruct_names_a_bi_degree_past_int64():
    # the constructor, the wire format and the walks keep such an index
    # exact, but the recurrence runs over int64 sizes and k
    for key in ((2**70, 0), (1, 2**63)):
        seq = ComplexSchoenbergSequence(3, {(0, 0): 0.5, key: 0.5}, 2**71)
        with pytest.raises(ValueError, match=re.escape(f"({key[0]}, {key[1]})") + ".*cannot reach"):
            reconstruct_complex(seq, 0.5)
    # the forward walk drops the one entry past int64 at this max degree; its
    # output, held as Python integers, is read as int64
    seq = ComplexSchoenbergSequence(3, {(0, 0): 0.5, (2, 1): 0.25, (2**70, 0): 0.25}, 2**70 + 1)
    up = walk_up_complex(seq)
    assert up.entries.arrays.m.dtype == object and max(map(max, up.entries)) == 2
    z = np.array([0.0, 0.5, 0.9j])
    assert np.max(np.abs(reconstruct_complex(up, z) - per_entry_sum(up, z))) <= 1e-13


def test_each_rule_gets_its_own_plan():
    # the plan is keyed on (q, R, M): rules of two radial sizes each match
    # the per-node sum on their own nodes, and equal keys share one plan
    q, max_degree, angles = 3, 12, 4 * 12 + 8
    phi = disk_from_sequence(random_complex_sequence(q, 8, seed=4))
    for radial in (26, 31):
        rule = disk_rule(q, radial, angles)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureResolutionWarning)
            got = compute_complex_coeffs(phi, q, max_degree, nodes=radial)
        reference = per_bidegree_sum(phi, q, max_degree, rule)
        assert max(abs(got.get(*k) - v.real) for k, v in reference.items()) <= 1e-12
        plan = complex_coeffs._disk_plan(q, radial, max_degree)
        assert complex_coeffs._disk_plan(q, radial, max_degree) is plan
        assert np.max(np.abs(plan.nodes - rule[0])) <= 1e-15


def test_cold_and_warm_plans_give_identical_coefficients():
    phi = disk_from_sequence(random_complex_sequence(5, 8, seed=9))
    complex_coeffs._disk_plan.cache_clear()
    cold = compute_complex_coeffs(phi, 5, 20)
    warm = compute_complex_coeffs(phi, 5, 20)
    assert complex_coeffs._disk_plan.cache_info().hits >= 1
    assert list(cold.entries.items()) == list(warm.entries.items())
    assert cold.max_imag == warm.max_imag


def test_plan_arrays_are_read_only():
    plan = complex_coeffs._disk_plan(3, 10 + 3 + 12, 10)
    assert len(plan.radial) == 11 and len(plan.keys) == 66
    for array in (plan.nodes, plan.keys, plan.phases, *plan.radial):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 1.0


def test_reconstruct_with_both_diagonals_at_every_size_matches_per_entry_sum():
    # every (m, n) with m + n <= 32, so each radial table serves +|l| and -|l|
    rng = np.random.default_rng(12)
    points = np.sqrt(rng.uniform(0.0, 1.0, 60)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 60))
    points = np.concatenate((points, [0.0, 1.0, -1j, (1.0 + 5e-13) * np.exp(2.1j)]))
    keys = [(m, n) for m in range(33) for n in range(33 - m)]
    for q in (2, 3, 5, 100):
        weights = rng.uniform(0.1, 1.0, len(keys))
        seq = ComplexSchoenbergSequence(q, dict(zip(keys, weights / weights.sum())), 32)
        got = reconstruct_complex(seq, points)
        assert np.max(np.abs(got - per_entry_sum(seq, points))) <= 1e-13
