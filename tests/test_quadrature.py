import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import schoenberg
from schoenberg import (
    ComplexSchoenbergSequence,
    DiskFunction,
    IsotropicFunction,
    RealSchoenbergSequence,
    QuadratureResolutionWarning,
    check_progressions,
    compute_complex_coeffs,
    compute_real_coeffs,
    constant_isotropic,
    default_node_count,
    disk_constant,
    disk_from_sequence,
    disk_mixture,
    disk_monomial,
    disk_poly_eval,
    gauss_jacobi,
    gegenbauer_mixture,
    poisson_circle_coeffs,
    poisson_isotropic,
    random_complex_sequence,
    random_real_sequence,
    support_pattern,
    transfer_class,
    walk_down,
)
from schoenberg import complex_coeffs, quadrature
from schoenberg.gegenbauer import normalized_gegenbauer_table
from test_disk_polys import disk_rule


def beta_moment(k, alpha, beta):
    # E[t^k] for t = (1 + x) / 2 ~ Beta(beta + 1, alpha + 1): a product of
    # positive ratios, free of the cancellation in the moments of x itself
    return math.prod((beta + 1.0 + i) / (alpha + beta + 2.0 + i) for i in range(k))


def sphere_rule(d, n_nodes):
    """The rule compute_real_coeffs uses on S^d: Gauss-Jacobi in u = cos(theta)."""
    alpha = 0.5 * (d - 2)
    return gauss_jacobi(n_nodes, alpha, alpha)


def test_gauss_jacobi_integrates_polynomials_exactly():
    for alpha, beta in ((-0.5, -0.5), (0.0, 0.0), (1.5, 1.5), (98.0, 0.0)):
        for n_nodes in (1, 2, 6, 20):
            x, w = gauss_jacobi(n_nodes, alpha, beta)
            assert np.all(w > 0.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-13)
            t = 0.5 * (1.0 + x)
            # degree 2K - 1 is the highest exact degree for K nodes
            for k in range(2 * n_nodes):
                exact = beta_moment(k, alpha, beta)
                assert np.sum(w * t**k) == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_interval_rule_has_unit_mass_in_u():
    for d in range(1, 8):
        u, w = sphere_rule(d, 32)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.abs(u) < 1.0)


def test_interval_rule_even_dimension_uses_cos_substitution():
    u, w = sphere_rule(4, 32)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.abs(u) < 1.0)
    # nodes are u = cos(theta) under the S^4 measure: symmetric about 0,
    # with E[u^2] = 1 / (d + 1) on S^d
    assert np.allclose(np.sort(u), -np.sort(u)[::-1], atol=1e-14)
    assert np.sum(w * u**2) == pytest.approx(1.0 / 5.0, abs=1e-14)


def test_interval_rule_odd_dimension_stays_in_theta():
    # odd d shares the u-rule; mapped back to theta it covers (0, pi) and
    # integrates trigonometric polynomials in theta exactly
    for d in (1, 3, 5):
        u, w = sphere_rule(d, 32)
        theta = np.arccos(u)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.all((theta > 0.0) & (theta < np.pi))
        # E[cos(2 theta)] = 2 E[u^2] - 1 = (1 - d) / (d + 1) on S^d
        mean = np.sum(w * np.cos(2.0 * theta))
        assert mean == pytest.approx((1.0 - d) / (d + 1.0), abs=1e-13)


def test_disk_rule_has_unit_mass():
    for q in range(2, 7):
        z, w = disk_rule(q, 24, 32)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.abs(z) <= 1.0)
        assert np.all(np.abs(complex_coeffs._disk_plan(q, 24, 6).nodes) <= 1.0)


def test_rule_validation():
    with pytest.raises(ValueError):
        gauss_jacobi(4, -1.0, 0.0)
    with pytest.raises(ValueError, match="^d must be >= 1, got 0$"):
        compute_real_coeffs(constant_isotropic(), 0, 8)
    with pytest.raises(ValueError, match="^q must be >= 2, got 1$"):
        compute_complex_coeffs(disk_constant(), 1, 4)


@pytest.mark.parametrize("value", [2.5, True, np.bool_(True), 0, -3])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: compute_real_coeffs(constant_isotropic(), 3, 4, nodes=v),
        lambda v: compute_complex_coeffs(disk_constant(), 3, 4, nodes=v),
    ],
    ids=["real-coeffs", "complex-coeffs"],
)
def test_nodes_must_be_a_positive_integer(call, value):
    # a transform's rule is its sphere's, so its node count is all a caller
    # sets; a count that is not an integer, or is below 1, is refused by name
    with pytest.raises(ValueError, match="^nodes must be "):
        call(value)
    assert call(np.int64(9)).total_mass == pytest.approx(1.0, abs=1e-13)


def test_complex_nodes_only_for_disk_rules():
    # the sphere rule is a bare (nodes, weights) pair; only the disk plan
    # lays its nodes out in the plane, R radii by A = 4M + 8 angles
    assert len(sphere_rule(2, 8)) == 2
    assert complex_coeffs._disk_plan(3, 8, 0).nodes.shape == (64,)


def polar_nodes(radii, angular_nodes):
    """x + iy of r e^{2 pi i j / A} for each radius r in turn, j = 0..A-1."""
    phi = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    x = np.outer(radii, np.cos(phi)).ravel()
    y = np.outer(radii, np.sin(phi)).ravel()
    return x + 1j * y


def test_disk_rule_layout_is_radius_major():
    # pinned bit for bit: the A = 4M + 8 angles at each Gauss-Jacobi radius
    # in turn, each node carrying its circle's mass over A, which is the
    # plan's radial row (|l|, k) = (0, 0), as p_0 = r^0 = h(0, 0, q) = 1
    for q, radial, max_degree in ((2, 3, 0), (3, 8, 1), (100, 118, 6)):
        plan = complex_coeffs._disk_plan(q, radial, max_degree)
        angular = 4 * max_degree + 8
        t, mass = gauss_jacobi(radial, q - 2, 0)
        radii = np.sqrt(0.5 * (1.0 + t))
        assert np.array_equal(plan.nodes, polar_nodes(radii, angular))
        assert np.array_equal(plan.radial[0][0], mass / angular)


def test_disk_rule_is_its_parameters():
    # the disk rule is (q, R, A = 4M + 8), so the plan is keyed on (q, R, M):
    # numpy integers share the plan of equal ints, and another q gets its own
    plans = complex_coeffs._disk_plan
    plans.cache_clear()
    compute_complex_coeffs(disk_constant(), np.int64(3), np.int32(4), nodes=np.int64(9))
    compute_complex_coeffs(disk_constant(), 3, 4, nodes=9)
    assert (plans.cache_info().hits, plans.cache_info().currsize) == (1, 1)
    compute_complex_coeffs(disk_constant(), 4, 4, nodes=9)
    assert plans.cache_info().currsize == 2


def test_sphere_parameters_must_be_integers():
    # each of these once built a rule or returned numbers for a sphere that
    # does not exist, or failed naming the wrong argument
    for call, name in (
        (lambda: compute_complex_coeffs(disk_constant(), 3.5, 4), "q"),
        (lambda: compute_complex_coeffs(disk_constant(), True, 4), "q"),
        (lambda: compute_complex_coeffs(disk_constant(), np.bool_(True), 4), "q"),
        (lambda: compute_real_coeffs(constant_isotropic(), 2.5, 6), "d"),
        (lambda: compute_real_coeffs(constant_isotropic(), True, 6), "d"),
        (lambda: compute_real_coeffs(constant_isotropic(), np.bool_(True), 6), "d"),
        (lambda: RealSchoenbergSequence(2.5, [1.0]), "d"),
        (lambda: RealSchoenbergSequence(True, [1.0]), "d"),
        (lambda: ComplexSchoenbergSequence(2.5, {(0, 0): 1.0}, 0), "q"),
        (lambda: ComplexSchoenbergSequence(True, {(0, 0): 1.0}, 0), "q"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()
    # numpy integers still work, and come out as plain ints
    assert compute_complex_coeffs(disk_constant(), np.int64(3), 2).q == 3
    assert compute_real_coeffs(constant_isotropic(), np.int32(3), 4).d == 3
    assert compute_real_coeffs(constant_isotropic(), np.int64(2), 4, nodes=np.int64(8)).d == 2


def transfer_to(q_prime):
    seq = ComplexSchoenbergSequence(3, {(0, 0): 0.5, (1, 1): 0.5}, 2)
    return transfer_class(seq, check_progressions(support_pattern(seq)), q_prime, strict_at_q=True)


# (argument, least value it may take, call with that argument set to v)
INTEGER_ARGUMENTS = {
    "real-coeffs": ("truncation", 0, lambda v: compute_real_coeffs(constant_isotropic(), 3, v)),
    "complex-coeffs": ("max_degree", 0, lambda v: compute_complex_coeffs(disk_constant(), 3, v)),
    "complex-sequence": ("max_degree", 0, lambda v: ComplexSchoenbergSequence(3, {}, v)),
    "walk-down": (
        "n_out", 0, lambda v: walk_down(RealSchoenbergSequence(5, [0.5, 0.5, 0.0]), n_out=v)),
    "progressions": ("max_modulus", 1, lambda v: check_progressions(
        support_pattern(ComplexSchoenbergSequence(2, {(0, 0): 1.0}, 2)), v)),
    "transfer-class": ("q_prime", 2, transfer_to),
    "poisson-circle": ("truncation", 0, lambda v: poisson_circle_coeffs(0.5, v)),
    "table-degree": ("n_max", 0, lambda v: normalized_gegenbauer_table(v, 2, 0.5)),
    "table-dimension": ("d", 1, lambda v: normalized_gegenbauer_table(2, v, 0.5)),
    "monomial-m": ("m", 0, lambda v: disk_monomial(v, 1)),
    "monomial-n": ("n", 0, lambda v: disk_monomial(1, v)),
    "random-real-truncation": ("truncation", 0, lambda v: random_real_sequence(3, v, 0)),
    "random-real-pad": ("pad", 0, lambda v: random_real_sequence(3, 4, 0, pad=v)),
    "mixture-truncation": ("truncation", 0, lambda v: gegenbauer_mixture(3, v, 0)),
    "random-complex-degree": ("max_degree", 0, lambda v: random_complex_sequence(3, v, 0)),
    "random-complex-terms": (
        "n_terms", 1, lambda v: random_complex_sequence(3, 4, 0, n_terms=v)),
    "random-real-seed": ("seed", 0, lambda v: random_real_sequence(3, 4, v)),
    "random-complex-seed": ("seed", 0, lambda v: random_complex_sequence(3, 4, v)),
    "mixture-seed": ("seed", 0, lambda v: gegenbauer_mixture(3, 4, v)),
    "disk-mixture-seed": ("seed", 0, lambda v: disk_mixture(3, 4, v)),
}


@pytest.mark.parametrize("value", [2.5, True, math.nan, [1, 2]])
@pytest.mark.parametrize(
    "name, call",
    [(name, call) for name, _, call in INTEGER_ARGUMENTS.values()],
    ids=list(INTEGER_ARGUMENTS),
)
def test_degree_arguments_must_be_integers(name, call, value):
    # a fractional degree once sized a rule from it, built a sequence with
    # it, concluded strictness or returned a table for a sphere that does
    # not exist, or failed with a bare TypeError; a boolean passed as 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(value)
    call(np.int64(2))


@pytest.mark.parametrize(
    "name, least, call", list(INTEGER_ARGUMENTS.values()), ids=list(INTEGER_ARGUMENTS)
)
def test_integer_arguments_below_their_bound_are_refused(name, least, call):
    # one rule and one message for every bound: below it the argument is
    # named with the bound, never a bare numpy error or an empty sequence
    bound = "nonnegative" if least == 0 else f">= {least}"
    with pytest.raises(ValueError, match=f"^{name} must be {bound}, got {least - 1}$"):
        call(least - 1)
    call(least)


TWO_DIAGONALS = ComplexSchoenbergSequence(2, {(0, 0): 0.5, (1, 0): 0.5}, 2)


# (argument, interval as the message writes it, or None for any real
# number, values refused as outside it, values accepted, call with the
# argument set to v)
REAL_ARGUMENTS = {
    "jacobi-alpha": ("alpha", "(-1, inf)", [-1, -2.5, math.inf], [-0.5, 30.0],
                     lambda v: gauss_jacobi(3, v, 0.0)),
    "jacobi-beta": ("beta", "(-1, inf)", [-1.0, -math.inf, math.inf], [-0.99, 2.0],
                    lambda v: gauss_jacobi(3, 0.0, v)),
    "disk-poly-alpha": ("alpha", "[0, inf)", [-1e-17, -1, math.inf], [0.0, 1.5],
                        lambda v: disk_poly_eval(1, 1, v, 0.5)),
    "poisson-r": ("r", "(0, 1)", [0, 1.0, -0.5, 1.5, 10**400], [1e-3, 0.5, 0.999],
                  poisson_isotropic),
    "poisson-circle-r": ("r", "(0, 1)", [0.0, 1, math.inf], [0.5],
                         lambda v: poisson_circle_coeffs(v, 4)),
    "support-pattern-threshold": (
        "threshold", "[0, inf)", [-1e-17, -1.0, math.inf, 10**400], [0.0, 1e-12, 0.6],
        lambda v: support_pattern(ComplexSchoenbergSequence(2, {(0, 0): 1.0}, 2), v)),
    "support-threshold": ("threshold", None, [], [-math.inf, -1.0, 0.6, math.inf],
                          TWO_DIAGONALS.support),
    "diagonals-threshold": ("threshold", None, [], [-math.inf, 0.0, math.inf],
                            TWO_DIAGONALS.diagonals),
}


@pytest.mark.parametrize(
    "value", [True, np.True_, "1", 1j, None, math.nan, np.array([0.5])],
    ids=["True", "numpy-True", "str", "complex", "None", "nan", "array"],
)
@pytest.mark.parametrize(
    "name, call", [(row[0], row[-1]) for row in REAL_ARGUMENTS.values()], ids=list(REAL_ARGUMENTS)
)
def test_real_arguments_must_be_real_numbers(name, call, value):
    # a boolean once ran as 1, a string or an array ended in a bare numpy
    # error, and NaN passed some comparisons
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize(
    "name, interval, outside, inside, call", list(REAL_ARGUMENTS.values()), ids=list(REAL_ARGUMENTS)
)
def test_real_arguments_outside_their_interval_are_refused(name, interval, outside, inside, call):
    # one rule and one message for every interval, which the message writes as checked
    for value in outside:
        with pytest.raises(
            ValueError, match=f"^{name} must lie in {re.escape(interval)}, got {re.escape(repr(value))}$"
        ):
            call(value)
    for value in inside:
        call(np.float64(value))
        call(value)


NOT_ONE_NUMBER = {"array": np.ones(3), "size-1-array": np.ones(1), "none": None,
                  "string": "1", "object": Fraction(1)}


@pytest.mark.parametrize("function, value, point", [
    (IsotropicFunction, math.nan, 0),
    (IsotropicFunction, math.inf, 0),
    (DiskFunction, complex(math.nan, 0.0), 1),
    (DiskFunction, complex(math.nan, math.nan), 1),
    (IsotropicFunction, 1 + 0j, 0),
    *((IsotropicFunction, value, 0) for value in NOT_ONE_NUMBER.values()),
    *((DiskFunction, value, 1) for value in NOT_ONE_NUMBER.values()),
], ids=["isotropic-nan", "isotropic-inf", "disk-nan", "disk-nan-imag", "isotropic-complex",
        *(f"isotropic-{name}" for name in NOT_ONE_NUMBER),
        *(f"disk-{name}" for name in NOT_ONE_NUMBER)])
def test_normalization_must_hold_at_a_number(function, value, point):
    # abs(NaN - 1) > tol is false, so a NaN at the normalization point once
    # built a function that failed only at the transform's first sample; and
    # "one number" is judged by ndim and dtype, not by float() or complex(),
    # which take a size-1 array on some numpy versions and not on others
    with pytest.raises(
        ValueError, match=f"^'f' evaluates to {re.escape(repr(value))} at {point}, expected 1$"
    ):
        function("f", lambda x: value)
    function("f", np.ones_like)


def golub_welsch(n_nodes, alpha, beta):
    """Nodes and weights from eigenvectors of the full Jacobi matrix.

    The eigenvalues are the nodes and the squared first eigenvector
    components the weights (Golub & Welsch 1969), with no recurrence sweep.
    """
    a, b = alpha, beta
    k = np.arange(1, n_nodes, dtype=float)
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))))
    # the k = 1 entry has its factor (a + b + 1) cancelled, so Chebyshev
    # (a + b + 1 = 0) needs no limit
    first = 4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    k, s = k[1:], s[1:]
    rest = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    off = np.sqrt(np.concatenate(([first], rest)))[: n_nodes - 1]
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vectors[0] ** 2


def test_gauss_jacobi_matches_golub_welsch_eigenvectors():
    # eigenvector components carry more rounding than the Christoffel sums:
    # on the Chebyshev rule, whose weights are exactly 1 / K, the oracle's
    # weights are off by 3.6e-14 at K = 1056, hence the looser weight bound
    for alpha, beta in ((-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (24.0, 24.0), (98.0, 0.0)):
        for n_nodes in (1, 2, 3, 7, 160, 161, 1056):
            x, w = gauss_jacobi(n_nodes, alpha, beta)
            x_ref, w_ref = golub_welsch(n_nodes, alpha, beta)
            assert np.max(np.abs(x - x_ref)) <= 1e-14, (n_nodes, alpha, beta)
            assert np.max(np.abs(w - w_ref)) <= 5e-14, (n_nodes, alpha, beta)


def test_chebyshev_rule_matches_closed_form():
    # nodes cos((2i - 1) pi / 2K) and weights 1 / K, up to the largest K the
    # builder is gated at
    for n_nodes in (1, 2, 3, 160, 161, 1056, 4032):
        x, w = gauss_jacobi(n_nodes, -0.5, -0.5)
        i = np.arange(n_nodes, 0, -1)
        assert np.max(np.abs(x - np.cos((2 * i - 1) * np.pi / (2 * n_nodes)))) <= 1e-14
        assert np.max(np.abs(w - 1.0 / n_nodes)) <= 1e-14


def eigvalsh_seed(n, alpha, beta):
    """Order-n nodes as eigenvalues of the dense Jacobi matrix, ascending.

    The O(n^2)-memory seed the builder falls back to, kept here as the
    oracle of its asymptotic-seed fast path.
    """
    if n == 0:
        return np.empty(0)
    diag, off = quadrature._jacobi_matrix(n, alpha, beta)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0, 4.5, 5.0])
def test_asymptotic_seeds_match_eigvalsh_seeds(alpha, monkeypatch):
    # the same polish, mirroring and weights from either seed; only the
    # seed differs. At alpha = -0.9 the endpoint weights carry ~1e-11
    # relative rounding from either seed (against a 40-digit reference), so
    # the two rules can differ by more than 5e-14 there. K = 4032 runs on
    # the symmetric rules only: their oracle solves a 2016-order matrix,
    # where the unsymmetric ones would need a 4032-order one each
    build = quadrature._gauss_jacobi.__wrapped__
    weight_tol = 1e-12 if alpha < -0.5 else 5e-14
    fast = {}
    for beta in sorted({-0.5, 0.0, 0.5, alpha}):
        for n_nodes in [*range(1, 81), 416, 832, 1056, *([4032] if beta == alpha else [])]:
            fast[beta, n_nodes] = build(n_nodes, alpha, beta)
    monkeypatch.setattr(quadrature, "_jacobi_eigenvalues", eigvalsh_seed)
    for (beta, n_nodes), (x, w) in fast.items():
        x_ref, w_ref = build(n_nodes, alpha, beta)
        assert np.max(np.abs(x - x_ref)) <= 1e-15, (n_nodes, alpha, beta)
        assert np.max(np.abs(w - w_ref)) <= weight_tol, (n_nodes, alpha, beta)


def test_failed_sweeps_fall_back_to_eigenvalue_seeds(monkeypatch):
    # sweeps that converge two seeds to one node, or miss their budget,
    # return nothing: the rule then comes from the eigenvalue seed
    diag, off = quadrature._jacobi_matrix(12, 0.5, 0.0)
    seeds = quadrature._asymptotic_seeds(12, 0.5, 0.0)
    seeds[1] = seeds[0]
    assert quadrature._newton_nodes(seeds, diag, off) is None
    x_fast, w_fast = gauss_jacobi(40, 0.5, 0.0)
    monkeypatch.setattr(quadrature, "NEWTON_SWEEPS", 0)
    x, w = quadrature._gauss_jacobi.__wrapped__(40, 0.5, 0.0)
    assert np.max(np.abs(x - x_fast)) <= 1e-15
    assert np.max(np.abs(w - w_fast)) <= 5e-14


def test_chebyshev_second_kind_rule_matches_closed_form():
    # at alpha = beta = 1/2: nodes cos(j pi / (K + 1)) and weights
    # 2 sin^2(j pi / (K + 1)) / (K + 1)
    for n_nodes in (1, 2, 3, 160, 161, 1056, 4032):
        x, w = gauss_jacobi(n_nodes, 0.5, 0.5)
        angle = np.arange(n_nodes, 0, -1) * np.pi / (n_nodes + 1)
        assert np.max(np.abs(x - np.cos(angle))) <= 1e-14
        assert np.max(np.abs(w - 2.0 * np.sin(angle) ** 2 / (n_nodes + 1))) <= 1e-14


def test_cold_rule_build_takes_linear_memory():
    # the dense 2016-order Jacobi matrix of the eigenvalue seed alone is 32 MB
    quadrature._gauss_jacobi.cache_clear()
    tracemalloc.start()
    try:
        gauss_jacobi(4032, 0.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_interval_rule_nodes_mirror_exactly():
    for d in (1, 2, 3, 5, 50):
        for n_nodes in (1, 2, 7, 8, 160, 161):
            u, w = sphere_rule(d, n_nodes)
            assert np.array_equal(u, -u[::-1])
            assert np.array_equal(w, w[::-1])
            if n_nodes % 2:
                middle = u[n_nodes // 2]
                assert middle == 0.0 and not np.signbit(middle)


def test_gauss_jacobi_rules_are_cached_and_read_only():
    x, w = gauss_jacobi(12, 0.5, 0.5)
    for array in (x, w):
        with pytest.raises(ValueError):
            array[0] = 0.0
    again = gauss_jacobi(12, 0.5, 0.5)
    assert again[0] is x and again[1] is w


def test_gauss_jacobi_rejects_bad_arguments_before_the_cache():
    with pytest.raises(ValueError, match=r"^beta must lie in \(-1, inf\), got inf$"):
        gauss_jacobi(4, 0, math.inf)
    with pytest.raises(ValueError, match="^alpha must be a real number, got nan$"):
        gauss_jacobi(4, math.nan, 0)
    with pytest.raises(ValueError, match="^n_nodes must be >= 1, got 0$"):
        gauss_jacobi(0, 0.0, 0.0)
    # 8 and 8.0 hash alike, so a cached 8-node rule must not let 8.0 through
    gauss_jacobi(8, 0.5, 0.5)
    with pytest.raises(ValueError, match="n_nodes must be an integer, got 8.0"):
        gauss_jacobi(8.0, 0.5, 0.5)
    assert len(gauss_jacobi(np.int64(8), 0.5, 0.5)[0]) == 8


def test_gauss_jacobi_exponents_must_be_real_numbers():
    # True hashes like 1.0, so a cached alpha = 1 rule must not let it through
    gauss_jacobi(3, 1.0, 0.0)
    for alpha, beta, name in (
        (True, 0.0, "alpha"),
        ("1", 0.0, "alpha"),
        (0.0, np.bool_(False), "beta"),
        (0.0, 1j, "beta"),
    ):
        with pytest.raises(ValueError, match=(
            f"^{name} must be a real number, got "
            f"{re.escape(repr(alpha if name == 'alpha' else beta))}$"
        )):
            gauss_jacobi(3, alpha, beta)
    assert len(gauss_jacobi(3, np.float32(0.5), np.int64(0))[0]) == 3


def test_default_node_count_checks_its_argument():
    assert default_node_count(0) == 128 and default_node_count(np.int64(100)) == 232
    for bad, message in (
        (2.5, "truncation must be an integer"),
        (True, "truncation must be an integer"),
        (-5, "truncation must be nonnegative, got -5$"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            default_node_count(bad)


def test_resolution_warning_points_at_the_caller():
    # both transforms warn through one helper; the warning must still name
    # the line that called the transform, not a line inside the package
    mixture = disk_from_sequence(ComplexSchoenbergSequence(2, {(5, 5): 0.5, (8, 1): 0.5}, 10))
    for call in (
        lambda: compute_real_coeffs(poisson_isotropic(0.9), 1, 40, nodes=16),
        lambda: compute_complex_coeffs(mixture, 2, 10, nodes=3),
    ):
        with pytest.warns(QuadratureResolutionWarning, match="exceeds 1") as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


def test_every_public_name_resolves():
    # the rule objects and builders left the package; nothing may still
    # advertise them
    for name in schoenberg.__all__:
        assert getattr(schoenberg, name) is not None, name
    for gone in (
        "QuadratureRule", "interval_rule", "disk_quadrature", "disk_rule_sized", "DiskRule"
    ):
        assert gone not in schoenberg.__all__ and not hasattr(schoenberg, gone)
