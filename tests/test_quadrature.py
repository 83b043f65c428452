import math

import numpy as np
import pytest

from schoenberg import QuadratureRule, disk_quadrature, gauss_jacobi, interval_rule


def beta_moment(k, alpha, beta):
    # E[t^k] for t = (1 + x) / 2 ~ Beta(beta + 1, alpha + 1): a product of
    # positive ratios, free of the cancellation in the moments of x itself
    return math.prod((beta + 1.0 + i) / (alpha + beta + 2.0 + i) for i in range(k))


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
        rule = interval_rule(d, 32)
        assert rule.total_weight == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.abs(rule.nodes) < 1.0)


def test_interval_rule_even_dimension_uses_cos_substitution():
    rule = interval_rule(4, 32)
    assert rule.total_weight == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.abs(rule.nodes) < 1.0)
    # nodes are u = cos(theta) under the S^4 measure: symmetric about 0,
    # with E[u^2] = 1 / (d + 1) on S^d
    assert np.allclose(np.sort(rule.nodes), -np.sort(rule.nodes)[::-1], atol=1e-14)
    assert np.sum(rule.weights * rule.nodes**2) == pytest.approx(1.0 / 5.0, abs=1e-14)


def test_interval_rule_odd_dimension_stays_in_theta():
    # odd d shares the u-rule; mapped back to theta it covers (0, pi) and
    # integrates trigonometric polynomials in theta exactly
    for d in (1, 3, 5):
        rule = interval_rule(d, 32)
        theta = np.arccos(rule.nodes)
        assert rule.total_weight == pytest.approx(1.0, abs=1e-13)
        assert np.all((theta > 0.0) & (theta < np.pi))
        # E[cos(2 theta)] = 2 E[u^2] - 1 = (1 - d) / (d + 1) on S^d
        mean = np.sum(rule.weights * np.cos(2.0 * theta))
        assert mean == pytest.approx((1.0 - d) / (d + 1.0), abs=1e-13)


def test_disk_rule_has_unit_mass():
    for q in range(2, 7):
        rule = disk_quadrature(q, 24, 32)
        assert rule.total_weight == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.hypot(rule.nodes[:, 0], rule.nodes[:, 1]) <= 1.0)


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0, 0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        gauss_jacobi(4, -1.0, 0.0)
    with pytest.raises(ValueError):
        interval_rule(0, 8)
    with pytest.raises(ValueError):
        disk_quadrature(1, 8, 8)


def test_complex_nodes_only_for_disk_rules():
    with pytest.raises(ValueError):
        _ = interval_rule(2, 8).complex_nodes
    rule = disk_quadrature(3, 8, 8)
    assert rule.complex_nodes.shape == (64,)
