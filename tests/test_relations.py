"""Agreements between the package's maps, drawn with hypothesis.

Each map has its own oracles in its own test module; here the maps are
checked against one another, as the identities that relate them.
"""
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from schoenberg import cross_project, random_real_sequence
from schoenberg import walk_complex, walk_real


@seed(707)
@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 101), min_size=3, max_size=3, unique=True).map(sorted),
    n=st.integers(0, 120),
    key=st.integers(0, 2**31 - 1),
)
@example(dims=[2, 6, 9], n=120, key=1)
@example(dims=[3, 20, 41], n=120, key=2)
@example(dims=[1, 50, 101], n=120, key=3)
@example(dims=[10, 11, 12], n=120, key=4)
@example(dims=[1, 4, 7], n=120, key=5)
def test_cross_project_composes(dims, n, key):
    # projecting d -> d' -> d'' is projecting d -> d'': the connection
    # coefficients of the two steps multiply into those of the one
    d_last, d_mid, d = dims
    seq = random_real_sequence(d, n, key)
    direct = cross_project(seq, d_last).coeffs
    two_step = cross_project(cross_project(seq, d_mid), d_last).coeffs
    assert np.max(np.abs(two_step - direct)) <= 1e-14 * np.max(np.abs(direct)), dims


@pytest.mark.parametrize("d", [*range(1, 61), 101, 201, 999])
def test_real_walk_bands_are_complex_walk_bands(d):
    # the walk d -> d + 2 at degree n is the complex walk q -> q + 1 at
    # bi-degree ((n - 1)/2, n/2) with q = d/2 + 1, bit for bit; lead_0 = 1 is a
    # convention of the real side (at d = 1 its formula is 0/0), so lead is
    # compared from n = 1
    n = np.arange(20_001, dtype=float)
    lead, drop = walk_real._bands(d, len(n))
    with np.errstate(invalid="ignore"):  # the complex lead at n = 0, d = 1 is 0/0 too
        clead, cdrop = walk_complex._bands((n - 1.0) / 2.0, n / 2.0, d / 2.0 + 1.0)
    assert np.array_equal(clead[1:], lead[1:])
    assert np.array_equal(cdrop, drop)
