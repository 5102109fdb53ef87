import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircur.sampling import IndexSet, RngSeed, sample_count, sample_indices


def test_sample_count_arithmetic():
    assert sample_count(1000, 5, 4.0) == 139  # ceil(20 ln 1000) = ceil(138.155)


def test_sample_count_lower_clamp():
    assert sample_count(10, 5, 0.01) == 5


def test_sample_count_upper_clamp():
    assert sample_count(20, 10, 100.0) == 20
    assert sample_count(30, 5, 1e308) == 30  # c * r overflows to inf
    assert sample_count(1, 3, 1e308) == 1  # inf * log(1) would be NaN


def test_sample_count_rejects_bad_arguments():
    for bad in [(0, 1, 1.0), (5, 0, 1.0), (5, 1, 0.0)]:
        with pytest.raises(ValueError):
            sample_count(*bad)


@given(st.integers(1, 5000), st.integers(1, 30), st.floats(0.01, 50.0))
@settings(max_examples=60)
def test_sample_count_stays_clamped(n, r, c):
    m = sample_count(n, min(r, n), c)
    assert min(r, n) <= m <= n
    assert m == min(n, max(min(r, n), math.ceil(c * min(r, n) * math.log(n))))


def test_sample_indices_singleton():
    assert sample_indices(1, 1, RngSeed(123).generator()).indices.tolist() == [0]


def test_sample_indices_deterministic():
    a = sample_indices(50, 20, RngSeed(7, 3).generator())
    b = sample_indices(50, 20, RngSeed(7, 3).generator())
    np.testing.assert_array_equal(a.indices, b.indices)
    c = sample_indices(50, 20, RngSeed(7, 4).generator())
    assert not np.array_equal(a.indices, c.indices)


def test_sample_indices_shape_contract():
    s = sample_indices(100, 40, RngSeed(0).generator())
    assert 1 <= s.size <= 40
    assert (np.diff(s.indices) > 0).all()
    assert s.indices[0] >= 0 and s.indices[-1] < 100


def test_sample_indices_parameter_errors():
    with pytest.raises(ValueError):
        sample_indices(5, 0, RngSeed(0).generator())
    with pytest.raises(ValueError):
        sample_indices(5, 6, RngSeed(0).generator())


def test_appearance_frequency_is_uniform():
    # Each index should land in the deduplicated set with probability
    # p = 1 - (1 - 1/n)^m; check every empirical count against a 5-sigma
    # binomial band over many trials.
    n, m, trials = 1000, 139, 10000
    counts = np.zeros(n, dtype=np.int64)
    for t in range(trials):
        counts[sample_indices(n, m, RngSeed(42, t).generator()).indices] += 1
    p = 1.0 - (1.0 - 1.0 / n) ** m
    mean = trials * p
    sigma = math.sqrt(trials * p * (1.0 - p))
    assert counts.min() >= mean - 5 * sigma
    assert counts.max() <= mean + 5 * sigma


def test_distinct_count_matches_expectation():
    n, m, trials = 1000, 139, 1000
    expected = n * (1.0 - (1.0 - 1.0 / n) ** m)
    sizes = [sample_indices(n, m, RngSeed(9, t).generator()).size for t in range(trials)]
    assert abs(np.mean(sizes) - expected) <= 0.02 * expected


def test_union_covers_range():
    n = 50
    seen = set()
    for t in range(200):
        seen.update(sample_indices(n, 10, RngSeed(3, t).generator()).indices.tolist())
    assert seen == set(range(n))


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(np.array([2, 1]), 5)
    with pytest.raises(ValueError):
        IndexSet(np.array([1, 1]), 5)
    with pytest.raises(ValueError):
        IndexSet(np.array([5]), 5)
    with pytest.raises(ValueError):
        IndexSet(np.array([], dtype=np.int64), 5)
    # Not truncated, and a boolean mask is not a selection of its positions.
    for bad in (np.array([0.9, 2.2]), np.array([True, False, True])):
        with pytest.raises(ValueError, match="integers"):
            IndexSet(bad, 3)
    assert IndexSet([0, 2], 3).indices.dtype == np.int64


def test_index_set_helpers():
    assert IndexSet(np.array([0, 2, 3]), 4).size == 3


def test_rng_seed_generator_reproducible():
    g1 = RngSeed(11, 2).generator()
    g2 = RngSeed(11, 2).generator()
    np.testing.assert_array_equal(g1.integers(0, 100, 8), g2.integers(0, 100, 8))


def test_rng_seed_derive_independent_and_stable():
    base = RngSeed(99)
    assert base.derive(1, 2) == base.derive(1, 2)
    assert base.derive(1, 2) != base.derive(2, 1)
    assert base.derive(0) != base.derive(1)


def test_rng_seed_rejects_negative():
    with pytest.raises(ValueError):
        RngSeed(-1)
