"""Mixture weights and the source sampler."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgdm import DomainError, momentum_weights, sample_source, substream


class TestMomentumWeights:
    def test_spot_value(self):
        # hand math: [0.36, 0.6, 1.0] / 1.96
        weights = momentum_weights(0.6, 2)
        expected = [0.18367, 0.30612, 0.51020]
        assert len(weights) == 3
        for got, want in zip(weights, expected):
            assert abs(got - want) <= 1e-5

    def test_alpha_zero_degenerate(self):
        assert list(momentum_weights(0.0, 3)) == [0.0, 0.0, 0.0, 1.0]

    def test_t_zero_single_element(self):
        for alpha in (0.0, 0.3, 1.0):
            assert list(momentum_weights(alpha, 0)) == [1.0]

    def test_alpha_one_uniform(self):
        weights = momentum_weights(1.0, 4)
        assert all(w == 0.2 for w in weights)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            momentum_weights(1.5, 2)
        with pytest.raises(DomainError):
            momentum_weights(-0.1, 2)
        with pytest.raises(DomainError):
            momentum_weights(0.5, -1)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        t=st.integers(min_value=0, max_value=64),
    )
    def test_normalized_and_nonnegative(self, alpha, t):
        weights = momentum_weights(alpha, t)
        assert len(weights) == t + 1
        assert all(w >= 0.0 for w in weights)
        assert abs(math.fsum(weights) - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        t=st.integers(min_value=1, max_value=64),
    )
    def test_recency_monotone_with_geometric_ratio(self, alpha, t):
        weights = list(momentum_weights(alpha, t))
        for older, newer in zip(weights, weights[1:]):
            assert newer > older
            assert abs(older / newer - alpha) <= 1e-9


class FixedUniforms:
    """Stand-in stream yielding a fixed uniform sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestSampleSource:
    def test_single_support(self):
        rng = substream(0, 9)
        weights = (1.0,)
        assert all(sample_source(weights, rng) == 0 for _ in range(50))

    def test_degenerate_tail(self):
        rng = substream(1, 9)
        weights = (0.0, 0.0, 1.0)
        assert all(sample_source(weights, rng) == 2 for _ in range(50))

    def test_half_half_frequency(self):
        rng = substream(42, 9)
        weights = (0.5, 0.5)
        draws = 10_000
        zeros = sum(sample_source(weights, rng) == 0 for _ in range(draws))
        assert 0.47 <= zeros / draws <= 0.53

    def test_inverse_cdf_boundaries(self):
        weights = (0.25, 0.25, 0.5)
        assert sample_source(weights, FixedUniforms([0.0])) == 0
        assert sample_source(weights, FixedUniforms([0.25])) == 1
        assert sample_source(weights, FixedUniforms([0.499])) == 1
        assert sample_source(weights, FixedUniforms([0.5])) == 2
        # a uniform at the very top lands on the last index, even if rounding
        # leaves the cumulative sum a hair under 1
        assert sample_source(weights, FixedUniforms([0.9999999999999999])) == 2

    def test_deterministic_given_stream(self):
        weights = momentum_weights(0.6, 5)
        rng_a = substream(7, 1, 2)
        rng_b = substream(7, 1, 2)
        a = [sample_source(weights, rng_a) for _ in range(20)]
        b = [sample_source(weights, rng_b) for _ in range(20)]
        assert a == b
        assert len(set(a)) > 1  # the stream actually varies
