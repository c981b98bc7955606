"""Property pin: windowed-percentile interpolation is bucket-exact.

``bucket_quantile`` is the single quantile estimator the whole
telemetry stack rides on (registry histograms, windowed accumulators,
SLO latency rules).  Its contract: the inverted-CDF rank estimate must
land inside the *same bucket* as the exact order statistic computed
from the raw observations — so its error is bounded by that bucket's
width — and must always lie within the observed ``[min, max]``.  This
suite fuzzes observation sets against exact quantiles to pin both.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    bucket_quantile,
)

values = st.lists(
    st.floats(min_value=1e-7, max_value=20.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200)
quantiles = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False)


def exact_quantile(observations, q):
    """Rank-based exact quantile: the ceil(q*n)-th smallest value."""
    ordered = sorted(observations)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def linear_bucket(value, bounds):
    """Reference filing: the first bound >= *value*, else the overflow
    bucket (NaN, which compares false with every bound, included)."""
    index = 0
    for bound in bounds:
        if value <= bound:
            break
        index += 1
    return index


def owning_bucket(value, bounds, lo, hi):
    """The closed interval the estimator may interpolate within for a
    value in this bucket (open edges pinched by observed min/max)."""
    index = linear_bucket(value, bounds)
    lower = bounds[index - 1] if index > 0 else 0.0
    upper = bounds[index] if index < len(bounds) else hi
    lower = max(lower, lo)
    upper = max(min(upper, hi), lower)
    return lower, upper


@st.composite
def bounds_and_values(draw):
    """Strictly increasing bounds, and values that include the bounds
    themselves, infinities and NaN."""
    bounds = sorted(set(draw(st.lists(
        st.floats(allow_nan=False), min_size=1, max_size=12))))
    values = draw(st.lists(
        st.one_of(st.floats(), st.sampled_from(bounds)), max_size=60))
    return tuple(bounds), values


class TestHistogramFiling:
    @given(case=bounds_and_values())
    @example(case=((-1.0, 0.0, 2.0), [math.nan, math.inf, -math.inf, -0.0,
                                      2.0, 2.5]))
    @settings(max_examples=300, deadline=None)
    def test_observe_files_like_the_linear_scan(self, case):
        bounds, values = case
        histogram = Histogram("t", buckets=bounds)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            histogram.observe(value)
            expected[linear_bucket(value, bounds)] += 1
        assert histogram.counts == expected


class TestBucketQuantile:
    @given(observations=values, q=quantiles)
    @settings(max_examples=200, deadline=None)
    def test_estimate_in_exact_values_bucket(self, observations, q):
        histogram = Histogram("t", buckets=DEFAULT_LATENCY_BUCKETS)
        for value in observations:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        exact = exact_quantile(observations, q)
        assert estimate is not None
        lo, hi = min(observations), max(observations)
        assert lo <= estimate <= hi
        lower, upper = owning_bucket(exact, DEFAULT_LATENCY_BUCKETS,
                                     lo, hi)
        width = max(upper - lower, 0.0)
        assert abs(estimate - exact) <= width + 1e-12, \
            (estimate, exact, lower, upper)

    @given(observations=values)
    @settings(max_examples=100, deadline=None)
    def test_extremes_are_exact(self, observations):
        """q=0 and q=1 clamp to the observed extremes, not bucket
        edges — the lo/hi pinch is what makes single-observation
        windows report the observation itself."""
        histogram = Histogram("t", buckets=DEFAULT_LATENCY_BUCKETS)
        for value in observations:
            histogram.observe(value)
        assert histogram.quantile(1.0) == max(observations)
        assert histogram.quantile(0.0) >= min(observations)

    def test_empty_is_none(self):
        histogram = Histogram("t", buckets=DEFAULT_LATENCY_BUCKETS)
        assert histogram.quantile(0.5) is None
        assert bucket_quantile((1.0, 2.0), [0, 0, 0], 0.5) is None

    def test_single_observation_is_itself(self):
        histogram = Histogram("t", buckets=DEFAULT_LATENCY_BUCKETS)
        histogram.observe(3.7e-4)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 3.7e-4

    def test_interpolation_within_bucket(self):
        # 10 observations all inside the (1e-4, 1e-3] bucket: the
        # rank fraction interpolates linearly across the pinched
        # [min, max] sub-interval.
        counts = [0, 0, 0, 10, 0, 0, 0, 0, 0]
        estimate = bucket_quantile(DEFAULT_LATENCY_BUCKETS, counts, 0.5,
                                   lo=2e-4, hi=9e-4)
        assert 2e-4 <= estimate <= 9e-4
        assert bucket_quantile(DEFAULT_LATENCY_BUCKETS, counts, 1.0,
                               lo=2e-4, hi=9e-4) == 9e-4

    def test_rejects_out_of_range_q(self):
        histogram = Histogram("t", buckets=DEFAULT_LATENCY_BUCKETS)
        histogram.observe(1.0)
        for bad in (-0.1, 1.5):
            try:
                histogram.quantile(bad)
            except ValueError:
                continue
            raise AssertionError(f"q={bad} accepted")
