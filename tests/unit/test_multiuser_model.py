"""Unit tests for the discrete-event multi-user execution model."""

import pytest

from repro.core.multiuser import Segment, simulate_concurrent


def host(duration):
    return Segment("host", duration)


def gpu(duration):
    return Segment("gpu", duration)


class TestSegment:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            Segment("dpu", 1.0)

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            Segment("gpu", -1.0)


class TestSimulateConcurrent:
    def test_single_user_sums_segments(self):
        makespan, timelines, _ = simulate_concurrent(
            [[host(1.0), gpu(2.0), host(0.5)]], ctx_switch_cost=0.1)
        assert makespan == pytest.approx(3.5)
        assert timelines[0].gpu_busy == pytest.approx(2.0)

    def test_host_segments_overlap_across_users(self):
        makespan, _, _ = simulate_concurrent(
            [[host(1.0)], [host(1.0)]], ctx_switch_cost=0.0)
        assert makespan == pytest.approx(1.0)

    def test_gpu_segments_serialize(self):
        makespan, _, _ = simulate_concurrent(
            [[gpu(1.0)], [gpu(1.0)]], ctx_switch_cost=0.0)
        assert makespan == pytest.approx(2.0)

    def test_context_switch_charged_on_owner_change(self):
        makespan, _, stats = simulate_concurrent(
            [[gpu(1.0)], [gpu(1.0)]], ctx_switch_cost=0.5)
        assert stats["context_switches"] == 1
        assert makespan == pytest.approx(2.5)

    def test_no_switch_for_same_user_streak(self):
        _, _, stats = simulate_concurrent(
            [[gpu(1.0), gpu(1.0)]], ctx_switch_cost=0.5)
        assert stats["context_switches"] == 0

    def test_wait_time_recorded(self):
        _, timelines, _ = simulate_concurrent(
            [[gpu(2.0)], [gpu(1.0)]], ctx_switch_cost=0.0)
        assert any(t.waits > 0 for t in timelines)

    def test_empty_users(self):
        makespan, timelines, _ = simulate_concurrent([[], []], 0.1)
        assert makespan == 0.0

    def test_utilization_stat(self):
        _, _, stats = simulate_concurrent([[gpu(1.0)], [gpu(1.0)]], 0.0)
        assert stats["gpu_utilization"] == pytest.approx(1.0)

    def test_two_identical_users_at_most_double(self):
        profile = [host(0.2), gpu(0.5), host(0.1), gpu(0.3)]
        single, _, _ = simulate_concurrent([profile], 0.01)
        double, _, _ = simulate_concurrent([profile, list(profile)], 0.01)
        assert single < double <= 2 * single + 0.2

    def test_interleaving_beats_sequential(self):
        """Parallel service must beat running users back to back."""
        profile = [host(1.0), gpu(0.5)]
        parallel, _, _ = simulate_concurrent([profile, list(profile)], 0.01)
        sequential = 2 * (1.0 + 0.5)
        assert parallel < sequential
