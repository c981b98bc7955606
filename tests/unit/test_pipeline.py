"""Unit tests for the chunked-pipeline timing math (paper Section 5.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.pipeline import pipelined_time, serial_time

MB = float(1 << 20)
GB = float(1 << 30)


class TestSerialTime:
    def test_single_stage(self):
        assert serial_time(GB, [GB]) == pytest.approx(1.0)

    def test_two_stages_add(self):
        assert serial_time(GB, [GB, 2 * GB]) == pytest.approx(1.5)

    def test_latencies_added_once(self):
        assert serial_time(0, [GB], [0.25, 0.25]) == pytest.approx(0.5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            serial_time(-1, [GB])

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            serial_time(1.0, [0.0])


class TestPipelinedTime:
    def test_single_chunk_degenerates_to_serial(self):
        assert pipelined_time(MB, [GB, GB], 4 * MB) == pytest.approx(
            serial_time(MB, [GB, GB]))

    def test_bottleneck_dominates_steady_state(self):
        # 100 chunks, slow stage 1s/chunk, fast stage 0.1s/chunk:
        # makespan ~ fill (1.1) + 99 * 1.0.
        nbytes = 100 * MB
        slow = MB  # 1 s per 1 MB chunk
        fast = 10 * MB
        makespan = pipelined_time(nbytes, [slow, fast], MB)
        assert makespan == pytest.approx(1.1 + 99 * 1.0)

    def test_order_of_stages_irrelevant_to_steady_state(self):
        a = pipelined_time(64 * MB, [GB, 2 * GB], 4 * MB)
        b = pipelined_time(64 * MB, [2 * GB, GB], 4 * MB)
        assert a == pytest.approx(b)

    def test_pipelining_beats_serial(self):
        nbytes = 128 * MB
        stages = [1.9 * GB, 6.0 * GB]
        assert (pipelined_time(nbytes, stages, 4 * MB)
                < serial_time(nbytes, stages))

    def test_pipelining_never_beats_bottleneck(self):
        nbytes = 128 * MB
        stages = [1.9 * GB, 6.0 * GB]
        bottleneck_only = nbytes / min(stages)
        assert pipelined_time(nbytes, stages, 4 * MB) >= bottleneck_only

    def test_zero_bytes(self):
        assert pipelined_time(0, [GB], 4 * MB) == 0.0

    def test_zero_bytes_with_latency(self):
        assert pipelined_time(0, [GB], 4 * MB, [0.5]) == pytest.approx(0.5)

    def test_no_stages(self):
        assert pipelined_time(MB, [], 4 * MB) == 0.0

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ValueError):
            pipelined_time(MB, [GB], 0)

    def test_smaller_chunks_approach_bottleneck(self):
        nbytes = 64 * MB
        stages = [2 * GB, 6 * GB]
        coarse = pipelined_time(nbytes, stages, 16 * MB)
        fine = pipelined_time(nbytes, stages, MB)
        assert fine <= coarse


class TestTailChunk:
    def test_partial_tail_occupies_a_full_slot(self):
        # 2.5 chunks => 3 pipeline slots: fill + 2 bottleneck slots.
        stages = [MB, 2 * MB]  # 1 s and 0.5 s per 1 MB chunk
        makespan = pipelined_time(2.5 * MB, stages, MB)
        assert makespan == pytest.approx((1.0 + 0.5) + 2 * 1.0)

    def test_exact_multiple_has_no_tail_slot(self):
        stages = [MB, 2 * MB]
        assert pipelined_time(2 * MB, stages, MB) == pytest.approx(
            (1.0 + 0.5) + 1 * 1.0)

    def test_tail_conservatism_is_bounded_by_one_slot(self):
        # The deliberate over-charge for a short tail never exceeds one
        # bottleneck slot relative to charging the tail exactly.
        stages = [MB, 4 * MB]
        exact_tail = pipelined_time(2 * MB, stages, MB)
        short_tail = pipelined_time(2 * MB + 1, stages, MB)
        assert short_tail - exact_tail <= 1.0 + 1e-9  # one 1 s slot


class TestEffectiveBandwidthEdges:
    """Effective bandwidth is bytes over the pipelined makespan."""

    def test_sub_chunk_transfer_degenerates_to_serial(self):
        stages = [GB, 2 * GB]
        nbytes = MB / 2  # smaller than one chunk
        assert nbytes / pipelined_time(nbytes, stages, MB) == pytest.approx(
            nbytes / serial_time(nbytes, stages))

    def test_exactly_one_chunk(self):
        stages = [GB, 2 * GB]
        assert MB / pipelined_time(MB, stages, MB) == pytest.approx(
            MB / serial_time(MB, stages))


@given(
    num_chunks=st.integers(min_value=1, max_value=64),
    chunk=st.integers(min_value=4096, max_value=16 << 20),
    bandwidths=st.lists(
        st.floats(min_value=0.05 * GB, max_value=32 * GB),
        min_size=1, max_size=4),
)
def test_pipelined_never_slower_than_serial_on_whole_chunks(
        num_chunks, chunk, bandwidths):
    """Pipelining only ever helps when no partial tail slot is charged.

    Integer byte counts keep nbytes an *exact* multiple of the chunk, so
    no spurious partial-tail slot appears from float rounding.
    """
    nbytes = num_chunks * chunk
    pipelined = pipelined_time(nbytes, bandwidths, chunk)
    serial = serial_time(nbytes, bandwidths)
    assert pipelined <= serial * (1 + 1e-9)


@given(
    nbytes_mb=st.floats(min_value=0.01, max_value=512.0),
    chunk_mb=st.floats(min_value=0.25, max_value=16.0),
    bandwidths=st.lists(
        st.floats(min_value=0.05 * GB, max_value=32 * GB),
        min_size=1, max_size=4),
)
def test_pipelined_never_beats_the_bottleneck(nbytes_mb, chunk_mb, bandwidths):
    nbytes = nbytes_mb * MB
    pipelined = pipelined_time(nbytes, bandwidths, chunk_mb * MB)
    assert pipelined >= nbytes / min(bandwidths) * (1 - 1e-9)


def test_effective_bandwidth_bounded_by_bottleneck():
    stages = [1.9 * GB, 6.0 * GB]
    bandwidth = 256 * MB / pipelined_time(256 * MB, stages, 4 * MB)
    assert bandwidth <= min(stages)
    assert bandwidth >= 0.8 * min(stages)

