"""Unit tests for clock listeners and the lane timeline renderer."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.trace import TraceEvent, _time_axis, render_lanes


class TestClockListeners:
    def test_listener_receives_charges(self):
        clock = SimClock()
        seen = []
        clock.add_listener(lambda s, d, c: seen.append((s, d, c)))
        clock.advance(1.0, "a")
        clock.advance(0.5, "b")
        assert seen == [(0.0, 1.0, "a"), (1.0, 0.5, "b")]

    def test_remove_listener(self):
        clock = SimClock()
        seen = []
        listener = lambda s, d, c: seen.append(c)
        clock.add_listener(listener)
        clock.advance(1.0, "a")
        clock.remove_listener(listener)
        clock.advance(1.0, "b")
        assert seen == ["a"]


class TestLaneRender:
    def test_render_lanes_single_instant(self):
        lanes = {"t0": [TraceEvent(1.0, 0.0, "gpu")]}
        text = render_lanes(lanes, width=12)
        assert "0.000 ms" in text
        assert "#" in text

    def test_time_axis_zero_span_maps_to_column_zero(self):
        span, column = _time_axis([TraceEvent(5.0, 0.0, "x")], 40)
        assert span == 0.0
        assert column(5.0) == 0
        span, column = _time_axis(
            [TraceEvent(0.0, 1.0, "x"), TraceEvent(1.0, 1.0, "y")], 21)
        assert span == pytest.approx(2.0)
        assert column(0.0) == 0
        assert column(2.0) == 20


def test_hix_memcpy_charges_copy_before_gpu_crypto():
    """On a HIX memcpy, CPU-side copy is charged before in-GPU crypto."""
    from repro.system import Machine, MachineConfig
    machine = Machine(MachineConfig())
    service = machine.boot_secure()
    app = machine.secure_session(service, "traced").cuCtxCreate()
    buf = app.cuMemAlloc(4096)
    seen = []
    listener = lambda start, seconds, category: seen.append(category)
    machine.clock.add_listener(listener)
    app.cuMemcpyHtoD(buf, b"\x11" * 4096)
    machine.clock.remove_listener(listener)
    assert "copy_h2d" in seen and "crypto_gpu" in seen
    assert seen.index("copy_h2d") < seen.index("crypto_gpu")
