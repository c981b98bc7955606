"""Unit tests for the evaluation harness internals."""

import pytest

from repro.evalkit.harness import (
    GDEV,
    HIX,
    _CountingApi,
    run_multiuser,
    user_segments,
)
from repro.sim.costs import CostModel
from repro.workloads.base import Phase, Workload


class _StubApi:
    def __init__(self):
        self.calls = []

    def cuLaunchKernel(self, module, name, params, compute_seconds=0.0):
        self.calls.append((name, compute_seconds))

    def cuMemAlloc(self, nbytes):
        return nbytes


class _StubWorkload(Workload):
    app_code = "STUB"
    name = "stub"
    modeled_h2d = 64 << 20
    modeled_d2h = 16 << 20
    n_launches = 10
    compute_seconds = 0.05

    def run(self, api, inflation=1.0):
        api.cuLaunchKernel(None, "k", [], compute_seconds=0.01)


class TestCountingApi:
    def test_counts_launches_and_hints(self):
        stub = _StubApi()
        counting = _CountingApi(stub)
        counting.cuLaunchKernel(None, "a", [], compute_seconds=0.25)
        counting.cuLaunchKernel(None, "b", [])
        assert counting.launches == 2
        assert counting.hinted_seconds == pytest.approx(0.25)
        assert [c[0] for c in stub.calls] == ["a", "b"]

    def test_forwards_other_methods(self):
        counting = _CountingApi(_StubApi())
        assert counting.cuMemAlloc(42) == 42


class TestPerLaunchOverhead:
    def test_hix_launch_cheaper(self):
        costs = CostModel()
        assert costs.launch_overhead(HIX) < costs.launch_overhead(GDEV)

    def test_scales_with_launch_cost(self):
        base = CostModel()
        slow = base.with_overrides(kernel_launch_gdev=1e-3)
        assert slow.launch_overhead(GDEV) > base.launch_overhead(GDEV)


class TestUserSegments:
    def test_gdev_has_no_crypto_segments(self):
        segments = user_segments(_StubWorkload(), CostModel(), GDEV)
        assert not [s for s in segments if s.label == "crypto"]

    def test_hix_has_crypto_segments_both_directions(self):
        segments = user_segments(_StubWorkload(), CostModel(), HIX)
        crypto = [s for s in segments if s.label == "crypto"]
        assert len(crypto) >= 2
        assert all(s.kind == "gpu" for s in crypto)

    def test_total_compute_preserved(self):
        workload = _StubWorkload()
        for mode in (GDEV, HIX):
            segments = user_segments(workload, CostModel(), mode)
            kernel_time = sum(s.duration for s in segments
                              if s.label == "kernel")
            assert kernel_time == pytest.approx(workload.compute_seconds)

    def test_hix_single_user_slower(self):
        workload = _StubWorkload()
        costs = CostModel()
        assert (run_multiuser(workload, HIX, 1, costs)
                > run_multiuser(workload, GDEV, 1, costs))


class TestWorkloadBase:
    def test_default_phases(self):
        phases = _StubWorkload().phases()
        assert [p.kind for p in phases] == ["h2d", "compute", "d2h"]
        assert phases[1].launches == 10

    def test_per_launch_seconds(self):
        assert _StubWorkload().per_launch_seconds() == pytest.approx(0.005)

    def test_scaled_dims(self):
        workload = _StubWorkload()
        assert workload.scaled_dim(1024, 16.0) == 256   # sqrt scaling
        assert workload.scaled_elems(1024, 16.0) == 64  # linear scaling
        assert workload.scaled_dim(4, 1e9) == 4         # floor

    def test_check_raises_workload_error(self):
        from repro.workloads.base import WorkloadError
        with pytest.raises(WorkloadError):
            _StubWorkload().check(False, "boom")

    def test_check_close_reports_magnitude(self):
        import numpy as np
        from repro.workloads.base import WorkloadError
        with pytest.raises(WorkloadError, match="max abs err"):
            _StubWorkload().check_close(np.ones(4), np.zeros(4), "x")

    def test_phase_validation(self):
        phase = Phase("h2d", nbytes=10)
        assert phase.kind == "h2d"
