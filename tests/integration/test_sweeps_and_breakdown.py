"""Integration tests for parameter sweeps, breakdowns, and the CM API."""

import numpy as np
import pytest

from repro.evalkit.figures import figure6_breakdown
from repro.evalkit.sweeps import sweep_cost_parameter
from repro.system import Machine, MachineConfig
from repro.workloads import MatrixAdd

INFLATION = 2048.0
GB = 1 << 30


class TestSweeps:
    def test_aead_bandwidth_sweep(self):
        result = sweep_cost_parameter(MatrixAdd(8192), "cpu_aead_bandwidth",
                                      [1.0 * GB, 2.0 * GB, 6.0 * GB],
                                      inflation=INFLATION)
        assert len(result.points) == 3
        assert result.monotone_decreasing_slowdown()
        assert result.points[0].slowdown > result.points[-1].slowdown

    def test_pcie_bandwidth_sweep_affects_gdev_too(self):
        result = sweep_cost_parameter(MatrixAdd(4096), "pcie_h2d_bandwidth",
                                      [2.0 * GB, 8.0 * GB],
                                      inflation=INFLATION)
        assert result.points[0].gdev_seconds > result.points[1].gdev_seconds

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_cost_parameter(MatrixAdd(2048), "warp_speed", [1.0])

    def test_render(self):
        result = sweep_cost_parameter(MatrixAdd(2048), "session_setup",
                                      [0.001], inflation=INFLATION)
        assert "session_setup" in result.render()


class TestFigure6Breakdown:
    def test_crypto_dominates_add_not_mul(self):
        breakdown = figure6_breakdown(inflation=INFLATION, dim=8192)
        hix_add = breakdown["hix-add"]
        hix_mul = breakdown["hix-mul"]
        add_total = sum(hix_add.values())
        mul_total = sum(hix_mul.values())
        crypto_add = (hix_add.get("copy_h2d", 0) + hix_add.get("copy_d2h", 0)
                      + hix_add.get("crypto_gpu", 0))
        crypto_mul = (hix_mul.get("copy_h2d", 0) + hix_mul.get("copy_d2h", 0)
                      + hix_mul.get("crypto_gpu", 0))
        # "the overhead from the cryptographic operations dominates" (add);
        # for mul, compute dwarfs it.
        assert crypto_add / add_total > 0.6
        assert crypto_mul / mul_total < 0.25
        assert hix_mul["gpu_compute"] / mul_total > 0.7

    def test_gdev_has_no_crypto_categories(self):
        breakdown = figure6_breakdown(inflation=INFLATION, dim=2048)
        assert "crypto_gpu" not in breakdown["gdev-add"]
        assert "session_setup" not in breakdown["gdev-add"]


class TestContextManagers:
    def test_gdev_context_manager(self):
        machine = Machine(MachineConfig())
        driver = machine.make_gdev()
        with machine.gdev_session(driver, "cm") as app:
            buf = app.cuMemAlloc(64)
            app.cuMemcpyHtoD(buf, b"y" * 64)
        assert driver.vram.bytes_in_use == 0  # teardown freed everything

    def test_hix_context_manager(self):
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        with machine.secure_session(service, "cm") as app:
            buf = app.cuMemAlloc(64)
            app.cuMemcpyHtoD(buf, np.arange(16, dtype=np.int32))
            assert app.ctx_id in {s.ctx.ctx_id
                                  for s in service.sessions.values()}
        assert not service.sessions  # session closed on exit

    def test_hix_context_manager_survives_shutdown(self):
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        with machine.secure_session(service, "cm") as app:
            app.request_shutdown()
        assert not service.alive
