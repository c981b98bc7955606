"""Robustness of the GPU enclave service: errors become sealed replies.

A production GPU enclave must not die because one tenant sent a bad
request — failures inside request handling travel back as authenticated
error replies, while authentication failures (forgery, replay) still
abort the request at the crypto layer.
"""

import pytest

from repro.errors import DriverError
from repro.gpu.module import DevPtr
from repro.system import Machine, MachineConfig


@pytest.fixture(scope="module")
def env():
    machine = Machine(MachineConfig())
    machine.hix_service = machine.boot_secure()
    return machine


@pytest.fixture
def app(env):
    session = env.secure_session(env.hix_service, "robust-user")
    session.cuCtxCreate()
    yield session
    try:
        session.cuCtxDestroy()
    except Exception:
        pass


class TestErrorReplies:
    def test_oom_reported_not_fatal(self, env, app):
        with pytest.raises(DriverError, match="OutOfDeviceMemory"):
            app.cuMemAlloc(10 * env.config.vram_size_actual)
        # The session and the service survive.
        buf = app.cuMemAlloc(4096)
        app.cuMemcpyHtoD(buf, b"x" * 16)
        assert env.hix_service.alive

    def test_bad_free_reported(self, app):
        with pytest.raises(DriverError, match="free of unknown"):
            app.cuMemFree(DevPtr(0xDEAD000))

    def test_unknown_module_reported(self, app):
        from repro.core.runtime import HixModuleHandle
        ghost = HixModuleHandle(999, ["builtin.matrix_add"])
        with pytest.raises(DriverError, match="unknown module"):
            app.cuLaunchKernel(ghost, "builtin.matrix_add", [])

    def test_unknown_kernel_reported(self, app):
        module = app.cuModuleLoad(["builtin.matrix_add"])
        with pytest.raises(DriverError):
            app.cuLaunchKernel(module, "not.in.module", [])

    def test_gpu_fault_reported(self, app):
        """A kernel touching unmapped VA faults the device, not the service."""
        module = app.cuModuleLoad(["builtin.memset32"])
        with pytest.raises(DriverError, match="GPU fault"):
            app.cuLaunchKernel(module, "builtin.memset32",
                               [DevPtr(0x7F00_0000), 64, 1])
        assert app._service.alive  # noqa: SLF001

    def test_service_keeps_serving_other_tenants_after_errors(self, env, app):
        with pytest.raises(DriverError):
            app.cuMemFree(DevPtr(0x1))
        other = env.secure_session(env.hix_service, "bystander").cuCtxCreate()
        buf = other.cuMemAlloc(64)
        other.cuMemcpyHtoD(buf, b"fine" * 16)
        assert other.cuMemcpyDtoH(buf, 64) == b"fine" * 16
        other.cuCtxDestroy()

    def test_error_replies_are_sealed(self, env, app):
        """Even failures leak nothing: replies are ciphertext on the wire."""
        with pytest.raises(DriverError):
            app.cuMemFree(DevPtr(0xBAD))
        region = app._end.region  # noqa: SLF001
        raw = env.phys_mem.read(region.paddr, region.size)
        assert b"InvalidDevicePointer" not in raw
        assert b"error" not in raw
