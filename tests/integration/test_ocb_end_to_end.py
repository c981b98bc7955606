"""End-to-end runs with the reference OCB-AES-128 engine.

The default machine uses the fast hashlib suite for bulk data; this
module swaps in the exact RFC 7253 OCB-AES implementation (what the
paper deploys) and proves the whole stack — session setup, sealed
requests, single-copy transfers, in-GPU crypto kernels — works
identically.  Transfers are kept small: the reference cipher is
pure Python.
"""

import numpy as np
import pytest

from repro.errors import IntegrityError
from repro.system import Machine, MachineConfig


@pytest.fixture(scope="module")
def ocb_machine():
    machine = Machine(MachineConfig(suite_name="ocb-aes-128"))
    machine.hix_service = machine.boot_secure()
    return machine


class TestOcbEndToEnd:
    def test_session_and_roundtrip(self, ocb_machine):
        app = ocb_machine.secure_session(ocb_machine.hix_service,
                                         "ocb-user").cuCtxCreate()
        data = np.arange(64, dtype=np.int32)
        buf = app.cuMemAlloc(data.nbytes)
        app.cuMemcpyHtoD(buf, data)
        back = np.frombuffer(app.cuMemcpyDtoH(buf, data.nbytes),
                             dtype=np.int32)
        assert (back == data).all()
        app.cuCtxDestroy()

    def test_kernel_launch(self, ocb_machine):
        app = ocb_machine.secure_session(ocb_machine.hix_service,
                                         "ocb-user2").cuCtxCreate()
        x = np.arange(32, dtype=np.int32)
        buf = app.cuMemAlloc(x.nbytes)
        app.cuMemcpyHtoD(buf, x)
        module = app.cuModuleLoad(["builtin.vector_scale"])
        app.cuLaunchKernel(module, "builtin.vector_scale", [buf, 32, 9])
        result = np.frombuffer(app.cuMemcpyDtoH(buf, x.nbytes),
                               dtype=np.int32)
        assert (result == x * 9).all()
        app.cuCtxDestroy()

    def test_tampering_detected_under_ocb(self, ocb_machine):
        from repro.core.channel import BULK_OFFSET
        service = ocb_machine.hix_service
        app = ocb_machine.secure_session(service, "ocb-victim").cuCtxCreate()
        adversary = ocb_machine.adversary()
        buf = app.cuMemAlloc(64)
        original_poll = service.poll

        def corrupting_poll(end):
            adversary.flip_bits(end.region.paddr + BULK_OFFSET, 45, 2)
            return original_poll(end)

        service.poll = corrupting_poll
        try:
            from repro.errors import DriverError
            with pytest.raises((DriverError, IntegrityError)):
                app.cuMemcpyHtoD(buf, b"\x11" * 64)
        finally:
            service.poll = original_poll
