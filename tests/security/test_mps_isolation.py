"""The pre-Volta MPS isolation hole vs HIX per-user contexts (§4.5).

The paper: "As kernels even from different user processes share the same
GPU context including the address space, a kernel can access the address
range used by a different kernel."  We demonstrate exactly that leak in
the baseline's MPS-style shared context, and its absence under HIX.
"""

import numpy as np

from repro.errors import DriverError
from repro.gpu.module import DevPtr
from repro.system import Machine, MachineConfig


class TestMpsSharedContext:
    def test_shared_context_is_one_address_space(self):
        machine = Machine(MachineConfig())
        driver = machine.make_gdev()
        a = machine.gdev_session(driver, "proc-a").cuCtxCreate(shared=True)
        b = machine.gdev_session(driver, "proc-b").cuCtxCreate(shared=True)
        assert a.ctx.ctx_id == b.ctx.ctx_id

    def test_cross_process_kernel_read_succeeds_on_mps(self):
        """Process B's kernel reads process A's buffer: the MPS leak."""
        machine = Machine(MachineConfig())
        driver = machine.make_gdev()
        a = machine.gdev_session(driver, "victim").cuCtxCreate(shared=True)
        b = machine.gdev_session(driver, "spy").cuCtxCreate(shared=True)

        secret = np.full(256, 0x5EC2E7, dtype=np.int32)
        a_buf = a.cuMemAlloc(secret.nbytes)
        a.cuMemcpyHtoD(a_buf, secret)

        # The spy launches a kernel against the *victim's* pointer — in
        # the merged address space, it just works.
        b_out = b.cuMemAlloc(secret.nbytes)
        module = b.cuModuleLoad(["builtin.matrix_add"])
        zero = b.cuMemAlloc(secret.nbytes)
        b.cuLaunchKernel(module, "builtin.matrix_add",
                         [DevPtr(a_buf.addr), zero, b_out, 256])
        stolen = np.frombuffer(b.cuMemcpyDtoH(b_out, secret.nbytes),
                               dtype=np.int32)
        assert (stolen == secret).all(), "MPS leak should succeed (baseline)"

    def test_hix_contexts_prevent_the_same_read(self):
        machine = Machine(MachineConfig())
        service = machine.boot_secure()
        a = machine.secure_session(service, "victim").cuCtxCreate()
        b = machine.secure_session(service, "spy").cuCtxCreate()

        secret = np.full(256, 0x5EC2E7, dtype=np.int32)
        a_buf = a.cuMemAlloc(secret.nbytes)
        a.cuMemcpyHtoD(a_buf, secret)

        module = b.cuModuleLoad(["builtin.matrix_add", "builtin.memset32"])
        b_out = b.cuMemAlloc(secret.nbytes)
        zero = b.cuMemAlloc(secret.nbytes)
        # B cannot name A's physical memory: "A's pointer" in B's context
        # either has no mapping (device fault) or aliases B's *own*
        # memory — in no case does the secret come back.
        try:
            b.cuLaunchKernel(module, "builtin.matrix_add",
                             [DevPtr(a_buf.addr), zero, b_out, 256])
            observed = np.frombuffer(b.cuMemcpyDtoH(b_out, secret.nbytes),
                                     dtype=np.int32)
            assert not (observed == secret).any()
        except DriverError:
            pass  # unmapped in B's context: blocked outright
        # And A's data is intact either way.
        got = np.frombuffer(a.cuMemcpyDtoH(a_buf, secret.nbytes),
                            dtype=np.int32)
        assert (got == secret).all()

    def test_shared_context_survives_one_member_destroy(self):
        machine = Machine(MachineConfig())
        driver = machine.make_gdev()
        a = machine.gdev_session(driver, "a").cuCtxCreate(shared=True)
        b = machine.gdev_session(driver, "b").cuCtxCreate(shared=True)
        buf = b.cuMemAlloc(64)
        b.cuMemcpyHtoD(buf, b"z" * 64)
        a.cuCtxDestroy()
        assert b.cuMemcpyDtoH(buf, 64) == b"z" * 64
