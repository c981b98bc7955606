"""Stress: many tenants, interleaved operations, isolation maintained.

A deterministic pseudo-random interleaving of operations from several
user enclaves sharing one GPU enclave.  After the storm, every tenant's
data must be exactly what that tenant wrote, no session may have
observed another's plaintext, and the service must still be healthy.
"""

import numpy as np
import pytest

from repro.system import Machine, MachineConfig

N_TENANTS = 6
N_OPS = 120


@pytest.fixture(scope="module")
def storm():
    machine = Machine(MachineConfig())
    service = machine.boot_secure()
    rng = np.random.default_rng(seed=99)

    tenants = []
    for index in range(N_TENANTS):
        app = machine.secure_session(service, f"tenant{index}").cuCtxCreate()
        tenants.append({"app": app, "bufs": {}, "index": index})

    for op_index in range(N_OPS):
        tenant = tenants[int(rng.integers(0, N_TENANTS))]
        app, bufs = tenant["app"], tenant["bufs"]
        action = rng.choice(["alloc", "write", "read", "free", "kernel"])
        if action == "alloc" and len(bufs) < 6:
            size = int(rng.integers(1, 16)) * 256
            ptr = app.cuMemAlloc(size)
            data = rng.integers(0, 2**31, size=size // 4,
                                dtype=np.int32)
            app.cuMemcpyHtoD(ptr, data)
            bufs[ptr.addr] = (ptr, data)
        elif action in ("write",) and bufs:
            addr = int(rng.choice(sorted(bufs)))
            ptr, data = bufs[addr]
            fresh = rng.integers(0, 2**31, size=len(data), dtype=np.int32)
            app.cuMemcpyHtoD(ptr, fresh)
            bufs[addr] = (ptr, fresh)
        elif action == "read" and bufs:
            addr = int(rng.choice(sorted(bufs)))
            ptr, data = bufs[addr]
            got = np.frombuffer(app.cuMemcpyDtoH(ptr, data.nbytes),
                                dtype=np.int32)
            assert (got == data).all(), "mid-storm corruption"
        elif action == "free" and bufs:
            addr = int(rng.choice(sorted(bufs)))
            ptr, _ = bufs.pop(addr)
            app.cuMemFree(ptr)
        elif action == "kernel" and bufs:
            addr = int(rng.choice(sorted(bufs)))
            ptr, data = bufs[addr]
            module = app.cuModuleLoad(["builtin.vector_scale"])
            app.cuLaunchKernel(module, "builtin.vector_scale",
                               [ptr, len(data), 3])
            bufs[addr] = (ptr, (data * 3).astype(np.int32))
    return machine, service, tenants


class TestStorm:
    def test_every_tenant_reads_back_exactly_its_data(self, storm):
        _, _, tenants = storm
        for tenant in tenants:
            app = tenant["app"]
            for addr, (ptr, data) in tenant["bufs"].items():
                got = np.frombuffer(app.cuMemcpyDtoH(ptr, data.nbytes),
                                    dtype=np.int32)
                assert (got == data).all(), (
                    f"tenant {tenant['index']} buffer {addr:#x} corrupted")

    def test_service_still_alive_with_all_sessions(self, storm):
        _, service, tenants = storm
        assert service.alive
        assert len(service.sessions) == N_TENANTS

    def test_no_cross_tenant_plaintext_in_shared_regions(self, storm):
        machine, _, tenants = storm
        for tenant in tenants:
            region = tenant["app"]._end.region  # noqa: SLF001
            raw = machine.phys_mem.read(region.paddr, region.size)
            for other in tenants:
                if other is tenant:
                    continue
                for _, data in other["bufs"].values():
                    if data.nbytes >= 64:
                        assert data.tobytes()[:64] not in raw

    def test_session_keys_all_distinct(self, storm):
        _, _, tenants = storm
        keys = {t["app"]._crypto.session_key for t in tenants}  # noqa: SLF001
        assert len(keys) == N_TENANTS

    def test_gpu_context_per_tenant(self, storm):
        machine, _, tenants = storm
        ctx_ids = {t["app"].ctx_id for t in tenants}
        assert len(ctx_ids) == N_TENANTS
        assert set(machine.gpu.contexts) >= ctx_ids
