"""Simulator micro-benchmarks: wall-clock cost of core operations.

Unlike the figure benchmarks (which report *simulated* time), these
measure the *library's own* performance with pytest-benchmark's full
statistics — useful for catching regressions in hot paths (MMU
translation, TLP routing, AEAD sealing, command dispatch).
"""

import numpy as np
import pytest

from repro.crypto.blob import open_blob, seal_blob
from repro.crypto.nonce import NonceSequence
from repro.crypto.suite import FastAuthSuite, OcbAesSuite
from repro.hw.mmu import AccessContext, AccessType, Mmu, PageFlags, PageTable
from repro.hw.phys_mem import PAGE_SIZE
from repro.system import Machine, MachineConfig

FLAGS = PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER


@pytest.mark.benchmark(group="simulator")
def test_perf_mmu_translation_hot(benchmark):
    mmu = Mmu()
    pt = PageTable(asid=1)
    pt.map_range(0x10000, 0x40000, 64 * PAGE_SIZE, FLAGS)
    ctx = AccessContext(asid=1)
    mmu.translate(pt, ctx, 0x10000, AccessType.READ)  # warm the TLB
    benchmark(mmu.translate, pt, ctx, 0x10000, AccessType.READ)


@pytest.mark.benchmark(group="simulator")
def test_perf_mmio_register_read(benchmark):
    machine = Machine(MachineConfig())
    driver = machine.make_gdev()
    from repro.gpu import regs
    benchmark(driver.channel.reg_read, regs.REG_ID)


@pytest.mark.benchmark(group="simulator")
def test_perf_fast_suite_seal_64k(benchmark):
    suite = FastAuthSuite(bytes(16))
    nonces = NonceSequence(1)
    payload = bytes(64 * 1024)
    benchmark(seal_blob, suite, nonces, payload)


@pytest.mark.benchmark(group="simulator")
def test_perf_fast_suite_open_64k(benchmark):
    suite = FastAuthSuite(bytes(16))
    blob = seal_blob(suite, NonceSequence(1), bytes(64 * 1024))
    benchmark(open_blob, suite, blob)


# A request or reply frame, and the largest sealed-io transfer: the two
# ends of the sealed path, beside the 64 KiB pair above.
_FRAME_SIZES = pytest.mark.parametrize("size", [256, 1 << 20],
                                       ids=["256b", "1m"])


@pytest.mark.benchmark(group="simulator")
@_FRAME_SIZES
def test_perf_fast_suite_seal(benchmark, size):
    suite = FastAuthSuite(bytes(16))
    nonces = NonceSequence(1)
    payload = bytes(size)
    benchmark(seal_blob, suite, nonces, payload)


@pytest.mark.benchmark(group="simulator")
@_FRAME_SIZES
def test_perf_fast_suite_open(benchmark, size):
    suite = FastAuthSuite(bytes(16))
    blob = seal_blob(suite, NonceSequence(1), bytes(size))
    benchmark(open_blob, suite, blob)


@pytest.mark.benchmark(group="simulator")
def test_perf_reference_ocb_seal_1k(benchmark):
    suite = OcbAesSuite(bytes(16))
    benchmark(suite.seal, b"\x01" * 12, bytes(1024))


@pytest.mark.benchmark(group="simulator")
def test_perf_gdev_memcpy_roundtrip_64k(benchmark):
    machine = Machine(MachineConfig())
    app = machine.gdev_session(machine.make_gdev()).cuCtxCreate()
    buf = app.cuMemAlloc(64 * 1024)
    data = np.arange(16 * 1024, dtype=np.int32)

    def roundtrip():
        app.cuMemcpyHtoD(buf, data)
        return app.cuMemcpyDtoH(buf, data.nbytes)

    result = benchmark(roundtrip)
    assert result == data.tobytes()


@pytest.mark.benchmark(group="simulator")
def test_perf_hix_secure_memcpy_roundtrip_64k(benchmark):
    machine = Machine(MachineConfig())
    service = machine.boot_secure()
    app = machine.secure_session(service).cuCtxCreate()
    buf = app.cuMemAlloc(64 * 1024)
    data = np.arange(16 * 1024, dtype=np.int32)

    def roundtrip():
        app.cuMemcpyHtoD(buf, data)
        return app.cuMemcpyDtoH(buf, data.nbytes)

    result = benchmark(roundtrip)
    assert result == data.tobytes()


@pytest.mark.benchmark(group="simulator")
def test_perf_kernel_launch(benchmark):
    machine = Machine(MachineConfig())
    app = machine.gdev_session(machine.make_gdev()).cuCtxCreate()
    buf = app.cuMemAlloc(4096)
    module = app.cuModuleLoad(["builtin.memset32"])
    benchmark(app.cuLaunchKernel, module, "builtin.memset32", [buf, 16, 1])


@pytest.mark.benchmark(group="simulator")
def test_perf_hix_session_setup(benchmark):
    """Attestation + 3-party DH (dominated by 2048-bit modular exps)."""
    machine = Machine(MachineConfig())
    service = machine.boot_secure()

    def session():
        app = machine.secure_session(service, "bench-user")
        app.cuCtxCreate()
        app.cuCtxDestroy()

    benchmark.pedantic(session, rounds=3, iterations=1)
