"""Integration tests: the sealed batch protocol (fused seal/open frames).

Every sealed transfer and launch travels as a batch op
(``memcpy_htod_batch`` / ``memcpy_dtoh_batch`` / ``launch_batch``); a
scalar ``cuMemcpyHtoD`` / ``cuMemcpyDtoH`` / ``cuLaunchKernel`` is a
one-item batch.  A batch coalesces consecutive same-session items into
one sealed frame — one AEAD call and one chunk-buffer pass for the
whole run — and splits an item larger than one frame into frame-sized
pieces, while charging each item the exact analytic virtual time the
scalar call sequence charges.  These tests pin both halves on every TEE
backend: functional equivalence (bytes land where the scalar calls
would put them, downloads return the same plaintext) and charge parity
on the per-item analytic categories, zero-length and oversized items
included.
"""

import numpy as np
import pytest

from repro.backends import backend_names
from repro.crypto.blob import open_blob_chunks, seal_blob_chunks
from repro.crypto.nonce import NonceSequence
from repro.crypto.suite import FastAuthSuite
from repro.errors import IntegrityError
from repro.system import Machine, MachineConfig

RNG = np.random.default_rng(7)

#: Per-item analytic charge categories the batch APIs must reproduce
#: exactly.  Device-level incidental categories (``gpu_dispatch``,
#: ``gpu_cleanse``) legitimately differ — batching executes fewer real
#: device ops — and ``gpu_ctx_switch`` depends on production order.
PARITY_CATEGORIES = ("ipc", "copy_h2d", "copy_d2h", "crypto_gpu", "launch")


def _chunks(sizes):
    return [RNG.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            for n in sizes]


@pytest.fixture(scope="module", params=backend_names())
def secure_machine(request):
    """Module-scoped machine per backend with its booted service."""
    machine = Machine(MachineConfig(backend=request.param))
    machine.secure_service = machine.boot_secure()
    return machine


@pytest.fixture
def secure_app(secure_machine):
    """A fresh attested session against the backend's shared service."""
    app = secure_machine.secure_session(secure_machine.secure_service,
                                        "test-user")
    app.cuCtxCreate()
    yield app
    try:
        app.cuCtxDestroy()
    except Exception:
        pass


class TestSuiteChunkPrimitives:
    def test_seal_open_roundtrip(self):
        suite = FastAuthSuite(key=b"\x11" * 16)
        chunks = _chunks([1, 17, 4096, 0, 333])
        nonce = NonceSequence(channel_id=5).next()
        ciphertext, tag = suite.seal_chunks(nonce, chunks, b"aad")
        out = suite.open_chunks(nonce, ciphertext, tag,
                                [len(c) for c in chunks], b"aad")
        assert out == chunks

    def test_open_rejects_wrong_length_table(self):
        suite = FastAuthSuite(key=b"\x11" * 16)
        chunks = _chunks([64, 64])
        nonce = NonceSequence(channel_id=5).next()
        ciphertext, tag = suite.seal_chunks(nonce, chunks)
        with pytest.raises(IntegrityError):
            suite.open_chunks(nonce, ciphertext, tag, [64, 65])

    def test_blob_roundtrip_advances_one_nonce(self):
        suite = FastAuthSuite(key=b"\x22" * 16)
        nonces = NonceSequence(channel_id=9)
        chunks = _chunks([100, 200, 300])
        blob = seal_blob_chunks(suite, nonces, chunks, b"ctx")
        assert nonces.counter == 1
        assert open_blob_chunks(suite, blob, [100, 200, 300], b"ctx") \
            == chunks


class TestBatchFunctionalEquivalence:
    def test_htod_batch_lands_bytes(self, secure_app):
        sizes = [4096, 1, 8192, 777]
        payloads = _chunks(sizes)
        ptrs = [secure_app.cuMemAlloc(max(n, 1)) for n in sizes]
        secure_app.cuMemcpyHtoDBatch(list(zip(ptrs, payloads)))
        for ptr, payload, n in zip(ptrs, payloads, sizes):
            assert secure_app.cuMemcpyDtoH(ptr, n) == payload

    def test_dtoh_batch_returns_scalar_bytes(self, secure_app):
        sizes = [2048, 64, 4096]
        payloads = _chunks(sizes)
        ptrs = [secure_app.cuMemAlloc(n) for n in sizes]
        for ptr, payload in zip(ptrs, payloads):
            secure_app.cuMemcpyHtoD(ptr, payload)
        batched = secure_app.cuMemcpyDtoHBatch(
            [(ptr, n) for ptr, n in zip(ptrs, sizes)])
        assert batched == payloads

    def test_batch_spanning_multiple_frames(self, secure_app):
        """Items larger than one bulk frame split and still round-trip."""
        sizes = [3 << 20, 512, 3 << 20]
        payloads = _chunks(sizes)
        ptrs = [secure_app.cuMemAlloc(n) for n in sizes]
        secure_app.cuMemcpyHtoDBatch(list(zip(ptrs, payloads)))
        assert secure_app.cuMemcpyDtoHBatch(
            [(ptr, n) for ptr, n in zip(ptrs, sizes)]) == payloads

    def test_launch_batch_runs_kernels(self, secure_app):
        module = secure_app.cuModuleLoad(["builtin.memset32"])
        ptr = secure_app.cuMemAlloc(4096)
        secure_app.cuLaunchKernelBatch(module, [
            ("builtin.memset32", [ptr, 1024, 0x11111111], 0.0),
            ("builtin.memset32", [ptr, 512, 0x22222222], 0.0),
        ])
        out = np.frombuffer(secure_app.cuMemcpyDtoH(ptr, 4096),
                            dtype=np.uint32)
        assert (out[:512] == 0x22222222).all()
        assert (out[512:1024] == 0x11111111).all()

    def test_zero_length_download_sends_one_request(self, secure_app):
        ptr = secure_app.cuMemAlloc(1)
        nonces = secure_app._crypto.request_nonces  # noqa: SLF001
        before = nonces.counter
        assert secure_app.cuMemcpyDtoH(ptr, 0) == b""
        assert nonces.counter == before + 1

    def test_empty_batch_is_noop(self, secure_machine, secure_app):
        before = secure_machine.clock.now
        secure_app.cuMemcpyHtoDBatch([])
        assert secure_app.cuMemcpyDtoHBatch([]) == []
        assert secure_machine.clock.now == before


class TestBatchChargeParity:
    """Per-item analytic virtual time: batch == scalar sequence, bit
    for bit, on every category in :data:`PARITY_CATEGORIES`."""

    def _charges(self, backend, batched, sizes, op):
        machine = Machine(MachineConfig(backend=backend))
        app = machine.secure_session(machine.boot_secure(), "parity-user")
        app.cuCtxCreate()
        payloads = _chunks(sizes)
        ptrs = [app.cuMemAlloc(max(n, 1)) for n in sizes]
        if op == "d2h":
            for ptr, payload in zip(ptrs, payloads):
                app.cuMemcpyHtoD(ptr, payload)
        module = app.cuModuleLoad(["builtin.memset32"]) \
            if op == "launch" else None
        before = machine.clock.snapshot()
        if op == "h2d":
            if batched:
                app.cuMemcpyHtoDBatch(list(zip(ptrs, payloads)))
            else:
                for ptr, payload in zip(ptrs, payloads):
                    app.cuMemcpyHtoD(ptr, payload)
        elif op == "d2h":
            if batched:
                app.cuMemcpyDtoHBatch(list(zip(ptrs, sizes)))
            else:
                for ptr, n in zip(ptrs, sizes):
                    app.cuMemcpyDtoH(ptr, n)
        else:
            launches = [("builtin.memset32", [ptrs[0], 16, 1], 1e-4)
                        for _ in sizes]
            if batched:
                app.cuLaunchKernelBatch(module, launches)
            else:
                for name, params, hint in launches:
                    app.cuLaunchKernel(module, name, params,
                                       compute_seconds=hint)
        return machine.clock.elapsed_since(before).by_category

    @pytest.mark.parametrize("backend", backend_names())
    @pytest.mark.parametrize("op", ["h2d", "d2h", "launch"])
    def test_parity(self, op, backend):
        # A zero-length item, and one larger than the default 4 MiB
        # region's bulk frame, which goes out in two pieces.
        sizes = [4096, 128, 0, 65536, 5 << 20, 1024]
        scalar = self._charges(backend, False, sizes, op)
        batch = self._charges(backend, True, sizes, op)
        for category in PARITY_CATEGORIES:
            assert batch.get(category, 0.0) \
                == pytest.approx(scalar.get(category, 0.0),
                                 rel=1e-12, abs=1e-15), category
