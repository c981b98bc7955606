"""GPU kernel registry and the built-in kernels.

A "kernel" is a Python function dispatched by the compute engine when a
LAUNCH command names it (via the cubin image resident in VRAM).  Kernels
see the device through a narrow API — context-relative reads and writes
plus opening and sealing frames under the context's session — so they
behave like real GPU code: they can only touch memory mapped in their
own context.

Two kernel families ship with the device:

* ``builtin.*`` — reference compute kernels (matrix add/multiply etc.)
  used by the microbenchmarks and examples.
* ``hix.*`` — the in-GPU OCB-AES kernels of Section 4.4.2 that decrypt
  data after a host-to-device copy and encrypt it before a device-to-host
  copy with the context's session: one scatter kernel and one gather
  kernel, each handling one sealed blob of one or more chunks.

Workload modules (Rodinia) register additional kernels at import time.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List

import numpy as np

from repro.crypto.blob import sealed_size
from repro.errors import KernelNotFound

KernelFn = Callable[["SimGpu", "GpuContext", List], None]  # noqa: F821


class KernelSpec:
    """Registry record for one kernel."""

    def __init__(self, name: str, fn: KernelFn) -> None:
        self.name = name
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelSpec {self.name}>"


class KernelRegistry:
    """Name -> kernel dispatch table (the device's 'instruction set')."""

    def __init__(self) -> None:
        self._kernels: Dict[str, KernelSpec] = {}

    def register(self, name: str, fn: KernelFn) -> KernelSpec:
        spec = KernelSpec(name, fn)
        self._kernels[name] = spec
        return spec

    def kernel(self, name: str) -> Callable[[KernelFn], KernelFn]:
        """Decorator form of :meth:`register`."""

        def wrap(fn: KernelFn) -> KernelFn:
            self.register(name, fn)
            return fn

        return wrap

    def lookup(self, name: str) -> KernelSpec:
        try:
            return self._kernels[name]
        except KeyError:
            raise KernelNotFound(
                f"GPU has no kernel named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._kernels


_GLOBAL = KernelRegistry()


def global_registry() -> KernelRegistry:
    """The process-wide registry every simulated GPU dispatches from."""
    return _GLOBAL


# ---------------------------------------------------------------------------
# Built-in compute kernels
# ---------------------------------------------------------------------------

def _read_i32(dev, ctx, ptr, count) -> np.ndarray:
    raw = dev.read_ctx(ctx, ptr.addr, count * 4)
    return np.frombuffer(raw, dtype=np.int32).copy()


@_GLOBAL.kernel("builtin.matrix_add")
def _matrix_add(dev, ctx, params) -> None:
    """C = A + B over int32 vectors: (a, b, c, n_elems)."""
    a_ptr, b_ptr, c_ptr, count = params
    a = _read_i32(dev, ctx, a_ptr, count)
    b = _read_i32(dev, ctx, b_ptr, count)
    dev.write_ctx(ctx, c_ptr.addr, (a + b).astype(np.int32).tobytes())


@_GLOBAL.kernel("builtin.matrix_mul")
def _matrix_mul(dev, ctx, params) -> None:
    """C = A x B over int32 dim x dim matrices: (a, b, c, dim)."""
    a_ptr, b_ptr, c_ptr, dim = params
    a = _read_i32(dev, ctx, a_ptr, dim * dim).reshape(dim, dim)
    b = _read_i32(dev, ctx, b_ptr, dim * dim).reshape(dim, dim)
    # BLAS dgemm is exact for the small-integer inputs the benchmarks use
    # (|products| < 2^53) and orders of magnitude faster than numpy's
    # integer matmul loops.
    product = np.rint(a.astype(np.float64) @ b.astype(np.float64))
    dev.write_ctx(ctx, c_ptr.addr, product.astype(np.int32).tobytes())


@_GLOBAL.kernel("builtin.vector_scale")
def _vector_scale(dev, ctx, params) -> None:
    """X *= alpha over int32: (x, n_elems, alpha)."""
    x_ptr, count, alpha = params
    x = _read_i32(dev, ctx, x_ptr, count)
    dev.write_ctx(ctx, x_ptr.addr, (x * int(alpha)).astype(np.int32).tobytes())


@_GLOBAL.kernel("builtin.memset32")
def _memset32(dev, ctx, params) -> None:
    """Fill n int32 words with a value: (dst, n_elems, value)."""
    dst_ptr, count, value = params
    word = struct.pack("<i", int(value) & 0x7FFFFFFF)
    dev.write_ctx(ctx, dst_ptr.addr, word * count)


# ---------------------------------------------------------------------------
# HIX in-GPU cryptography kernels (Section 4.4.2)
# ---------------------------------------------------------------------------

@_GLOBAL.kernel("hix.aead_decrypt_scatter")
def _aead_decrypt_scatter(dev, ctx, params) -> None:
    """Open one sealed blob and scatter its chunks to their destinations.

    Parameters: ``(src, src_len, n, dst_0, len_0, ..., dst_n-1, len_n-1)``.
    The blob was copied verbatim from inter-enclave shared memory (the
    single-copy path) and seals the concatenation of *n* chunks under a
    single nonce and tag (:meth:`SimGpu.open_scatter`), under the
    context's session.  A tag failure raises, which the engine
    surfaces as a device fault — the abort the paper's DMA-attack
    analysis calls for.
    """
    src_ptr, src_len, count = params[0], int(params[1]), int(params[2])
    pairs = params[3:3 + 2 * count]
    dev.open_scatter(ctx, src_ptr.addr, src_len,
                     [pairs[2 * index].addr for index in range(count)],
                     [int(pairs[2 * index + 1]) for index in range(count)])


@_GLOBAL.kernel("hix.aead_encrypt_gather")
def _aead_encrypt_gather(dev, ctx, params) -> None:
    """Gather device ranges into one sealed blob.

    Parameters: ``(dst, n, src_0, len_0, ..., src_n-1, len_n-1)``.
    Writes ``u64 blob_len | blob`` at *dst*, where the blob seals the
    concatenation of the *n* source ranges with a single nonce and tag
    (:meth:`SimGpu.seal_gather`); the driver DMAs it out and the user
    runtime splits it with the length table it announced in the request.
    """
    dst_ptr, count = params[0], int(params[1])
    pairs = params[2:2 + 2 * count]
    lengths = [int(pairs[2 * index + 1]) for index in range(count)]
    dev.seal_gather(ctx, [pairs[2 * index].addr for index in range(count)],
                    lengths, dst_ptr.addr + 8)
    dev.write_ctx(ctx, dst_ptr.addr,
                  struct.pack("<Q", sealed_size(sum(lengths))))
