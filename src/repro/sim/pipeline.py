"""Pipelined-copy timing math (Section 5.2 of the paper).

HIX divides a large block into chunks and encrypts chunk *n+1* while
chunk *n* is in flight on PCIe, so steady-state throughput is set by the
slower stage and the faster stage hides behind it.  These helpers compute
the makespan of a k-stage chunked pipeline, which the secure memcpy path
uses to charge simulated time.

:func:`pipelined_time` is the closed form the runtime charges.  The
property suite pins it against the same pipeline executed on the
discrete-event kernel (``tests/property/oracles.py``): the two makespans
are exactly equal in exact (Fraction) arithmetic, where float rounding
cannot intrude, which is what licenses the runtime to keep charging the
closed form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def serial_time(nbytes: float, stage_bandwidths: Sequence[float],
                stage_latencies: Sequence[float] = ()) -> float:
    """Makespan when the stages run back to back with no overlap."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    total = sum(stage_latencies)
    for bandwidth in stage_bandwidths:
        if bandwidth <= 0:
            raise ValueError("stage bandwidth must be positive")
        total += nbytes / bandwidth
    return total


def pipelined_time(nbytes: float, stage_bandwidths: Sequence[float],
                   chunk_bytes: float,
                   stage_latencies: Sequence[float] = ()) -> float:
    """Makespan of a chunked pipeline over *nbytes*.

    With ``n`` equal chunks and per-chunk stage times ``t_i``, the classic
    pipeline makespan is ``sum_i(t_i) + (n - 1) * max_i(t_i)`` — one fill
    pass plus steady state at the bottleneck rate.  Fixed per-stage
    latencies are paid once (they model setup, not per-chunk work).
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    if not stage_bandwidths:
        return sum(stage_latencies)
    if nbytes == 0:
        return sum(stage_latencies)

    full_chunks, tail = divmod(nbytes, chunk_bytes)
    num_chunks = int(full_chunks) + (1 if tail else 0)
    chunk_times = []
    for bandwidth in stage_bandwidths:
        if bandwidth <= 0:
            raise ValueError("stage bandwidth must be positive")
        chunk_times.append(chunk_bytes / bandwidth)

    bottleneck = max(chunk_times)
    fill = sum(chunk_times)
    if num_chunks == 1:
        # A single (possibly short) chunk degenerates to the serial case.
        return sum(stage_latencies) + sum(nbytes / b for b in stage_bandwidths)

    # Steady state: (n-1) chunks at the bottleneck rate.  The final
    # partial chunk still occupies a full pipeline slot, which slightly
    # over-charges; that conservatism is deliberate (DMA descriptors are
    # fixed-size in the real engine).
    return sum(stage_latencies) + fill + (num_chunks - 1) * bottleneck


def pipelined_times(nbytes: Sequence[float],
                    stage_bandwidths: Sequence[float],
                    chunk_bytes: float,
                    stage_latencies: Sequence[float] = ()) -> "np.ndarray":
    """Vectorized :func:`pipelined_time` over an array of transfer sizes.

    Elementwise **bit-identical** to calling the scalar closed form on
    each size: every term is accumulated in the same float association
    order (serial case: ``0 + n/b0 + n/b1 + ...``; multi-chunk case:
    ``(setup + fill) + (n_chunks - 1) * bottleneck``), so the batched
    sealed-memcpy path can charge many per-item transfers in one pass
    without perturbing simulated time.
    """
    sizes = np.asarray(nbytes, dtype=np.float64)
    if sizes.size and float(sizes.min()) < 0:
        raise ValueError("nbytes must be non-negative")
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    setup = sum(stage_latencies)
    if not stage_bandwidths:
        return np.full(sizes.shape, setup, dtype=np.float64)
    for bandwidth in stage_bandwidths:
        if bandwidth <= 0:
            raise ValueError("stage bandwidth must be positive")

    full_chunks, tail = np.divmod(sizes, chunk_bytes)
    num_chunks = full_chunks.astype(np.int64) + (tail != 0)
    chunk_times = [chunk_bytes / bandwidth for bandwidth in stage_bandwidths]
    bottleneck = max(chunk_times)
    fill = sum(chunk_times)

    serial = np.zeros_like(sizes)
    for bandwidth in stage_bandwidths:
        serial = serial + sizes / bandwidth
    single = setup + serial
    multi = (setup + fill) + (num_chunks - 1) * bottleneck
    return np.where(num_chunks <= 1, single, multi)
