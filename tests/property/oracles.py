"""Retired implementations, kept as differential oracles.

Before the unified discrete-event kernel (:mod:`repro.sim.engine`), the
repo carried two independent event loops: the analytic multi-user model
(``repro.core.multiuser.simulate_concurrent``) and the serving layer's
virtual-time multiplexer (``repro.serve.timeline.multiplex``).  Both
were replaced by thin adapters over the kernel; the original bodies
moved here, verbatim apart from naming, so the property suite can pin
the kernel against them forever:

* :func:`oracle_simulate_concurrent` — the analytic oracle.  The kernel
  with no scheduler (native FIFO) must match it *exactly on all
  inputs*, simultaneous-event ties included.
* :func:`oracle_multiplex` — the retired scheduler-driven multiplexer.
  It diverged from the analytic oracle on tie-breaks (it drained every
  event up to the dispatch instant before arbitrating; the oracle
  pre-reserved the engine at pop).  It remains the reference for
  non-FIFO schedulers, whose semantics the kernel preserves.

Machine set-up was made proportional to use; the capacity-sized
originals moved here the same way:

* :class:`OracleDenseEpc` — the EPC with one EPCM entry per page and a
  free stack seeded with every page.  :class:`repro.sgx.epc.Epc` must
  return the same pages, entries and errors for every operation
  sequence.
* :class:`OracleScanFrameAllocator` — the frame allocator that tested a
  contiguous run page by page against the reserved ranges.
  :class:`repro.osmodel.kernel.FrameAllocator` must hand out the same
  frames and raise the same errors.

The sealed transfer path was made to touch each byte once per hop; the
representations it retired moved here the same way:

* :class:`OracleGpuPageTable` — the GPU page table with one dict entry
  per 4 KiB page, and the per-page ``translate_range`` walk that lived
  on ``GpuContext``.  :class:`repro.gpu.context.GpuPageTable` (sorted
  runs) must translate every address and range the same way, fault
  included.
* :func:`oracle_seal_blob` / :func:`oracle_seal_blob_chunks` — the
  frame builders that concatenated a packed header and the ciphertext
  the suite returned.  :func:`repro.crypto.blob.seal_blob` and
  :func:`~repro.crypto.blob.seal_blob_chunks` (which seal into the
  frame) must produce the same bytes.

The pipelined-copy closed form keeps its event-kernel twin here:

* :func:`pipelined_time_events` — the §5.2 chunked pipeline executed on
  the discrete-event kernel.  :func:`repro.sim.pipeline.pipelined_time`
  (the closed form the runtime charges) must equal it exactly in exact
  arithmetic.

These are test fixtures, not public API — do not import them from
production code.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.multiuser import Segment
from repro.crypto.blob import _HEADER, _MAGIC
from repro.errors import EpcError, PageFault, ReproError
from repro.hw.phys_mem import PAGE_SIZE
from repro.sgx.epc import EpcmEntry, PageType
from repro.sim.engine import Acquire, EventClock, Process, Resource, Wait
from repro.sim.engine import LaneTimeline as UserTimeline
from repro.sim.engine import TenantLane, Visit
from repro.sim.trace import TraceEvent


def oracle_simulate_concurrent(
        users: Sequence[Sequence[Segment]], ctx_switch_cost: float
        ) -> Tuple[float, List[UserTimeline], Dict[str, float]]:
    """The retired ``simulate_concurrent`` event loop, verbatim."""
    num_users = len(users)
    cursors = [0] * num_users           # next segment index per user
    timelines = [UserTimeline(0.0, 0.0, 0.0, 0.0) for _ in range(num_users)]

    gpu_free_at = 0.0
    resident_ctx = None
    switches = 0
    events: List[Tuple[float, int, int]] = []  # (time, seq, user)
    seq = itertools.count()
    for user in range(num_users):
        heapq.heappush(events, (0.0, next(seq), user))

    while events:
        now, _tie, user = heapq.heappop(events)
        segments = users[user]
        if cursors[user] >= len(segments):
            timelines[user].finish_time = max(timelines[user].finish_time, now)
            continue
        segment = segments[cursors[user]]
        cursors[user] += 1
        if segment.kind == "host":
            timelines[user].host_busy += segment.duration
            finish = now + segment.duration
        else:
            start = max(now, gpu_free_at)
            timelines[user].waits += start - now
            if resident_ctx != user:
                if resident_ctx is not None:
                    start += ctx_switch_cost
                    switches += 1
                resident_ctx = user
            finish = start + segment.duration
            timelines[user].gpu_busy += segment.duration
            gpu_free_at = finish
        timelines[user].finish_time = finish
        heapq.heappush(events, (finish, next(seq), user))

    makespan = max((t.finish_time for t in timelines), default=0.0)
    stats = {
        "context_switches": float(switches),
        "gpu_utilization": (sum(t.gpu_busy for t in timelines) / makespan
                            if makespan > 0 else 0.0),
    }
    return makespan, timelines, stats


@dataclass
class OracleMultiplexResult:
    """Field-compatible twin of ``repro.serve.timeline.MultiplexResult``."""

    makespan: float
    timelines: List[UserTimeline]
    context_switches: int
    served: List[int]
    timed_out: List[int]
    stall_seconds: List[float]
    events: List[Tuple[int, TraceEvent]] = field(default_factory=list)


def oracle_multiplex(lanes: Sequence[TenantLane], scheduler,
                     ctx_switch_cost: float) -> OracleMultiplexResult:
    """The retired ``multiplex`` event loop, verbatim."""
    n = len(lanes)
    iters = [iter(lane.units) for lane in lanes]
    host_free = [0.0] * n
    outstanding = [0] * n
    blocked = [False] * n
    stall_since = [0.0] * n
    stall_pending: Dict[int, float] = {}
    queues: List[Deque[Visit]] = [deque() for _ in range(n)]
    timelines = [UserTimeline(0.0, 0.0, 0.0, 0.0) for _ in range(n)]
    served = [0] * n
    timed_out = [0] * n
    stall = [0.0] * n
    lane_events: List[Tuple[int, TraceEvent]] = []

    events: List[Tuple[float, int, str, int]] = []
    eseq = itertools.count()
    gpu_free = 0.0
    resident: Optional[int] = None
    switches = 0

    for tenant in range(n):
        heapq.heappush(events, (0.0, next(eseq), "produce", tenant))

    def produce(tenant: int, now: float, tie: int) -> None:
        pending_stall = stall_pending.pop(tenant, None)
        try:
            unit = next(iters[tenant])
        except StopIteration:
            timelines[tenant].finish_time = max(
                timelines[tenant].finish_time, now)
            return
        if pending_stall is not None:
            stall[tenant] += pending_stall
        done = now + unit.host_seconds
        timelines[tenant].host_busy += unit.host_seconds
        timelines[tenant].finish_time = max(
            timelines[tenant].finish_time, done)
        host_free[tenant] = done
        if unit.host_seconds > 0.0:
            lane_events.append(
                (tenant, TraceEvent(now, unit.host_seconds, "host")))
        if unit.gpu_seconds is None:
            heapq.heappush(events, (done, next(eseq), "produce", tenant))
            return
        deadline = None if unit.deadline is None else done + unit.deadline
        visit = Visit(
            tenant=tenant, seq=tie, ready=done,
            gpu_seconds=unit.gpu_seconds, weight=lanes[tenant].weight,
            deadline=deadline, label=unit.label,
            on_outcome=unit.on_outcome)
        queues[tenant].append(visit)
        outstanding[tenant] += 1
        if outstanding[tenant] < lanes[tenant].max_inflight:
            heapq.heappush(events, (done, next(eseq), "produce", tenant))
        else:
            blocked[tenant] = True
            stall_since[tenant] = done
            visit.resume_seq = next(eseq)

    def release_slot(tenant: int, now: float,
                     seq: Optional[int] = None) -> None:
        outstanding[tenant] -= 1
        if blocked[tenant]:
            blocked[tenant] = False
            stall_pending[tenant] = max(now - stall_since[tenant], 0.0)
            heapq.heappush(events, (max(host_free[tenant], now),
                                    next(eseq) if seq is None else seq,
                                    "produce", tenant))

    while events or any(queues):
        heads = [q[0] for q in queues if q]
        if not heads:
            now, tie, kind, tenant = heapq.heappop(events)
            if kind == "produce":
                produce(tenant, now, tie)
            else:
                release_slot(tenant, now, tie)
            continue

        dispatch_at = max(gpu_free, min(v.ready for v in heads))
        if events and events[0][0] <= dispatch_at:
            now, tie, kind, tenant = heapq.heappop(events)
            if kind == "produce":
                produce(tenant, now, tie)
            else:
                release_slot(tenant, now, tie)
            continue

        expired = False
        for queue in queues:
            while (queue and queue[0].deadline is not None
                   and dispatch_at > queue[0].deadline):
                visit = queue.popleft()
                timed_out[visit.tenant] += 1
                if visit.on_outcome is not None:
                    visit.on_outcome("timeout")
                release_slot(visit.tenant, dispatch_at)
                expired = True
        if expired:
            continue

        candidates = [q[0] for q in queues if q and q[0].ready <= dispatch_at]
        visit = scheduler.select(candidates, resident, dispatch_at)
        if visit not in candidates:
            raise ValueError(
                f"scheduler {scheduler!r} returned a non-candidate visit")
        queues[visit.tenant].popleft()

        start = dispatch_at
        timelines[visit.tenant].waits += start - visit.ready
        if resident is not None and resident != visit.tenant:
            switches += 1
            if ctx_switch_cost > 0.0:
                lane_events.append((visit.tenant, TraceEvent(
                    start, ctx_switch_cost, "ctx_switch")))
            start += ctx_switch_cost
        resident = visit.tenant
        finish = start + visit.gpu_seconds
        timelines[visit.tenant].gpu_busy += visit.gpu_seconds
        timelines[visit.tenant].finish_time = max(
            timelines[visit.tenant].finish_time, finish)
        if visit.gpu_seconds > 0.0:
            lane_events.append((visit.tenant, TraceEvent(
                start, visit.gpu_seconds, "gpu")))
        gpu_free = finish
        served[visit.tenant] += 1
        if visit.on_outcome is not None:
            visit.on_outcome("served")
        resume = (visit.resume_seq if visit.resume_seq is not None
                  else next(eseq))
        heapq.heappush(events, (finish, resume, "complete", visit.tenant))

    makespan = max((t.finish_time for t in timelines), default=0.0)
    return OracleMultiplexResult(
        makespan=makespan, timelines=timelines, context_switches=switches,
        served=served, timed_out=timed_out, stall_seconds=stall,
        events=lane_events)


class OracleDenseEpc:
    """The retired dense ``Epc``, verbatim apart from naming."""

    def __init__(self, base: int, size: int) -> None:
        if base % PAGE_SIZE or size % PAGE_SIZE or size <= 0:
            raise ValueError("EPC base/size must be page-aligned and positive")
        self.base = base
        self.size = size
        self._num_pages = size // PAGE_SIZE
        self._epcm: List[EpcmEntry] = [EpcmEntry() for _ in range(self._num_pages)]
        self._free: List[int] = list(range(self._num_pages - 1, -1, -1))

    @property
    def limit(self) -> int:
        return self.base + self.size

    @property
    def free_pages(self) -> int:
        return len(self._free)

    def contains(self, paddr: int, length: int = 1) -> bool:
        return self.base <= paddr and paddr + length <= self.limit

    def page_index(self, paddr: int) -> int:
        if not self.contains(paddr):
            raise EpcError(f"{paddr:#x} is not an EPC address")
        return (paddr - self.base) // PAGE_SIZE

    def entry_for(self, paddr: int) -> EpcmEntry:
        return self._epcm[self.page_index(paddr)]

    def allocate(self, enclave_id: Optional[int], vaddr: Optional[int],
                 page_type: PageType, writable: bool = True) -> int:
        """Claim a free EPC page; returns its physical address."""
        if not self._free:
            raise EpcError("EPC exhausted")
        index = self._free.pop()
        self._epcm[index] = EpcmEntry(valid=True, enclave_id=enclave_id,
                                      vaddr=vaddr, page_type=page_type,
                                      writable=writable)
        return self.base + index * PAGE_SIZE

    def release(self, paddr: int) -> None:
        """EREMOVE: invalidate and free one page."""
        index = self.page_index(paddr)
        if not self._epcm[index].valid:
            raise EpcError(f"EREMOVE of invalid EPC page {paddr:#x}")
        self._epcm[index] = EpcmEntry()
        self._free.append(index)

    def release_enclave(self, enclave_id: int) -> int:
        """Free every page belonging to *enclave_id*; returns the count."""
        released = 0
        for index, entry in enumerate(self._epcm):
            if entry.valid and entry.enclave_id == enclave_id:
                self._epcm[index] = EpcmEntry()
                self._free.append(index)
                released += 1
        return released

    def pages_of(self, enclave_id: int) -> Dict[int, EpcmEntry]:
        """paddr -> EPCM entry for every valid page of an enclave."""
        return {
            self.base + index * PAGE_SIZE: entry
            for index, entry in enumerate(self._epcm)
            if entry.valid and entry.enclave_id == enclave_id
        }


class OracleScanFrameAllocator:
    """The retired per-page-scan ``FrameAllocator``, verbatim apart from
    naming."""

    def __init__(self, dram_size: int, reserved: List[Tuple[int, int]]) -> None:
        self._dram_size = dram_size
        self._reserved = sorted(reserved)
        self._cursor = PAGE_SIZE  # frame 0 stays unused (null-page trap)
        self._free: List[int] = []

    def _reserved_overlap(self, paddr: int) -> Optional[int]:
        for base, size in self._reserved:
            if base <= paddr < base + size:
                return base + size
        return None

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        while True:
            skip_to = self._reserved_overlap(self._cursor)
            if skip_to is None:
                break
            self._cursor = skip_to
        if self._cursor + PAGE_SIZE > self._dram_size:
            raise ReproError("out of physical frames")
        frame = self._cursor
        self._cursor += PAGE_SIZE
        return frame

    def alloc_contiguous(self, npages: int) -> int:
        """Allocate physically-contiguous frames (DMA buffers need this)."""
        while True:
            base = self._cursor
            skip_to = self._reserved_overlap(base)
            if skip_to is None:
                end = base + npages * PAGE_SIZE
                if any(self._reserved_overlap(p) for p in range(base, end, PAGE_SIZE)):
                    self._cursor = end
                    continue
                if end > self._dram_size:
                    raise ReproError("out of contiguous physical frames")
                self._cursor = end
                return base
            self._cursor = skip_to

    def free(self, paddr: int) -> None:
        self._free.append(paddr)


GPU_PAGE_SIZE = 4096


class OracleGpuPageTable:
    """The retired per-page ``GpuPageTable``, verbatim apart from naming;
    :meth:`translate_range` is the retired ``GpuContext.translate_range``
    reading this table."""

    def __init__(self) -> None:
        self._entries: Dict[int, int] = {}

    def map_range(self, gpu_va: int, vram_pa: int, nbytes: int) -> None:
        if gpu_va % GPU_PAGE_SIZE or vram_pa % GPU_PAGE_SIZE:
            raise ValueError("GPU mappings must be page-aligned")
        pages = -(-nbytes // GPU_PAGE_SIZE)
        for i in range(pages):
            self._entries[gpu_va // GPU_PAGE_SIZE + i] = (
                vram_pa // GPU_PAGE_SIZE + i)

    def unmap_range(self, gpu_va: int, nbytes: int) -> None:
        pages = -(-nbytes // GPU_PAGE_SIZE)
        for i in range(pages):
            self._entries.pop(gpu_va // GPU_PAGE_SIZE + i, None)

    def translate(self, gpu_va: int) -> int:
        ppn = self._entries.get(gpu_va // GPU_PAGE_SIZE)
        if ppn is None:
            raise PageFault(f"GPU va {gpu_va:#x} unmapped in this context")
        return ppn * GPU_PAGE_SIZE + gpu_va % GPU_PAGE_SIZE

    def translate_range(self, gpu_va: int, nbytes: int):
        entries = self._entries
        addr = gpu_va
        end = gpu_va + nbytes
        run_pa = -1
        run_len = 0
        while addr < end:
            offset = addr & (GPU_PAGE_SIZE - 1)
            chunk = GPU_PAGE_SIZE - offset
            if addr + chunk > end:
                chunk = end - addr
            ppn = entries.get(addr // GPU_PAGE_SIZE)
            if ppn is None:
                raise PageFault(f"GPU va {addr:#x} unmapped in this context")
            vram_pa = ppn * GPU_PAGE_SIZE + offset
            if run_pa + run_len == vram_pa:
                run_len += chunk
            else:
                if run_len:
                    yield run_pa, run_len
                run_pa, run_len = vram_pa, chunk
            addr += chunk
        if run_len:
            yield run_pa, run_len


def oracle_seal_blob(suite, nonces, plaintext: bytes,
                     associated_data: bytes = b"") -> bytes:
    """The retired ``_seal_blob``, verbatim apart from naming."""
    nonce = nonces.next()
    ciphertext, tag = suite.seal(nonce, plaintext, associated_data)
    return _HEADER.pack(_MAGIC, nonce, tag, len(ciphertext)) + ciphertext


def oracle_seal_blob_chunks(suite, nonces, chunks: Sequence[bytes],
                            associated_data: bytes = b"") -> bytes:
    """The retired ``_seal_blob_chunks``, verbatim apart from naming."""
    nonce = nonces.next()
    ciphertext, tag = suite.seal_chunks(nonce, chunks, associated_data)
    return _HEADER.pack(_MAGIC, nonce, tag, len(ciphertext)) + ciphertext


def pipelined_time_events(nbytes: float, stage_bandwidths: Sequence[float],
                          chunk_bytes: float,
                          stage_latencies: Sequence[float] = ()) -> float:
    """:func:`repro.sim.pipeline.pipelined_time`, executed on the
    discrete-event kernel.

    Each chunk is a kernel :class:`~repro.sim.engine.Process` that
    acquires the stage :class:`~repro.sim.engine.Resource`\\ s in order;
    stage latencies are setup paid once, so every chunk enters stage 0
    after a single ``sum(stage_latencies)`` wait.  With uniform per-chunk
    service times the cascade closes to exactly
    ``setup + sum(t_i) + (n - 1) * max(t_i)`` — the closed form — and
    the single-chunk case degenerates to the serial pass over the actual
    byte count, again matching :func:`pipelined_time` term for term.

    The identity is exact in exact arithmetic: feed ``Fraction`` inputs
    and the result equals ``pipelined_time`` bit for bit (the property
    suite pins this).  Under floats the two evaluations associate
    additions differently and may differ in the last ulp, which is why
    the runtime keeps charging the closed form.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    setup = sum(stage_latencies)
    if not stage_bandwidths or nbytes == 0:
        return setup
    for bandwidth in stage_bandwidths:
        if bandwidth <= 0:
            raise ValueError("stage bandwidth must be positive")

    full_chunks, tail = divmod(nbytes, chunk_bytes)
    num_chunks = int(full_chunks) + (1 if tail else 0)
    # The closed form charges every multi-chunk slot a full chunk time
    # (tail occupies a full DMA descriptor); a lone chunk is serial over
    # the actual bytes.
    size = nbytes if num_chunks == 1 else chunk_bytes
    stage_times = [size / bandwidth for bandwidth in stage_bandwidths]

    kernel = EventClock()
    # ctx_switch_cost=0 (int, not 0.0): keeps Fraction inputs exact.
    stages = [Resource(kernel, 0) for _ in stage_bandwidths]
    finish_times: list = []

    def chunk(index: int):
        yield Wait(setup)
        for stage, service in zip(stages, stage_times):
            yield Acquire(stage, Visit(
                tenant=index, seq=index, ready=kernel.now,
                gpu_seconds=service, label=f"chunk{index}"))
        finish_times.append(kernel.now)

    for index in range(num_chunks):
        Process(kernel, chunk(index), name=f"chunk{index}").start(0)
    kernel.run()
    return max(finish_times)
