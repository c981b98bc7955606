"""Untrusted inter-enclave media: message queues and shared memory.

Section 4.4.1: "The GPU enclave uses two communication channels with
each user enclave; a message queue and shared memory.  The message queue
is used for communication synchronization, and the shared memory is for
the actual encrypted data transmission."

Both media are OS-owned: the queue is kernel state the adversary can
inspect, reorder, duplicate, or forge, and the shared region is ordinary
DRAM it can read and corrupt.  Security comes solely from the sealed
payloads inside.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.errors import ProtocolError, QueueFullError
from repro.hw.phys_mem import PAGE_SIZE
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process

# Shared-region layout: request and reply areas, then the bulk area,
# which bounds one sealed bulk frame.
REGION_SIZE = 4 << 20
REQUEST_OFFSET = 0x0000
REQUEST_AREA = 0x8000
REPLY_OFFSET = REQUEST_AREA
REPLY_AREA = 0x8000
BULK_OFFSET = REQUEST_AREA + REPLY_AREA


@dataclass(frozen=True)
class Notification:
    """A queue entry: plaintext metadata only (offset/length of a blob)."""

    kind: str
    offset: int
    length: int


class MessageQueue:
    """Kernel-mediated notification queue (fully attacker-visible).

    Real kernel message queues have a bounded backlog; *capacity* models
    it.  An enqueue on a full queue raises :class:`QueueFullError` — a
    first-class :class:`ProtocolError` subclass the serving layer
    translates into backpressure rather than silently dropping or
    unboundedly buffering notifications.  ``capacity=None`` (the
    default) keeps the historical unbounded behaviour.
    """

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("queue capacity must be >= 1 (or None)")
        self.name = name
        self.capacity = capacity
        self.entries: Deque[Notification] = deque()
        self.sent = 0
        self.rejected = 0

    def send(self, kind: str, offset: int, length: int) -> None:
        if self.capacity is not None and len(self.entries) >= self.capacity:
            self.rejected += 1
            raise QueueFullError(
                f"queue {self.name!r} full ({self.capacity} entries)")
        self.entries.append(Notification(kind, offset, length))
        self.sent += 1

    def recv(self) -> Notification:
        if not self.entries:
            raise ProtocolError(f"queue {self.name!r} empty")
        return self.entries.popleft()

    def __len__(self) -> int:
        return len(self.entries)


class SharedMemoryRegion:
    """Physically-contiguous DRAM shared by the two enclaves (and the OS)."""

    def __init__(self, kernel: Kernel, size: int) -> None:
        if size % PAGE_SIZE:
            raise ValueError("shared region size must be page-aligned")
        self._kernel = kernel
        self.size = size
        npages = size // PAGE_SIZE
        self.paddr = kernel.frames.alloc_contiguous(npages)
        self._mappings: Dict[int, int] = {}  # pid -> vaddr

    def attach(self, process: Process) -> int:
        """Map the region into *process*; returns its local vaddr."""
        vaddr = self._mappings.get(process.pid)
        if vaddr is None:
            vaddr = self._kernel.map_physical(process, self.paddr, self.size)
            self._mappings[process.pid] = vaddr
        return vaddr

    def write(self, process: Process, offset: int, data: bytes,
              enclave_mode: bool = False) -> None:
        if offset + len(data) > self.size:
            raise ProtocolError("write overruns the shared region")
        vaddr = self.attach(process)
        self._kernel.cpu_write(process, vaddr + offset, data,
                               enclave_mode=enclave_mode)

    def read(self, process: Process, offset: int, nbytes: int,
             enclave_mode: bool = False) -> bytes:
        if offset + nbytes > self.size:
            raise ProtocolError("read overruns the shared region")
        vaddr = self.attach(process)
        return self._kernel.cpu_read(process, vaddr + offset, nbytes,
                                     enclave_mode=enclave_mode)

    @property
    def bulk_capacity(self) -> int:
        return self.size - BULK_OFFSET


@dataclass
class ChannelEnd:
    """Everything one party needs to use a user<->GPU-enclave channel."""

    region: SharedMemoryRegion
    to_service: MessageQueue     # user -> GPU enclave notifications
    to_user: MessageQueue        # GPU enclave -> user notifications
    user_process: Process
    session_id: Optional[int] = None
