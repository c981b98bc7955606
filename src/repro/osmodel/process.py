"""Process abstraction: an address space plus execution identity."""

from __future__ import annotations

from repro.hw.mmu import AccessContext, PageTable
from repro.hw.phys_mem import PAGE_SIZE

USER_VA_BASE = 0x0000_1000_0000
KERNEL_VA_BASE = 0xFFFF_8000_0000


class Process:
    """One schedulable process with its own page table."""

    def __init__(self, pid: int, name: str, is_kernel: bool = False) -> None:
        self.pid = pid
        self.name = name
        self.is_kernel = is_kernel
        self.page_table = PageTable(asid=pid)
        self.alive = True
        self.enclave = None  # set by Kernel.load_enclave
        self._va_cursor = KERNEL_VA_BASE if is_kernel else USER_VA_BASE
        self._ctx_plain: AccessContext | None = None
        self._ctx_enclave: AccessContext | None = None

    def reserve_va(self, nbytes: int, align: int = PAGE_SIZE) -> int:
        """Carve a fresh virtual range out of this process's address space."""
        cursor = (self._va_cursor + align - 1) & ~(align - 1)
        self._va_cursor = cursor + ((nbytes + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1))
        return cursor

    def context(self, enclave_mode: bool = False) -> AccessContext:
        """The access context this process executes under.

        Contexts are immutable, so the two per-process variants are
        cached — memory-access hot loops request one per access.
        """
        if not enclave_mode:
            ctx = self._ctx_plain
            if ctx is None:
                ctx = self._ctx_plain = AccessContext(
                    asid=self.pid, enclave_id=None, is_kernel=self.is_kernel)
            return ctx
        if self.enclave is None:
            raise ValueError(f"process {self.name} hosts no enclave")
        enclave_id = self.enclave.enclave_id
        ctx = self._ctx_enclave
        if ctx is None or ctx.enclave_id != enclave_id:
            ctx = self._ctx_enclave = AccessContext(
                asid=self.pid, enclave_id=enclave_id,
                is_kernel=self.is_kernel)
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "kernel" if self.is_kernel else "user"
        return f"<Process {self.pid} {self.name!r} ({kind})>"
