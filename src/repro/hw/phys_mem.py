"""Sparse byte-addressable physical memory (host DRAM).

Backing store is allocated lazily so a multi-gigabyte DRAM can be
modeled without reserving host RAM.  All reads/writes are bounds-checked;
DRAM never wraps.

Fast path: storage is bucketed in 64 KiB *extents* (16 architectural
pages), so a page-spanning access costs one or two Python-level slice
operations instead of one per 4 KiB page.  The common case — an access
that stays inside one extent — avoids all intermediate allocations,
a multi-extent read copies each extent's piece once into its result, and
:meth:`PhysicalMemory.read_into` / :meth:`PhysicalMemory.views` give
callers zero-copy scatter-gather access.  ``zero()`` really drops
fully-covered resident extents instead of materializing zeroes through
the write path.

The extent size is an internal storage choice; the architectural page
size (:data:`PAGE_SIZE`) that the MMU, IOMMU and allocators see is
unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, Union

from repro.errors import BusError

PAGE_SIZE = 4096

#: Internal backing-store bucket: 16 architectural pages per extent.
_EXTENT_SIZE = 64 * 1024

#: Shared all-zeroes extent served for reads of never-written ranges.
_ZERO_EXTENT = bytes(_EXTENT_SIZE)

Buffer = Union[bytes, bytearray, memoryview]


class PhysicalMemory:
    """Lazily-populated DRAM of a fixed size."""

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError("DRAM size must be a positive multiple of the page size")
        self._size = size
        self._extents: Dict[int, bytearray] = {}
        #: Bytes served/stored without intermediate copies (diagnostics).
        self.zero_copy_bytes = 0
        #: Resident extents released by :meth:`zero` (diagnostics).
        self.pages_dropped = 0

    @property
    def size(self) -> int:
        return self._size

    def _extent(self, index: int) -> bytearray:
        extent = self._extents.get(index)
        if extent is None:
            extent = bytearray(_EXTENT_SIZE)
            self._extents[index] = extent
        return extent

    def _check(self, paddr: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative length")
        if paddr < 0 or paddr + length > self._size:
            raise BusError(
                f"DRAM access [{paddr:#x}, {paddr + length:#x}) outside "
                f"[0, {self._size:#x})")

    def read(self, paddr: int, length: int) -> bytes:
        """Read *length* bytes starting at physical address *paddr*.

        The bytes are copied once, straight from the extents into the
        result.
        """
        self._check(paddr, length)
        index, offset = divmod(paddr, _EXTENT_SIZE)
        if offset + length <= _EXTENT_SIZE:
            extent = self._extents.get(index)
            if extent is None:
                return _ZERO_EXTENT[:length]
            return bytes(memoryview(extent)[offset:offset + length])
        return b"".join(self._pieces(paddr, length))

    def read_into(self, paddr: int, buf: Buffer) -> None:
        """Read ``len(buf)`` bytes at *paddr* directly into *buf* (zero-copy)."""
        view = memoryview(buf)
        self._check(paddr, view.nbytes)
        pos = 0
        for piece in self._pieces(paddr, view.nbytes):
            view[pos:pos + len(piece)] = piece
            pos += len(piece)
        self.zero_copy_bytes += view.nbytes

    def _pieces(self, paddr: int, length: int) -> Iterator[memoryview]:
        """Views of [paddr, paddr+length), extent by extent; unwritten
        ranges are views of the shared zero extent."""
        addr = paddr
        remaining = length
        while remaining:
            index, offset = divmod(addr, _EXTENT_SIZE)
            chunk = _EXTENT_SIZE - offset
            if chunk > remaining:
                chunk = remaining
            extent = self._extents.get(index)
            src = _ZERO_EXTENT if extent is None else extent
            yield memoryview(src)[offset:offset + chunk]
            addr += chunk
            remaining -= chunk

    def views(self, paddr: int, length: int) -> Iterator[memoryview]:
        """Yield read-only views covering [paddr, paddr+length), extent by extent.

        Never materializes absent extents: unwritten ranges are served
        from a shared zero extent.  The views alias live memory — consume
        them before the next write to the range.
        """
        self._check(paddr, length)
        for piece in self._pieces(paddr, length):
            self.zero_copy_bytes += len(piece)
            yield piece.toreadonly()

    def write(self, paddr: int, data: Buffer) -> None:
        """Write *data* (any buffer-protocol object) starting at *paddr*."""
        view = memoryview(data)
        if view.ndim != 1 or view.format not in ("B", "b", "c"):
            view = view.cast("B")
        self._check(paddr, view.nbytes)
        index, offset = divmod(paddr, _EXTENT_SIZE)
        if offset + view.nbytes <= _EXTENT_SIZE:
            if view.nbytes:
                self._extent(index)[offset:offset + view.nbytes] = view
            return
        addr = paddr
        while view.nbytes:
            index, offset = divmod(addr, _EXTENT_SIZE)
            chunk = _EXTENT_SIZE - offset
            if chunk > view.nbytes:
                chunk = view.nbytes
            self._extent(index)[offset:offset + chunk] = view[:chunk]
            addr += chunk
            view = view[chunk:]

    def zero(self, paddr: int, length: int) -> None:
        """Zero a physical range, dropping whole resident extents.

        Fully-covered extents are simply unmapped (reads of absent ranges
        return zeroes), so cleansing a large region materializes nothing;
        only partially-covered edges are memset in place — and only if
        they are already resident.
        """
        self._check(paddr, length)
        addr = paddr
        remaining = length
        while remaining:
            index, offset = divmod(addr, _EXTENT_SIZE)
            chunk = _EXTENT_SIZE - offset
            if chunk > remaining:
                chunk = remaining
            if chunk == _EXTENT_SIZE:
                if self._extents.pop(index, None) is not None:
                    self.pages_dropped += 1
            else:
                extent = self._extents.get(index)
                if extent is not None:
                    extent[offset:offset + chunk] = bytes(chunk)
            addr += chunk
            remaining -= chunk

    def resident_pages(self) -> int:
        """Number of backing extents actually materialised (tests/diagnostics).

        Sparse-residency unit is the 64 KiB extent: a region that was
        never written (or was fully cleansed) reports zero.
        """
        return len(self._extents)
