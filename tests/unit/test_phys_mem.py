"""Unit tests for the sparse physical memory model."""

from array import array

import pytest

from repro.errors import BusError
from repro.hw.address_map import AddressMap
from repro.hw.dma import DmaEngine
from repro.hw.iommu import Iommu
from repro.hw.phys_mem import PAGE_SIZE, PhysicalMemory
from repro.system import Machine, MachineConfig


class TestPhysicalMemory:
    def test_rejects_unaligned_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(PAGE_SIZE + 1)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_reads_zero_before_write(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        assert mem.read(100, 64) == bytes(64)

    def test_write_read_roundtrip(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        mem.write(1234, b"hello world")
        assert mem.read(1234, 11) == b"hello world"

    def test_page_spanning_write(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        data = bytes(range(256)) * 40  # 10240 bytes, spans 3+ pages
        mem.write(PAGE_SIZE - 100, data)
        assert mem.read(PAGE_SIZE - 100, len(data)) == data

    def test_out_of_bounds_read(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        with pytest.raises(BusError):
            mem.read(4 * PAGE_SIZE - 2, 4)

    def test_out_of_bounds_write(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        with pytest.raises(BusError):
            mem.write(4 * PAGE_SIZE, b"x")

    def test_negative_address(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        with pytest.raises(BusError):
            mem.read(-4, 4)

    def test_negative_length(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        with pytest.raises(ValueError):
            mem.read(0, -1)

    def test_lazy_page_materialisation(self):
        mem = PhysicalMemory(1 << 30)  # 1 GiB costs nothing up front
        assert mem.resident_pages() == 0
        mem.write(512 << 20, b"x")
        assert mem.resident_pages() == 1

    def test_zero_range(self):
        mem = PhysicalMemory(16 * PAGE_SIZE)
        mem.write(0, b"\xFF" * 100)
        mem.zero(10, 50)
        assert mem.read(0, 10) == b"\xFF" * 10
        assert mem.read(10, 50) == bytes(50)
        assert mem.read(60, 40) == b"\xFF" * 40

    def test_empty_write_is_noop(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.write(0, b"")
        assert mem.resident_pages() == 0


MB = 1 << 20


class TestFastPath:
    """Zero-copy APIs and the page-dropping cleanse."""

    def test_cleanse_of_untouched_region_materializes_nothing(self):
        mem = PhysicalMemory(16 * MB)
        mem.zero(2 * MB, MB)
        assert mem.resident_pages() == 0

    def test_cleanse_drops_resident_backing(self):
        mem = PhysicalMemory(16 * MB)
        mem.write(2 * MB, b"\xAA" * MB)
        resident = mem.resident_pages()
        assert resident > 0
        mem.zero(2 * MB, MB)
        assert mem.resident_pages() == 0
        assert mem.pages_dropped == resident
        assert mem.read(2 * MB, MB) == bytes(MB)

    def test_cleanse_keeps_partially_covered_edges_resident(self):
        mem = PhysicalMemory(16 * MB)
        mem.write(0, b"\xAA" * MB)
        before = mem.resident_pages()
        mem.zero(100, MB - 200)  # leaves both edge extents partly live
        assert mem.resident_pages() < before
        assert mem.read(0, 100) == b"\xAA" * 100
        assert mem.read(100, MB - 200) == bytes(MB - 200)
        assert mem.read(MB - 100, 100) == b"\xAA" * 100

    def test_read_into_fills_caller_buffer(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.write(PAGE_SIZE - 8, b"spanning-pages")
        buf = bytearray(14)
        mem.read_into(PAGE_SIZE - 8, buf)
        assert bytes(buf) == b"spanning-pages"
        assert mem.zero_copy_bytes >= 14

    def test_views_cover_absent_and_present_ranges(self):
        mem = PhysicalMemory(16 * MB)
        mem.write(0, b"\x11" * 16)
        got = b"".join(bytes(v) for v in mem.views(0, 2 * MB))
        assert got[:16] == b"\x11" * 16
        assert got[16:] == bytes(2 * MB - 16)
        # Serving the absent middle never materialized backing storage.
        assert mem.resident_pages() == 1

    def test_views_are_read_only(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        view = next(mem.views(0, 16))
        with pytest.raises(TypeError):
            view[0] = 1

    def test_write_accepts_buffer_protocol_objects(self):
        np = pytest.importorskip("numpy")
        mem = PhysicalMemory(4 * PAGE_SIZE)
        data = np.arange(256, dtype=np.int32)
        mem.write(64, data)
        assert mem.read(64, data.nbytes) == data.tobytes()


PAYLOAD = bytes(range(251)) * (MB // 251) + bytes(MB % 251)


def _source(kind: str, data: bytes):
    """*data* as one of the buffer kinds callers hand to ``write``."""
    if kind == "bytes":
        return data
    if kind == "bytearray":
        return bytearray(data)
    if kind == "memoryview":
        return memoryview(data)
    if kind in ("b", "c"):
        return memoryview(data).cast(kind)
    words = array("I")
    words.frombytes(data)
    return words


def _memory(writer: str):
    """``(write, read)`` by offset into 4 MiB of memory, its first 2 MiB
    resident, through *writer*: ``PhysicalMemory.write``, a process's
    ``Kernel.cpu_write`` or a device's ``DmaEngine.write_host``."""
    if writer == "cpu_write":
        kernel = Machine(MachineConfig()).kernel
        process = kernel.create_process("writer")
        base = kernel.alloc_pages(process, 4 * MB // PAGE_SIZE,
                                  contiguous=True)

        def write(offset, data):
            kernel.cpu_write(process, base + offset, data)

        def read(offset, nbytes):
            return kernel.cpu_read(process, base + offset, nbytes)
    else:
        mem = PhysicalMemory(4 * MB)
        write, read = mem.write, mem.read
        if writer == "write_host":
            address_map = AddressMap()
            address_map.add_window("dram", 0, mem.size, mem.read, mem.write)
            dma = DmaEngine(address_map, Iommu())

            def write(offset, data):
                dma.write_host("01:00.0", offset, data)
    write(0, bytes(2 * MB))
    return write, read


class TestOneCopyWrites:
    """A write copies each byte once, straight into its extents: no
    temporary as large as the source or as one extent.  Before writes
    went through a memoryview of the extent, a ``bytearray`` slice
    assignment copied every non-``bytearray`` piece first (a 1 MiB
    write peaked at 66,185 traced bytes).  The CPU and DMA write paths
    cast the signed and char sources too."""

    @pytest.mark.parametrize("writer,kind", [
        *(pytest.param("write", kind, id=kind) for kind in (
            "bytes", "bytearray", "memoryview", "b", "c", "array-I")),
        *(pytest.param(writer, kind, id=f"{writer}-{kind}")
          for writer in ("cpu_write", "write_host")
          for kind in ("b", "c", "array-I"))])
    @pytest.mark.parametrize("paddr,size", [(0, MB), (100, MB), (100, 4096)],
                             ids=["aligned", "straddling", "one-extent"])
    def test_write_reads_back_without_a_temporary(self, traced_peak, writer,
                                                  kind, paddr, size):
        write, read = _memory(writer)
        data = PAYLOAD[:size]
        source = _source(kind, data)
        peak = traced_peak(lambda: write(paddr, source))
        assert read(paddr, size) == data
        assert read(0, paddr) == bytes(paddr)
        assert peak < 4096

    def test_partial_extent_zero_allocates_nothing_extent_sized(
            self, traced_peak):
        mem = PhysicalMemory(4 * MB)
        mem.write(0, b"\xAA" * MB)
        peak = traced_peak(lambda: mem.zero(100, 60 * 1024))
        assert mem.read(0, 100) == b"\xAA" * 100
        assert mem.read(100, 60 * 1024) == bytes(60 * 1024)
        assert mem.read(100 + 60 * 1024, 100) == b"\xAA" * 100
        assert peak < 4096
