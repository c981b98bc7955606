"""Property-based tests over system-level invariants (MMU, end-to-end)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import PageFault
from repro.hw.mmu import (
    _RANGE_THRESHOLD,
    AccessContext,
    AccessType,
    Mmu,
    PageFlags,
    PageTable,
)
from repro.hw.phys_mem import PAGE_SIZE
from repro.core.multiuser import Segment, simulate_concurrent

FLAGS = PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER
#: Virtual pages the page-table sequences touch.
VPNS = 160

_flags = st.sampled_from([FLAGS, PageFlags.PRESENT | PageFlags.USER,
                          PageFlags(0)])
#: One page-table edit: a single page, a run on either side of the
#: interval threshold, or an unmap.
_page_table_op = st.one_of(
    st.tuples(st.just("map"), st.integers(0, VPNS - 1),
              st.integers(0, 4000), _flags),
    st.tuples(st.just("map_range"), st.integers(0, VPNS - 1),
              st.integers(1, 3 * _RANGE_THRESHOLD), st.integers(0, 4000),
              _flags),
    st.tuples(st.just("unmap"), st.integers(0, VPNS - 1)))


class TestMmuProperties:
    @given(mappings=st.dictionaries(
        st.integers(0, 500), st.integers(0, 1000), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_translation_is_consistent_with_page_table(self, mappings):
        """For any mapping set, MMU translation == page-table walk."""
        mmu = Mmu()
        pt = PageTable(asid=1)
        ctx = AccessContext(asid=1)
        for vpn, ppn in mappings.items():
            pt.map(vpn * PAGE_SIZE, ppn * PAGE_SIZE, FLAGS)
        for vpn, ppn in mappings.items():
            for offset in (0, 1, PAGE_SIZE - 1):
                assert mmu.translate(pt, ctx, vpn * PAGE_SIZE + offset,
                                     AccessType.READ) == (
                    ppn * PAGE_SIZE + offset)

    @given(mappings=st.dictionaries(
        st.integers(0, 100), st.integers(0, 200), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_tlb_never_changes_results(self, mappings):
        """Hot (TLB-hit) translations agree with cold ones."""
        mmu = Mmu()
        pt = PageTable(asid=1)
        ctx = AccessContext(asid=1)
        for vpn, ppn in mappings.items():
            pt.map(vpn * PAGE_SIZE, ppn * PAGE_SIZE, FLAGS)
        cold = {vpn: mmu.translate(pt, ctx, vpn * PAGE_SIZE, AccessType.READ)
                for vpn in mappings}
        hot = {vpn: mmu.translate(pt, ctx, vpn * PAGE_SIZE, AccessType.READ)
               for vpn in mappings}
        assert cold == hot

    @given(ops=st.lists(_page_table_op, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_page_table_matches_per_page_oracle(self, ops):
        """Singles, runs on both sides of the interval threshold and
        unmaps, in any order: the latest edit of each page wins."""
        pt = PageTable(asid=1)
        oracle = {}
        for op in ops:
            if op[0] == "map":
                _, vpn, ppn, flags = op
                pt.map(vpn * PAGE_SIZE, ppn * PAGE_SIZE, flags)
                oracle[vpn] = (ppn, flags)
            elif op[0] == "map_range":
                _, vpn, npages, ppn, flags = op
                pt.map_range(vpn * PAGE_SIZE, ppn * PAGE_SIZE,
                             npages * PAGE_SIZE, flags)
                oracle.update((vpn + index, (ppn + index, flags))
                              for index in range(npages))
            else:
                pt.unmap(op[1] * PAGE_SIZE)
                oracle.pop(op[1], None)
        for vpn in range(VPNS + 3 * _RANGE_THRESHOLD):
            entry = oracle.get(vpn)
            if entry is None or not entry[1] & PageFlags.PRESENT:
                with pytest.raises(PageFault):
                    pt.lookup(vpn * PAGE_SIZE)
            else:
                assert pt.lookup(vpn * PAGE_SIZE + 7) == (
                    entry[0] * PAGE_SIZE, entry[1])
        assert pt.mapped_pages() == len(oracle)

    @given(frames=st.lists(st.integers(0, 23), min_size=8, max_size=8,
                           unique=True),
           start=st.integers(0, 8 * PAGE_SIZE - 1),
           length=st.integers(1, 8 * PAGE_SIZE),
           payload=st.binary(min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_virt_access_matches_per_page_access(self, frames, start,
                                                 length, payload):
        """Ranges over physically scattered pages read and write the
        same bytes as one access per page."""
        length = min(length, 8 * PAGE_SIZE - start)
        mmu = Mmu()
        pt = PageTable(asid=1)
        ctx = AccessContext(asid=1)
        for vpn, frame in enumerate(frames):
            pt.map(vpn * PAGE_SIZE, frame * PAGE_SIZE, FLAGS)
        memory = bytearray(bytes(range(256)) * (24 * PAGE_SIZE // 256))

        def phys_read(paddr, nbytes):
            return bytes(memory[paddr:paddr + nbytes])

        def phys_write(paddr, data):
            memory[paddr:paddr + len(data)] = data

        def per_page(vaddr):
            return frames[vaddr // PAGE_SIZE] * PAGE_SIZE + vaddr % PAGE_SIZE

        expected = bytes(memory[per_page(vaddr)]
                         for vaddr in range(start, start + length))
        for _ in range(2):  # cold walk, then the warm-TLB memo
            assert mmu.virt_read(pt, ctx, start, length,
                                 phys_read) == expected

        data = (payload * (length // len(payload) + 1))[:length]
        shadow = bytearray(memory)
        for offset, byte in enumerate(data):
            shadow[per_page(start + offset)] = byte
        mmu.virt_write(pt, ctx, start, data, phys_write)
        assert memory == shadow


class TestMultiuserProperties:
    segments = st.lists(
        st.builds(Segment,
                  st.sampled_from(["host", "gpu"]),
                  st.floats(min_value=0.0, max_value=2.0)),
        max_size=12)

    @given(users=st.lists(segments, min_size=1, max_size=4),
           switch=st.floats(min_value=0.0, max_value=0.01))
    @settings(max_examples=50, deadline=None)
    def test_makespan_bounds(self, users, switch):
        """Makespan is at least the longest user and at most the sum."""
        makespan, timelines, _ = simulate_concurrent(users, switch)
        per_user = [sum(s.duration for s in user) for user in users]
        total_gpu = sum(s.duration for user in users for s in user
                        if s.kind == "gpu")
        switches_bound = sum(len(u) for u in users) * switch
        assert makespan >= max(per_user) - 1e-9
        assert makespan >= total_gpu - 1e-9
        assert makespan <= sum(per_user) + switches_bound + 1e-9

    @given(users=st.lists(segments, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_gpu_busy_conserved(self, users):
        _, timelines, _ = simulate_concurrent(users, 0.0)
        for timeline, user in zip(timelines, users):
            expected = sum(s.duration for s in user if s.kind == "gpu")
            assert timeline.gpu_busy == pytest.approx(expected)


class TestEndToEndDataIntegrity:
    @given(payload=st.binary(min_size=1, max_size=30000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_gdev_roundtrip_any_payload(self, payload, gdev_roundtrip_env):
        app = gdev_roundtrip_env
        buf = app.cuMemAlloc(len(payload))
        app.cuMemcpyHtoD(buf, payload)
        assert app.cuMemcpyDtoH(buf, len(payload)) == payload
        app.cuMemFree(buf)

    @given(payload=st.binary(min_size=1, max_size=30000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_hix_roundtrip_any_payload(self, payload, hix_roundtrip_env):
        app = hix_roundtrip_env
        buf = app.cuMemAlloc(len(payload))
        app.cuMemcpyHtoD(buf, payload)
        assert app.cuMemcpyDtoH(buf, len(payload)) == payload
        app.cuMemFree(buf)


@pytest.fixture(scope="module")
def gdev_roundtrip_env():
    from repro.system import Machine, MachineConfig
    machine = Machine(MachineConfig())
    driver = machine.make_gdev()
    return machine.gdev_session(driver).cuCtxCreate()


@pytest.fixture(scope="module")
def hix_roundtrip_env():
    from repro.system import Machine, MachineConfig
    machine = Machine(MachineConfig())
    service = machine.boot_secure()
    return machine.secure_session(service).cuCtxCreate()
