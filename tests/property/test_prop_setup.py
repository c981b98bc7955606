"""Differential properties: set-up structures vs their retired versions.

The EPC and the OS frame allocator were made to cost what a run uses
rather than what the machine has; the capacity-sized originals live on
in :mod:`tests.property.oracles`.  Both sides are driven with the same
random operation sequences and must agree on every result, every raised
error (type and message) and every free-page count:

* :class:`repro.sgx.epc.Epc` (sparse EPCM, cursor + reuse stack) vs
  :class:`~tests.property.oracles.OracleDenseEpc` — ``allocate``
  (to exhaustion: the EPC has 8–32 pages), ``release`` (including
  EREMOVE of an invalid page and addresses outside the EPC),
  ``release_enclave``, ``entry_for`` and ``pages_of`` (paddr order
  included);
* :class:`repro.osmodel.kernel.FrameAllocator` (interval test) vs
  :class:`~tests.property.oracles.OracleScanFrameAllocator` — ``alloc``,
  ``alloc_contiguous`` and ``free`` over random page-aligned reserved
  layouts, overlapping ranges and runs that straddle a range included.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.hw.phys_mem import PAGE_SIZE
from repro.osmodel.kernel import FrameAllocator
from repro.sgx.epc import Epc, PageType
from tests.property.oracles import OracleDenseEpc, OracleScanFrameAllocator

EPC_BASE = 0x4000_0000


def _outcome(call, *args):
    """``("ok", result)`` or ``("err", type, message)`` of one call."""
    try:
        return ("ok", call(*args))
    except ReproError as exc:
        return ("err", type(exc), str(exc))


# Allocation is listed four times so EPCs run out within a sequence.
_EPC_KINDS = ("allocate",) * 4 + ("release", "release_enclave", "entry_for",
                                  "pages_of")
_ENCLAVES = st.sampled_from([None, 1, 2, 3])


@st.composite
def epc_sequences(draw):
    pages = draw(st.integers(8, 32))
    # Any byte address from one page below the EPC to one page above it.
    paddrs = st.integers(EPC_BASE - PAGE_SIZE,
                         EPC_BASE + (pages + 1) * PAGE_SIZE - 1)
    args = {
        "allocate": st.tuples(
            _ENCLAVES,
            st.none() | st.integers(0, 63).map(lambda page: page * PAGE_SIZE),
            st.sampled_from(list(PageType)),
            st.booleans()),
        "release": st.tuples(paddrs),
        "release_enclave": st.tuples(_ENCLAVES),
        "entry_for": st.tuples(paddrs),
        "pages_of": st.tuples(_ENCLAVES),
    }
    ops = []
    for _ in range(draw(st.integers(3 * pages, 5 * pages))):
        kind = draw(st.sampled_from(_EPC_KINDS))
        ops.append((kind, draw(args[kind])))
    return pages, ops


class TestSparseEpcMatchesDense:
    @given(epc_sequences())
    @settings(max_examples=60, deadline=None)
    def test_same_results_and_errors(self, sequence):
        pages, ops = sequence
        new = Epc(EPC_BASE, pages * PAGE_SIZE)
        old = OracleDenseEpc(EPC_BASE, pages * PAGE_SIZE)
        for kind, args in ops:
            got = _outcome(getattr(new, kind), *args)
            want = _outcome(getattr(old, kind), *args)
            if kind == "pages_of":
                # Dict equality ignores order; the paddr order is pinned too.
                got, want = (("ok", list(got[1].items())),
                             ("ok", list(want[1].items())))
            assert got == want, (kind, args)
            assert new.free_pages == old.free_pages


@st.composite
def frame_sequences(draw):
    dram_pages = draw(st.integers(16, 128))
    reserved = draw(st.lists(
        st.tuples(st.integers(0, dram_pages - 1), st.integers(1, 16)),
        max_size=4))
    op = st.tuples(st.sampled_from(("alloc", "alloc_contiguous", "free")),
                   st.integers(0, 24),     # run length in pages
                   st.integers(0, 1 << 16))  # which earlier frame to free
    ops = draw(st.lists(op, min_size=8, max_size=60))
    return (dram_pages * PAGE_SIZE,
            [(base * PAGE_SIZE, npages * PAGE_SIZE) for base, npages in reserved],
            ops)


class TestIntervalFrameAllocatorMatchesScan:
    @given(frame_sequences())
    @settings(max_examples=200, deadline=None)
    def test_same_frames_and_errors(self, sequence):
        dram_size, reserved, ops = sequence
        new = FrameAllocator(dram_size, reserved)
        old = OracleScanFrameAllocator(dram_size, reserved)
        handed_out = []
        for kind, npages, pick in ops:
            if kind == "free":
                if not handed_out:
                    continue
                frame = handed_out[pick % len(handed_out)]
                new.free(frame)
                old.free(frame)
                continue
            args = (npages,) if kind == "alloc_contiguous" else ()
            got = _outcome(getattr(new, kind), *args)
            assert got == _outcome(getattr(old, kind), *args), (kind, args)
            if got[0] == "ok":
                handed_out.append(got[1])
