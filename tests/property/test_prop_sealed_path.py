"""Differential properties: the sealed path's data structures vs their
retired versions.

Each hop of a sealed transfer was made to touch its bytes once; the
representations that changed live on in :mod:`tests.property.oracles`
and pin the new ones:

* :class:`repro.gpu.context.GpuPageTable` (sorted runs) vs
  :class:`~tests.property.oracles.OracleGpuPageTable` (one entry per
  page) — random ``map_range``/``unmap_range`` sequences with
  overlapping, straddling, zero-length, unaligned and non-page-multiple
  windows; after every operation ``translate`` and ``translate_range``
  must agree on every probe: the same result or the same error (type
  and message), and the same pieces yielded before a ``PageFault``.
* :func:`repro.crypto.blob.seal_blob` and
  :func:`~repro.crypto.blob.seal_blob_chunks` (sealed into the frame) vs
  the concatenating builders — byte-identical frames for both suites,
  one and several chunks, 0 bytes to more than one 64 KiB extent.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.blob import seal_blob, seal_blob_chunks
from repro.crypto.nonce import NonceSequence
from repro.crypto.suite import FastAuthSuite, OcbAesSuite
from repro.errors import PageFault
from repro.gpu.context import GPU_PAGE_SIZE, GpuPageTable
from tests.property.oracles import (
    OracleGpuPageTable,
    oracle_seal_blob,
    oracle_seal_blob_chunks,
)

PAGE = GPU_PAGE_SIZE
#: Virtual and VRAM windows of this many pages, so mappings collide.
SPAN = 24


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except (PageFault, ValueError) as exc:
        return ("err", type(exc), str(exc))


def _walk(table, gpu_va, nbytes):
    """Pieces yielded before the walk ended, and how it ended."""
    pieces = []
    try:
        for piece in table.translate_range(gpu_va, nbytes):
            pieces.append(piece)
    except PageFault as exc:
        return pieces, str(exc)
    return pieces, None


_lengths = st.one_of(st.integers(-PAGE, 0),
                     st.integers(1, 8 * PAGE),
                     st.integers(1, 8).map(lambda pages: pages * PAGE))
_vas = st.one_of(st.integers(0, SPAN - 1).map(lambda page: page * PAGE),
                 st.integers(0, SPAN * PAGE))
_pas = st.one_of(st.integers(0, SPAN - 1).map(lambda page: page * PAGE),
                 st.integers(0, SPAN * PAGE))


@st.composite
def table_sequences(draw):
    op = st.one_of(st.tuples(st.just("map"), _vas, _pas, _lengths),
                   st.tuples(st.just("unmap"), _vas, _lengths))
    probe = st.tuples(st.integers(-PAGE, (SPAN + 2) * PAGE), _lengths)
    return draw(st.lists(st.tuples(op, st.lists(probe, min_size=1,
                                                 max_size=6)),
                         min_size=1, max_size=30))


class TestRunPageTableMatchesPerPage:
    @given(table_sequences())
    @settings(max_examples=300, deadline=None)
    def test_same_translations_and_faults(self, sequence):
        new, old = GpuPageTable(), OracleGpuPageTable()
        for (kind, *args), probes in sequence:
            assert (_outcome(getattr(new, f"{kind}_range"), *args)
                    == _outcome(getattr(old, f"{kind}_range"), *args))
            for gpu_va, nbytes in probes:
                assert (_outcome(new.translate, gpu_va)
                        == _outcome(old.translate, gpu_va)), gpu_va
                assert (_walk(new, gpu_va, nbytes)
                        == _walk(old, gpu_va, nbytes)), (gpu_va, nbytes)
        for page in range(-1, SPAN + 2):
            assert (_outcome(new.translate, page * PAGE + 5)
                    == _outcome(old.translate, page * PAGE + 5))
        assert (_walk(new, 0, (SPAN + 2) * PAGE)
                == _walk(old, 0, (SPAN + 2) * PAGE))


SUITES = [FastAuthSuite, OcbAesSuite]


def _chunks(sizes, seed):
    rng = random.Random(seed)
    return [rng.randbytes(size) for size in sizes]


def _assert_frames_match(suite_cls, chunks):
    suite = suite_cls(bytes(range(16)))
    new_nonces, old_nonces = NonceSequence(7), NonceSequence(7)
    ad = b"frame-pin"
    if len(chunks) == 1:
        assert (seal_blob(suite, new_nonces, chunks[0], ad)
                == oracle_seal_blob(suite, old_nonces, chunks[0], ad))
    assert (seal_blob_chunks(suite, new_nonces, chunks, ad)
            == oracle_seal_blob_chunks(suite, old_nonces, chunks, ad))


class TestFramesMatchConcatenatingBuilder:
    # Small sizes keep the pure-Python OCB fallback quick; the explicit
    # cases below take both suites past 4 KiB (FastAuthSuite's bulk
    # keystream and NH hash) and past one 64 KiB extent.
    @pytest.mark.parametrize("suite_cls", SUITES)
    @given(sizes=st.lists(st.integers(0, 1024), min_size=1, max_size=4),
           seed=st.integers(0, 1 << 16))
    @settings(max_examples=30, deadline=None)
    def test_small_frames(self, suite_cls, sizes, seed):
        _assert_frames_match(suite_cls, _chunks(sizes, seed))

    @pytest.mark.parametrize("suite_cls", SUITES)
    @pytest.mark.parametrize("sizes", [[0], [64 * 1024 + 40],
                                       [3, 64 * 1024, 1000]],
                             ids=["empty", "one-extent-plus", "straddling"])
    def test_frames_beyond_one_extent(self, suite_cls, sizes):
        _assert_frames_match(suite_cls, _chunks(sizes, len(sizes)))
