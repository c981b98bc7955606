"""EPC paging: EWB / ELDU (evicting enclave pages to untrusted DRAM).

The EPC is small (the paper's era shipped ~93 MB usable; the paper cites
Eleos/ShieldStore as responses to that limit).  Real SGX lets the OS
evict EPC pages with ``EWB`` — the hardware encrypts the page, MACs it
against its EPCM metadata, and records an anti-replay version in a
Version Array (VA) page — and reload them with ``ELDU``, which verifies
both.  The OS chooses *which* pages move (it manages memory) but can
neither read, modify, nor replay them.

This module implements that machinery on the simulated SGX unit:

* :class:`VersionArray` — EPC-resident nonce slots, one per evicted page;
* :func:`ewb` / :func:`eldu` — the paired instructions, taking the
  :class:`~repro.sgx.instructions.SgxUnit` as their first argument, with
  the full check set: sealed content, bound metadata (enclave, vaddr,
  page type), and version freshness.

Tampering with an evicted page, swapping two evicted pages, or replaying
a stale copy all fail ``ELDU`` — exercised in the security tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.kdf import hkdf_sha256
from repro.crypto.suite import FastAuthSuite
from repro.errors import EpcError, IntegrityError, ReplayError
from repro.hw.phys_mem import PAGE_SIZE
from repro.sgx.epc import EpcmEntry, PageType
from repro.sgx.instructions import SgxUnit

#: Wire format of an evicted page in untrusted DRAM:
#:   12-byte nonce || 16-byte tag || 4096-byte ciphertext
EWB_BLOB_SIZE = 12 + 16 + PAGE_SIZE


@dataclass
class VersionSlot:
    """One anti-replay slot inside a Version Array page."""

    counter: int
    metadata_digest: bytes


class VersionArray:
    """An EPC-resident page of anti-replay version slots.

    Slots are hardware state: software (the OS) holds only the slot
    index, never the counters.
    """

    SLOTS_PER_PAGE = PAGE_SIZE // 8

    def __init__(self, epc, enclave_id: Optional[int] = None) -> None:
        self.paddr = epc.allocate(enclave_id, None, PageType.VA)
        self._epc = epc
        self._slots: Dict[int, VersionSlot] = {}
        self._next = 0

    def reserve(self) -> int:
        if self._next >= self.SLOTS_PER_PAGE:
            raise EpcError("version array full")
        index = self._next
        self._next += 1
        return index

    def store(self, index: int, slot: VersionSlot) -> None:
        self._slots[index] = slot

    def consume(self, index: int) -> VersionSlot:
        """Take the slot (one reload per eviction: anti-replay)."""
        slot = self._slots.pop(index, None)
        if slot is None:
            raise ReplayError(
                f"version slot {index} is empty — page already reloaded "
                f"or never evicted (replay attempt)")
        return slot

    def release(self) -> None:
        self._epc.release(self.paddr)


def _paging_key(sgx: SgxUnit) -> bytes:
    return hkdf_sha256(sgx._platform_key, info=b"epc-paging", length=16)  # noqa: SLF001


def _metadata_digest(entry: EpcmEntry, counter: int) -> bytes:
    digest = hashlib.sha256()
    digest.update(b"ewb-meta")
    digest.update((entry.enclave_id or 0).to_bytes(8, "big"))
    digest.update((entry.vaddr or 0).to_bytes(8, "big"))
    digest.update(entry.page_type.value.encode())
    digest.update(counter.to_bytes(8, "big"))
    return digest.digest()


def ewb(sgx: SgxUnit, phys_mem, page_paddr: int, dest_paddr: int,
        version_array: VersionArray) -> int:
    """Evict one EPC page to untrusted DRAM at *dest_paddr*.

    Returns the version-array slot index the OS must present to ELDU.
    The EPC page is freed (that is the point of eviction).
    """
    entry = sgx.epc.entry_for(page_paddr)
    if not entry.valid:
        raise EpcError(f"EWB of invalid EPC page {page_paddr:#x}")
    if entry.page_type not in (PageType.REG, PageType.TCS):
        raise EpcError(f"EWB cannot evict {entry.page_type.value} pages")

    slot_index = version_array.reserve()
    counter = slot_index + 1
    suite = FastAuthSuite(_paging_key(sgx))
    nonce = hashlib.sha256(
        b"ewb-nonce" + page_paddr.to_bytes(8, "big")
        + counter.to_bytes(8, "big")).digest()[:12]
    aad = _metadata_digest(entry, counter)
    content = phys_mem.read(page_paddr, PAGE_SIZE)
    ciphertext, tag = suite.seal(nonce, content, aad)
    phys_mem.write(dest_paddr, nonce + tag + ciphertext)

    version_array.store(slot_index, VersionSlot(counter=counter,
                                                metadata_digest=aad))
    # Free the EPC page; its EPCM entry is remembered by the caller via
    # the returned metadata (the OS keeps the untrusted blob + slot id).
    sgx.epc.release(page_paddr)
    return slot_index


def eldu(sgx: SgxUnit, phys_mem, src_paddr: int, slot_index: int,
         version_array: VersionArray, enclave_id: int, vaddr: int,
         page_type: PageType = PageType.REG) -> int:
    """Reload an evicted page back into the EPC; returns its new paddr.

    Verifies the sealed content against the version slot's recorded
    metadata: wrong enclave/vaddr/page-type bindings, modified bytes,
    and stale (replayed) blobs all fail.
    """
    slot = version_array.consume(slot_index)
    expected_entry = EpcmEntry(valid=True, enclave_id=enclave_id,
                               vaddr=vaddr, page_type=page_type)
    aad = _metadata_digest(expected_entry, slot.counter)
    if aad != slot.metadata_digest:
        # Put the slot back: the failure is the caller's binding, not
        # the blob — and a later, honest reload must still succeed.
        version_array.store(slot_index, slot)
        raise IntegrityError(
            "ELDU binding mismatch: page was evicted for a different "
            "enclave/vaddr/type")

    blob = phys_mem.read(src_paddr, EWB_BLOB_SIZE)
    nonce, tag, ciphertext = blob[:12], blob[12:28], blob[28:]
    suite = FastAuthSuite(_paging_key(sgx))
    try:
        content = suite.open(nonce, ciphertext, tag, aad)
    except IntegrityError:
        version_array.store(slot_index, slot)
        raise

    paddr = sgx.epc.allocate(enclave_id, vaddr, page_type)
    phys_mem.write(paddr, content)
    return paddr
