"""The SGX unit: instruction dispatch and translation validation.

This class is the simulated CPU security engine.  It owns the EPC/EPCM,
the per-enclave SECS records, the HIX extension (GECS/TGMR), and the
platform secrets used for attestation.  It also provides the *validator*
installed into the MMU's page-table walker, which is where every SGX and
HIX memory-protection rule is actually enforced.

Instruction set implemented (paper Sections 2.1 and 4.2.1):

====================  =====================================================
``ECREATE``           allocate SECS, open measurement
``EADD``              add one EPC page at a linear address, measure metadata
``EEXTEND``           measure page content in 256-byte chunks
``EINIT``             freeze the measurement, mark the enclave runnable
``EENTER``/``EEXIT``  enter/leave enclave mode (returns an AccessContext)
``EREMOVE``           tear down an enclave's EPC pages
``EREPORT``           produce a MACed local-attestation report
``EGETKEY``           derive the report-verification key
``EGCREATE``          HIX: bind a real GPU to this enclave, engage lockdown
``EGADD``             HIX: register trusted GPU MMIO pages in the TGMR
====================  =====================================================
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Dict, Optional

from repro.crypto.kdf import hkdf_sha256, hmac_sha256
from repro.errors import (
    EnclaveStateError,
    SgxError,
    TlbValidationError,
)
from repro.hw.mmu import AccessContext, AccessType, PageFlags
from repro.hw.phys_mem import PAGE_SIZE
from repro.obs.tracer import STATE as _OBS
from repro.pcie.device import Bdf
from repro.pcie.root_complex import RootComplex
from repro.sgx.epc import Epc, PageType
from repro.sgx.hix_ext import GecsEntry, HixExtension
from repro.sgx.secs import Secs

_SOFTWARE_VISIBLE_TYPES = (PageType.REG, PageType.TCS)


def _traced(name: str):
    """Open an ``sgx``-category span around an instruction when tracing.

    Disabled-tracer cost is one attribute load and a branch, so the
    instruction dispatch path stays effectively free without a tracer.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def inner(self, *args, **kwargs):
            tracer = _OBS.tracer
            if tracer is None:
                return fn(self, *args, **kwargs)
            with tracer.span(name, "sgx"):
                return fn(self, *args, **kwargs)
        return inner
    return wrap


class SgxUnit:
    """Simulated SGX+HIX hardware engine of one CPU package."""

    def __init__(self, epc: Epc, platform_seed: bytes = b"hix-platform",
                 clock=None, costs=None) -> None:
        self.epc = epc
        self.hix = HixExtension()
        self._enclaves: Dict[int, Secs] = {}
        self._next_enclave_id = 1
        self._platform_key = hashlib.sha256(b"sgx-root" + platform_seed).digest()
        self._root_complex: Optional[RootComplex] = None
        self._clock = clock
        self._costs = costs

    # -- wiring ---------------------------------------------------------------

    def attach_root_complex(self, root_complex: RootComplex) -> None:
        """Give the unit its trusted channel to the PCIe root complex."""
        self._root_complex = root_complex

    def _charge(self, seconds_attr: str) -> None:
        if self._clock is not None and self._costs is not None:
            self._clock.advance(getattr(self._costs, seconds_attr), "sgx")

    def enclave(self, enclave_id: int) -> Secs:
        try:
            return self._enclaves[enclave_id]
        except KeyError:
            raise SgxError(f"no enclave with id {enclave_id}") from None

    # -- lifecycle instructions -------------------------------------------------

    @_traced("sgx.ecreate")
    def ecreate(self, base: int, size: int, owner_pid: Optional[int] = None) -> Secs:
        """ECREATE: allocate a SECS page and open the enclave's measurement."""
        self._charge("sgx_instruction_latency")
        if base % PAGE_SIZE or size % PAGE_SIZE or size <= 0:
            raise SgxError("ELRANGE must be page-aligned and non-empty")
        enclave_id = self._next_enclave_id
        self._next_enclave_id += 1
        secs_paddr = self.epc.allocate(enclave_id, None, PageType.SECS)
        secs = Secs(enclave_id=enclave_id, base=base, size=size,
                    secs_paddr=secs_paddr, owner_pid=owner_pid)
        secs.measurement.record_ecreate(size)
        self._enclaves[enclave_id] = secs
        return secs

    @_traced("sgx.eadd")
    def eadd(self, enclave_id: int, vaddr: int,
             page_type: PageType = PageType.REG) -> int:
        """EADD: bind a fresh EPC page at *vaddr*; returns its paddr."""
        self._charge("epc_page_add_latency")
        secs = self.enclave(enclave_id)
        if secs.initialized:
            raise EnclaveStateError("EADD after EINIT")
        if not secs.elrange_contains(vaddr, PAGE_SIZE):
            raise SgxError(f"EADD va {vaddr:#x} outside ELRANGE")
        paddr = self.epc.allocate(enclave_id, vaddr, page_type)
        secs.measurement.record_eadd(vaddr - secs.base, page_type.value)
        return paddr

    @_traced("sgx.eextend")
    def eextend(self, enclave_id: int, vaddr: int, content: bytes) -> None:
        """EEXTEND: fold page content into the measurement."""
        self._charge("sgx_instruction_latency")
        secs = self.enclave(enclave_id)
        if secs.initialized:
            raise EnclaveStateError("EEXTEND after EINIT")
        secs.measurement.record_eextend(vaddr - secs.base, content)

    @_traced("sgx.einit")
    def einit(self, enclave_id: int) -> bytes:
        """EINIT: freeze the measurement; the enclave becomes enterable."""
        self._charge("sgx_instruction_latency")
        secs = self.enclave(enclave_id)
        if secs.initialized:
            raise EnclaveStateError("double EINIT")
        secs.initialized = True
        return secs.measurement.finalize()

    @_traced("sgx.eenter")
    def eenter(self, enclave_id: int, asid: int) -> AccessContext:
        """EENTER: returns the enclave-mode access context for the CPU."""
        self._charge("enclave_transition")
        secs = self.enclave(enclave_id)
        if not secs.initialized:
            raise EnclaveStateError("EENTER before EINIT")
        if not secs.alive:
            raise EnclaveStateError(f"enclave {enclave_id} has been destroyed")
        return AccessContext(asid=asid, enclave_id=enclave_id)

    @_traced("sgx.eexit")
    def eexit(self, asid: int) -> AccessContext:
        """EEXIT: back to an untrusted user context."""
        self._charge("enclave_transition")
        return AccessContext(asid=asid, enclave_id=None)

    def destroy_enclave(self, enclave_id: int) -> int:
        """EREMOVE all pages of a (possibly killed) enclave.

        GECS/TGMR registrations are deliberately *not* touched: the paper's
        termination protection keeps the GPU bound to the dead enclave
        until cold boot (Section 4.2.3).
        """
        secs = self.enclave(enclave_id)
        secs.alive = False
        return self.epc.release_enclave(enclave_id)

    # -- attestation --------------------------------------------------------------

    def report_key_for(self, target_measurement: bytes) -> bytes:
        """EGETKEY(REPORT_KEY): only derivable on this platform."""
        return hkdf_sha256(self._platform_key, info=b"report" + target_measurement,
                           length=32)

    @_traced("sgx.ereport")
    def ereport(self, enclave_id: int, target_measurement: bytes,
                report_data: bytes):
        """EREPORT: build a report only the target enclave can verify."""
        from repro.sgx.attestation import LocalReport  # cycle-free import
        self._charge("sgx_instruction_latency")
        secs = self.enclave(enclave_id)
        if not secs.initialized:
            raise EnclaveStateError("EREPORT before EINIT")
        gecs = self.hix.gecs_for_enclave(enclave_id)
        routing = gecs.routing_measurement if gecs is not None else b""
        mac_key = self.report_key_for(target_measurement)
        body = (secs.measurement.value + report_data + routing
                + enclave_id.to_bytes(8, "big"))
        return LocalReport(
            measurement=secs.measurement.value,
            enclave_id=enclave_id,
            report_data=report_data,
            is_gpu_enclave=gecs is not None,
            routing_measurement=routing,
            mac=hmac_sha256(mac_key, body),
        )

    # -- HIX instructions -----------------------------------------------------------

    @_traced("sgx.egcreate")
    def egcreate(self, enclave_id: int, gpu_bdf: Bdf) -> GecsEntry:
        """EGCREATE: register *gpu_bdf* to this enclave and lock the path."""
        self._charge("sgx_instruction_latency")
        if self._root_complex is None:
            raise SgxError("SGX unit not attached to a root complex")
        secs = self.enclave(enclave_id)
        if not secs.initialized or not secs.alive:
            raise EnclaveStateError("EGCREATE requires an initialized, live enclave")
        gecs_page = self.epc.allocate(enclave_id, None, PageType.GECS)
        try:
            entry = self.hix.register_gpu(enclave_id, gpu_bdf,
                                          self._root_complex, gecs_page)
        except Exception:
            self.epc.release(gecs_page)
            raise
        secs.is_gpu_enclave = True
        return entry

    @_traced("sgx.egadd")
    def egadd(self, enclave_id: int, vaddr: int, paddr: int,
              npages: int = 1):
        """EGADD: register trusted GPU MMIO pages in the TGMR."""
        self._charge("sgx_instruction_latency")
        if self._root_complex is None:
            raise SgxError("SGX unit not attached to a root complex")
        secs = self.enclave(enclave_id)
        if not secs.alive:
            raise EnclaveStateError("EGADD on a destroyed enclave")

        def elrange_first_hit(base_va: int, size: int):
            # First page of [base_va, base_va + size) fully inside
            # ELRANGE, in interval form (no per-page walk): page ``p``
            # offends iff ``secs.base <= p`` and ``p + PAGE_SIZE <=
            # secs.limit``.
            first = max(0, -(-(secs.base - base_va) // PAGE_SIZE))
            last = (secs.limit - PAGE_SIZE - base_va) // PAGE_SIZE
            if first * PAGE_SIZE < size and first <= last:
                return base_va + first * PAGE_SIZE
            return None

        return self.hix.register_mmio(
            enclave_id, vaddr, paddr, npages, self._root_complex,
            elrange_check=elrange_first_hit)

    @_traced("sgx.egdestroy")
    def egdestroy(self, enclave_id: int) -> None:
        """Graceful GPU release issued by the live owning GPU enclave.

        Clears this enclave's GECS/TGMR registrations; lockdown on the
        path is lifted only if no other GPU enclave still holds a GPU.
        """
        self._charge("sgx_instruction_latency")
        secs = self.enclave(enclave_id)
        if not secs.alive:
            raise EnclaveStateError(
                "EGDESTROY requires the owning enclave to be alive; a "
                "killed GPU enclave keeps the GPU locked until cold boot")
        entry = self.hix.graceful_release(enclave_id)
        if entry is not None:
            self.epc.release(entry.epc_paddr)
            secs.is_gpu_enclave = False
            if self._root_complex is not None and not self.hix.gecs_entries:
                self._root_complex.clear_lockdown()

    # -- the walker validator (installed into the MMU) --------------------------------

    def translation_validator(self) -> Callable:
        """Return the hook for :meth:`repro.hw.mmu.Mmu.set_validator`."""

        def validate(ctx: AccessContext, page_va: int, page_pa: int,
                     flags: PageFlags, access: AccessType) -> None:
            self._validate_epc(ctx, page_va, page_pa)
            self._validate_elrange(ctx, page_va, page_pa)
            self.hix.validate_translation(ctx, page_va, page_pa)

        return validate

    def _validate_epc(self, ctx: AccessContext, page_va: int,
                      page_pa: int) -> None:
        if not self.epc.contains(page_pa):
            return
        entry = self.epc.entry_for(page_pa)
        if not entry.valid:
            raise TlbValidationError(
                f"access to unallocated EPC page {page_pa:#x}")
        if entry.page_type not in _SOFTWARE_VISIBLE_TYPES:
            raise TlbValidationError(
                f"EPC page {page_pa:#x} holds hardware structure "
                f"{entry.page_type.value!r}; no software access")
        if ctx.enclave_id != entry.enclave_id:
            raise TlbValidationError(
                f"{ctx.describe()} may not access EPC page of enclave "
                f"{entry.enclave_id}")
        if entry.vaddr is not None and entry.vaddr != page_va:
            raise TlbValidationError(
                f"EPC page {page_pa:#x} EADDed at {entry.vaddr:#x}, "
                f"mapped at {page_va:#x}")

    def _validate_elrange(self, ctx: AccessContext, page_va: int,
                          page_pa: int) -> None:
        """Inside ELRANGE, translations must hit the enclave's own EPC pages."""
        if ctx.enclave_id is None:
            return
        secs = self._enclaves.get(ctx.enclave_id)
        if secs is None or not secs.elrange_contains(page_va, PAGE_SIZE):
            return
        if not self.epc.contains(page_pa):
            raise TlbValidationError(
                f"ELRANGE va {page_va:#x} maps outside the EPC ({page_pa:#x})")
        entry = self.epc.entry_for(page_pa)
        if (not entry.valid or entry.enclave_id != ctx.enclave_id
                or entry.vaddr != page_va):
            raise TlbValidationError(
                f"ELRANGE va {page_va:#x} maps to a foreign/remapped EPC page")

    # -- cold boot ---------------------------------------------------------------------

    def cold_boot_reset(self) -> None:
        """Power-cycle semantics: GECS/TGMR and lockdown are cleared."""
        self.hix.cold_boot_reset()
        if self._root_complex is not None:
            self._root_complex.clear_lockdown()
