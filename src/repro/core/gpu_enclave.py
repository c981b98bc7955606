"""The GPU enclave: the relocated, trusted GPU driver (paper Section 4.2).

One user-space process hosts an SGX enclave containing the Gdev-derived
driver.  At boot it:

1. loads and initializes its enclave (measured, attestable),
2. has the benign kernel stub map the GPU's MMIO regions,
3. executes ``EGCREATE`` (binding the GPU, engaging MMIO lockdown) and
   ``EGADD`` for every MMIO page (populating the TGMR),
4. reads the GPU BIOS through the expansion ROM and verifies it against
   the vendor-published hash (Section 4.2.2),
5. resets the GPU to purge any pre-existing state.

After boot it is the *sole* software able to touch the GPU, and serves
user enclaves over the untrusted channel: attested key-exchange hellos,
then sealed requests (malloc/free/memcpy/module-load/launch/teardown),
maintaining one GPU context and one session key per user (Section 4.5).
The request loop is the one every backend shares
(:class:`~repro.core.service.SealedService`); this module adds boot,
the attested hello and the crypto-kernel memcpy handlers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from repro.core import protocol
from repro.core.channel import ChannelEnd
from repro.core.key_exchange import (
    DiffieHellman,
    SessionCrypto,
    bind_report_data,
    build_session_crypto,
    check_binding,
    derive_key,
    dh_bytes_to_int,
    int_to_dh_bytes,
)
from repro.core.service import SealedService, ServiceSession
from repro.crypto.blob import sealed_size
from repro.errors import AttestationError, ProtocolError
from repro.gdev.driver import GdevModule
from repro.gpu.bios import bios_hash, is_valid_rom
from repro.gpu.commands import CommandOpcode, encode_command
from repro.gpu.device import SimGpu
from repro.gpu.module import CubinImage, DevPtr
from repro.gpu.regs import REG_RESET, RESET_MAGIC, ROM_SIZE
from repro.hw.phys_mem import PAGE_SIZE
from repro.osmodel.driver_stub import map_gpu_mmio
from repro.osmodel.kernel import Kernel
from repro.pcie.root_complex import RootComplex
from repro.sgx.attestation import verify_local_report
from repro.sgx.enclave import EnclaveImage
from repro.sgx.instructions import SgxUnit

#: The GPU enclave's code identity ("provided by the GPU vendor", §5.5).
GPU_ENCLAVE_CODE = (b"HIX GPU enclave driver v1.0 -- Gdev-based trusted "
                    b"CUDA runtime relocated from the OS kernel")

# All four names stay: every session loads this image and cleanses its bytes.
CRYPTO_KERNELS = ["hix.aead_decrypt", "hix.aead_encrypt",
                  "hix.aead_decrypt_scatter", "hix.aead_encrypt_gather"]

logger = logging.getLogger(__name__)


def gpu_enclave_image() -> EnclaveImage:
    """The loadable (and measurable) GPU enclave image."""
    return EnclaveImage.from_code("gpu-enclave", GPU_ENCLAVE_CODE,
                                  heap_pages=8)


@dataclass
class Session(ServiceSession):
    """A user enclave's session: the GPU enclave holds its keys and its
    in-GPU crypto module."""

    user_measurement: bytes
    crypto: SessionCrypto
    crypto_module: GdevModule


class GpuEnclaveService(SealedService):
    """The GPU enclave process and its request-serving loop."""

    label = "GPU enclave"
    enclave_mode = True
    via_mmio = True

    def __init__(self, kernel: Kernel, sgx: SgxUnit,
                 root_complex: RootComplex, gpu: SimGpu,
                 expected_bios_hash: bytes,
                 suite_name: str = "fast-auth",
                 region_size: int = 4 << 20) -> None:
        super().__init__(kernel, root_complex, gpu, suite_name, region_size)
        self._sgx = sgx
        self._expected_bios_hash = expected_bios_hash
        self.enclave = None
        self.bios_measurement: Optional[bytes] = None

    # ------------------------------------------------------------------ boot

    def boot(self) -> "GpuEnclaveService":
        """Run the full secure-initialization sequence (Sections 4.2-4.3)."""
        self.process = self._kernel.create_process("gpu-enclave")
        self.enclave = self._kernel.load_enclave(self.process,
                                                 gpu_enclave_image())
        # Benign kernel service: assign virtual addresses for the MMIO.
        self._regions = map_gpu_mmio(self._kernel, self._root_complex,
                                     self._gpu.bdf, self.process)
        # EGCREATE: bind the GPU, freeze PCIe routing (MMIO lockdown).
        self._sgx.egcreate(self.enclave.enclave_id, self._gpu.bdf)
        # EGADD: register every MMIO page in the TGMR.
        for region in self._regions.values():
            self._sgx.egadd(self.enclave.enclave_id, region.vaddr,
                            region.paddr, npages=region.size // PAGE_SIZE)
        # Measure the GPU BIOS through the (now exclusive) MMIO path.
        self.driver = self._new_driver()
        rom = self.driver.channel.read_expansion_rom(ROM_SIZE)
        if not is_valid_rom(rom):
            raise AttestationError("GPU expansion ROM is structurally invalid")
        self.bios_measurement = bios_hash(rom)
        if self.bios_measurement != self._expected_bios_hash:
            raise AttestationError(
                "GPU BIOS failed measurement: device firmware was modified "
                "before GPU-enclave initialization")
        # Reset the GPU to purge any pre-existing (potentially malicious)
        # state, then rebuild driver bookkeeping over the clean device.
        self.driver.channel.reg_write(REG_RESET, RESET_MAGIC)
        self.driver = self._new_driver()
        self.alive = True
        logger.info(
            "GPU enclave up: device=%s enclave=%d tgmr_pages=%d lockdown=%s",
            self._gpu.bdf, self.enclave.enclave_id,
            len(self._sgx.hix.tgmr_entries),
            self._root_complex.lockdown_active_for(str(self._gpu.bdf)))
        return self

    @property
    def measurement(self) -> bytes:
        return self.enclave.measurement

    # --------------------------------------------------- session establishment

    def handle_hello(self, end: ChannelEnd) -> None:
        """Process a hello: verify the user's report, run the 3-party DH."""
        self._check_alive()
        hello = protocol.decode_message(self._receive(end, "hello"))
        report = _report_from_wire(hello["report"])
        # Local attestation: only a genuine enclave on this platform can
        # produce a report MACed for *our* measurement.
        verify_local_report(self._sgx, self.enclave.enclave_id, report)
        a_bytes = bytes.fromhex(hello["dh_a"])
        check_binding(report.report_data, a_bytes)
        a_value = dh_bytes_to_int(a_bytes)

        # Create this user's GPU context and run the GPU leg of the DH.
        ctx = self.driver.create_context(end.user_process)
        dh_e = DiffieHellman(seed=b"gpu-enclave-%d" % ctx.ctx_id)
        b_value = dh_e.raise_value(a_value)
        resp_va = self.driver.malloc(ctx, 512)
        self.driver.channel.submit([encode_command(
            CommandOpcode.KEY_EXCHANGE, ctx.ctx_id, (resp_va,),
            blob=int_to_dh_bytes(a_value) + int_to_dh_bytes(b_value))])
        reply_raw = self.driver.channel.aperture_read(
            self.driver.vram_pa_of(ctx, resp_va), 512)
        self.driver.free(ctx, resp_va, cleanse=True)
        c_value = dh_bytes_to_int(reply_raw[:256])    # g^g
        d_value = dh_bytes_to_int(reply_raw[256:])    # g^(ug)
        session_key = derive_key(dh_e.raise_value(d_value))
        e_value = dh_e.raise_value(c_value)           # g^(ge), for the user

        crypto = build_session_crypto(session_key, self._suite_name)
        crypto_module = self.driver.load_module(
            ctx, CubinImage(list(CRYPTO_KERNELS)), via_mmio=True)
        session = Session(session_id=end.user_process.pid, ctx=ctx, end=end,
                          user_measurement=report.measurement,
                          crypto=crypto, crypto_module=crypto_module)
        self._admit(session)
        logger.info("session %d established: user measurement %s..., ctx %d",
                    session.session_id, report.measurement.hex()[:16],
                    ctx.ctx_id)

        e_bytes = int_to_dh_bytes(e_value)
        reply_report = self._sgx.ereport(
            self.enclave.enclave_id, report.measurement,
            bind_report_data(e_bytes, a_bytes))
        self._send(end, "hello-ack", protocol.encode_message({
            "report": _report_to_wire(reply_report),
            "dh_e": e_bytes.hex(),
            "ctx_id": ctx.ctx_id,
        }))

    def _session_crypto(self, session: Session) -> SessionCrypto:
        return session.crypto

    # ----------------------------------------------- single-copy secure memcpy

    def _memcpy_htod_batch(self, session: Session, gpu_vas: list,
                           lengths: list, blob_len: int) -> dict:
        """Shared memory -> GPU (ciphertext), then in-GPU open (§4.4.2).

        One DMA and one kernel per frame: the frame in shared memory
        seals the concatenation of its items' chunks under one
        nonce/tag; the scatter kernel authenticates it once and
        distributes the plaintext chunks to their per-item destinations.
        """
        staging_va = self.driver.malloc(session.ctx, blob_len)
        self._dma_from_region(session, staging_va, blob_len)
        params = [DevPtr(staging_va), blob_len, len(gpu_vas)]
        for gpu_va, length in zip(gpu_vas, lengths):
            params.append(DevPtr(gpu_va))
            params.append(length)
        self.driver.launch(
            session.ctx, session.crypto_module, "hix.aead_decrypt_scatter",
            params, via_mmio=True)
        self.driver.free(session.ctx, staging_va)
        return {"ok": True, "plaintext_len": sum(lengths)}

    def _memcpy_dtoh_batch(self, session: Session, gpu_vas: list,
                           lengths: list) -> dict:
        """In-GPU gather-and-seal, then GPU -> shared memory (ciphertext)."""
        blob_len = sealed_size(sum(lengths))
        staging_va = self.driver.malloc(session.ctx, 8 + blob_len)
        params = [DevPtr(staging_va), len(gpu_vas)]
        for gpu_va, length in zip(gpu_vas, lengths):
            params.append(DevPtr(gpu_va))
            params.append(length)
        self.driver.launch(
            session.ctx, session.crypto_module, "hix.aead_encrypt_gather",
            params, via_mmio=True)
        self._dma_to_region(session, staging_va + 8, blob_len)
        self.driver.free(session.ctx, staging_va, cleanse=True)
        return {"ok": True, "blob_len": blob_len}

    # ------------------------------------------------------------- termination

    def graceful_shutdown(self) -> None:
        """Abort work, cleanse the GPU, return it to the OS (Section 4.2.3)."""
        super().graceful_shutdown()
        self._sgx.egdestroy(self.enclave.enclave_id)


# -- report (de)serialization over the untrusted channel ----------------------

def _report_to_wire(report) -> dict:
    return {
        "measurement": report.measurement.hex(),
        "enclave_id": report.enclave_id,
        "report_data": report.report_data.hex(),
        "is_gpu_enclave": report.is_gpu_enclave,
        "routing_measurement": report.routing_measurement.hex(),
        "mac": report.mac.hex(),
    }


def _report_from_wire(wire: dict):
    from repro.sgx.attestation import LocalReport
    try:
        return LocalReport(
            measurement=bytes.fromhex(wire["measurement"]),
            enclave_id=int(wire["enclave_id"]),
            report_data=bytes.fromhex(wire["report_data"]),
            is_gpu_enclave=bool(wire["is_gpu_enclave"]),
            routing_measurement=bytes.fromhex(wire["routing_measurement"]),
            mac=bytes.fromhex(wire["mac"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ProtocolError(f"malformed report on wire: {exc}") from exc
