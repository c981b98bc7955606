"""The simulated GPU device (PCIe endpoint).

Wiring (paper Figure 2): BAR0 carries control registers and the command
FIFO, BAR1 is a sliding aperture into VRAM, the expansion ROM holds the
GPU BIOS, and the copy engine issues DMA upstream through the (untrusted)
IOMMU.  Command execution is synchronous with the doorbell write, which
matches the Gdev prototype's MMIO-polling synchronization.

The device also implements the GPU's role in the sealed session: it
participates in the Diffie-Hellman exchange (KEY_EXCHANGE command),
keeps one session per context (:attr:`GpuContext.crypto`), and opens
and seals bulk frames in VRAM with it — from HIX's ``hix.*`` crypto
kernels or, in confidential-computing mode, from GPU-CC's on-die engine
path.  A failed integrity check during a crypto kernel is recorded as a
*device fault* the driver observes when it polls — the abort behaviour
Section 5.5's DMA-attack analysis requires.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.crypto.blob import open_blob_chunks, seal_blob_chunks
from repro.crypto.dh import DiffieHellman
from repro.crypto.session import SessionCrypto, build_session_crypto, bulk_aad
from repro.errors import (
    CryptoError,
    DriverError,
    PageFault,
    ProtocolError,
    UnsupportedRequest,
)
from repro.gpu import regs
from repro.gpu.bios import build_bios_image
from repro.gpu.commands import Command, CommandOpcode, decode_commands
from repro.gpu.context import GpuContext
from repro.gpu.kernels import KernelRegistry, global_registry
from repro.gpu.module import CubinImage, unpack_params
from repro.hw.phys_mem import PhysicalMemory, byte_view
from repro.pcie.config_space import Bar, CLASS_DISPLAY_VGA
from repro.pcie.device import Bdf, PcieFunction

VENDOR_NVIDIA = 0x10DE
DEVICE_GTX580 = 0x1080


class SimGpu(PcieFunction):
    """Fermi-class GPU endpoint with 1.5 GB of (sparse) device memory."""

    rom_size = regs.ROM_SIZE

    def __init__(self, bdf: Bdf, vram_size: int, clock=None, costs=None,
                 suite_name: str = "fast-auth",
                 registry: Optional[KernelRegistry] = None,
                 device_secret: bytes = b"gtx580-device-secret",
                 vendor_id: int = VENDOR_NVIDIA,
                 device_id: int = DEVICE_GTX580,
                 class_code: int = CLASS_DISPLAY_VGA) -> None:
        super().__init__(bdf, vendor_id, device_id, class_code)
        self.config.add_bar(Bar(index=0, size=regs.BAR0_SIZE))
        self.config.add_bar(Bar(index=1, size=regs.BAR1_SIZE, prefetchable=True))
        self.vram_size = vram_size
        self.vram = PhysicalMemory(vram_size)
        self._clock = clock
        self._costs = costs
        self._suite_name = suite_name
        self._registry = registry or global_registry()
        self._device_secret = device_secret
        self._bios = build_bios_image(device_id)
        self._dma = None
        #: The requester id every DMA hop presents, formatted once.
        self._dma_requester = str(bdf)
        # Confidential-computing mode (GPU-CC backend).  Once enabled the
        # on-die firewall refuses the BAR1 VRAM aperture entirely — host
        # software, privileged or not, can only move data via DMA of
        # sealed blobs.  Sticky across REG_RESET: CC mode survives a
        # device reset, like the mode bit on real parts, and is only
        # dropped by a machine cold boot (:meth:`Machine.cold_boot`).
        self.cc_mode = False

        self.contexts: Dict[int, GpuContext] = {}
        self._engine_ctx: Optional[int] = None  # context resident on the engine
        self._fifo = bytearray(regs.FIFO_SIZE)
        self._aperture_base = 0
        self._retired = 0
        self._faults: List[str] = []
        self.reset_count = 0
        self.context_switches = 0
        #: KEY_EXCHANGE commands run over the device's life; neither a
        #: reset nor a cold boot clears it (see :meth:`_device_dh`).
        self.key_exchanges = 0

    # -- wiring -----------------------------------------------------------------

    def connect_dma(self, dma_engine) -> None:
        """Attach the machine's DMA engine (upstream host-memory path)."""
        self._dma = dma_engine

    def _charge(self, seconds: float, category: str) -> None:
        if self._clock is not None:
            self._clock.advance(seconds, category)

    # -- BIOS --------------------------------------------------------------------

    @property
    def bios_image(self) -> bytes:
        return self._bios

    def flash_bios(self, image: bytes) -> None:
        """Replace the VBIOS (models a pre-boot/adversarial reflash)."""
        if len(image) != regs.ROM_SIZE:
            raise ValueError("BIOS image must match the ROM aperture size")
        self._bios = image

    def expansion_rom_read(self, offset: int, length: int) -> bytes:
        return self._bios[offset:offset + length]

    # -- BAR behaviour --------------------------------------------------------------

    def bar_read(self, bar_index: int, offset: int, length: int) -> bytes:
        if bar_index == 0:
            return self._bar0_read(offset, length)
        if bar_index == 1:
            self._check_firewall()
            return self.vram.read(self._aperture_base + offset, length)
        raise UnsupportedRequest(f"GPU has no BAR{bar_index}")

    def bar_write(self, bar_index: int, offset: int, data: bytes) -> None:
        if bar_index == 0:
            self._bar0_write(offset, data)
            return
        if bar_index == 1:
            self._check_firewall()
            self.vram.write(self._aperture_base + offset, data)
            return
        raise UnsupportedRequest(f"GPU has no BAR{bar_index}")

    def _check_firewall(self) -> None:
        """The CC firewall refuses every host access to the BAR1 aperture."""
        if self.cc_mode:
            raise UnsupportedRequest(
                "CC firewall: VRAM aperture (BAR1) is disabled in "
                "confidential-computing mode")

    def enable_cc(self) -> None:
        """Enter confidential-computing mode (GPU-CC backend boot)."""
        self.cc_mode = True

    def _bar0_read(self, offset: int, length: int) -> bytes:
        if offset >= regs.FIFO_OFFSET:
            start = offset - regs.FIFO_OFFSET
            return bytes(self._fifo[start:start + length])
        value = {
            regs.REG_ID: (self.config.vendor_id << 16) | self.config.device_id,
            regs.REG_STATUS: regs.STATUS_IDLE if not self._faults else 2,
            regs.REG_APERTURE_BASE: self._aperture_base & 0xFFFFFFFF,
            regs.REG_FIFO_STATUS: self._retired,
            regs.REG_VRAM_SIZE: self.vram_size & 0xFFFFFFFF,
            regs.REG_VRAM_SIZE_HI: self.vram_size >> 32,
        }.get(offset, 0)
        return value.to_bytes(max(length, 4), "little")[:length]

    def _bar0_write(self, offset: int, data: bytes) -> None:
        if offset >= regs.FIFO_OFFSET:
            start = offset - regs.FIFO_OFFSET
            view = byte_view(data)
            if start + view.nbytes > regs.FIFO_SIZE:
                raise UnsupportedRequest("FIFO write overruns the window")
            memoryview(self._fifo)[start:start + view.nbytes] = view
            return
        value = int.from_bytes(data[:8], "little")
        if offset == regs.REG_RESET:
            if value == regs.RESET_MAGIC:
                self.reset()
            return
        if offset == regs.REG_APERTURE_BASE:
            if value % 4096 or value >= self.vram_size:
                raise UnsupportedRequest(
                    f"aperture base {value:#x} invalid for VRAM of "
                    f"{self.vram_size:#x}")
            self._aperture_base = value
            return
        if offset == regs.REG_DOORBELL:
            self._execute_batch(value)
            return
        # Other registers: ignore writes (reserved), like real hardware.

    # -- faults -------------------------------------------------------------------

    @property
    def faulted(self) -> bool:
        return bool(self._faults)

    def pop_fault(self) -> Optional[str]:
        return self._faults.pop(0) if self._faults else None

    # -- reset (Section 4.2.2: enclave init cleanses device state) -----------------

    def reset(self) -> None:
        self.vram = PhysicalMemory(self.vram_size)
        self.contexts.clear()
        self._engine_ctx = None
        self._fifo = bytearray(regs.FIFO_SIZE)
        self._aperture_base = 0
        self._faults.clear()
        self.reset_count += 1

    # -- command execution -----------------------------------------------------------

    def _execute_batch(self, length: int) -> None:
        if not 0 < length <= regs.FIFO_SIZE:
            self._faults.append(f"doorbell with bad batch length {length}")
            return
        try:
            commands = decode_commands(bytes(self._fifo[:length]))
        except ProtocolError as exc:
            self._faults.append(f"command decode: {exc}")
            return
        for command in commands:
            try:
                self._execute(command)
                self._retired += 1
            except (CryptoError, ProtocolError, PageFault, DriverError,
                    KeyError, ValueError) as exc:
                self._faults.append(
                    f"{command.opcode.name} in ctx {command.ctx_id}: {exc}")
                break

    def context(self, ctx_id: int) -> GpuContext:
        try:
            return self.contexts[ctx_id]
        except KeyError:
            raise ProtocolError(f"no GPU context {ctx_id}") from None

    def _execute(self, command: Command) -> None:
        op = command.opcode
        if op is CommandOpcode.CTX_CREATE:
            if command.ctx_id in self.contexts:
                raise ProtocolError(f"context {command.ctx_id} exists")
            self.contexts[command.ctx_id] = GpuContext(ctx_id=command.ctx_id)
            return
        if op is CommandOpcode.CTX_DESTROY:
            self.contexts.pop(command.ctx_id, None)
            if self._engine_ctx == command.ctx_id:
                self._engine_ctx = None
            return

        ctx = self.context(command.ctx_id)
        if op is CommandOpcode.MAP:
            gpu_va, vram_pa, nbytes = command.args
            ctx.page_table.map_range(gpu_va, vram_pa, nbytes)
        elif op is CommandOpcode.UNMAP:
            gpu_va, nbytes = command.args
            ctx.page_table.unmap_range(gpu_va, nbytes)
        elif op is CommandOpcode.MEMCPY_H2D:
            host_addr, gpu_va, nbytes = command.args
            self._dma_h2d(ctx, host_addr, gpu_va, nbytes)
        elif op is CommandOpcode.MEMCPY_D2H:
            gpu_va, host_addr, nbytes = command.args
            self._dma_d2h(ctx, gpu_va, host_addr, nbytes)
        elif op is CommandOpcode.LAUNCH:
            self._launch(ctx, command.args)
        elif op is CommandOpcode.MEM_CLEANSE:
            gpu_va, nbytes = command.args
            self.zero_ctx(ctx, gpu_va, nbytes)
            if self._costs is not None:
                self._charge(self._costs.cleanse_time(nbytes), "gpu_cleanse")
        elif op is CommandOpcode.KEY_EXCHANGE:
            (resp_va,) = command.args
            self._key_exchange(ctx, resp_va, command.blob)
        elif op is CommandOpcode.FENCE:
            pass
        else:  # pragma: no cover - decode_commands already filters opcodes
            raise ProtocolError(f"unhandled opcode {op}")

    # -- context-relative memory (what kernels and the copy engine use) --------------

    def read_ctx(self, ctx: GpuContext, gpu_va: int, nbytes: int) -> bytes:
        # A range contiguous in VRAM (the common case) is one piece, read
        # with one copy; join returns a lone piece as it is.
        read = self.vram.read
        return b"".join([read(vram_pa, chunk) for vram_pa, chunk
                         in ctx.page_table.translate_range(gpu_va, nbytes)])

    def write_ctx(self, ctx: GpuContext, gpu_va: int, data) -> None:
        view = byte_view(data)
        offset = 0
        for vram_pa, chunk in ctx.page_table.translate_range(gpu_va,
                                                             view.nbytes):
            self.vram.write(vram_pa, view[offset:offset + chunk])
            offset += chunk

    def zero_ctx(self, ctx: GpuContext, gpu_va: int, nbytes: int) -> None:
        """Cleanse a context range without materializing VRAM pages."""
        for vram_pa, chunk in ctx.page_table.translate_range(gpu_va, nbytes):
            self.vram.zero(vram_pa, chunk)

    # -- sealed frames in VRAM (both backends' device-side AEAD) -----------------------

    def _session(self, ctx: GpuContext) -> SessionCrypto:
        if ctx.crypto is None:
            raise CryptoError(f"context {ctx.ctx_id} has no session key")
        return ctx.crypto

    def _bulk_aad(self, ctx: GpuContext) -> bytes:
        return bulk_aad("gpucc" if self.cc_mode else "hix", ctx.ctx_id)

    def open_scatter(self, ctx: GpuContext, src_va: int, src_len: int,
                     gpu_vas: Sequence[int], lengths: Sequence[int]) -> None:
        """Open the sealed frame at *src_va* and scatter its chunks.

        The frame seals the concatenation of ``len(lengths)`` chunks
        under one nonce and tag with the context's session: one
        freshness check, one authentication and one decryption pass
        serve the whole transfer, then chunk *i* is written at
        ``gpu_vas[i]``.  Tag and replay failures raise before anything
        is written.  The frame is read as VRAM views, copied once by the open.
        """
        crypto = self._session(ctx)
        frame = [piece for vram_pa, chunk
                 in ctx.page_table.translate_range(src_va, src_len)
                 for piece in self.vram.views(vram_pa, chunk)]
        chunks = open_blob_chunks(crypto.bulk_suite, frame, lengths,
                                  associated_data=self._bulk_aad(ctx),
                                  replay_guard=crypto.bulk_h2d_guard)
        for gpu_va, chunk in zip(gpu_vas, chunks):
            self.write_ctx(ctx, gpu_va, chunk)

    def seal_gather(self, ctx: GpuContext, gpu_vas: Sequence[int],
                    lengths: Sequence[int], dst_va: int) -> None:
        """Gather ``lengths[i]`` bytes from each ``gpu_vas[i]`` and write
        them at *dst_va* as one frame sealed with the context's session
        (one nonce, one tag)."""
        crypto = self._session(ctx)
        chunks = [self.read_ctx(ctx, gpu_va, nbytes)
                  for gpu_va, nbytes in zip(gpu_vas, lengths)]
        self.write_ctx(ctx, dst_va, seal_blob_chunks(
            crypto.bulk_suite, crypto.bulk_d2h_nonces, chunks,
            associated_data=self._bulk_aad(ctx)))

    # -- copy engine ------------------------------------------------------------------

    def _require_dma(self):
        if self._dma is None:
            raise DriverError("GPU copy engine not connected to host DMA")
        return self._dma

    def _dma_h2d(self, ctx: GpuContext, host_addr: int, gpu_va: int,
                 nbytes: int) -> None:
        data = self._require_dma().read_host(self._dma_requester, host_addr,
                                             nbytes)
        self.write_ctx(ctx, gpu_va, data)

    def _dma_d2h(self, ctx: GpuContext, gpu_va: int, host_addr: int,
                 nbytes: int) -> None:
        data = self.read_ctx(ctx, gpu_va, nbytes)
        self._require_dma().write_host(self._dma_requester, host_addr, data)

    # -- kernel launch -------------------------------------------------------------------

    def _launch(self, ctx: GpuContext, args) -> None:
        cubin_va, cubin_len, kernel_index, param_va, param_len, cost_ns = args
        if self._engine_ctx != ctx.ctx_id:
            if self._engine_ctx is not None:
                self.context_switches += 1
                if self._costs is not None:
                    self._charge(self._costs.gpu_context_switch, "gpu_ctx_switch")
            self._engine_ctx = ctx.ctx_id
        # The module image is re-read from device memory on every launch:
        # code integrity depends on those bytes, not on driver-side state.
        image = CubinImage.from_bytes(self.read_ctx(ctx, cubin_va, cubin_len))
        name = image.kernel_at(kernel_index)
        spec = self._registry.lookup(name)
        params = unpack_params(self.read_ctx(ctx, param_va, param_len))
        if self._costs is not None:
            self._charge(self._costs.gpu_kernel_dispatch, "gpu_dispatch")
            self._charge(cost_ns * 1e-9, "gpu_compute")
        spec.fn(self, ctx, params)
        ctx.kernels_launched += 1

    # -- session keys (the GPU's role in the DH exchange, Section 4.4.1) ------------------

    def _device_dh(self) -> DiffieHellman:
        """The device's party for one exchange, fresh every time.

        The seed counts :attr:`key_exchanges`, which neither a reset nor
        a cold boot clears, so a tenant that re-attests after a power
        cycle never gets back a key it held before.
        """
        self.key_exchanges += 1
        return DiffieHellman(seed=self._device_secret
                             + self.key_exchanges.to_bytes(8, "big"))

    def _key_exchange(self, ctx: GpuContext, resp_va: int, blob: bytes) -> None:
        """Blob: 256-byte A = [u]9 || 256-byte B = [ue]9.

        Values are X25519 u-coordinates in 256-byte big-endian fields;
        [k]P is the scalar multiplication X25519(k, P).  The GPU derives
        the session key from [g]B, expands it into the context's
        session, and replies (written to *resp_va* in device memory)
        with C = [g]9 || [g]A, from which the GPU enclave and user
        enclave complete their copies of [uge]9.

        A context's session is set once: under GPU-CC the untrusted
        driver (or the OS, through BAR0) could otherwise replay the
        plaintext hello's A on a live context and swap its session.
        """
        if ctx.crypto is not None:
            raise ProtocolError(
                f"context {ctx.ctx_id} already holds a session")
        if len(blob) != 512:
            raise ProtocolError("KEY_EXCHANGE blob must be 512 bytes")
        a_value = int.from_bytes(blob[:256], "big")
        b_value = int.from_bytes(blob[256:], "big")
        dh = self._device_dh()
        session_key = dh.shared_secret(b_value)[:16]
        if self.cc_mode:
            # Two-party exchange (GPU-CC): the reply carries only the
            # device's public value C = [g]9.  The [g]A half would let the
            # untrusted driver that relays the reply derive the session
            # key, so the engine never emits it in CC mode.
            reply = dh.public_value.to_bytes(256, "big") + bytes(256)
        else:
            reply = (dh.public_value.to_bytes(256, "big")
                     + dh.raise_value(a_value).to_bytes(256, "big"))
        self.write_ctx(ctx, resp_va, reply)
        # Set only once the reply is out: a faulted exchange leaves none.
        ctx.crypto = build_session_crypto(session_key, self._suite_name)
