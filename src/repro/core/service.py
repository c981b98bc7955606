"""The machine-side request loop shared by every TEE backend.

A backend's service is whatever answers a user's sealed requests: HIX's
GPU enclave (:mod:`repro.core.gpu_enclave`) or GPU-CC's untrusted
driver (:mod:`repro.backends.gpucc`).  Both run the same loop: take a
notification, open the sealed request, dispatch it to the Gdev-derived
driver, seal the reply.  Both move a bulk frame the same way, by DMA
between the shared region and a VRAM staging buffer that the device
opens or seals, and run the device's leg of the key exchange the same
way.  All three live here once.  A subclass supplies boot, the hello
handshake, how the device opens and seals a staged frame, where a
session's :class:`~repro.crypto.session.SessionCrypto` lives, and what
shutdown tears down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.core import protocol
from repro.core.channel import (
    BULK_OFFSET,
    ChannelEnd,
    MessageQueue,
    REGION_SIZE,
    REPLY_OFFSET,
    SharedMemoryRegion,
)
from repro.crypto.blob import open_blob, seal_blob, sealed_size
from repro.crypto.session import SessionCrypto
from repro.errors import DriverError, GpuUnavailable, ProtocolError
from repro.gdev.driver import GdevContextHandle, GdevDriver, GdevModule
from repro.gpu.commands import CommandOpcode, encode_command
from repro.gpu.device import SimGpu
from repro.gpu.module import CubinImage
from repro.gpu.regs import REG_RESET, RESET_MAGIC
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.pcie.root_complex import RootComplex


@dataclass
class ServiceSession:
    """Service-side state for one connected user."""

    session_id: int
    ctx: GdevContextHandle
    end: ChannelEnd
    modules: Dict[int, GdevModule] = field(init=False, default_factory=dict)
    module_ids: Iterator[int] = field(
        init=False, default_factory=lambda: itertools.count(1))
    closed: bool = field(init=False, default=False)


class SealedService:
    """One GPU's serving process and its request loop."""

    #: how user-facing errors name this service
    label = "?"
    #: does the service touch the shared region from enclave mode?
    enclave_mode = False
    #: are module images, launch parameters and the key-exchange reply
    #: moved over the trusted MMIO aperture (else by DMA)?
    via_mmio = False
    #: bytes the device writes ahead of a download's sealed frame in
    #: its staging buffer
    gather_prefix = 0

    def __init__(self, kernel: Kernel, root_complex: RootComplex,
                 gpu: SimGpu, suite_name: str) -> None:
        self._kernel = kernel
        self._root_complex = root_complex
        self._gpu = gpu
        self._suite_name = suite_name

        self.process: Optional[Process] = None
        self.driver: Optional[GdevDriver] = None
        self.sessions: Dict[int, ServiceSession] = {}
        self.alive = False
        self._regions = None

    @property
    def device(self) -> SimGpu:
        return self._gpu

    def _new_driver(self) -> GdevDriver:
        """Driver bookkeeping over the service's MMIO mappings."""
        return GdevDriver(self._kernel, self._root_complex, self._gpu,
                          process=self.process,
                          enclave_mode=self.enclave_mode,
                          regions=self._regions, costs=None)

    # ------------------------------------------------------- channel plumbing

    def open_channel(self, user_process: Process,
                     queue_depth: Optional[int] = None) -> ChannelEnd:
        """Provision the untrusted media for one user.

        *queue_depth* bounds both notification queues; a full queue
        raises :class:`~repro.errors.QueueFullError` on send, which the
        serving layer surfaces as backpressure.
        """
        region = SharedMemoryRegion(self._kernel, REGION_SIZE)
        region.attach(user_process)
        region.attach(self.process)
        return ChannelEnd(
            region=region,
            to_service=MessageQueue(f"to-service:{user_process.pid}",
                                    capacity=queue_depth),
            to_user=MessageQueue(f"to-user:{user_process.pid}",
                                 capacity=queue_depth),
            user_process=user_process,
        )

    def _check_alive(self) -> None:
        if not self.alive:
            raise GpuUnavailable(f"{self.label} is not running")

    def _receive(self, end: ChannelEnd, kind: str) -> bytes:
        """The payload of the next *kind* notification on *end*."""
        note = end.to_service.recv()
        if note.kind != kind:
            raise ProtocolError(f"expected {kind}, got {note.kind!r}")
        return end.region.read(self.process, note.offset, note.length,
                               enclave_mode=self.enclave_mode)

    def _send(self, end: ChannelEnd, kind: str, payload: bytes) -> None:
        end.region.write(self.process, REPLY_OFFSET, payload,
                         enclave_mode=self.enclave_mode)
        end.to_user.send(kind, REPLY_OFFSET, len(payload))

    def _admit(self, session: ServiceSession) -> None:
        self.sessions[session.session_id] = session
        session.end.session_id = session.session_id

    def _device_key_exchange(self, ctx: GdevContextHandle,
                             blob: bytes) -> bytes:
        """Run the device's leg of the key exchange for *ctx*.

        *blob* is the 512-byte ``KEY_EXCHANGE`` input; returns the
        device's 512-byte reply, read back over the trusted aperture or
        by DMA (:attr:`via_mmio`).
        """
        resp_va = self.driver.malloc(ctx, 512)
        self.driver.channel.submit([encode_command(
            CommandOpcode.KEY_EXCHANGE, ctx.ctx_id, (resp_va,), blob=blob)])
        if self.via_mmio:
            reply = self.driver.channel.aperture_read(
                self.driver.vram_pa_of(ctx, resp_va), 512)
        else:
            reply = self.driver.memcpy_d2h(ctx, resp_va, 512)
        self.driver.free(ctx, resp_va, cleanse=True)
        return reply

    # ----------------------------------------------------------- request loop

    def _session_crypto(self, session: ServiceSession) -> SessionCrypto:
        """Where this backend keeps the session's keys."""
        raise NotImplementedError

    def poll(self, end: ChannelEnd) -> None:
        """Serve one pending request notification on *end*."""
        self._check_alive()
        session = self.sessions.get(end.session_id)
        if session is None or session.closed:
            raise GpuUnavailable("no live session on this channel")
        sealed = self._receive(end, "request")
        # Pin the crypto up front: a ctx-destroy/shutdown request drops
        # the session, but its own acknowledgment must still seal.
        crypto = self._session_crypto(session)
        raw = open_blob(crypto.request_suite, sealed,
                        associated_data=protocol.REQUEST_AAD,
                        replay_guard=crypto.request_guard)
        request = protocol.decode_message(raw)
        try:
            op = protocol.check_request(request)
            result = self._dispatch(session, op, request)
        except DriverError as exc:
            # Request-level failures — unknown ops, allocation, bad
            # pointers, device faults — go back to the user as sealed
            # error replies (the session stays live); a forged or
            # replayed request raised above: that is an attack on the
            # channel, not a request to serve.
            result = protocol.error_reply(exc)
        self._send(end, "reply", seal_blob(
            crypto.reply_suite, crypto.reply_nonces,
            protocol.encode_message(result),
            associated_data=protocol.REPLY_AAD))

    def _dispatch(self, session: ServiceSession, op: str,
                  request: dict) -> dict:
        if op == protocol.OP_MALLOC:
            gpu_va = self.driver.malloc(session.ctx, int(request["nbytes"]))
            return {"ok": True, "gpu_va": gpu_va}
        if op == protocol.OP_FREE:
            # Freed device memory is cleansed before reuse (Section 4.5).
            self.driver.free(session.ctx, int(request["gpu_va"]), cleanse=True)
            return {"ok": True}
        if op in (protocol.OP_MEMCPY_HTOD_BATCH,
                  protocol.OP_MEMCPY_DTOH_BATCH):
            gpu_vas = [int(va) for va in request["gpu_vas"]]
            lengths = [int(n) for n in request["lengths"]]
            if len(gpu_vas) != len(lengths) or not gpu_vas:
                raise ProtocolError("batch gpu_vas/lengths tables do not match")
            if op == protocol.OP_MEMCPY_DTOH_BATCH:
                return self._memcpy_dtoh_batch(session, gpu_vas, lengths)
            return self._memcpy_htod_batch(session, gpu_vas, lengths,
                                           int(request["blob_len"]))
        if op == protocol.OP_MODULE_LOAD:
            module = self.driver.load_module(
                session.ctx, CubinImage([str(n) for n in request["kernels"]]),
                via_mmio=self.via_mmio)
            module_id = next(session.module_ids)
            session.modules[module_id] = module
            return {"ok": True, "module_id": module_id}
        if op == protocol.OP_LAUNCH_BATCH:
            launches = request["launches"]
            if not isinstance(launches, list) or not launches:
                raise ProtocolError("launch batch must be a non-empty list")
            return self._launch_batch(session, launches)
        if op == protocol.OP_CTX_DESTROY:
            self._close_session(session)
            return {"ok": True}
        if op == protocol.OP_SHUTDOWN:
            self.graceful_shutdown()
            return {"ok": True}
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def _launch_batch(self, session: ServiceSession, launches: list) -> dict:
        """Run the launches one sealed request announced, in order."""
        for item in launches:
            module = session.modules.get(int(item["module_id"]))
            if module is None:
                raise ProtocolError("launch references unknown module")
            self.driver.launch(
                session.ctx, module, str(item["kernel"]),
                protocol.decode_params(item["params"]),
                compute_seconds=float(item.get("compute_seconds", 0.0)),
                via_mmio=self.via_mmio)
        return {"ok": True}

    # ---------------------------------------------- single-copy secure memcpy

    def _memcpy_htod_batch(self, session: ServiceSession, gpu_vas: list,
                           lengths: list, blob_len: int) -> dict:
        """Shared memory -> VRAM staging (ciphertext), then device open.

        One DMA and one device-side open per frame (§4.4.2): the frame
        seals the concatenation of its items' chunks under one
        nonce/tag, so the device authenticates it once and distributes
        the plaintext chunks to their per-item destinations.  The
        staging buffer is freed whether or not the frame opens.
        """
        staging_va = self.driver.malloc(session.ctx, blob_len)
        try:
            self.driver.channel.submit([encode_command(
                CommandOpcode.MEMCPY_H2D, session.ctx.ctx_id,
                (session.end.region.paddr + BULK_OFFSET, staging_va,
                 blob_len))])
            self._open_staged(session, staging_va, blob_len, gpu_vas,
                              lengths)
        finally:
            self.driver.free(session.ctx, staging_va)
        return {"ok": True, "plaintext_len": sum(lengths)}

    def _memcpy_dtoh_batch(self, session: ServiceSession, gpu_vas: list,
                           lengths: list) -> dict:
        """Device gather-and-seal into VRAM staging, then staging ->
        shared memory (ciphertext); the staging buffer is cleansed and
        freed either way."""
        blob_len = sealed_size(sum(lengths))
        staging_va = self.driver.malloc(session.ctx,
                                        self.gather_prefix + blob_len)
        try:
            self._seal_staged(session, gpu_vas, lengths, staging_va)
            self.driver.channel.submit([encode_command(
                CommandOpcode.MEMCPY_D2H, session.ctx.ctx_id,
                (staging_va + self.gather_prefix,
                 session.end.region.paddr + BULK_OFFSET, blob_len))])
        finally:
            self.driver.free(session.ctx, staging_va, cleanse=True)
        return {"ok": True, "blob_len": blob_len}

    def _open_staged(self, session: ServiceSession, staging_va: int,
                     blob_len: int, gpu_vas: list, lengths: list) -> None:
        """Have the device open the frame at *staging_va* and scatter
        its chunks to *gpu_vas*."""
        raise NotImplementedError

    def _seal_staged(self, session: ServiceSession, gpu_vas: list,
                     lengths: list, staging_va: int) -> None:
        """Have the device gather *gpu_vas* and seal them as one frame
        at ``staging_va + gather_prefix``."""
        raise NotImplementedError

    # ------------------------------------------------------------- termination

    def _close_session(self, session: ServiceSession) -> None:
        self.driver.destroy_context(session.ctx, cleanse=True)
        session.closed = True
        self.sessions.pop(session.session_id, None)

    def graceful_shutdown(self) -> None:
        """Tell every session the GPU is gone, then scrub the device."""
        for session in list(self.sessions.values()):
            self._close_session(session)
            session.end.to_user.send("gpu-untrusted", 0, 0)
        self.driver.channel.reg_write(REG_RESET, RESET_MAGIC)
        self.alive = False
