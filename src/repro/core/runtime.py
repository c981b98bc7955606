"""Trusted user runtime library (paper Section 4.4).

"HIX provides the trusted user runtime library for applications, which
runs in each application enclave.  This library consists of GPU APIs
such as memory copy or GPU kernel launch operation, the security module
containing key initialization and user data encryption, and the
communication module for data transfers."

:class:`SealedClient` is that runtime for every TEE backend.  It exposes
the same CUDA-driver-API facade as the baseline
:class:`~repro.gdev.api.GdevApi`, so application code runs unchanged on
any stack.  Internally every operation crosses the untrusted channel as
a sealed request, bulk data takes the single-copy pipelined path of
Section 4.4.2, and simulated time is charged analytically from the
backend's cost terms (:class:`~repro.backends.base.TeeBackend`:
pipelined encrypt-transfer overlap, device-side crypto, message-queue
hops), matching the prototype's measurement decomposition.  A backend's
client adds only its names and its attested handshake: :class:`HixApi`
here, :class:`~repro.backends.gpucc.GpuCcApi` for GPU-CC.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import protocol
from repro.core.channel import BULK_OFFSET, ChannelEnd, REQUEST_OFFSET
from repro.core.gpu_enclave import (
    GpuEnclaveService,
    _report_from_wire,
    _report_to_wire,
)
from repro.core.key_exchange import (
    DiffieHellman,
    bind_report_data,
    check_binding,
    derive_key,
    dh_bytes_to_int,
    int_to_dh_bytes,
)
from repro.crypto.blob import (
    HEADER_LEN,
    open_blob,
    open_blob_chunks,
    seal_blob,
    seal_blob_chunks,
    sealed_size,
)
from repro.crypto.session import SessionCrypto, build_session_crypto, bulk_aad
from repro.errors import (
    AttestationError,
    CertChainError,
    DriverError,
    ProtocolError,
    RequestRejected,
)
from repro.gpu.module import DevPtr, ParamValue
from repro.hw.phys_mem import byte_view
from repro.obs.audit import audit_log
from repro.obs.tracer import traced
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.sgx.attestation import verify_local_report
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.pipeline import pipelined_time

HostBuffer = Union[bytes, bytearray, np.ndarray]


def _as_buffer(data: HostBuffer) -> memoryview:
    """A flat byte view of the caller's buffer — zero-copy when possible.

    C-contiguous numpy arrays and bytes-like objects are viewed in
    place; only non-contiguous arrays pay a copy.  The view is always
    unsigned bytes, so it can be copied into a frame by slice assignment.
    """
    if isinstance(data, np.ndarray) and not data.flags.c_contiguous:
        data = np.ascontiguousarray(data)
    return byte_view(data)


class HixModuleHandle:
    """Client-side handle to a module resident in the user's GPU context."""

    def __init__(self, module_id: int, kernel_names: Sequence[str]) -> None:
        self.module_id = module_id
        self.kernel_names = list(kernel_names)


class SealedClient:
    """The trusted user runtime: CUDA-like API over the sealed channel.

    A backend's subclass sets :attr:`name` (its cost terms, span and
    audit prefix, and bulk AAD label), :attr:`enclave_mode` and the
    audit details, and implements :meth:`_handshake`.
    """

    secure = True
    #: the backend this runtime belongs to (:mod:`repro.backends`)
    name = "?"
    #: does the runtime access the shared region from enclave mode?
    enclave_mode = False
    #: audit-log details recorded for a verified session
    attestation_detail = "?"
    key_exchange_detail = "?"

    def __init__(self, kernel: Kernel, process: Process, service,
                 clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 suite_name: str = "fast-auth",
                 channel_queue_depth: Optional[int] = None) -> None:
        # Deferred: importing the backends package imports this module.
        from repro.backends import get_backend

        self._kernel = kernel
        self._process = process
        self._service = service
        self._clock = clock
        self._costs = costs
        self._backend = get_backend(self.name)
        self._suite_name = suite_name
        self._channel_queue_depth = channel_queue_depth
        self._end: Optional[ChannelEnd] = None
        self._crypto: Optional[SessionCrypto] = None
        self._ctx_id: Optional[int] = None
        self._bulk_ad: Optional[bytes] = None  # built once per session
        self.user_enclave = getattr(process, "enclave", None)

    def _charge(self, seconds: float, category: str) -> None:
        if self._clock is not None and seconds > 0.0:
            self._clock.advance(seconds, category)

    # -- lifecycle ------------------------------------------------------------------

    def __enter__(self) -> "SealedClient":
        """Context-manager form: attested session in, teardown on exit."""
        if self._end is None:
            self.cuCtxCreate()
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.cuCtxDestroy()
        except DriverError:
            # The service may already be gone (e.g. graceful shutdown).
            pass

    @traced("cuCtxCreate", attrs=lambda self: {"pid": self._process.pid})
    def cuCtxCreate(self) -> "SealedClient":
        """Attested session setup and key exchange (Section 4.4.1).

        The security evidence goes on the audit log: the attestation
        verdict — including which stage failed, a device cert chain or
        the peer's report — and the key exchange.
        """
        if self._end is not None:
            raise DriverError("context already created")
        log = audit_log()
        subject = self._process.name
        now = self._clock.now if self._clock is not None else 0.0
        if self._costs is not None:
            task_init, session_setup = self._backend.session_costs(
                self._costs)
            self._charge(task_init, "task_init")
            self._charge(session_setup, "session_setup")
        end = self._service.open_channel(
            self._process, queue_depth=self._channel_queue_depth)
        try:
            session_key, ctx_id = self._handshake(end)
        except AttestationError as exc:
            cause = ("cert_chain" if isinstance(exc, CertChainError)
                     else "report")
            log.record(f"{self.name}.attestation", subject, time=now,
                       ok=False, detail=str(exc), cause=cause,
                       backend=self.name)
            raise
        self._crypto = build_session_crypto(session_key, self._suite_name)
        self._ctx_id = ctx_id
        self._bulk_ad = bulk_aad(self.name, ctx_id)
        self._end = end
        now = self._clock.now if self._clock is not None else now
        log.record(f"{self.name}.attestation", subject, time=now,
                   detail=self.attestation_detail, backend=self.name)
        log.record(f"{self.name}.key_exchange", subject, time=now,
                   detail=self.key_exchange_detail, backend=self.name,
                   ctx_id=ctx_id)
        return self

    def _handshake(self, end: ChannelEnd) -> Tuple[bytes, int]:
        """Attest the service over *end* and agree a key.

        Returns ``(session key, GPU context id)``.
        """
        raise NotImplementedError

    def _hello(self, end: ChannelEnd, message: dict) -> dict:
        """Send the plaintext hello; return the service's decoded ack."""
        hello = protocol.encode_message(message)
        end.region.write(self._process, REQUEST_OFFSET, hello,
                         enclave_mode=self.enclave_mode)
        end.to_service.send("hello", REQUEST_OFFSET, len(hello))
        self._service.handle_hello(end)
        note = end.to_user.recv()
        if note.kind != "hello-ack":
            raise ProtocolError(f"expected hello-ack, got {note.kind!r}")
        return protocol.decode_message(end.region.read(
            self._process, note.offset, note.length,
            enclave_mode=self.enclave_mode))

    @traced("cuCtxDestroy", attrs=lambda self: {"ctx_id": self._ctx_id})
    def cuCtxDestroy(self) -> None:
        if self._end is None:
            return
        self._request({"op": protocol.OP_CTX_DESTROY})
        self._end = None
        self._crypto = None
        self._ctx_id = None
        self._bulk_ad = None

    @property
    def ctx_id(self) -> int:
        if self._ctx_id is None:
            raise DriverError("no current context (call cuCtxCreate)")
        return self._ctx_id

    # -- sealed request/reply -----------------------------------------------------------

    def _request(self, payload: dict) -> dict:
        if self._end is None or self._crypto is None:
            raise DriverError("no current context (call cuCtxCreate)")
        if self._costs is not None:
            self._charge(self._backend.rpc_round_trip(self._costs), "ipc")
        sealed = seal_blob(self._crypto.request_suite,
                           self._crypto.request_nonces,
                           protocol.encode_message(payload),
                           associated_data=protocol.REQUEST_AAD)
        self._end.region.write(self._process, REQUEST_OFFSET, sealed,
                               enclave_mode=self.enclave_mode)
        self._end.to_service.send("request", REQUEST_OFFSET, len(sealed))
        self._service.poll(self._end)
        note = self._end.to_user.recv()
        if note.kind == "gpu-untrusted":
            raise DriverError(
                f"{self._service.label} terminated; GPU no longer trusted")
        raw = self._end.region.read(self._process, note.offset, note.length,
                                    enclave_mode=self.enclave_mode)
        reply = protocol.decode_message(open_blob(
            self._crypto.reply_suite, raw,
            associated_data=protocol.REPLY_AAD,
            replay_guard=self._crypto.reply_guard))
        if not reply.get("ok"):
            raise RequestRejected(
                f"{self._service.label} rejected request: {reply!r}",
                code=str(reply.get("code", protocol.ERR_DRIVER)))
        return reply

    # -- memory ---------------------------------------------------------------------------

    def cuMemAlloc(self, nbytes: int) -> DevPtr:
        reply = self._request({"op": protocol.OP_MALLOC, "nbytes": nbytes})
        return DevPtr(int(reply["gpu_va"]))

    def cuMemFree(self, dptr: DevPtr) -> None:
        self._request({"op": protocol.OP_FREE, "gpu_va": dptr.addr})

    def _put_bulk(self, sealed: bytes) -> None:
        self._end.region.write(self._process, BULK_OFFSET, sealed,
                               enclave_mode=self.enclave_mode)

    def _get_bulk(self, reply: dict, nbytes: int) -> bytes:
        """The sealed blob the service left for *nbytes* of plaintext."""
        blob_len = int(reply["blob_len"])
        if blob_len != sealed_size(nbytes):
            raise ProtocolError("unexpected sealed blob size")
        return self._end.region.read(self._process, BULK_OFFSET, blob_len,
                                     enclave_mode=self.enclave_mode)

    def _frames(self, sizes: Sequence[int]) -> Tuple[list, int]:
        """Pack transfers of *sizes* bytes, in order, into bulk frames.

        Consecutive items share a frame while they fit the shared
        region's bulk area; an item larger than one frame goes out in
        frame-sized pieces, one frame each.  Returns the frames, each a
        list of ``(item index, offset, nbytes)`` pieces, and how many
        items paid their RPC through their own requests: the first item
        of each frame, once per item however many frames it spans.
        """
        limit = self._end.region.bulk_capacity - HEADER_LEN
        frames: list = []
        frame: list = []
        frame_bytes = 0
        paid = 0
        for index, nbytes in enumerate(sizes):
            if frame and frame_bytes + nbytes > limit:
                frames.append(frame)
                frame, frame_bytes = [], 0
            if not frame:
                paid += 1
            if nbytes <= limit:
                frame.append((index, 0, nbytes))
                frame_bytes += nbytes
                continue
            frames.extend([(index, offset, min(limit, nbytes - offset))]
                          for offset in range(0, nbytes, limit))
        if frame:
            frames.append(frame)
        return frames, paid

    def _charge_copies(self, sizes: Sequence[int], paid: int,
                       upload: bool) -> None:
        """Analytic time of sealed transfers of *sizes* bytes each.

        Charged per item, however the items were framed: the backend's
        copy pipeline (Section 5.2: encrypt overlapping transfer), its
        request overhead and its device-side crypto pass.  *paid* items
        already paid an RPC per request of theirs in :meth:`_request`
        (an item split over k frames paid k); the remaining items are
        topped up to one RPC each.
        """
        costs, backend = self._costs, self._backend
        if costs is None or not sizes:
            return
        category = "copy_h2d" if upload else "copy_d2h"
        bandwidths, latencies = (backend.h2d_stages(costs) if upload
                                 else backend.d2h_stages(costs))
        modeled = [costs.scaled(n) for n in sizes]
        for _ in range(len(sizes) - paid):
            self._charge(backend.rpc_round_trip(costs), "ipc")
        overhead = backend.request_overhead(costs)
        crypto_latency, crypto_bandwidth = backend.device_crypto(costs)
        for scaled in modeled:
            seconds = pipelined_time(scaled, bandwidths,
                                     costs.pipeline_chunk_bytes,
                                     stage_latencies=latencies)
            crypto = crypto_latency + scaled / crypto_bandwidth
            self._charge(overhead, "ipc")
            # The device opens an upload after the copy and seals a
            # download before it.
            if upload:
                self._charge(seconds, category)
                self._charge(crypto, "crypto_gpu")
            else:
                self._charge(crypto, "crypto_gpu")
                self._charge(seconds, category)

    @traced("cuMemcpyHtoD", attrs=lambda self, dptr, data: {
        "ctx_id": self._ctx_id, "bytes": _as_buffer(data).nbytes})
    def cuMemcpyHtoD(self, dptr: DevPtr, data: HostBuffer) -> None:
        """Single-copy secure host-to-device transfer (Section 4.4.2/4.4.3).

        A one-item :meth:`cuMemcpyHtoDBatch`: seal inside the user's
        TEE, place the ciphertext in the shared region, and have the
        service move it into device memory, where the device-side AEAD
        opens it.  The source is sealed in place through memoryviews
        (no slice copies).
        """
        self._cuMemcpyHtoDBatch([(dptr, data)])

    @traced("cuMemcpyDtoH", attrs=lambda self, dptr, nbytes: {
        "ctx_id": self._ctx_id, "bytes": nbytes})
    def cuMemcpyDtoH(self, dptr: DevPtr, nbytes: int) -> bytes:
        """Single-copy secure device-to-host transfer: a one-item
        :meth:`cuMemcpyDtoHBatch`."""
        return self._cuMemcpyDtoHBatch([(dptr, nbytes)])[0]

    # -- batched transfers --------------------------------------------------------------------

    @traced("cuMemcpyHtoDBatch", attrs=lambda self, items: {
        "ctx_id": self._ctx_id, "items": len(items)})
    def cuMemcpyHtoDBatch(self, items: Sequence) -> None:
        """Batched uploads: ``items`` is ``[(DevPtr, data), ...]``.

        Consecutive items are greedily packed into fused frames bounded
        by the shared region's bulk capacity; each frame is sealed with
        ONE AEAD call and crosses the channel as ONE sealed request, and
        the device authenticates it once before scattering the chunks.
        Simulated time is still charged *per item*, exactly as the
        equivalent sequence of :meth:`cuMemcpyHtoD` calls would charge
        it — batching changes the real execution, never the virtual
        timeline.  An item larger than one frame is split into
        frame-sized pieces, one frame each.
        """
        self._cuMemcpyHtoDBatch(items)

    def _cuMemcpyHtoDBatch(self, items: Sequence) -> None:
        raws = [_as_buffer(data) for _, data in items]
        sizes = [raw.nbytes for raw in raws]
        frames, paid = self._frames(sizes)
        for frame in frames:
            sealed = seal_blob_chunks(
                self._crypto.bulk_suite, self._crypto.bulk_h2d_nonces,
                [raws[index][offset:offset + nbytes]
                 for index, offset, nbytes in frame],
                associated_data=self._bulk_ad)
            self._put_bulk(sealed)
            self._request({"op": protocol.OP_MEMCPY_HTOD_BATCH,
                           "gpu_vas": [items[index][0].addr + offset
                                       for index, offset, _ in frame],
                           "lengths": [nbytes for _, _, nbytes in frame],
                           "blob_len": len(sealed)})
        self._charge_copies(sizes, paid, upload=True)

    @traced("cuMemcpyDtoHBatch", attrs=lambda self, items: {
        "ctx_id": self._ctx_id, "items": len(items)})
    def cuMemcpyDtoHBatch(self, items: Sequence) -> list:
        """Batched downloads: ``items`` is ``[(DevPtr, nbytes), ...]``.

        Mirrors :meth:`cuMemcpyHtoDBatch`: the device gathers and seals
        each fused frame once, one sealed request per frame crosses the
        channel, and the runtime opens each frame with one AEAD call
        before splitting it back into per-item results (returned in
        submission order).  Per-item virtual time matches the equivalent
        scalar :meth:`cuMemcpyDtoH` sequence.
        """
        return self._cuMemcpyDtoHBatch(items)

    def _cuMemcpyDtoHBatch(self, items: Sequence) -> list:
        sizes = [int(nbytes) for _, nbytes in items]
        frames, paid = self._frames(sizes)
        parts: list = [[] for _ in items]
        for frame in frames:
            lengths = [nbytes for _, _, nbytes in frame]
            reply = self._request({"op": protocol.OP_MEMCPY_DTOH_BATCH,
                                   "gpu_vas": [items[index][0].addr + offset
                                               for index, offset, _ in frame],
                                   "lengths": lengths})
            chunks = open_blob_chunks(
                self._crypto.bulk_suite,
                self._get_bulk(reply, sum(lengths)), lengths,
                associated_data=self._bulk_ad,
                replay_guard=self._crypto.bulk_d2h_guard)
            for (index, _, _), chunk in zip(frame, chunks):
                parts[index].append(chunk)
        self._charge_copies(sizes, paid, upload=False)
        # An item that fit one frame is returned as is (no copy).
        return [pieces[0] if len(pieces) == 1 else b"".join(pieces)
                for pieces in parts]

    # -- modules / kernels ---------------------------------------------------------------------

    def cuModuleLoad(self, kernel_names: Sequence[str]) -> HixModuleHandle:
        reply = self._request({"op": protocol.OP_MODULE_LOAD,
                               "kernels": list(kernel_names)})
        return HixModuleHandle(int(reply["module_id"]), kernel_names)

    @traced("cuLaunchKernel", attrs=lambda self, module, kernel_name, params,
            compute_seconds=0.0: {"ctx_id": self._ctx_id,
                                  "kernel": kernel_name})
    def cuLaunchKernel(self, module: HixModuleHandle, kernel_name: str,
                       params: Sequence[ParamValue],
                       compute_seconds: float = 0.0) -> None:
        self._cuLaunchKernelBatch(
            module, [(kernel_name, params, compute_seconds)])

    @traced("cuLaunchKernelBatch", attrs=lambda self, module, launches: {
        "ctx_id": self._ctx_id, "items": len(launches)})
    def cuLaunchKernelBatch(self, module: HixModuleHandle,
                            launches: Sequence) -> None:
        """Batched launches: ``launches`` is ``[(kernel, params, secs), ...]``.

        The whole group crosses the channel as ONE sealed request (one
        seal + one open instead of one per launch); the service runs the
        launches in order.  Launch overhead is still charged per launch.
        """
        self._cuLaunchKernelBatch(module, launches)

    def _cuLaunchKernelBatch(self, module: HixModuleHandle,
                             launches: Sequence) -> None:
        if not launches:
            return
        costs = self._costs
        if costs is not None:
            for _ in range(len(launches) - 1):
                self._charge(self._backend.rpc_round_trip(costs), "ipc")
            for _ in launches:
                self._charge(self._backend.launch_cost(costs), "launch")
        self._request({"op": protocol.OP_LAUNCH_BATCH, "launches": [
            {"module_id": module.module_id,
             "kernel": str(kernel_name),
             "params": protocol.encode_params(list(params)),
             "compute_seconds": float(compute_seconds)}
            for kernel_name, params, compute_seconds in launches]})

    # -- shutdown ----------------------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the service for a graceful termination (Section 4.2.3).

        The service notifies every session (including ours) that the GPU
        is no longer trusted before acknowledging, so the "GPU no longer
        trusted" signal *is* the success path here.
        """
        try:
            self._request({"op": protocol.OP_SHUTDOWN})
        except DriverError as exc:
            if "no longer trusted" not in str(exc):
                raise


class HixApi(SealedClient):
    """The HIX user runtime inside the user's SGX enclave."""

    name = "hix"
    enclave_mode = True
    attestation_detail = ("GPU enclave report and identity verified "
                          "(mutual local attestation)")
    key_exchange_detail = "3-party DH session key derived"

    def __init__(self, kernel: Kernel, process: Process,
                 service: GpuEnclaveService,
                 expected_gpu_enclave_measurement: bytes,
                 clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 suite_name: str = "fast-auth",
                 channel_queue_depth: Optional[int] = None) -> None:
        super().__init__(kernel, process, service, clock=clock, costs=costs,
                         suite_name=suite_name,
                         channel_queue_depth=channel_queue_depth)
        self._expected_measurement = expected_gpu_enclave_measurement

    def _handshake(self, end: ChannelEnd) -> Tuple[bytes, int]:
        """Mutual local attestation + 3-party key exchange (§4.4.1)."""
        user_eid = self._process.enclave.enclave_id
        sgx = self._kernel.sgx
        dh_u = DiffieHellman(seed=b"user-%d" % self._process.pid)
        a_bytes = int_to_dh_bytes(dh_u.public_value)
        report = sgx.ereport(user_eid, self._service.measurement,
                             bind_report_data(a_bytes))
        ack = self._hello(end, {"report": _report_to_wire(report),
                                "dh_a": a_bytes.hex()})
        reply_report = _report_from_wire(ack["report"])
        # Verify the GPU enclave's report, its identity, and that it
        # really is a GPU enclave whose PCIe routing was measured at
        # EGCREATE (Sections 4.4.1, 5.5).
        verify_local_report(sgx, user_eid, reply_report)
        if not reply_report.is_gpu_enclave:
            raise AttestationError("peer is not a GPU enclave")
        if reply_report.measurement != self._expected_measurement:
            raise AttestationError(
                "GPU enclave measurement does not match the expected "
                "(vendor-published) identity")
        e_bytes = bytes.fromhex(ack["dh_e"])
        check_binding(reply_report.report_data, e_bytes, a_bytes)
        session_key = derive_key(dh_u.raise_value(dh_bytes_to_int(e_bytes)))
        return session_key, int(ack["ctx_id"])
