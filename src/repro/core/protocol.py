"""Inter-enclave protocol: request/reply encoding and error codes.

Control messages are small JSON-encoded dictionaries sealed with the
session's *request*/*reply* subkeys; bulk data travels separately as
sealed blobs under the *bulk* subkey (single-copy path).  The subkeys,
nonce channels and replay guards of each direction are
:class:`repro.crypto.session.SessionCrypto`'s.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import (
    GpuUnavailable,
    OutOfDeviceMemory,
    ProtocolError,
    UnknownOperation,
)

REQUEST_AAD = b"hix-request"
REPLY_AAD = b"hix-reply"

# Request operations the GPU enclave serves.  Every sealed transfer and
# launch travels as a ``*_batch`` op: one sealed request (one AEAD
# seal/open per direction) carries one or more items, whose per-item
# structure travels as explicit tables inside the request.  A single
# copy or launch is a one-item batch.
OP_CTX_DESTROY = "ctx_destroy"
OP_FREE = "free"
OP_LAUNCH_BATCH = "launch_batch"
OP_MALLOC = "malloc"
OP_MEMCPY_DTOH_BATCH = "memcpy_dtoh_batch"
OP_MEMCPY_HTOD_BATCH = "memcpy_htod_batch"
OP_MODULE_LOAD = "module_load"
OP_SHUTDOWN = "shutdown"

ALL_OPS = frozenset({
    OP_CTX_DESTROY, OP_FREE, OP_LAUNCH_BATCH, OP_MALLOC,
    OP_MEMCPY_DTOH_BATCH, OP_MEMCPY_HTOD_BATCH, OP_MODULE_LOAD, OP_SHUTDOWN,
})

# Machine-readable error codes carried in structured error replies.
# An authenticated-but-invalid request never crashes the service: the
# GPU enclave answers with ``{"ok": False, "code": ..., "error": ...}``
# and keeps serving the session.
ERR_UNKNOWN_OP = "unknown_op"     # op outside ALL_OPS
ERR_PROTOCOL = "protocol"         # malformed/ill-sequenced request body
ERR_RESOURCES = "resources"       # device memory / quota exhaustion
ERR_UNAVAILABLE = "unavailable"   # GPU enclave shut down mid-session
ERR_DRIVER = "driver"             # any other request-level driver fault


def encode_message(payload: Dict[str, Any]) -> bytes:
    """Deterministically serialize a control message."""
    try:
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message: {exc}") from exc


def decode_message(raw: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload


def check_request(payload: Dict[str, Any]) -> str:
    op = payload.get("op")
    if op not in ALL_OPS:
        raise UnknownOperation(f"unknown request op {op!r}")
    return op


def error_code_for(exc: Exception) -> str:
    """Map a request-level fault onto its wire error code."""
    if isinstance(exc, UnknownOperation):
        return ERR_UNKNOWN_OP
    if isinstance(exc, ProtocolError):
        return ERR_PROTOCOL
    if isinstance(exc, OutOfDeviceMemory):
        return ERR_RESOURCES
    if isinstance(exc, GpuUnavailable):
        return ERR_UNAVAILABLE
    return ERR_DRIVER


def error_reply(exc: Exception) -> Dict[str, Any]:
    """The structured error reply for a failed (but authentic) request."""
    return {"ok": False, "code": error_code_for(exc),
            "error": f"{type(exc).__name__}: {exc}"}


# -- launch-parameter marshalling (JSON-safe) ---------------------------------

def encode_params(params) -> list:
    """Marshal launch parameters for transport inside a sealed request."""
    from repro.gpu.module import DevPtr
    encoded = []
    for value in params:
        if isinstance(value, DevPtr):
            encoded.append({"t": "ptr", "v": value.addr})
        elif isinstance(value, bool):
            encoded.append({"t": "u64", "v": int(value)})
        elif isinstance(value, int):
            encoded.append({"t": "u64", "v": value})
        elif isinstance(value, float):
            encoded.append({"t": "f64", "v": value})
        else:
            raise ProtocolError(f"unsupported launch parameter {value!r}")
    return encoded


def decode_params(encoded) -> list:
    from repro.gpu.module import DevPtr
    params = []
    for item in encoded:
        kind = item.get("t")
        if kind == "ptr":
            params.append(DevPtr(int(item["v"])))
        elif kind == "u64":
            params.append(int(item["v"]))
        elif kind == "f64":
            params.append(float(item["v"]))
        else:
            raise ProtocolError(f"unknown parameter kind {kind!r}")
    return params
