"""One party's cryptographic state for a sealed session.

Every party to a session — the user runtime, HIX's GPU enclave, and the
GPU itself — expands the exchanged session key with
:func:`build_session_crypto`, so all of them agree on the per-purpose
subkeys, on the nonce channel of each direction and on the associated
data that binds a bulk frame to its GPU context.  Each direction has
its own nonce channel so one session key can never produce a nonce
collision, and receivers run replay guards — the "incrementing nonce
... to prevent replay attacks" of Section 5.5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import derive_channel_keys
from repro.crypto.nonce import NonceSequence, ReplayGuard
from repro.crypto.suite import AeadSuite, make_suite

# Nonce channel ids, one per direction.
CH_BULK_H2D = 1   # user -> GPU (sealed frames through shared memory)
CH_BULK_D2H = 2   # GPU -> user
CH_REQUEST = 3    # user -> service control messages
CH_REPLY = 4      # service -> user control messages


@dataclass
class SessionCrypto:
    """One party's derived cryptographic state for a session."""

    session_key: bytes
    request_suite: AeadSuite
    reply_suite: AeadSuite
    bulk_suite: AeadSuite
    request_nonces: NonceSequence
    reply_nonces: NonceSequence
    bulk_h2d_nonces: NonceSequence
    bulk_d2h_nonces: NonceSequence
    request_guard: ReplayGuard
    reply_guard: ReplayGuard
    bulk_h2d_guard: ReplayGuard
    bulk_d2h_guard: ReplayGuard


def build_session_crypto(session_key: bytes, suite_name: str) -> SessionCrypto:
    """Expand a session key into suites, nonces, and replay guards."""
    keys = derive_channel_keys(session_key)
    return SessionCrypto(
        session_key=session_key,
        request_suite=make_suite(suite_name, keys["request"]),
        reply_suite=make_suite(suite_name, keys["reply"]),
        bulk_suite=make_suite(suite_name, keys["bulk"]),
        request_nonces=NonceSequence(CH_REQUEST),
        reply_nonces=NonceSequence(CH_REPLY),
        bulk_h2d_nonces=NonceSequence(CH_BULK_H2D),
        bulk_d2h_nonces=NonceSequence(CH_BULK_D2H),
        request_guard=ReplayGuard(CH_REQUEST),
        reply_guard=ReplayGuard(CH_REPLY),
        bulk_h2d_guard=ReplayGuard(CH_BULK_H2D),
        bulk_d2h_guard=ReplayGuard(CH_BULK_D2H),
    )


def bulk_aad(backend: str, ctx_id: int) -> bytes:
    """The associated data that binds a bulk frame to *backend*'s GPU
    context *ctx_id* (``hix-bulk-ctx-1``, ``gpucc-bulk-ctx-1``, ...)."""
    return b"%s-bulk-ctx-%d" % (backend.encode(), ctx_id)
