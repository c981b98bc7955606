"""Sealed-blob framing for data crossing untrusted media.

Every encrypted payload in the system — inter-enclave shared memory
messages, bulk data DMAed to the GPU, results coming back — travels in
this self-describing frame so the CPU-side suites and the in-GPU crypto
kernels agree on layout::

    u32 magic "HSB1" | 12-byte nonce | 16-byte tag | u64 ct_len | ciphertext

Associated data is *not* carried in the frame; both sides bind it out of
band (e.g. the request header), which is what makes splicing a blob into
a different context fail its tag check.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.crypto.nonce import NONCE_LEN, NonceSequence, ReplayGuard
from repro.crypto.suite import AeadSuite, TAG_LEN
from repro.errors import IntegrityError
from repro.obs.tracer import STATE as _OBS

_MAGIC = 0x48534231  # "HSB1"
_HEADER = struct.Struct(f"<I{NONCE_LEN}s{TAG_LEN}sQ")

HEADER_LEN = _HEADER.size


def sealed_size(plaintext_len: int) -> int:
    """Total frame size for a plaintext of the given length."""
    return HEADER_LEN + plaintext_len


def seal_blob(suite: AeadSuite, nonces: NonceSequence, plaintext: bytes,
              associated_data: bytes = b"") -> bytearray:
    """Encrypt *plaintext* into a framed blob with a fresh nonce.

    *plaintext* may be any flat bytes-like object; a memoryview slice of
    the caller's buffer is read in place, without a copy.  The AEAD
    writes the ciphertext straight into the frame, the one buffer the
    seal allocates.
    """
    tracer = _OBS.tracer
    if tracer is None:
        return _seal_blob(suite, nonces, plaintext, associated_data)
    with tracer.span("aead.seal", "aead", bytes=len(plaintext)):
        return _seal_blob(suite, nonces, plaintext, associated_data)


def _seal_blob(suite: AeadSuite, nonces: NonceSequence, plaintext: bytes,
               associated_data: bytes = b"") -> bytearray:
    nonce = nonces.next()
    size = len(plaintext)
    frame = bytearray(HEADER_LEN + size + TAG_LEN)
    view = memoryview(frame)
    suite.seal(nonce, plaintext, associated_data, view[HEADER_LEN:])
    return _close_frame(frame, view, nonce, size)


def _close_frame(frame: bytearray, view: memoryview, nonce: bytes,
                 size: int) -> bytearray:
    """Finish a frame the AEAD filled as ``header space | ciphertext |
    tag``: pack the header, moving the tag into its slot, and trim the
    frame to :func:`sealed_size`."""
    end = HEADER_LEN + size
    _HEADER.pack_into(frame, 0, _MAGIC, nonce, frame[end:], size)
    view.release()
    del frame[end:]
    return frame


def seal_blob_chunks(suite: AeadSuite, nonces: NonceSequence,
                     chunks: Sequence[bytes],
                     associated_data: bytes = b"") -> bytearray:
    """Batch variant of :func:`seal_blob`: one frame, one AEAD call."""
    tracer = _OBS.tracer
    if tracer is None:
        return _seal_blob_chunks(suite, nonces, chunks, associated_data)
    with tracer.span("aead.seal", "aead",
                     bytes=sum(len(c) for c in chunks), chunks=len(chunks)):
        return _seal_blob_chunks(suite, nonces, chunks, associated_data)


def _seal_blob_chunks(suite: AeadSuite, nonces: NonceSequence,
                      chunks: Sequence[bytes],
                      associated_data: bytes = b"") -> bytearray:
    nonce = nonces.next()
    size = sum(len(chunk) for chunk in chunks)
    frame = bytearray(HEADER_LEN + size + TAG_LEN)
    view = memoryview(frame)
    suite.seal_chunks(nonce, chunks, associated_data, view[HEADER_LEN:])
    return _close_frame(frame, view, nonce, size)


def open_blob_chunks(suite: AeadSuite, raw: bytes, lengths: Sequence[int],
                     associated_data: bytes = b"",
                     replay_guard: Optional[ReplayGuard] = None
                     ) -> List[bytes]:
    """Open a batched frame and split it back into its chunks.

    One replay check, one tag verification, one decryption pass for the
    whole batch; *lengths* is the out-of-band chunk-length table the
    sender announced in its sealed request.
    """
    tracer = _OBS.tracer
    if tracer is None:
        return _open_blob_chunks(suite, raw, lengths, associated_data,
                                 replay_guard)
    with tracer.span("aead.open", "aead", bytes=len(raw),
                     chunks=len(lengths)):
        return _open_blob_chunks(suite, raw, lengths, associated_data,
                                 replay_guard)


def _open_blob_chunks(suite: AeadSuite, raw: bytes, lengths: Sequence[int],
                      associated_data: bytes = b"",
                      replay_guard: Optional[ReplayGuard] = None
                      ) -> List[bytes]:
    nonce, tag, ciphertext = parse_blob(raw)
    return _open_if_fresh(replay_guard, nonce, suite.open_chunks, nonce,
                          ciphertext, tag, lengths, associated_data)


def _open_if_fresh(replay_guard: Optional[ReplayGuard], nonce: bytes,
                   opener, *args):
    """``opener(*args)`` for a frame whose nonce *replay_guard* admits.

    A stale nonce is refused before the tag is checked; a frame that
    then fails to open leaves the guard as it was, so a forged counter
    never locks genuine frames out.
    """
    if replay_guard is None:
        return opener(*args)
    replay_guard.check(nonce)
    try:
        return opener(*args)
    except IntegrityError:
        replay_guard.forget(nonce)
        raise


def parse_blob(raw: bytes) -> Tuple[bytes, bytes, memoryview]:
    """Split a frame into (nonce, tag, ciphertext); raises on bad framing.

    The ciphertext is a view of *raw*, not a copy.
    """
    if len(raw) < HEADER_LEN:
        raise IntegrityError("sealed blob shorter than its header")
    magic, nonce, tag, ct_len = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise IntegrityError("sealed blob magic mismatch (corrupted frame)")
    if len(raw) < HEADER_LEN + ct_len:
        raise IntegrityError("sealed blob truncated")
    return nonce, tag, memoryview(raw)[HEADER_LEN:HEADER_LEN + ct_len]


def open_blob(suite: AeadSuite, raw: bytes, associated_data: bytes = b"",
              replay_guard: Optional[ReplayGuard] = None) -> bytes:
    """Verify and decrypt a framed blob (optionally checking freshness)."""
    tracer = _OBS.tracer
    if tracer is None:
        return _open_blob(suite, raw, associated_data, replay_guard)
    with tracer.span("aead.open", "aead", bytes=len(raw)):
        return _open_blob(suite, raw, associated_data, replay_guard)


def _open_blob(suite: AeadSuite, raw: bytes, associated_data: bytes = b"",
               replay_guard: Optional[ReplayGuard] = None) -> bytes:
    nonce, tag, ciphertext = parse_blob(raw)
    return _open_if_fresh(replay_guard, nonce, suite.open, nonce, ciphertext,
                          tag, associated_data)
