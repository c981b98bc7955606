"""AEAD suite abstraction used by the rest of the system.

Two interchangeable engines implement the same interface:

* :class:`OcbAesSuite` — the reference OCB-AES-128 implementation (exact
  RFC 7253 semantics).  This is what the paper deploys; it is the default
  for tests and small transfers.
* :class:`FastAuthSuite` — the bulk-data engine.  With the optional
  ``cryptography`` package installed it is AES-128-GCM on AES-NI;
  without it, an authenticated stream cipher with an HMAC-SHA256 tag
  (inner/outer pads precomputed once per suite).  The fallback's
  sub-page payloads use a SHAKE-256 keystream (hashlib at C speed);
  larger payloads switch to a Philox-4x64 counter keystream whose
  per-nonce seed is derived with keyed BLAKE2b, generated in bounded
  blocks through numpy, with an NH universal-hash compressor in front
  of the tag — which keeps multi-megabyte simulated transfers
  tractable on pure numpy.  Both backends preserve the *behavioural*
  properties HIX relies on: nonce-keyed confidentiality, ciphertext
  integrity (any bit flip fails the tag), and binding of associated
  data.  The fallback is a simulation stand-in, not a vetted cipher —
  the algorithm the paper deploys is OCB-AES-128 (:class:`OcbAesSuite`).

Simulated *time* is always charged by the cost model at the paper's
OCB-AES throughputs, regardless of which engine moved the actual bytes,
so the choice of engine never affects reported performance numbers.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.ocb import OCB_AES128
from repro.errors import IntegrityError

# Optional hardware-accelerated AEAD backends (AES-NI via the
# ``cryptography`` package).  Both engines keep pure-Python/numpy
# fallbacks, so the simulator runs unchanged without the dependency;
# REPRO_NO_HW_AEAD=1 forces the fallbacks (used by tests to cover both
# paths).
try:
    if os.environ.get("REPRO_NO_HW_AEAD"):
        raise ImportError("hardware AEAD disabled by REPRO_NO_HW_AEAD")
    from cryptography.exceptions import InvalidTag as _InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import (
        AESGCM as _AESGCM,
        AESOCB3 as _AESOCB3,
    )
except ImportError:  # pragma: no cover - depends on environment
    _InvalidTag = None
    _AESGCM = None
    _AESOCB3 = None

KEY_LEN = 16
TAG_LEN = 16
NONCE_LEN = 12

#: Payloads at or above this size take the vectorized (numpy) XOR path;
#: below it, Python big-int arithmetic is faster (fewer fixed costs).
_VECTOR_XOR_MIN = 1024

#: Payloads at or above this size use the Philox counter keystream;
#: below it, SHAKE-256 squeezing wins (Philox pays a fixed generator
#: setup cost of ~15 microseconds per seal).
_PHILOX_MIN = 4096

#: The keystream is generated in bounded blocks of this size so sealing
#: a multi-megabyte payload never allocates a payload-sized keystream.
_KEYSTREAM_BLOCK = 256 * 1024

#: Ciphertexts at or above this size authenticate through the NH
#: universal-hash compressor (one vectorized pass) before the keyed
#: hash; smaller ones are HMAC'd directly.
_NH_MIN = 4096


class AeadSuite(ABC):
    """Authenticated encryption with associated data, detached tag."""

    name: str = "aead"

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_LEN:
            raise ValueError(f"suite requires a {KEY_LEN}-byte key")
        self._key = key

    @property
    def key(self) -> bytes:
        return self._key

    @abstractmethod
    def seal(self, nonce: bytes, plaintext: bytes,
             associated_data: bytes = b"",
             out=None) -> Optional[Tuple[bytes, bytes]]:
        """Encrypt; return ``(ciphertext, tag)``.

        With *out*, a writable buffer of exactly ``len(plaintext) +
        TAG_LEN`` bytes, the ciphertext and then the tag are written
        into it instead and nothing is returned.  *out* may begin at the
        plaintext's own first byte (sealing in place).
        """

    @abstractmethod
    def open(self, nonce: bytes, ciphertext: bytes, tag: bytes,
             associated_data: bytes = b"", sealed=None) -> bytes:
        """Verify and decrypt; raise :class:`IntegrityError` on tampering.

        *sealed*, a writable ``ciphertext || tag`` buffer, is decrypted
        in place (as :meth:`seal` fills *out*) and its plaintext returned.
        """

    # -- batched chunk interface ------------------------------------------

    def seal_chunks(self, nonce: bytes, chunks: Sequence[bytes],
                    associated_data: bytes = b"",
                    out=None) -> Optional[Tuple[bytes, bytes]]:
        """Encrypt many chunks through a *single* AEAD call.

        The chunks are concatenated in one buffer pass and sealed as one
        message, so a batch of same-session transfers pays one tag
        computation (and, on the hardware backends, one AES-NI one-shot)
        instead of one per chunk.  The receiver recovers the chunk
        boundaries from an out-of-band length table (carried inside the
        sealed request that announces the batch), via
        :meth:`open_chunks`.  A single chunk is sealed as is, without
        a copy.  With *out* (as for :meth:`seal`, sized for all the
        chunks), the chunks are copied into it and sealed in place.
        """
        if len(chunks) == 1:
            return self.seal(nonce, chunks[0], associated_data, out)
        if out is None:
            return self.seal(nonce, b"".join(chunks), associated_data)
        size = 0
        for chunk in chunks:
            end = size + len(chunk)
            out[size:end] = chunk
            size = end
        return self.seal(nonce, out[:size], associated_data, out)

    def open_chunks(self, nonce: bytes, ciphertext: bytes, tag: bytes,
                    lengths: Sequence[int],
                    associated_data: bytes = b"",
                    sealed=None) -> List[bytes]:
        """Verify once, decrypt once, split into the original chunks.

        A single chunk is the plaintext itself; several are views of it.
        Neither is a copy.  *sealed* is as for :meth:`open`.
        """
        plaintext = self.open(nonce, ciphertext, tag, associated_data, sealed)
        if len(plaintext) != sum(lengths):
            raise IntegrityError(
                f"batched plaintext is {len(plaintext)} bytes but the "
                f"length table claims {sum(lengths)}")
        if len(lengths) == 1:
            return [plaintext]
        view = memoryview(plaintext)
        chunks: List[bytes] = []
        offset = 0
        for length in lengths:
            chunks.append(view[offset:offset + length])
            offset += length
        return chunks


class OcbAesSuite(AeadSuite):
    """RFC 7253 OCB-AES-128 — the algorithm named by the paper.

    When the ``cryptography`` package is importable, seal/open dispatch
    to its AES-NI OCB3 implementation, which is bit-identical to the
    pure-Python reference (the test suite asserts this equivalence), so
    the backend choice is invisible except in wall-clock time.
    """

    name = "ocb-aes-128"

    def __init__(self, key: bytes) -> None:
        super().__init__(key)
        self._ocb = OCB_AES128(key, tag_len=TAG_LEN)
        self._hw = _AESOCB3(key) if _AESOCB3 is not None else None

    def seal(self, nonce, plaintext, associated_data=b"", out=None):
        sealed = bytearray(len(plaintext) + TAG_LEN) if out is None else out
        if self._hw is not None and 12 <= len(nonce) <= 15:
            self._hw.encrypt_into(bytes(nonce), plaintext,
                                  bytes(associated_data), sealed)
        else:
            ciphertext, tag = self._ocb.encrypt(nonce, plaintext,
                                                associated_data)
            sealed[:len(ciphertext)] = ciphertext
            sealed[len(ciphertext):] = tag
        return _split(sealed) if out is None else None

    def open(self, nonce, ciphertext, tag, associated_data=b"", sealed=None):
        if (self._hw is not None and 12 <= len(nonce) <= 15
                and len(tag) == TAG_LEN):
            return _open_into(self._hw, "OCB", nonce, ciphertext, tag,
                              associated_data, sealed)
        plaintext = self._ocb.decrypt(nonce, ciphertext, tag, associated_data)
        if sealed is None:
            return plaintext
        sealed[:len(plaintext)] = plaintext
        return memoryview(sealed)[:len(plaintext)]


class FastAuthSuite(AeadSuite):
    """Authenticated stream cipher; C-speed stand-in for bulk data.

    When the ``cryptography`` package is importable, seal/open use
    AES-128-GCM (AES-NI one-shot, same 16-byte detached tag) and the
    machinery below is the fallback; ciphertexts from the two backends
    differ, but they never mix inside one process so every in-simulator
    round trip is self-consistent.

    Fallback keystream: SHAKE-256 below :data:`_PHILOX_MIN`, a keyed-BLAKE2b-seeded
    Philox-4x64 counter stream at or above it.  Tag: HMAC-SHA256 over
    (nonce, associated data, ciphertext), truncated to :data:`TAG_LEN`,
    with the HMAC pad states precomputed so each tag costs one hash pass
    over the message plus two ``copy()`` calls.  Bulk ciphertexts
    (>= :data:`_NH_MIN`) are first compressed with the NH universal hash
    (the UMAC construction) under key-derived coefficients, so the HMAC
    only sees a 64-bit digest plus the framing — one vectorized numpy
    pass instead of a full cryptographic hash over the payload.
    """

    name = "fast-auth"

    _HMAC_BLOCK = 64  # SHA-256 block size

    def __init__(self, key: bytes) -> None:
        super().__init__(key)
        block = key.ljust(self._HMAC_BLOCK, b"\x00")
        self._mac_inner = hashlib.sha256(bytes(b ^ 0x36 for b in block))
        self._mac_outer = hashlib.sha256(bytes(b ^ 0x5C for b in block))
        self._hw = _AESGCM(key) if _AESGCM is not None else None
        #: Lazily-grown NH coefficient vector (fixed per suite key, as
        #: UMAC allows: the universal-hash key is reused across messages
        #: and only the outer PRF sees nonce-dependent input).
        self._nh_coeffs = np.empty(0, dtype=np.uint32)
        #: Associated-data framing cache: a session uses a handful of
        #: fixed AAD values (request/reply/bulk), so the length-prefixed
        #: segment is built once per value and reused on every tag
        #: instead of being re-concatenated per request.
        self._ad_framing: dict = {}

    def _framed_ad(self, associated_data: bytes) -> bytes:
        framing = self._ad_framing.get(associated_data)
        if framing is None:
            framing = (len(associated_data).to_bytes(8, "big")
                       + associated_data)
            self._ad_framing[associated_data] = framing
        return framing

    def _nh_coefficients(self, nwords: int) -> np.ndarray:
        coeffs = self._nh_coeffs
        if coeffs.size < nwords:
            seed = hashlib.blake2b(b"hix-fast-nh-coeffs", key=self._key,
                                   digest_size=16).digest()
            generator = np.random.Philox(
                key=np.frombuffer(seed, dtype=np.uint64))
            # Regenerating from counter zero keeps the prefix stable as
            # the vector grows, so digests never depend on growth order.
            coeffs = generator.random_raw((nwords + 1) >> 1).view(np.uint32)
            self._nh_coeffs = coeffs
        return coeffs

    def _nh_compress(self, view: memoryview, aligned: int) -> int:
        """NH over the 8-byte-aligned prefix: sum of products mod 2**64."""
        words = np.frombuffer(view[:aligned], dtype=np.uint32)
        coeffs = self._nh_coefficients(words.size)
        low = words[0::2] + coeffs[0:words.size:2]     # mod 2**32 (wraps)
        high = words[1::2] + coeffs[1:words.size:2]
        return int((low.astype(np.uint64) * high).sum(dtype=np.uint64))

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        shake = hashlib.shake_256()
        shake.update(b"hix-fast-keystream")
        shake.update(self._key)
        shake.update(len(nonce).to_bytes(1, "big"))
        shake.update(nonce)
        return shake.digest(length)

    def _philox(self, nonce: bytes) -> np.random.Philox:
        """Counter-mode bulk keystream generator for one (key, nonce) pair.

        The 128-bit Philox key is a keyed-BLAKE2b derivation of the
        nonce, so the stream is unpredictable without the suite key and
        unique per nonce; the counter construction makes generation a
        single vectorized pass at memory bandwidth.
        """
        seed = hashlib.blake2b(
            b"hix-fast-keystream-ctr"
            + len(nonce).to_bytes(1, "big") + nonce,
            key=self._key, digest_size=16).digest()
        return np.random.Philox(key=np.frombuffer(seed, dtype=np.uint64))

    def _xor_stream(self, nonce: bytes, data, out) -> None:
        """Write *data* XOR the nonce-keyed keystream into *out*
        (seal == open); *out* may be *data*'s own buffer."""
        length = len(data)
        if length < _PHILOX_MIN:
            out[:] = _fast_xor(data, self._keystream(nonce, length))
            return
        generator = self._philox(nonce)
        in_arr = np.frombuffer(memoryview(data), dtype=np.uint8)
        out_arr = np.frombuffer(memoryview(out), dtype=np.uint8)
        # The counter keystream is generated in bounded blocks, so a
        # multi-MB seal holds at most one block of keystream.
        for start in range(0, length, _KEYSTREAM_BLOCK):
            stop = min(start + _KEYSTREAM_BLOCK, length)
            chunk = stop - start
            stream = generator.random_raw((chunk + 7) >> 3).view(np.uint8)
            np.bitwise_xor(in_arr[start:stop], stream[:chunk],
                           out=out_arr[start:stop])

    def _tag(self, nonce: bytes, ciphertext, associated_data) -> bytes:
        mac = self._mac_inner.copy()
        ct_len = len(ciphertext)
        if ct_len >= _NH_MIN:
            # NH-then-PRF (UMAC): the vectorized compressor digests the
            # bulk, the keyed hash binds its value, the unaligned tail,
            # the framing and the nonce.  A forger must find an NH
            # collision, which NH's universal-hash bound makes
            # negligible without the key-derived coefficients.
            view = memoryview(ciphertext)
            aligned = ct_len & ~7
            nh = self._nh_compress(view, aligned)
            mac.update(b"\x01" + len(nonce).to_bytes(1, "big") + nonce
                       + self._framed_ad(associated_data)
                       + ct_len.to_bytes(8, "big") + nh.to_bytes(8, "big")
                       + bytes(view[aligned:]))
        else:
            mac.update(b"\x00" + len(nonce).to_bytes(1, "big") + nonce
                       + self._framed_ad(associated_data))
            mac.update(ciphertext)
        outer = self._mac_outer.copy()
        outer.update(mac.digest())
        return outer.digest()[:TAG_LEN]

    def seal(self, nonce, plaintext, associated_data=b"", out=None):
        sealed = bytearray(len(plaintext) + TAG_LEN) if out is None else out
        if self._hw is not None and len(nonce) == NONCE_LEN:
            self._hw.encrypt_into(bytes(nonce), plaintext,
                                  bytes(associated_data), sealed)
        else:
            view = memoryview(sealed)
            size = len(view) - TAG_LEN
            self._xor_stream(nonce, plaintext, view[:size])
            view[size:] = self._tag(nonce, view[:size], associated_data)
        return _split(sealed) if out is None else None

    def open(self, nonce, ciphertext, tag, associated_data=b"", sealed=None):
        if (self._hw is not None and len(nonce) == NONCE_LEN
                and len(tag) == TAG_LEN):
            return _open_into(self._hw, "fast-auth", nonce, ciphertext, tag,
                              associated_data, sealed)
        expected = self._tag(nonce, ciphertext, associated_data)
        if not hmac.compare_digest(expected, tag):
            raise IntegrityError("fast-auth tag verification failed")
        plaintext = (bytearray(len(ciphertext)) if sealed is None
                     else memoryview(sealed)[:len(ciphertext)])
        self._xor_stream(nonce, ciphertext, plaintext)
        return plaintext


def _split(sealed: bytearray) -> Tuple[bytes, bytes]:
    """``(ciphertext, tag)`` of a ``ciphertext || tag`` buffer."""
    return bytes(sealed[:-TAG_LEN]), bytes(sealed[-TAG_LEN:])


def _open_into(engine, name: str, nonce, ciphertext, tag,
               associated_data, sealed=None):
    """Open with an AES-NI engine in one buffer.

    ``ciphertext || tag`` is *sealed* or is assembled once, and the
    plaintext is decrypted over its ciphertext bytes, so the buffer the
    tag was checked in is the one returned.  A failed check discards it.
    """
    size = len(ciphertext)
    data = bytearray().join((ciphertext, tag)) if sealed is None else sealed
    view = memoryview(data)
    try:
        engine.decrypt_into(bytes(nonce), data, bytes(associated_data),
                            view[:size])
    except _InvalidTag:
        raise IntegrityError(f"{name} tag verification failed") from None
    if sealed is not None:
        return view[:size]
    view.release()
    del data[size:]
    return data


def _fast_xor(data, stream: bytes) -> bytes:
    """XOR a byte string against an equal-length keystream.

    Multi-KB payloads take the vectorized numpy path (a single C loop
    over ``frombuffer`` views); small ones stay on Python's big-int
    XOR, whose fixed costs are lower below ~1 KB.
    """
    if len(data) != len(stream):
        raise ValueError("keystream length mismatch")
    if not data:
        return b""
    if len(data) >= _VECTOR_XOR_MIN:
        return np.bitwise_xor(
            np.frombuffer(memoryview(data), dtype=np.uint8),
            np.frombuffer(stream, dtype=np.uint8)).tobytes()
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


_SUITES = {
    OcbAesSuite.name: OcbAesSuite,
    FastAuthSuite.name: FastAuthSuite,
}


def make_suite(name: str, key: bytes) -> AeadSuite:
    """Instantiate an AEAD suite by name (``ocb-aes-128`` or ``fast-auth``)."""
    try:
        cls = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown AEAD suite {name!r}; "
                         f"choose from {sorted(_SUITES)}") from None
    return cls(key)
