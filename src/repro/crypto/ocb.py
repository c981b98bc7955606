"""OCB3 authenticated encryption (RFC 7253) over AES-128.

This is the algorithm the paper uses for every crossing of untrusted
memory ("We use the OCB-AES-128 authenticated encryption algorithm for
data confidentiality and integrity protection", Section 5.2).  The
implementation follows the RFC pseudocode closely and is validated
against the RFC's Appendix A test vectors in the test suite.
"""

from __future__ import annotations

from typing import Tuple

from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.errors import IntegrityError

TAG_LEN = 16  # bytes; TAGLEN = 128 bits as in the RFC's primary vectors


def _double(block: bytes) -> bytes:
    """Doubling in GF(2^128) with the OCB polynomial (x^128+x^7+x^2+x+1)."""
    value = int.from_bytes(block, "big")
    value <<= 1
    if value >> 128:
        value = (value & ((1 << 128) - 1)) ^ 0x87
    return value.to_bytes(16, "big")


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _ntz(n: int) -> int:
    """Number of trailing zero bits of n (n >= 1)."""
    return (n & -n).bit_length() - 1


class OCB_AES128:
    """OCB3 mode instantiated with AES-128 and 128-bit tags."""

    def __init__(self, key: bytes, tag_len: int = TAG_LEN) -> None:
        if not 1 <= tag_len <= 16:
            raise ValueError("tag length must be between 1 and 16 bytes")
        self._aes = AES128(key)
        self._tag_len = tag_len
        self._l_star = self._aes.encrypt_block(bytes(16))
        self._l_dollar = _double(self._l_star)
        self._l = [_double(self._l_dollar)]

    def _l_i(self, i: int) -> bytes:
        while len(self._l) <= i:
            self._l.append(_double(self._l[-1]))
        return self._l[i]

    # -- nonce-dependent initial offset --------------------------------------

    def _initial_offset(self, nonce: bytes) -> bytes:
        if not 1 <= len(nonce) <= 15:
            raise ValueError("nonce must be 1..15 bytes")
        taglen_bits = self._tag_len * 8
        padded = bytearray(16)
        padded[0] = (taglen_bits % 128) << 1
        padded[16 - len(nonce) - 1] |= 0x01
        padded[16 - len(nonce):] = nonce
        bottom = padded[15] & 0x3F
        padded[15] &= 0xC0
        ktop = self._aes.encrypt_block(bytes(padded))
        stretch = ktop + _xor(ktop[:8], ktop[1:9])
        value = int.from_bytes(stretch, "big")
        # Offset_0 = Stretch[1+bottom .. 128+bottom] (bit indices, 1-based).
        offset = (value >> (64 - bottom)) & ((1 << 128) - 1)
        return offset.to_bytes(16, "big")

    # -- associated-data hash -------------------------------------------------

    def _hash(self, associated_data: bytes) -> bytes:
        total = bytes(16)
        offset = bytes(16)
        full, tail = divmod(len(associated_data), BLOCK_SIZE)
        for i in range(1, full + 1):
            offset = _xor(offset, self._l_i(_ntz(i)))
            block = associated_data[(i - 1) * 16: i * 16]
            total = _xor(total, self._aes.encrypt_block(_xor(block, offset)))
        if tail:
            offset = _xor(offset, self._l_star)
            block = associated_data[full * 16:] + b"\x80"
            block += bytes(16 - len(block))
            total = _xor(total, self._aes.encrypt_block(_xor(block, offset)))
        return total

    # -- encryption / decryption ----------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes,
                associated_data: bytes = b"") -> Tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``."""
        plaintext = bytes(plaintext) if not isinstance(plaintext, bytes) \
            else plaintext
        offset = self._initial_offset(nonce)
        checksum = bytes(16)
        out = bytearray()
        full, tail = divmod(len(plaintext), BLOCK_SIZE)
        for i in range(1, full + 1):
            block = plaintext[(i - 1) * 16: i * 16]
            offset = _xor(offset, self._l_i(_ntz(i)))
            out += _xor(offset, self._aes.encrypt_block(_xor(block, offset)))
            checksum = _xor(checksum, block)
        if tail:
            offset = _xor(offset, self._l_star)
            pad = self._aes.encrypt_block(offset)
            last = plaintext[full * 16:]
            out += _xor(last, pad[:tail])
            padded = last + b"\x80" + bytes(16 - tail - 1)
            checksum = _xor(checksum, padded)
        tag_block = self._aes.encrypt_block(
            _xor(_xor(checksum, offset), self._l_dollar))
        tag = _xor(tag_block, self._hash(associated_data))[: self._tag_len]
        return bytes(out), tag

    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes,
                associated_data: bytes = b"") -> bytes:
        """Verify *tag* and return the plaintext; raise IntegrityError on failure."""
        ciphertext = bytes(ciphertext) if not isinstance(ciphertext, bytes) \
            else ciphertext
        offset = self._initial_offset(nonce)
        checksum = bytes(16)
        out = bytearray()
        full, tail = divmod(len(ciphertext), BLOCK_SIZE)
        for i in range(1, full + 1):
            block = ciphertext[(i - 1) * 16: i * 16]
            offset = _xor(offset, self._l_i(_ntz(i)))
            plain = _xor(offset, self._aes.decrypt_block(_xor(block, offset)))
            out += plain
            checksum = _xor(checksum, plain)
        if tail:
            offset = _xor(offset, self._l_star)
            pad = self._aes.encrypt_block(offset)
            last = _xor(ciphertext[full * 16:], pad[:tail])
            out += last
            padded = last + b"\x80" + bytes(16 - tail - 1)
            checksum = _xor(checksum, padded)
        tag_block = self._aes.encrypt_block(
            _xor(_xor(checksum, offset), self._l_dollar))
        expected = _xor(tag_block, self._hash(associated_data))[: self._tag_len]
        if not _constant_time_eq(expected, tag):
            raise IntegrityError("OCB tag verification failed")
        return bytes(out)


def _constant_time_eq(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0


def ocb_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                associated_data: bytes = b"") -> Tuple[bytes, bytes]:
    """One-shot OCB-AES-128 encryption; returns ``(ciphertext, tag)``."""
    return OCB_AES128(key).encrypt(nonce, plaintext, associated_data)


def ocb_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, tag: bytes,
                associated_data: bytes = b"") -> bytes:
    """One-shot OCB-AES-128 decryption with tag verification."""
    return OCB_AES128(key).decrypt(nonce, ciphertext, tag, associated_data)
