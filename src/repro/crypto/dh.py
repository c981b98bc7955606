"""X25519 Diffie-Hellman key agreement (RFC 7748).

HIX establishes a per-user-enclave session key via SGX local attestation
followed by Diffie-Hellman, and — because DH composes across parties —
the GPU participates in the same exchange so that the user enclave, GPU
enclave, and GPU all hold one shared symmetric key (Section 4.4.1).

The paper does not fix the group.  This module uses Curve25519 through
the X25519 function, as SGX's own local-attestation exchange and the
SPDM sessions of confidential-computing GPUs use elliptic curves.  A
party's value is a u-coordinate, an integer ``0 < u < 2**255``, and
raising it is one scalar multiplication, X25519(k, u).  These chain
across parties exactly as powers of a generator do:
X25519(c, X25519(b, X25519(a, 9))) is the same for every order of a, b
and c.  Scalars come from a deterministic seed when one is provided,
which keeps the simulation reproducible, or from ``secrets`` otherwise.

X25519 has two interchangeable engines, as the AEAD suites do:
``cryptography``'s (version 40 or later) when it is importable,
otherwise the pure-Python Montgomery ladder of RFC 7748
(:func:`x25519`).  Both return the same values; ``REPRO_NO_HW_DH=1``
forces the ladder.
"""

from __future__ import annotations

import hashlib
import os
import secrets
from typing import Optional

try:  # pragma: no cover - depends on environment
    if os.environ.get("REPRO_NO_HW_DH"):
        raise ImportError("hardware DH disabled by REPRO_NO_HW_DH")
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PrivateKey as _X25519PrivateKey,
        X25519PublicKey as _X25519PublicKey,
    )
    if not hasattr(_X25519PublicKey, "public_bytes_raw"):  # before 40.0
        raise ImportError("cryptography's X25519 lacks public_bytes_raw")
except ImportError:  # pragma: no cover - depends on environment
    _X25519PrivateKey = _X25519PublicKey = None

#: The field prime and the ladder constant (486662 - 2) / 4.
_P = 2 ** 255 - 19
_A24 = 121665
#: u-coordinate of the Curve25519 base point.
BASE_U = 9
#: Scalars and u-coordinates are 32-byte little-endian strings; a
#: u-coordinate's top bit is clear.
X25519_LEN = 32
U_LIMIT = 1 << 255


def x25519(scalar: bytes, u: int) -> int:
    """X25519(*scalar*, *u*) by the RFC 7748 Montgomery ladder.

    *scalar* is 32 bytes, clamped here as the RFC prescribes; *u* is
    taken mod p.  Returns the resulting u-coordinate in ``[0, p)``; 0
    means *u* was a point of small order.
    """
    k = int.from_bytes(scalar, "little") & ~7 & (U_LIMIT - 1) | (1 << 254)
    p = _P
    x1 = u % p
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in range(254, -1, -1):
        bit = (k >> t) & 1
        if swap ^ bit:
            x2, x3, z2, z3 = x3, x2, z3, z2
        swap = bit
        a = x2 + z2
        aa = a * a % p
        b = x2 - z2
        bb = b * b % p
        e = aa - bb
        da = (x3 - z3) * a % p
        cb = (x3 + z3) * b % p
        x3 = (da + cb) ** 2 % p
        z3 = x1 * (da - cb) ** 2 % p
        x2 = aa * bb % p
        z2 = e * (aa + _A24 * e) % p
    if swap:
        x2, z2 = x3, z3
    # z2 == 0 is the point at infinity, whose u-coordinate RFC 7748 maps to 0.
    return x2 * pow(z2, -1, p) % p if z2 else 0


class DiffieHellman:
    """One party in a (possibly multi-party) X25519 exchange."""

    def __init__(self, seed: Optional[bytes] = None) -> None:
        if seed is None:
            self._scalar = secrets.token_bytes(X25519_LEN)
        else:
            self._scalar = hashlib.sha256(b"hix-dh-exponent" + seed).digest()
        self._key = None  # cryptography's private key, loaded on first use
        self._public: Optional[int] = None

    @property
    def public_value(self) -> int:
        """X25519(k, 9), computed on first read."""
        if self._public is None:
            if _X25519PrivateKey is None:
                self._public = x25519(self._scalar, BASE_U)
            else:
                self._public = int.from_bytes(
                    self._private_key().public_key().public_bytes_raw(),
                    "little")
        return self._public

    def raise_value(self, value: int) -> int:
        """Apply this party's scalar to *value* (multi-party DH step)."""
        if not 0 < value < U_LIMIT:
            raise ValueError("peer public value out of range")
        if _X25519PrivateKey is None:
            result = x25519(self._scalar, value)
        else:
            try:
                result = int.from_bytes(self._private_key().exchange(
                    _X25519PublicKey.from_public_bytes(
                        value.to_bytes(X25519_LEN, "little"))), "little")
            except ValueError:  # cryptography refuses an all-zero result
                result = 0
        if result == 0:
            raise ValueError("peer public value has small order")
        return result

    def shared_secret(self, peer_public: int) -> bytes:
        """Two-party shared secret as 32 bytes (SHA-256 of the shared u)."""
        return _derive(self.raise_value(peer_public))

    def _private_key(self):
        if self._key is None:
            self._key = _X25519PrivateKey.from_private_bytes(self._scalar)
        return self._key


def _derive(secret: int) -> bytes:
    return hashlib.sha256(secret.to_bytes(X25519_LEN, "little")).digest()


def derive_key(group_element: int, length: int = 16) -> bytes:
    """Turn a shared u-coordinate into a symmetric key (SHA-256 truncation).

    All three HIX parties apply this to the same shared value, [uge]9 in
    :mod:`repro.core.key_exchange`'s notation, so they end up with
    identical session keys.
    """
    return _derive(group_element)[:length]


def three_party_key(a: "DiffieHellman", b: "DiffieHellman",
                    c: "DiffieHellman") -> bytes:
    """Derive the common key of a three-party iterated exchange.

    The shared value is computed by passing *a*'s public value through
    the other two parties: the chain by which the user enclave, GPU
    enclave, and GPU agree on one key (Section 4.4.1: "the GPU also
    participates in this key setup procedure").
    """
    return _derive(c.raise_value(b.raise_value(a.public_value)))
