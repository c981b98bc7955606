"""Session establishment: local attestation + three-party Diffie-Hellman.

Section 4.4.1: "A user enclave and the GPU enclave perform SGX-supported
local attestation to verify each other.  Once they establish the trust
through attestation, they create a shared symmetric key by using the
Diffie-Hellman key exchange protocol.  As the Diffie-Hellman key
exchange can be done among multiple parties, the GPU also participates
in this key setup procedure and generates a shared symmetric key."

The exchange runs on X25519 (RFC 7748, :mod:`repro.crypto.dh`).  Write
[k]P for X25519(k, P), the multiplication of the u-coordinate P by the
scalar k; it chains like exponentiation, [e]([u]9) = [ue]9.  Roles and
values (base point 9, scalars u/e/g for user enclave, GPU enclave, GPU):

1. user:        A = [u]9                       -> GPU enclave (attested)
2. GPU enclave: B = [e]A = [ue]9, forwards (A, B) to the GPU over the
   trusted MMIO command path.
3. GPU:         session key K = KDF([g]B = [ueg]9); replies C = [g]9 and
   D = [g]A = [ug]9 through device memory.
4. GPU enclave: K = KDF([e]D); sends E = [e]C = [ge]9 to the user
   (attested).
5. user:        K = KDF([u]E).

The GPU draws a fresh scalar for every exchange
(:meth:`repro.gpu.device.SimGpu._device_dh`), so a tenant that
re-attests never gets a key it held before.  Each u-coordinate travels
as a 256-byte big-endian field (:func:`int_to_dh_bytes`).

All three parties then expand K into the same request/reply/bulk
subkeys, nonce channels and replay guards
(:func:`repro.crypto.session.build_session_crypto`).
"""

from __future__ import annotations

import hashlib

from repro.crypto.dh import DiffieHellman, derive_key
from repro.errors import AttestationError


def bind_report_data(*values: bytes) -> bytes:
    """Hash DH public values into attestation report_data (anti-MITM)."""
    digest = hashlib.sha256()
    for value in values:
        digest.update(len(value).to_bytes(8, "big"))
        digest.update(value)
    return digest.digest()


def check_binding(report_data: bytes, *values: bytes) -> None:
    if report_data != bind_report_data(*values):
        raise AttestationError(
            "attestation report does not bind the exchanged DH values "
            "(possible man-in-the-middle)")


def int_to_dh_bytes(value: int) -> bytes:
    return value.to_bytes(256, "big")


def dh_bytes_to_int(raw: bytes) -> int:
    if len(raw) != 256:
        raise AttestationError("DH public value must be 256 bytes")
    return int.from_bytes(raw, "big")


__all__ = [
    "bind_report_data",
    "check_binding",
    "int_to_dh_bytes",
    "dh_bytes_to_int",
    "DiffieHellman",
    "derive_key",
]
