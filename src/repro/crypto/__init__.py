"""Cryptography substrate for HIX.

The paper protects all data crossing untrusted media with OCB-AES-128
authenticated encryption (RFC 7253, via SGX-SSL on the CPU and custom
CUDA kernels on the GPU), sets up session keys with SGX local attestation
plus Diffie-Hellman, and uses incrementing nonces for replay protection.

This package implements all of that from scratch:

* :mod:`repro.crypto.aes` — AES-128 block cipher (encrypt + decrypt).
* :mod:`repro.crypto.ocb` — OCB3 mode exactly per RFC 7253, validated
  against the RFC's test vectors in the test suite.
* :mod:`repro.crypto.suite` — the AEAD interface used by the system, with
  two interchangeable engines: the reference OCB-AES suite and a fast
  hashlib-based suite (SHAKE-256 keystream + keyed BLAKE2 tag) for bulk
  simulation runs.  Timing is charged by the cost model either way.
* :mod:`repro.crypto.dh` — finite-field Diffie-Hellman (RFC 3526 group).
* :mod:`repro.crypto.nonce` — incrementing nonces and replay windows.
* :mod:`repro.crypto.kdf` — HKDF-SHA256 key derivation and MAC helpers.
* :mod:`repro.crypto.session` — one party's session state (subkeys,
  nonce channels, replay guards) and the bulk-frame associated data,
  shared by the user runtime, the GPU enclave and the device.
"""

from repro.crypto.aes import AES128
from repro.crypto.dh import DiffieHellman, MODP_2048
from repro.crypto.kdf import hkdf_sha256, hmac_sha256
from repro.crypto.nonce import NonceSequence, ReplayGuard
from repro.crypto.ocb import OCB_AES128, ocb_decrypt, ocb_encrypt
from repro.crypto.suite import AeadSuite, FastAuthSuite, OcbAesSuite, make_suite

__all__ = [
    "AES128",
    "OCB_AES128",
    "ocb_encrypt",
    "ocb_decrypt",
    "AeadSuite",
    "OcbAesSuite",
    "FastAuthSuite",
    "make_suite",
    "DiffieHellman",
    "MODP_2048",
    "NonceSequence",
    "ReplayGuard",
    "hkdf_sha256",
    "hmac_sha256",
]
