"""GPU BIOS (VBIOS) image and its measurement.

Section 4.2.2: during initialization the GPU enclave "reads the GPU BIOS
bytecode from the address stored in the PCIe expansion ROM base address
register" and verifies it is genuine before resetting the device.  The
simulated BIOS is a deterministic image with a proper PCI expansion-ROM
signature; the vendor-published reference hash is what the GPU enclave
checks against, and the adversary model can flash a trojaned image to
exercise the detection path.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from repro.gpu.regs import ROM_SIZE

_ROM_SIGNATURE = b"\x55\xAA"  # PCI expansion ROM header magic

#: Images built so far, by ``(device_id, version)``.  Sharing them across
#: machines is safe because an image is immutable ``bytes``: flashing a
#: device replaces its image rather than writing into it.
_IMAGES: Dict[Tuple[int, str], bytes] = {}


def build_bios_image(device_id: int, version: str = "70.00.21.00") -> bytes:
    """Deterministically generate a VBIOS image for *device_id*.

    Each ``(device_id, version)`` image is built once per process.
    """
    key = (device_id, version)
    if key in _IMAGES:
        return _IMAGES[key]
    header = bytearray(64)
    header[0:2] = _ROM_SIGNATURE
    header[2] = ROM_SIZE // 512  # size in 512-byte units
    header[4:8] = device_id.to_bytes(4, "little")
    version_bytes = version.encode()
    header[8:8 + len(version_bytes)] = version_bytes

    body = bytearray()
    seed = hashlib.sha256(bytes(header)).digest()
    while len(body) < ROM_SIZE - 64:
        seed = hashlib.sha256(seed).digest()
        body += seed
    image = _IMAGES[key] = bytes(header) + bytes(body[:ROM_SIZE - 64])
    return image


def bios_hash(image: bytes) -> bytes:
    """The measurement the GPU enclave compares against the vendor hash."""
    return hashlib.sha256(image).digest()


def is_valid_rom(image: bytes) -> bool:
    """Structural sanity check (signature + size)."""
    return (len(image) == ROM_SIZE and image[:2] == _ROM_SIGNATURE)


def tamper_bios(image: bytes, payload: bytes = b"EVIL") -> bytes:
    """Return a trojaned BIOS (adversary helper): payload spliced in-body."""
    mutated = bytearray(image)
    mutated[1024:1024 + len(payload)] = payload
    return bytes(mutated)
