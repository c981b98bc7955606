"""PCIe endpoint functions and BDF addressing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import UnsupportedRequest
from repro.pcie.config_space import Bar, Type0Config


@dataclass(frozen=True, order=True)
class Bdf:
    """Bus/Device/Function address of a PCIe function."""

    bus: int
    device: int
    function: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.bus < 256 and 0 <= self.device < 32
                and 0 <= self.function < 8):
            raise ValueError(f"invalid BDF {self.bus}:{self.device}.{self.function}")

    def __str__(self) -> str:
        return f"{self.bus:02x}:{self.device:02x}.{self.function}"

    @classmethod
    def parse(cls, text: str) -> "Bdf":
        bus_part, rest = text.split(":")
        dev_part, fn_part = rest.split(".")
        return cls(int(bus_part, 16), int(dev_part, 16), int(fn_part, 16))


class PcieFunction:
    """Base class for endpoint devices attached to the fabric.

    Subclasses (the GPU, the adversary's emulated GPU, ...) implement
    :meth:`bar_read` / :meth:`bar_write` to give their BARs behaviour.
    ``is_physical`` is the trusted hardware attribute the root complex
    reports during EGCREATE's real-GPU check ("the trusted PCIe root
    complex retrieves only the real devices attributes", Section 5.5).
    """

    is_physical = True
    rom_size = 0  # expansion ROM aperture size in bytes (0 = none)

    def __init__(self, bdf: Bdf, vendor_id: int, device_id: int,
                 class_code: int) -> None:
        self.bdf = bdf
        self.config = Type0Config(vendor_id, device_id, class_code)

    def _rom_claims(self, address: int, length: int) -> bool:
        base = self.config.expansion_rom_base
        return (self.rom_size > 0 and base > 0
                and base <= address and address + length <= base + self.rom_size)

    def claims_address(self, address: int, length: int = 1) -> bool:
        """True if any programmed BAR or the expansion ROM claims the range."""
        return self.claim(address, length) is not None or self._rom_claims(
            address, length)

    # -- BAR decode -----------------------------------------------------------

    def claim(self, address: int, length: int) -> Optional[Tuple[Bar, int]]:
        """Return (bar, offset_into_bar) if a programmed BAR claims the range."""
        for bar in self.config.bars.values():
            if bar.contains(address, length):
                return bar, address - bar.address
        return None

    def mem_read(self, address: int, length: int) -> bytes:
        claimed = self.claim(address, length)
        if claimed is None:
            if self._rom_claims(address, length):
                return self.expansion_rom_read(
                    address - self.config.expansion_rom_base, length)
            raise UnsupportedRequest(
                f"{self.bdf}: no BAR claims read at {address:#x}")
        bar, offset = claimed
        return self.bar_read(bar.index, offset, length)

    def mem_write(self, address: int, data: bytes) -> None:
        claimed = self.claim(address, len(data))
        if claimed is None:
            raise UnsupportedRequest(
                f"{self.bdf}: no BAR claims write at {address:#x}")
        bar, offset = claimed
        self.bar_write(bar.index, offset, data)

    # -- device behaviour (overridden by concrete devices) --------------------

    def bar_read(self, bar_index: int, offset: int, length: int) -> bytes:
        raise UnsupportedRequest(
            f"{self.bdf}: BAR{bar_index} has no read behaviour")

    def bar_write(self, bar_index: int, offset: int, data: bytes) -> None:
        raise UnsupportedRequest(
            f"{self.bdf}: BAR{bar_index} has no write behaviour")

    def expansion_rom_read(self, offset: int, length: int) -> bytes:
        raise UnsupportedRequest(f"{self.bdf}: no expansion ROM")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.bdf} "
                f"{self.config.vendor_id:04x}:{self.config.device_id:04x}>")
