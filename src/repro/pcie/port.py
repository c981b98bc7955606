"""Root ports / PCI-PCI bridges: one hop of the PCIe tree.

A root port forwards memory TLPs downstream only when the address falls
inside its programmed bridge memory window, and forwards config TLPs by
secondary/subordinate bus range — the two routing mechanisms a malicious
OS would retarget and that the MMIO lockdown freezes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import UnsupportedRequest
from repro.pcie.config_space import Type1Config
from repro.pcie.device import Bdf, PcieFunction
from repro.pcie.switch import Switch
from repro.pcie.tlp import Tlp, TlpKind

VENDOR_INTEL = 0x8086
DEVICE_IOH3420 = 0x3420  # the root-port model the paper's QEMU prototype modified


class RootPort:
    """A type-1 bridge with endpoint functions on its secondary bus."""

    def __init__(self, bdf: Bdf, secondary_bus: int,
                 vendor_id: int = VENDOR_INTEL,
                 device_id: int = DEVICE_IOH3420) -> None:
        self.bdf = bdf
        self.config = Type1Config(vendor_id, device_id)
        self.config.primary_bus = bdf.bus
        self.config.secondary_bus = secondary_bus
        self.config.subordinate_bus = secondary_bus
        self._devices: Dict[Bdf, PcieFunction] = {}
        self._switches: List[Switch] = []
        #: Endpoint that claimed the last directly-routed memory TLP
        #: (None when it was forwarded to a switch) — lets the root
        #: complex cache the decoded route.
        self.last_routed_endpoint: Optional[PcieFunction] = None

    # -- topology -------------------------------------------------------------

    def attach(self, device: PcieFunction) -> None:
        if device.bdf.bus != self.config.secondary_bus:
            raise ValueError(
                f"device {device.bdf} not on secondary bus "
                f"{self.config.secondary_bus:#x}")
        if device.bdf in self._devices:
            raise ValueError(f"BDF {device.bdf} already attached")
        self._devices[device.bdf] = device

    def attach_switch(self, switch: Switch) -> None:
        """Hang a PCIe switch below this root port (multi-level tree)."""
        if switch.bdf.bus != self.config.secondary_bus:
            raise ValueError(
                f"switch upstream {switch.bdf} not on secondary bus "
                f"{self.config.secondary_bus:#x}")
        self._switches.append(switch)
        self.config.subordinate_bus = max(self.config.subordinate_bus,
                                          switch.config.subordinate_bus)

    @property
    def devices(self) -> List[PcieFunction]:
        """Every endpoint below this port (including behind switches)."""
        endpoints = list(self._devices.values())
        for switch in self._switches:
            endpoints.extend(switch.endpoints())
        return endpoints

    @property
    def direct_devices(self) -> List[PcieFunction]:
        """Endpoints attached straight to this port's secondary bus."""
        return list(self._devices.values())

    @property
    def switches(self) -> List[Switch]:
        return list(self._switches)

    def owns_bus(self, bus: int) -> bool:
        return self.config.secondary_bus <= bus <= self.config.subordinate_bus

    def has_direct(self, device: PcieFunction) -> bool:
        """True if *device* is currently attached straight to this port."""
        return self._devices.get(device.bdf) is device

    def find_function(self, bdf: Bdf) -> Optional[PcieFunction]:
        found = self._devices.get(bdf)
        if found is not None:
            return found
        for switch in self._switches:
            found = switch.find_function(bdf)
            if found is not None:
                return found
        return None

    def config_target(self, bdf: Bdf):
        """Config space of a bridge or endpoint at *bdf* below this port."""
        device = self._devices.get(bdf)
        if device is not None:
            return device.config
        for switch in self._switches:
            target = switch.config_target(bdf)
            if target is not None:
                return target
        return None

    def path_to(self, bdf: Bdf) -> Optional[List[str]]:
        """Bridge/endpoint BDFs from this port down to *bdf* (inclusive)."""
        if bdf in self._devices:
            return [str(self.bdf), str(bdf)]
        for switch in self._switches:
            below = switch.path_to(bdf)
            if below is not None:
                return [str(self.bdf)] + below
        return None

    # -- routing ----------------------------------------------------------------

    def route_mem(self, tlp: Tlp) -> bytes:
        """Forward a memory TLP downstream; raises if nothing claims it."""
        assert tlp.address is not None
        if not self.config.window_contains(tlp.address, max(tlp.length, 1)):
            raise UnsupportedRequest(
                f"root port {self.bdf}: {tlp.address:#x} outside bridge window "
                f"[{self.config.memory_base:#x}, {self.config.memory_limit:#x})")
        for device in self._devices.values():
            if device.claims_address(tlp.address, max(tlp.length, 1)):
                self.last_routed_endpoint = device
                if tlp.kind is TlpKind.MEM_READ:
                    return device.mem_read(tlp.address, tlp.length)
                device.mem_write(tlp.address, tlp.data or b"")
                return b""
        for switch in self._switches:
            if switch.config.window_contains(tlp.address, max(tlp.length, 1)):
                self.last_routed_endpoint = None
                return switch.route_mem(tlp)
        raise UnsupportedRequest(
            f"root port {self.bdf}: no device claims {tlp.address:#x}")

    def claims_mem(self, address: int, length: int = 1) -> bool:
        return self.config.window_contains(address, length)
