"""PCIe switches: multi-level trees below a root port.

A switch is an upstream bridge plus a set of downstream bridges, each
leading to an endpoint (or another switch).  HIX's MMIO lockdown must
freeze "the MMIO configuration registers of all PCIe devices between
the PCIe root complex and GPU" (Section 4.3.2) — with a switch in the
path, that set includes the switch's upstream and the one downstream
port leading to the GPU, while sibling downstream ports stay writable.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.errors import UnsupportedRequest
from repro.pcie.config_space import Type1Config
from repro.pcie.device import Bdf, PcieFunction
from repro.pcie.tlp import Tlp, TlpKind

VENDOR_PLX = 0x10B5
DEVICE_PEX8747 = 0x8747  # a common Gen3 switch of the GTX-580 era

Child = Union[PcieFunction, "Switch"]


class SwitchPort:
    """One downstream bridge of a switch."""

    def __init__(self, bdf: Bdf, secondary_bus: int) -> None:
        self.bdf = bdf
        self.config = Type1Config(VENDOR_PLX, DEVICE_PEX8747)
        self.config.primary_bus = bdf.bus
        self.config.secondary_bus = secondary_bus
        self.config.subordinate_bus = secondary_bus
        self.child: Optional[Child] = None

    def attach(self, child: Child) -> None:
        if self.child is not None:
            raise ValueError(f"downstream port {self.bdf} already populated")
        self.child = child


class Switch:
    """Upstream bridge + downstream bridges (a PEX-style fan-out)."""

    def __init__(self, upstream_bdf: Bdf, upstream_secondary_bus: int,
                 downstream_count: int, first_downstream_bus: int) -> None:
        self.bdf = upstream_bdf
        self.config = Type1Config(VENDOR_PLX, DEVICE_PEX8747)
        self.config.primary_bus = upstream_bdf.bus
        self.config.secondary_bus = upstream_secondary_bus
        self.downstream: List[SwitchPort] = []
        for index in range(downstream_count):
            port = SwitchPort(Bdf(upstream_secondary_bus, index, 0),
                              first_downstream_bus + index)
            self.downstream.append(port)
        self.config.subordinate_bus = (first_downstream_bus
                                       + downstream_count - 1)

    # -- enumeration -----------------------------------------------------------

    def all_functions(self):
        """Yield (bdf, config_owner) for every bridge + endpoint below."""
        yield self.bdf, self
        for port in self.downstream:
            yield port.bdf, port
            if isinstance(port.child, Switch):
                yield from port.child.all_functions()
            elif port.child is not None:
                yield port.child.bdf, port.child

    def endpoints(self):
        for port in self.downstream:
            if isinstance(port.child, Switch):
                yield from port.child.endpoints()
            elif port.child is not None:
                yield port.child

    def find_function(self, bdf: Bdf) -> Optional[PcieFunction]:
        for endpoint in self.endpoints():
            if endpoint.bdf == bdf:
                return endpoint
        return None

    def config_target(self, bdf: Bdf):
        """Resolve a config access to a bridge or endpoint config space."""
        for owner_bdf, owner in self.all_functions():
            if owner_bdf == bdf:
                return owner.config
        return None

    # -- routing -------------------------------------------------------------------

    def path_to(self, bdf: Bdf) -> Optional[List[str]]:
        """BDFs of every function from this switch down to *bdf*."""
        for port in self.downstream:
            if isinstance(port.child, Switch):
                below = port.child.path_to(bdf)
                if below is not None:
                    return [str(self.bdf), str(port.bdf)] + below
            elif port.child is not None and port.child.bdf == bdf:
                return [str(self.bdf), str(port.bdf), str(bdf)]
        return None

    def route_mem(self, tlp: Tlp) -> bytes:
        assert tlp.address is not None
        if not self.config.window_contains(tlp.address, max(tlp.length, 1)):
            raise UnsupportedRequest(
                f"switch {self.bdf}: {tlp.address:#x} outside upstream window")
        for port in self.downstream:
            if not port.config.window_contains(tlp.address,
                                               max(tlp.length, 1)):
                continue
            child = port.child
            if isinstance(child, Switch):
                return child.route_mem(tlp)
            if child is not None and child.claims_address(
                    tlp.address, max(tlp.length, 1)):
                if tlp.kind is TlpKind.MEM_READ:
                    return child.mem_read(tlp.address, tlp.length)
                child.mem_write(tlp.address, tlp.data or b"")
                return b""
        raise UnsupportedRequest(
            f"switch {self.bdf}: no downstream claims {tlp.address:#x}")

    def assign_windows(self, cursor: int, align) -> int:
        """Firmware pass: place children, then set bridge windows."""
        base = cursor
        for port in self.downstream:
            port_base = cursor
            child = port.child
            if isinstance(child, Switch):
                cursor = child.assign_windows(cursor, align)
            elif child is not None:
                for bar in sorted(child.config.bars.values(),
                                  key=lambda b: b.index):
                    if not bar.address:
                        cursor = align(cursor, bar.size)
                        bar.address = cursor
                        cursor += bar.size
                if child.rom_size and not child.config.expansion_rom_base:
                    cursor = align(cursor, 1 << 20)
                    child.config.expansion_rom_base = cursor
                    cursor += child.rom_size
            cursor = align(cursor, 1 << 20)
            port.config.set_window(port_base, cursor)
        self.config.set_window(base, cursor)
        return cursor
