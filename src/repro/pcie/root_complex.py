"""PCIe root complex with HIX's MMIO lockdown.

The root complex is the root of the device tree (paper Figure 2): it
claims the MMIO range in the system address map, turns CPU accesses into
memory TLPs routed down the bridge tree, and is the *only* path for
configuration transactions.  HIX's hardware change (Section 4.3.2) lives
here: once lockdown is enabled for a GPU, every config write that would
modify MMIO mapping or routing registers of any device on the path from
the root complex to that GPU is inspected — by target BDF and register
offset, as in the paper — and discarded.
"""

from __future__ import annotations

import hashlib
import logging
from typing import List, Optional, Set, Tuple

from repro.errors import UnsupportedRequest
from repro.obs.tracer import STATE as _OBS
from repro.pcie.device import Bdf, PcieFunction
from repro.pcie.port import RootPort
from repro.pcie.tlp import Tlp, TlpKind


logger = logging.getLogger(__name__)


class RootComplex:
    """Root of the PCIe tree; owner of the system's MMIO window."""

    def __init__(self, mmio_base: int, mmio_size: int,
                 allow_sizing_inquiry: bool = False) -> None:
        self.mmio_base = mmio_base
        self.mmio_size = mmio_size
        self.allow_sizing_inquiry = allow_sizing_inquiry
        self._ports: List[RootPort] = []
        self._locked_bdfs: Set[str] = set()
        self.rejected_config_writes: List[Tuple[str, int, int, str]] = []
        self.config_writes = 0
        self.config_reads = 0
        # Decoded-route cache for CPU MMIO: (config_writes stamp, port,
        # endpoint, bar) of the last successful memory route.  Every hit
        # is re-validated against the live bridge window and BAR decode,
        # and the stamp invalidates it on any config-space write (window
        # or BAR reprogramming), so it only short-circuits the tree and
        # BAR searches.
        self._mem_route_cache: Optional[Tuple[int, RootPort, PcieFunction]] = None
        self._mem_route_bar = None

    # -- topology -----------------------------------------------------------

    def add_port(self, port: RootPort) -> RootPort:
        if port.bdf.bus != 0:
            raise ValueError("root ports must live on bus 0")
        self._ports.append(port)
        return port

    @property
    def ports(self) -> List[RootPort]:
        return list(self._ports)

    def find_function(self, bdf: Bdf) -> Optional[PcieFunction]:
        for port in self._ports:
            device = port.find_function(bdf)
            if device is not None:
                return device
        return None

    def _port_for_bus(self, bus: int) -> Optional[RootPort]:
        for port in self._ports:
            if port.owns_bus(bus):
                return port
        return None

    def path_to(self, bdf: Bdf) -> List[str]:
        """BDFs of every bridge+function on the path root-complex -> *bdf*.

        With switches in the tree, the path includes the switch upstream
        and the downstream port leading to the device — the exact set of
        config spaces the MMIO lockdown freezes (Section 4.3.2).
        """
        port = self._port_for_bus(bdf.bus)
        if port is not None:
            path = port.path_to(bdf)
            if path is not None:
                return path
        raise UnsupportedRequest(f"no device at {bdf}")

    # -- MMIO lockdown (the HIX hardware change) ------------------------------

    def enable_lockdown(self, gpu_bdf: Bdf) -> List[str]:
        """Freeze MMIO mapping/routing registers on the path to *gpu_bdf*.

        Called by EGCREATE.  Returns the list of frozen BDFs.
        """
        path = self.path_to(gpu_bdf)
        self._locked_bdfs.update(path)
        logger.info("MMIO lockdown engaged for %s (frozen path: %s)",
                    gpu_bdf, " -> ".join(path))
        return path

    def lockdown_active_for(self, bdf: str) -> bool:
        return bdf in self._locked_bdfs

    @property
    def lockdown_enabled(self) -> bool:
        return bool(self._locked_bdfs)

    def clear_lockdown(self) -> None:
        """Reset at system cold boot only (Section 4.2.3)."""
        self._locked_bdfs.clear()

    def _config_target(self, bdf: Bdf):
        """Resolve a config TLP target: root port, switch bridge, or device."""
        for port in self._ports:
            if port.bdf == bdf:
                return port.config
        port = self._port_for_bus(bdf.bus)
        if port is not None:
            target = port.config_target(bdf)
            if target is not None:
                return target
        raise UnsupportedRequest(f"config access to absent function {bdf}")

    # -- configuration transactions -------------------------------------------

    def config_read(self, bdf: Bdf, offset: int, requester: str = "cpu") -> int:
        self.config_reads += 1
        return self._config_target(bdf).read(offset)

    def config_write(self, bdf: Bdf, offset: int, value: int,
                     requester: str = "cpu") -> bool:
        """Process a CfgWr TLP; returns False if lockdown discarded it."""
        self.config_writes += 1
        config = self._config_target(bdf)
        if (self.lockdown_active_for(str(bdf))
                and offset in config.routing_register_offsets()):
            if not (self.allow_sizing_inquiry
                    and config.is_sizing_inquiry(offset, value)):
                # Paper: "the root complex simply discards it".
                self.rejected_config_writes.append(
                    (str(bdf), offset, value, requester))
                logger.warning(
                    "lockdown discarded CfgWr: bdf=%s offset=%#x value=%#x "
                    "requester=%s", bdf, offset, value, requester)
                return False
        config.write(offset, value)
        return True

    # -- memory transactions ----------------------------------------------------

    def route(self, tlp: Tlp) -> bytes:
        """Route a TLP from the CPU side into the fabric."""
        tracer = _OBS.tracer
        if tracer is None:
            return self._route(tlp)
        with tracer.span("pcie.route", "pcie", kind=tlp.kind.name,
                         requester=tlp.requester):
            return self._route(tlp)

    def _route(self, tlp: Tlp) -> bytes:
        if tlp.kind is TlpKind.CFG_READ:
            assert tlp.target_bdf is not None and tlp.register_offset is not None
            value = self.config_read(Bdf.parse(tlp.target_bdf),
                                     tlp.register_offset, tlp.requester)
            return value.to_bytes(4, "little")
        if tlp.kind is TlpKind.CFG_WRITE:
            assert (tlp.target_bdf is not None and tlp.register_offset is not None
                    and tlp.value is not None)
            self.config_write(Bdf.parse(tlp.target_bdf), tlp.register_offset,
                              tlp.value, tlp.requester)
            return b""
        assert tlp.address is not None
        is_read = tlp.kind is TlpKind.MEM_READ
        hit, result = self._route_mem_cached(
            tlp.address, tlp.length if is_read else (tlp.data or b""), is_read)
        if hit:
            return result
        for port in self._ports:
            if port.claims_mem(tlp.address, max(tlp.length, 1)):
                result = port.route_mem(tlp)
                device = port.last_routed_endpoint
                if device is not None:
                    self._mem_route_cache = (self.config_writes, port, device)
                    self._mem_route_bar = None
                return result
        raise UnsupportedRequest(
            f"no root port claims memory TLP at {tlp.address:#x}")

    def _route_mem_cached(self, address: int, payload, is_read: bool
                          ) -> Tuple[bool, bytes]:
        """Try the decoded-route cache; returns (hit, read_result).

        A hit requires the cache stamp to match (no config write since),
        the endpoint to still hang directly off the cached port, the
        port's live bridge window to contain the address, and the
        endpoint's live BAR decode to claim it — the same checks the
        full tree walk performs, minus the search.
        """
        cached = self._mem_route_cache
        if cached is None:
            return False, b""
        stamp, port, device = cached
        length = payload if is_read else len(payload)
        span = length if length > 0 else 1
        if (stamp != self.config_writes
                or not port.has_direct(device)
                or not port.config.window_contains(address, span)):
            return False, b""
        bar = self._mem_route_bar
        if bar is not None and bar.contains(address, span):
            offset = address - bar.address
        else:
            # Different BAR of the same endpoint (or first hit): resolve
            # via the full live decode and remember the winning BAR.
            claimed = device.claim(address, span)
            if claimed is None:
                return False, b""
            bar, offset = claimed
            self._mem_route_bar = bar
        if is_read:
            return True, device.bar_read(bar.index, offset, length)
        device.bar_write(bar.index, offset, payload)
        return True, b""

    # -- AddressMap window handlers (CPU loads/stores to the MMIO hole) --------

    def window_read(self, offset: int, length: int) -> bytes:
        hit, result = self._route_mem_cached(self.mmio_base + offset,
                                             length, True)
        if hit:
            return result
        return self.route(Tlp.mem_read(self.mmio_base + offset, length))

    def window_write(self, offset: int, data: bytes) -> None:
        hit, _ = self._route_mem_cached(self.mmio_base + offset, data, False)
        if not hit:
            self.route(Tlp.mem_write(self.mmio_base + offset, data))

    # -- measurement -------------------------------------------------------------

    def measure_routing_config(self) -> bytes:
        """SHA-256 over all routing-relevant config registers (Section 4.3.2).

        The GPU enclave folds this into its measurement so an attested
        enclave proves the MMIO map it locked down.
        """
        digest = hashlib.sha256()
        for port in sorted(self._ports, key=lambda p: p.bdf):
            digest.update(str(port.bdf).encode())
            for reg in sorted(port.config.routing_register_offsets()):
                digest.update(reg.to_bytes(2, "big"))
                digest.update(port.config.read(reg).to_bytes(8, "big"))
            for device in sorted(port.devices, key=lambda d: d.bdf):
                digest.update(str(device.bdf).encode())
                for reg in sorted(device.config.routing_register_offsets()):
                    digest.update(reg.to_bytes(2, "big"))
                    digest.update(device.config.read(reg).to_bytes(8, "big"))
        return digest.digest()
