"""Session table: admission control and per-tenant quotas.

The GPU enclave itself (``repro.core.gpu_enclave``) enforces isolation —
sealed channels, per-session VRAM ownership, cleansing on teardown.
What it does not do is *police resource consumption*: a single tenant
can open contexts and allocate device memory until the device runs dry.
The serving layer's session table adds that policy level, in front of
the enclave, the way a multi-tenant inference service fronts a device
driver: admission is denied before any sealed request is issued.

Quota violations raise :class:`~repro.errors.AdmissionError`, which is a
*serving-layer* error: nothing was sent over the channel, no enclave
state changed, and the tenant can retry after releasing resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AdmissionError
from repro.obs.slo import SloObjective

MB = 1 << 20


@dataclass(frozen=True)
class TenantQuota:
    """Resource limits applied to one tenant across all its contexts.

    ``device_memory_bytes`` is a *real* (post-inflation) byte budget,
    matching what ``cuMemAlloc`` actually reserves on the simulated
    device.  ``max_inflight`` bounds how many sealed GPU requests the
    tenant may have queued or in service at once — the pipeline depth
    beyond which its submission loop stalls (explicit backpressure).
    ``request_timeout`` is in simulated seconds on the virtual serving
    timeline; ``None`` disables expiry.
    """

    max_contexts: int = 1
    device_memory_bytes: int = 64 * MB
    max_inflight: int = 1
    max_queue_depth: int = 64
    weight: float = 1.0
    request_timeout: Optional[float] = None
    #: Service-level objective for this tenant; evaluated by the SLO
    #: engine when the serve run collects telemetry (``None`` = none
    #: declared — the tenant gets no alert rules).
    slo: Optional[SloObjective] = None

    def __post_init__(self) -> None:
        if self.max_contexts < 1:
            raise ValueError("max_contexts must be >= 1")
        if self.device_memory_bytes < 0:
            raise ValueError("device_memory_bytes must be non-negative")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.weight <= 0.0:
            raise ValueError("weight must be positive")
        if self.request_timeout is not None and self.request_timeout <= 0.0:
            raise ValueError("request_timeout must be positive (or None)")


@dataclass
class TenantRecord:
    """Live accounting for one admitted tenant."""

    tenant_id: int
    name: str
    quota: TenantQuota
    contexts_open: int = 0
    memory_in_use: int = 0
    peak_memory: int = 0
    quota_denials: int = 0
    allocations: Dict[int, int] = field(default_factory=dict)


class SessionTable:
    """Admission control in front of the GPU enclave.

    One table per serving engine.  ``admit`` registers a tenant (or
    returns the existing record, so several client handles can share one
    tenant's quota); ``open_context`` / ``charge`` / ``release`` police
    the per-tenant caps and raise :class:`AdmissionError` on violation
    *before* the corresponding sealed request is built.
    """

    def __init__(self, max_tenants: int = 8,
                 default_quota: Optional[TenantQuota] = None) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        self.max_tenants = max_tenants
        self.default_quota = default_quota or TenantQuota()
        self._by_name: Dict[str, TenantRecord] = {}

    # -- admission ----------------------------------------------------------

    def admit(self, name: str,
              quota: Optional[TenantQuota] = None) -> TenantRecord:
        """Register *name*, or return its record if already admitted.

        Re-admitting with an explicit *quota* different from the
        recorded one is a configuration error and is rejected.
        """
        record = self._by_name.get(name)
        if record is not None:
            if quota is not None and quota != record.quota:
                raise AdmissionError(
                    f"tenant {name!r} already admitted with a different quota")
            return record
        if len(self._by_name) >= self.max_tenants:
            raise AdmissionError(
                f"session table full ({self.max_tenants} tenants); "
                f"cannot admit {name!r}")
        record = TenantRecord(tenant_id=len(self._by_name), name=name,
                              quota=quota or self.default_quota)
        self._by_name[name] = record
        return record

    def evict(self, name: str) -> None:
        """Drop a tenant's record (its enclave sessions must be closed)."""
        record = self._by_name.pop(name, None)
        if record is not None and record.contexts_open:
            self._by_name[name] = record
            raise AdmissionError(
                f"tenant {name!r} still has {record.contexts_open} open "
                "context(s); close them before eviction")

    # -- per-tenant resource policing --------------------------------------

    def open_context(self, record: TenantRecord) -> None:
        if record.contexts_open >= record.quota.max_contexts:
            record.quota_denials += 1
            raise AdmissionError(
                f"tenant {record.name!r} at its context cap "
                f"({record.quota.max_contexts})")
        record.contexts_open += 1

    def close_context(self, record: TenantRecord) -> None:
        if record.contexts_open <= 0:
            raise AdmissionError(
                f"tenant {record.name!r} has no open context to close")
        record.contexts_open -= 1

    def charge_memory(self, record: TenantRecord, handle: int,
                      nbytes: int) -> None:
        """Account a pending ``cuMemAlloc``; deny if over budget."""
        if record.memory_in_use + nbytes > record.quota.device_memory_bytes:
            record.quota_denials += 1
            raise AdmissionError(
                f"tenant {record.name!r} over device-memory budget: "
                f"{record.memory_in_use + nbytes} > "
                f"{record.quota.device_memory_bytes} bytes")
        record.memory_in_use += nbytes
        record.peak_memory = max(record.peak_memory, record.memory_in_use)
        record.allocations[handle] = nbytes

    def release_memory(self, record: TenantRecord, handle: int) -> None:
        nbytes = record.allocations.pop(handle, 0)
        record.memory_in_use = max(record.memory_in_use - nbytes, 0)

    # -- introspection ------------------------------------------------------

    def get(self, name: str) -> Optional[TenantRecord]:
        return self._by_name.get(name)

    @property
    def tenants(self) -> List[TenantRecord]:
        return sorted(self._by_name.values(), key=lambda r: r.tenant_id)

    def memory_in_use(self) -> int:
        """Device bytes charged to every admitted tenant together."""
        return sum(record.memory_in_use for record in self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)
