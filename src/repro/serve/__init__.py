"""Multi-tenant GPU-enclave serving layer (repro.serve).

Turns the single GPU enclave of the core reproduction into a
multi-tenant server driven through the existing sealed protocol:

* :mod:`~repro.serve.session` — admission control and per-tenant quotas
  (contexts, device-memory budget, in-flight cap, queue depth, weight);
* :mod:`~repro.serve.queues` — bounded request queues with explicit
  backpressure and timeout semantics;
* :mod:`~repro.serve.scheduler` — pluggable GPU-engine arbitration
  (FIFO, round-robin, deficit-weighted fair);
* :mod:`~repro.serve.engine` — the per-tenant request state machine
  that executes real sealed requests for N tenants and schedules them
  on one device (the shared kernel in :mod:`repro.sim.engine`);
* :mod:`~repro.serve.jobs` — workloads decomposed into request streams.
"""

from repro.serve.engine import (
    GPU_ENGINE_CATEGORIES,
    ServeEngine,
    ServeReport,
    TenantClient,
    TenantReport,
)
from repro.serve.queues import RequestQueue, ServeRequest
from repro.serve.resilience import (
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
    classify_failure,
)
from repro.serve.scheduler import (
    SCHEDULER_NAMES,
    DeficitFairScheduler,
    FifoScheduler,
    RoundRobinScheduler,
    Scheduler,
    make_scheduler,
)
from repro.serve.session import SessionTable, TenantQuota, TenantRecord
from repro.sim.engine import TenantLane, WorkUnit

__all__ = [
    "GPU_ENGINE_CATEGORIES",
    "ServeEngine",
    "ServeReport",
    "TenantClient",
    "TenantReport",
    "RequestQueue",
    "ServeRequest",
    "BreakerConfig",
    "CircuitBreaker",
    "RetryPolicy",
    "classify_failure",
    "SCHEDULER_NAMES",
    "DeficitFairScheduler",
    "FifoScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "make_scheduler",
    "SessionTable",
    "TenantQuota",
    "TenantRecord",
    "TenantLane",
    "WorkUnit",
]
