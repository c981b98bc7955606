"""Workload execution harness: single-user timing and multi-user makespans.

Single-user runs are *functional*: the workload really executes (scaled)
on the chosen stack and the machine's simulated clock provides the
timing, exactly like the prototype measuring wall-clock on the emulated
testbed.  Because functional runs iterate over scaled problem dims, the
harness applies a *launch-count correction*: the modeled launch count of
the full-size problem minus the launches actually issued, charged at the
per-launch cost of the stack under test (plus any residual modeled GPU
compute the issued launches did not carry).

Multi-user runs (Figures 8/9) use the multi-user model of
:mod:`repro.core.multiuser` (an adapter over the shared discrete-event
kernel, :mod:`repro.sim.engine`), fed with per-phase durations derived
from the same cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backends import backend_names, get_backend
from repro.core.multiuser import Segment, simulate_concurrent
from repro.sim.costs import CostModel
from repro.sim.pipeline import pipelined_time
from repro.system import Machine, MachineConfig
from repro.workloads.base import Workload

DEFAULT_INFLATION = 256.0

GDEV = "gdev"
HIX = "hix"
#: The unprotected Gdev baseline, then every TEE backend.
MODES = (GDEV,) + backend_names()


@dataclass
class RunResult:
    """Outcome of one single-user workload run."""

    workload: str
    mode: str
    seconds: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    actual_launches: int = 0
    modeled_launches: int = 0
    verified: bool = True

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


class _CountingApi:
    """Facade proxy that counts launches and their compute hints."""

    def __init__(self, api) -> None:
        self._api = api
        self.launches = 0
        self.hinted_seconds = 0.0

    def cuLaunchKernel(self, module, kernel_name, params,
                       compute_seconds: float = 0.0):
        self.launches += 1
        self.hinted_seconds += compute_seconds
        return self._api.cuLaunchKernel(module, kernel_name, params,
                                        compute_seconds=compute_seconds)

    def __getattr__(self, name):
        return getattr(self._api, name)


def run_single(workload: Workload, mode: str,
               inflation: float = DEFAULT_INFLATION,
               machine: Optional[Machine] = None) -> RunResult:
    """Run *workload* on a fresh machine; returns simulated-time results."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if machine is None:
        machine = Machine(MachineConfig(data_inflation=inflation))
    costs = machine.costs
    if mode == GDEV:
        driver = machine.make_gdev()
        api = machine.gdev_session(driver, name=workload.name)
    else:
        backend = get_backend(mode)
        service = backend.boot(machine)
        api = backend.create_session(machine, service, name=workload.name)

    counting = _CountingApi(api)
    snap = machine.clock.snapshot()
    api.cuCtxCreate()
    workload.run(counting, inflation)
    # Launch-count correction: the scaled functional run issues fewer
    # launches than the full-size problem would; charge the difference.
    missing_launches = max(workload.n_launches - counting.launches, 0)
    if missing_launches:
        machine.clock.advance(
            missing_launches * costs.launch_overhead(mode), "launch")
    residual_compute = max(
        workload.compute_seconds - counting.hinted_seconds, 0.0)
    if residual_compute > 0.0:
        machine.clock.advance(residual_compute, "gpu_compute")
    elapsed = machine.clock.elapsed_since(snap)
    api.cuCtxDestroy()
    return RunResult(
        workload=workload.name,
        mode=mode,
        seconds=elapsed.total,
        breakdown=dict(elapsed.by_category),
        actual_launches=counting.launches,
        modeled_launches=workload.n_launches,
    )


# ---------------------------------------------------------------------------
# Multi-user (Figures 8/9)
# ---------------------------------------------------------------------------

#: Caps on the gpu segments of a compute phase and of a transfer's crypto.
_COMPUTE_SEGMENTS, _CRYPTO_SEGMENTS = 48, 24


def _compute_segments(workload: Workload, costs: CostModel,
                      mode: str) -> List[Segment]:
    """The compute phase as interleavable gpu segments + launch gaps."""
    launches = max(workload.n_launches, 1)
    groups = min(launches, _COMPUTE_SEGMENTS)
    per_group_compute = workload.compute_seconds / groups
    per_group_overhead = (launches / groups) * costs.launch_overhead(mode)
    segments: List[Segment] = []
    for _ in range(groups):
        segments.append(Segment("host", per_group_overhead, "launch"))
        segments.append(Segment("gpu", per_group_compute, "kernel"))
    return segments


def _crypto_kernel_segments(nbytes: float, costs: CostModel,
                            mode: str) -> List[Segment]:
    """Device-side crypto for a bulk transfer, chunk by chunk.

    The backend's device AEAD (HIX: SM kernels; GPU-CC: the on-die
    engine) runs at its bandwidth derated by the backend's multi-user
    efficiency: HIX's per-chunk crypto batches are too small to fill
    the SMs when several contexts interleave (Section 5.4), while the
    dedicated engine does not compete with compute kernels for SMs.
    """
    if nbytes <= 0:
        return []
    backend = get_backend(mode)
    per_chunk_latency, bandwidth = backend.device_crypto(costs)
    bandwidth *= backend.multiuser_efficiency(costs)
    chunk = costs.pipeline_chunk_bytes
    chunks = max(int(-(-nbytes // chunk)), 1)
    groups = min(chunks, _CRYPTO_SEGMENTS)
    per_group_bytes = nbytes / groups
    segments = []
    for _ in range(groups):
        segments.append(Segment(
            "gpu",
            (chunks / groups) * per_chunk_latency
            + per_group_bytes / bandwidth,
            "crypto"))
    return segments


def user_segments(workload: Workload, costs: CostModel,
                  mode: str) -> List[Segment]:
    """One user's full execution as host/gpu segments."""
    h2d = float(workload.modeled_h2d)
    d2h = float(workload.modeled_d2h)
    segments: List[Segment] = []
    if mode == GDEV:
        segments.append(Segment("host", costs.gdev_task_init, "init"))
        segments.append(Segment("host", costs.h2d_time(0) + h2d
                                / costs.pcie_h2d_bandwidth, "h2d"))
        segments.extend(_compute_segments(workload, costs, mode))
        segments.append(Segment("host", costs.d2h_time(0) + d2h
                                / costs.pcie_d2h_bandwidth, "d2h"))
        return segments
    # The sealed backends' own cost terms; the copy pipelines are
    # modeled by their bandwidths alone.
    backend = get_backend(mode)
    task_init, session_setup = backend.session_costs(costs)
    h2d_bandwidths, _ = backend.h2d_stages(costs)
    d2h_bandwidths, _ = backend.d2h_stages(costs)
    segments.append(Segment("host", task_init + session_setup, "init"))
    segments.append(Segment("host", pipelined_time(
        h2d, h2d_bandwidths, costs.pipeline_chunk_bytes), "h2d"))
    segments.extend(_crypto_kernel_segments(h2d, costs, mode))
    segments.extend(_compute_segments(workload, costs, mode))
    segments.extend(_crypto_kernel_segments(d2h, costs, mode))
    segments.append(Segment("host", pipelined_time(
        d2h, d2h_bandwidths, costs.pipeline_chunk_bytes), "d2h"))
    return segments


def run_multiuser(workload: Workload, mode: str, num_users: int,
                  costs: Optional[CostModel] = None) -> float:
    """Makespan of *num_users* identical instances sharing the GPU."""
    costs = costs or CostModel()
    users = [user_segments(workload, costs, mode) for _ in range(num_users)]
    makespan, _timelines, _stats = simulate_concurrent(
        users, costs.gpu_context_switch)
    return makespan


def single_user_model_time(workload: Workload, mode: str,
                           costs: Optional[CostModel] = None) -> float:
    """Analytic single-user time (the 1-user baseline of Figures 8/9)."""
    return run_multiuser(workload, mode, 1, costs)
