"""Property pin: an idle chaos harness is bit-for-bit invisible.

``engine.run(kernel=FaultInjector([]).attach(engine))`` must produce
exactly the report a plain ``engine.run()`` produces — same makespan,
same context switches, same per-tenant metrics, same per-request
outcomes and measured splits.  The injector builds the run's event
clock itself, and the resilience knobs (retry policy, circuit breaker)
only act on failures, so with zero faults scheduled nothing may
perturb event ordering or timing.

This is the structural guarantee that lets campaigns compare their
chaos run against a faultless baseline built through the same engine
configuration: the harness itself contributes nothing.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos import FaultInjector
from repro.serve import BreakerConfig, RetryPolicy, ServeEngine
from repro.serve.jobs import submit_workload
from repro.system import Machine, MachineConfig
from repro.workloads.base import Workload

REPORT_FIELDS = ("scheduler", "makespan", "context_switches",
                 "gpu_utilization")
TENANT_FIELDS = ("name", "submitted", "rejected_submits", "served",
                 "timed_out", "denied", "backpressured", "failed",
                 "finish_time", "gpu_busy", "host_busy", "waits",
                 "stall_seconds", "peak_memory", "quota_denials",
                 "shed", "retries")


class SyntheticWorkload(Workload):
    """A phase profile with no functional body — serve jobs only."""

    def __init__(self, modeled_h2d: int, modeled_d2h: int,
                 n_launches: int, compute_seconds: float) -> None:
        self.name = "synthetic"
        self.app_code = "SYN"
        self.modeled_h2d = modeled_h2d
        self.modeled_d2h = modeled_d2h
        self.n_launches = n_launches
        self.compute_seconds = compute_seconds

    def run(self, api, inflation: float = 1.0) -> None:
        raise NotImplementedError("serving decomposition only")


MB = 1 << 20

workloads = st.builds(
    SyntheticWorkload,
    modeled_h2d=st.integers(min_value=0, max_value=2 * MB),
    modeled_d2h=st.integers(min_value=0, max_value=2 * MB),
    n_launches=st.integers(min_value=0, max_value=12),
    compute_seconds=st.floats(min_value=0.0, max_value=1e-3),
)
schedulers = st.sampled_from(["fair", "fifo", "round-robin"])
user_counts = st.integers(min_value=1, max_value=3)
inflations = st.sampled_from([4096.0, 65536.0])


def _run(workload, users, scheduler, inflation, chaos: bool):
    machine = Machine(MachineConfig(data_inflation=inflation))
    engine = ServeEngine(machine, scheduler=scheduler, max_tenants=users,
                         retry_policy=RetryPolicy(),
                         breaker=BreakerConfig(), seed=17)
    for index in range(users):
        client = engine.add_tenant(f"user{index}")
        submit_workload(client, workload, inflation, machine.costs,
                        seed=index)
    if chaos:
        report = engine.run(kernel=FaultInjector([]).attach(engine))
    else:
        report = engine.run()
    return report, engine.clients


class TestZeroFaultCampaignIsNoop:
    @given(workload=workloads, users=user_counts, scheduler=schedulers,
           inflation=inflations)
    @settings(max_examples=15, deadline=None)
    def test_report_bit_identical(self, workload, users, scheduler,
                                  inflation):
        plain_report, plain_clients = _run(workload, users, scheduler,
                                           inflation, chaos=False)
        chaos_report, chaos_clients = _run(workload, users, scheduler,
                                           inflation, chaos=True)
        for field in REPORT_FIELDS:
            assert getattr(chaos_report, field) \
                == getattr(plain_report, field), field
        assert len(chaos_report.tenants) == len(plain_report.tenants)
        for chaos_tenant, plain_tenant in zip(chaos_report.tenants,
                                              plain_report.tenants):
            for field in TENANT_FIELDS:
                assert getattr(chaos_tenant, field) \
                    == getattr(plain_tenant, field), \
                    f"{chaos_tenant.name}.{field}"
        for chaos_client, plain_client in zip(chaos_clients, plain_clients):
            assert len(chaos_client.requests) == len(plain_client.requests)
            for chaos_req, plain_req in zip(chaos_client.requests,
                                            plain_client.requests):
                assert chaos_req.label == plain_req.label
                assert chaos_req.outcome == plain_req.outcome
                assert chaos_req.attempts == plain_req.attempts
                assert chaos_req.error_kind == plain_req.error_kind
                assert chaos_req.host_seconds == plain_req.host_seconds
                assert chaos_req.gpu_seconds == plain_req.gpu_seconds
                assert chaos_req.session_epoch == plain_req.session_epoch
                if isinstance(plain_req.result, (bytes, bytearray)):
                    assert bytes(chaos_req.result) \
                        == bytes(plain_req.result)

    def test_injector_without_window_faults_keeps_scheduler(self):
        """An empty script must not wrap the arbitration policy."""
        machine = Machine(MachineConfig(data_inflation=65536.0))
        engine = ServeEngine(machine, scheduler="fair", max_tenants=1)
        before = engine.scheduler
        FaultInjector([]).attach(engine)
        assert engine.scheduler is before
