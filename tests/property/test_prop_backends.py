"""Backend-refactor invariants.

The PR that extracted :mod:`repro.backends` out of the HIX stack came
with a promise: the HIX backend behind the new seam is *bit-identical*
to the pre-refactor code.  ``golden/hix_prerefactor.json`` was captured
on the commit before the refactor landed, and
``golden/gpucc_premerge.json`` on the commit before the two backends'
runtimes merged into one sealed client and one service loop.  These
tests replay the exact capture recipe per backend and compare with
``==`` on every float — any drift in simulated time, per-request
charges, or attack verdict strings is a behavioral regression, not
noise.

The rest of the file pins the seam itself: the request-timing memo's
session-config token must change when the backend changes (a GPU-CC
request charges differently from an HIX one, so memo entries must not
survive a backend switch), and the two backends must disagree where
the designs disagree (timing) while agreeing on the contract surface.
"""

import json
import pathlib

import pytest

from repro.backends import backend_names, get_backend
from repro.evalkit.harness import run_single
from repro.evalkit.security import run_attack_matrix
from repro.evalkit.serve_sweep import SWEEP_QUOTA
from repro.serve import ServeEngine
from repro.serve.jobs import submit_workload
from repro.system import Machine, MachineConfig
from repro.workloads import MatrixAdd

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDENS = {"hix": "hix_prerefactor.json", "gpucc": "gpucc_premerge.json"}


@pytest.fixture(params=sorted(GOLDENS))
def backend_golden(request):
    backend = request.param
    return backend, json.loads(
        (GOLDEN_DIR / GOLDENS[backend]).read_text())


def _serve_capture(backend):
    """The exact serve recipe the golden files were captured with."""
    machine = Machine(MachineConfig(data_inflation=4096.0, backend=backend))
    engine = ServeEngine(machine, scheduler="fair", max_tenants=2,
                         default_quota=SWEEP_QUOTA, fast_path=True)
    workload = MatrixAdd(2048)
    for index in range(2):
        client = engine.add_tenant(f"user{index}")
        submit_workload(client, workload, 4096.0, machine.costs,
                        seed=index)
    report = engine.run()
    return {
        "makespan": report.makespan,
        "context_switches": report.context_switches,
        "gpu_utilization": report.gpu_utilization,
        "tenants": [{"name": tenant.name,
                     "finish_time": tenant.finish_time,
                     "gpu_busy": tenant.gpu_busy,
                     "host_busy": tenant.host_busy,
                     "served": tenant.served}
                    for tenant in report.tenants],
        "requests": [[[request.label, request.outcome,
                       request.host_seconds, request.gpu_seconds]
                      for request in client.requests]
                     for client in engine.clients],
        "lanes": {name: [[event.start, event.duration, event.category]
                         for event in events]
                  for name, events in report.lanes.items()},
    }


class TestHixBitIdenticalToPreRefactor:
    def test_run_single_timing(self, backend_golden):
        backend, goldens = backend_golden
        golden = goldens["run_single:matrix-add-2048:256.0"]
        result = run_single(MatrixAdd(2048), backend, 256.0)
        assert result.seconds == golden["seconds"]
        assert dict(sorted(result.breakdown.items())) == \
            golden["breakdown"]

    def test_serve_report_and_per_request_charges(self, backend_golden):
        backend, goldens = backend_golden
        golden = goldens["serve:matrix-add-2048:4096:2u"]
        capture = _serve_capture(backend)
        assert capture["makespan"] == golden["makespan"]
        assert capture["context_switches"] == golden["context_switches"]
        assert capture["gpu_utilization"] == golden["gpu_utilization"]
        assert capture["tenants"] == golden["tenants"]
        assert capture["requests"] == golden["requests"]
        assert capture["lanes"] == golden["lanes"]

    def test_attack_matrix_verdict_strings(self, backend_golden):
        backend, goldens = backend_golden
        golden = goldens["attack_matrix"]
        results = run_attack_matrix(backend)
        captured = [{"attack_id": r.attack_id, "name": r.name,
                     "baseline": r.baseline, "hix": r.hix,
                     "defended": r.defended} for r in results]
        assert captured == golden


class TestMemoBackendInvalidation:
    def _engine(self, backend):
        machine = Machine(MachineConfig(data_inflation=64.0,
                                        backend=backend))
        return ServeEngine(machine, max_tenants=1,
                           default_quota=SWEEP_QUOTA)

    def test_memo_token_differs_by_backend(self):
        tokens = {backend: self._engine(backend)._memo_token(1.0)
                  for backend in backend_names()}
        assert len(set(tokens.values())) == len(tokens), tokens
        for backend, token in tokens.items():
            assert token[0] == backend

    def test_backend_switch_invalidates_timing_memo(self):
        """Entries cached under one backend must not survive a
        reconfigure to another backend's token."""
        hix = self._engine("hix")
        memo = hix.memo
        memo.configure(hix._memo_token(1.0))
        memo.put(("shape", 1), 1.0e-3, 2.0e-3)
        assert memo.get(("shape", 1)) is not None
        gpucc = self._engine("gpucc")
        memo.configure(gpucc._memo_token(1.0))
        assert memo.get(("shape", 1)) is None

    def test_same_backend_reconfigure_keeps_entries(self):
        engine = self._engine("hix")
        memo = engine.memo
        token = engine._memo_token(1.0)
        memo.configure(token)
        memo.put(("shape", 2), 1.0e-3, 2.0e-3)
        memo.configure(token)
        assert memo.get(("shape", 2)) is not None


class TestBackendContractSurface:
    def test_both_backends_registered(self):
        assert set(backend_names()) >= {"hix", "gpucc"}

    def test_backends_disagree_on_timing(self):
        """The designs genuinely differ; identical timing would mean
        the GPU-CC path silently fell through to HIX."""
        hix = run_single(MatrixAdd(2048), "hix", 256.0)
        gpucc = run_single(MatrixAdd(2048), "gpucc", 256.0)
        assert hix.seconds != gpucc.seconds
        assert "session_setup" in hix.breakdown

    def test_one_client_for_every_backend(self):
        """Every backend's session class resolves each public ``cu*``
        method to the same function: the sealed client exists once."""
        methods = {}
        for backend in backend_names():
            machine = Machine(MachineConfig(backend=backend))
            api_cls = type(machine.secure_session(machine.boot_secure(),
                                                  name="probe"))
            methods[backend] = {name: getattr(api_cls, name)
                                for name in dir(api_cls)
                                if name.startswith("cu")}
        reference = methods[backend_names()[0]]
        assert reference
        for backend, found in methods.items():
            assert found.keys() == reference.keys(), backend
            for name, method in found.items():
                assert method is reference[name], (backend, name)

    def test_machine_dispatches_by_config(self):
        for backend in ("hix", "gpucc"):
            machine = Machine(MachineConfig(backend=backend))
            assert machine.backend is get_backend(backend)
            service = machine.boot_secure()
            api = machine.secure_session(service, name="probe")
            api.cuCtxCreate()
            handle = api.cuMemAlloc(4096)
            api.cuMemcpyHtoD(handle, b"x" * 4096)
            assert api.cuMemcpyDtoH(handle, 4096)[:4096] == b"x" * 4096
            api.cuCtxDestroy()
