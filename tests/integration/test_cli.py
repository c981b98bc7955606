"""Integration tests for the command-line interface."""

import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.backends import base as backend_registry
from repro.cli import build_parser, main
from repro.evalkit import security
from repro.serve.scheduler import SCHEDULER_NAMES


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pathfinder" in out and "matrix-add-2048" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for table_id in ("Table 1", "Table 2", "Table 3", "Table 4",
                         "Table 5"):
            assert table_id in out

    def test_run_workload_gdev(self, capsys):
        assert main(["run", "nn", "--mode", "gdev",
                     "--inflation", "1024"]) == 0
        out = capsys.readouterr().out
        assert "nn on gdev" in out
        assert "task_init" in out

    def test_run_workload_hix(self, capsys):
        assert main(["run", "hotspot", "--mode", "hix",
                     "--inflation", "1024"]) == 0
        out = capsys.readouterr().out
        assert "hotspot on hix" in out
        assert "session_setup" in out

    def test_run_matrix_by_name(self, capsys):
        assert main(["run", "matrix-add-2048", "--mode", "gdev",
                     "--inflation", "2048"]) == 0
        assert "matrix-add-2048" in capsys.readouterr().out

    def test_run_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "doom-eternal"])

    def test_figures_single(self, capsys):
        assert main(["figures", "8"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_attacks_exit_code_reflects_defense(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "attack-surface analysis" in out

    def test_attacks_all_runs_every_registered_backend(self, monkeypatch,
                                                      capsys):
        monkeypatch.setitem(backend_registry._REGISTRY, "third",
                            backend_registry.get_backend("hix"))
        monkeypatch.setattr(security, "run_attack_matrix", lambda backend: [
            SimpleNamespace(backend=backend, defended=True)])
        monkeypatch.setattr(security, "render_attack_matrix",
                            lambda results: f"matrix {results[0].backend}")
        assert main(["attacks", "--backend", "all"]) == 0
        assert capsys.readouterr().out.split("\n") == [
            "matrix hix", "", "matrix gpucc", "", "matrix third", ""]

    def test_harness_import_loads_no_other_evalkit_module(self):
        heavy = ("figures", "security", "validation", "sweeps", "serve_sweep")
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.evalkit.harness; print(*sorted("
             f"m for m in {heavy!r} if 'repro.evalkit.' + m in sys.modules),"
             " 'scipy' in sys.modules)"],
            check=True, capture_output=True, text=True).stdout
        assert loaded.split() == ["False"]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliExtras:
    def test_costs(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "pcie_h2d_bandwidth" in out and "GB/s" in out

    def test_report_without_artifacts(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["report", "--artifacts", str(tmp_path)]) == 1

    def test_report_with_artifacts(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        (tmp_path / "x.txt").write_text("ARTIFACT BODY")
        assert cli_main(["report", "--artifacts", str(tmp_path)]) == 0
        assert "ARTIFACT BODY" in capsys.readouterr().out


class TestCliObservability:
    def test_run_prints_engine_counters(self, capsys):
        assert main(["run", "matrix-add-2048", "--mode", "hix",
                     "--inflation", "2048"]) == 0
        out = capsys.readouterr().out
        assert "engine:" in out and "ctx switches" in out

    def test_trace_demo_writes_profile(self, tmp_path, capsys):
        import json
        assert main(["trace", "demo", "--workload", "matrix-add-2048",
                     "--inflation", "2048", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "wrote" in out
        (chrome,) = tmp_path.glob("*.trace.json")
        payload = json.loads(chrome.read_text())
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])
        assert (tmp_path / "single-matrix-add-2048-hix.spans.jsonl").exists()
        assert (tmp_path
                / "single-matrix-add-2048-hix.metrics.json").exists()

    def test_trace_serve_emits_tenant_lane_tracks(self, tmp_path, capsys):
        import json
        from repro.obs import export
        assert main(["trace", "serve", "--workload", "matrix-add-2048",
                     "--users", "2", "--inflation", "2048",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        (chrome,) = tmp_path.glob("*.trace.json")
        payload = json.loads(chrome.read_text())
        lane_events = [e for e in payload["traceEvents"]
                       if e.get("ph") == "X"
                       and e["pid"] == export.TENANT_LANES_PID]
        tenants = {e["args"]["attrs"]["tenant"] for e in lane_events}
        assert tenants == {"user0", "user1"}
        assert "metrics" in payload

    def test_metrics_text_and_json(self, capsys):
        import json
        assert main(["metrics", "--workload", "matrix-add-2048",
                     "--inflation", "2048"]) == 0
        out = capsys.readouterr().out
        assert "fastpath.tlb_hits" in out
        assert main(["metrics", "--workload", "matrix-add-2048",
                     "--inflation", "2048", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "fastpath.dma_bytes_read" in snapshot


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
@pytest.mark.parametrize("command", [["serve"], ["fleet"], ["trace", "demo"],
                                     ["slo"]],
                         ids=["serve", "fleet", "trace", "slo"])
def test_every_scheduler_option_takes_every_scheduler_name(command,
                                                           scheduler):
    args = build_parser().parse_args(command + ["--scheduler", scheduler])
    assert args.scheduler == scheduler
