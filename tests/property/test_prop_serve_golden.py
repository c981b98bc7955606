"""Request-level pin of the serve engine's faulted paths.

``golden/serve_prerefactor.json`` was captured on the commit before the
serve engine's request loop was split into a per-tenant state machine.
It records, for the ``smoke``, ``churn-reset``, ``storm`` and
``fleet-migration`` chaos campaigns on every TEE backend at seed 0:

* every request of every engine the campaign started (baseline and
  chaos runs, every fleet machine): label, outcome, error kind,
  attempts, session epoch, host/gpu seconds and retry-after hint;
* every ``serve.*``/``fleet.*`` audit event: kind, subject, virtual
  time and detail string;
* the campaign's rendered three-sided verdict
  (:meth:`CampaignResult.render`), recorded on the commit before the
  single-machine and fleet campaigns shared one verdict assembly.

Retries, session recovery, breaker sheds, cooperative drains and
migration landings all leave their trace here, so any drift in the
engine's handling of a faulted request fails with ``==``.  Campaigns
do not return their engines; the capture collects them by wrapping
:meth:`ServeEngine.start`.

To re-capture after a deliberate behaviour change, run from the repo
root::

    PYTHONPATH=src python -m tests.property.test_prop_serve_golden
"""

import json
import pathlib

import pytest

from repro.backends import backend_names
from repro.chaos import run_campaign
from repro.obs.audit import audit_log
from repro.serve import ServeEngine

GOLDEN = pathlib.Path(__file__).parent / "golden" / "serve_prerefactor.json"
CAMPAIGNS = ("smoke", "churn-reset", "storm", "fleet-migration")
AUDIT_PREFIXES = ("serve.", "fleet.")


def capture(campaign, backend, monkeypatch):
    """Run *campaign* on *backend* at seed 0; return its request ledger,
    its serve/fleet audit stream and its rendered verdict."""
    engines = []
    start = ServeEngine.start

    def recording_start(self, *args, **kwargs):
        engines.append(self)
        return start(self, *args, **kwargs)

    monkeypatch.setattr(ServeEngine, "start", recording_start)
    mark = audit_log().cursor()
    result = run_campaign(campaign, seed=0, backend=backend)
    events = audit_log().events_since(mark)
    monkeypatch.undo()
    return {
        "requests": [
            [[client.name,
              [[request.label, request.outcome, request.error_kind,
                request.attempts, request.session_epoch,
                request.host_seconds, request.gpu_seconds,
                request.retry_after]
               for request in client.requests]]
             for client in engine.clients]
            for engine in engines],
        "audit": [[event.kind, event.subject, event.time, event.detail]
                  for event in events
                  if event.kind.startswith(AUDIT_PREFIXES)],
        "render": result.render(),
    }


def _cases():
    return [(campaign, backend) for campaign in CAMPAIGNS
            for backend in backend_names()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestServePathsBitIdenticalToPreRefactor:
    @pytest.mark.parametrize("campaign,backend", _cases())
    def test_requests_and_audit_stream(self, golden, campaign, backend,
                                       monkeypatch):
        captured = capture(campaign, backend, monkeypatch)
        expected = golden[f"{campaign}:{backend}"]
        assert captured["requests"] == expected["requests"]
        assert captured["audit"] == expected["audit"]
        assert captured["render"] == expected["render"]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        data = {f"{campaign}:{backend}": capture(campaign, backend, patch)
                for campaign, backend in _cases()}
    GOLDEN.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
