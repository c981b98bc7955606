"""Each protection is load-bearing: knock out its enforcement point and
the attack it stops must land.

The root complex decides every config write through
:meth:`~repro.pcie.root_complex.RootComplex.lockdown_active_for`, the
single MMIO-lockdown predicate.  Forcing that predicate to ``False``
must turn attack (4), "rewrite PCIe BAR / bridge window", from BLOCKED
into SUCCEEDS on HIX: nothing else stands between the adversary and
the GPU's routing registers.
"""

from repro.evalkit.security import SUCCEEDS, attack_rewrite_routing
from repro.pcie.root_complex import RootComplex


def test_lockdown_knockout_lets_routing_rewrite_succeed(monkeypatch):
    assert attack_rewrite_routing("hix").secure.startswith("BLOCKED")
    monkeypatch.setattr(RootComplex, "lockdown_active_for",
                        lambda self, bdf: False)
    assert attack_rewrite_routing("hix").secure.startswith(SUCCEEDS)
