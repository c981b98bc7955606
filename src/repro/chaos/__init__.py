"""Chaos engineering for the HIX serving stack (repro.chaos).

The attack matrix proves eleven one-shot scenarios against an idle
machine; this package proves *composed* faults against a loaded one.
It schedules fault injections at virtual times on the same
discrete-event kernel the serving engine runs on, drives abusive
tenants next to victims, and asserts the three-sided verdict production
demands: isolation holds (no plaintext escape, tampering detected,
cleanse verified on churn), victims keep bounded service quality, *and*
the monitoring plane detected every injected fault within a bounded
virtual-time detection latency.

* :mod:`~repro.chaos.faults` — injectable fault primitives built on
  :class:`~repro.osmodel.adversary.PrivilegedAdversary` and the HIX
  lifecycle (GPU reset, session kill, DMA redirect, AEAD tampering,
  adversarial arbitration windows);
* :mod:`~repro.chaos.abuse` — tenant-abuse request streams
  (queue-flooding, quota-probing, timeout-surfing);
* :mod:`~repro.chaos.workload` — victim streams with verifiable
  secret-marked payloads and per-round integrity/cleanse checks;
* :mod:`~repro.chaos.injector` — the :class:`FaultInjector` bridging
  fault scripts onto a fleet run's shared event clock, each fault on
  the machine it names;
* :mod:`~repro.chaos.detection` — the detection matcher pairing each
  injected fault with audit/alert evidence and a detection latency;
* :mod:`~repro.chaos.campaign` — named campaigns composing all of the
  above into a deterministic, seeded three-sided verdict, each run by
  one runner on a fleet of one or more machines (``repro chaos`` on
  the command line).
"""

from repro.chaos.faults import (
    AdversarialArbitration,
    AeadTamperFault,
    ChaosContext,
    DmaRedirectFault,
    Fault,
    GpuResetFault,
    SchedulerStormFault,
    SessionKillFault,
    StarvationFault,
)
from repro.chaos.injector import FaultInjector
from repro.chaos.campaign import (
    CAMPAIGNS,
    Campaign,
    CampaignResult,
    SecurityCheck,
    campaign_catalog,
    get_campaign,
    run_campaign,
)

__all__ = [
    "AdversarialArbitration",
    "AeadTamperFault",
    "ChaosContext",
    "DmaRedirectFault",
    "Fault",
    "GpuResetFault",
    "SchedulerStormFault",
    "SessionKillFault",
    "StarvationFault",
    "FaultInjector",
    "CAMPAIGNS",
    "Campaign",
    "CampaignResult",
    "SecurityCheck",
    "campaign_catalog",
    "get_campaign",
    "run_campaign",
]
