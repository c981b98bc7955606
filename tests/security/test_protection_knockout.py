"""Each protection is load-bearing: knock out its enforcement point and
the attack it stops must land.

Each row disables one mechanism at its single enforcement point
(monkeypatch, no option) and runs only the attacks that mechanism is
meant to stop, on every backend.  The verdicts of the named backends
must turn into SUCCEEDS; every other verdict must stay exactly as it
was, so a later change that makes it depend on the mechanism shows up.

- MMIO lockdown: the root complex decides every config write through
  :meth:`~repro.pcie.root_complex.RootComplex.lockdown_active_for`.
  Off, attack (4) "rewrite PCIe BAR / bridge window" lands on HIX.
- Nonce replay guard (:meth:`~repro.crypto.nonce.ReplayGuard.check`):
  off, attack (1) "replay a captured request" lands on both backends.
- TGMR walker check
  (:meth:`~repro.sgx.hix_ext.HixExtension.validate_translation`): off,
  both attack (3) variants land on HIX.
- Memory cleanse on free (:meth:`~repro.gdev.driver.GdevDriver.free`):
  off, attack (2) "read residual data of a prior user" lands on HIX.
  GPU-CC's verdict holds even with the context-teardown cleanse off too.

Attack (5), "redirect DMA via IOMMU", must fail at the AEAD tag check
its verdict names, not at the frame parser in front of it.
"""

import pytest

from repro.backends import backend_names
from repro.crypto.nonce import ReplayGuard
from repro.crypto.suite import FastAuthSuite
from repro.errors import IntegrityError
from repro.evalkit.security import (
    SUCCEEDS,
    attack_map_mmio,
    attack_redirect_dma,
    attack_remap_victim_mmio,
    attack_replay_request,
    attack_residual_memory,
    attack_rewrite_routing,
)
from repro.gdev.driver import GdevDriver
from repro.pcie.root_complex import RootComplex
from repro.sgx.hix_ext import HixExtension

_FREE = GdevDriver.free
_DESTROY_CONTEXT = GdevDriver.destroy_context


def _verdicts(attacks):
    return {(attack.__name__, backend): attack(backend).secure
            for attack in attacks for backend in backend_names()}


def _assert_knockout(monkeypatch, attacks, patches, flipped):
    """Apply *patches*; exactly the *flipped* backends' verdicts on
    *attacks* turn into SUCCEEDS, and every other verdict is unchanged."""
    before = _verdicts(attacks)
    for owner, name, replacement in patches:
        monkeypatch.setattr(owner, name, replacement)
    for key, verdict in _verdicts(attacks).items():
        if key[1] in flipped:
            assert not before[key].startswith(SUCCEEDS), key
            assert verdict.startswith(SUCCEEDS), (key, verdict)
        else:
            assert verdict == before[key], key


def test_lockdown_knockout_lets_routing_rewrite_succeed(monkeypatch):
    _assert_knockout(
        monkeypatch, [attack_rewrite_routing],
        [(RootComplex, "lockdown_active_for", lambda self, bdf: False)],
        flipped={"hix"})


def test_replay_guard_knockout_lets_replay_succeed(monkeypatch):
    _assert_knockout(
        monkeypatch, [attack_replay_request],
        [(ReplayGuard, "check", lambda self, nonce: None)],
        flipped={"hix", "gpucc"})


def test_walker_check_knockout_lets_mmio_attacks_succeed(monkeypatch):
    _assert_knockout(
        monkeypatch, [attack_map_mmio, attack_remap_victim_mmio],
        [(HixExtension, "validate_translation",
          lambda self, ctx, page_va, page_pa: None)],
        flipped={"hix"})


@pytest.mark.parametrize("also_destroy", [False, True],
                         ids=["free", "free-and-destroy"])
def test_cleanse_knockout_lets_residual_read_succeed(monkeypatch,
                                                     also_destroy):
    patches = [(GdevDriver, "free",
                lambda self, handle, gpu_va, cleanse=False:
                _FREE(self, handle, gpu_va, cleanse=False))]
    if also_destroy:
        patches.append((GdevDriver, "destroy_context",
                        lambda self, handle, cleanse=False:
                        _DESTROY_CONTEXT(self, handle, cleanse=False)))
    _assert_knockout(monkeypatch, [attack_residual_memory], patches,
                     flipped={"hix"})


@pytest.mark.parametrize("backend", backend_names())
def test_dma_redirect_fails_the_tag_check(monkeypatch, backend):
    original = FastAuthSuite.open
    failures = []

    def open_and_record(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        except IntegrityError as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setattr(FastAuthSuite, "open", open_and_record)
    assert attack_redirect_dma(backend).secure.startswith("DETECTED")
    assert failures == ["fast-auth tag verification failed"]
