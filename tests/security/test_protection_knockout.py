"""Each protection is load-bearing: knock out its enforcement point and
exactly the attacks it stops must land.

:data:`~repro.evalkit.security.STOPPERS` names the mechanism behind
every secure verdict, and :data:`~repro.evalkit.security.MECHANISMS`
the one place that enforces each mechanism.  For every mechanism,
:data:`KNOCKOUTS` switches that place off (monkeypatch, no option) and
the full matrix runs on every backend: the rows naming the mechanism
must turn into SUCCEEDS, and every other verdict must stay exactly as
it was, so a later change that makes a verdict depend on another
mechanism shows up.  No row names two mechanisms: each secure half
stops at the first check in its way.

Two GPU-CC rows hold with their mechanism off (:data:`MASKED`): the
attack, not the stack, hides the stale bytes there.

Attack (5), "redirect DMA via IOMMU", must fail at the AEAD tag check
its verdict names, not at the frame parser in front of it.
"""

import pkgutil

import pytest

from repro.backends import gpucc
from repro.core.gpu_enclave import GpuEnclaveService
from repro.crypto import suite as suite_module
from repro.crypto.blob import parse_blob
from repro.crypto.nonce import ReplayGuard
from repro.crypto.suite import FastAuthSuite
from repro.errors import IntegrityError
from repro.evalkit.security import (
    BACKEND_LABELS,
    MECHANISMS,
    STOPPERS,
    SUCCEEDS,
    attack_redirect_dma,
    run_attack_matrix,
)
from repro.gdev.driver import GdevDriver
from repro.gpu.device import SimGpu
from repro.pcie.root_complex import RootComplex
from repro.sgx.hix_ext import HixExtension
from repro.sgx.instructions import SgxUnit

_FREE = GdevDriver.free
_DESTROY_CONTEXT = GdevDriver.destroy_context
_RESET = SimGpu.reset


def _no_op(*args, **kwargs):
    return None


def _copy_stream(self, nonce, data, out):
    out[:] = data


def _open_without_tag_check(self, ctx, src_va, src_len, gpu_vas, lengths):
    """Open the frame with its freshness check but no tag check.  The
    suites are stream ciphers, so sealing the body again decrypts it."""
    nonce, _tag, body = parse_blob(self.read_ctx(ctx, src_va, src_len))
    ctx.crypto.bulk_h2d_guard.check(nonce)
    plaintext, _ = ctx.crypto.bulk_suite.seal(nonce, body,
                                              self._bulk_aad(ctx))
    offset = 0
    for gpu_va, length in zip(gpu_vas, lengths):
        self.write_ctx(ctx, gpu_va, plaintext[offset:offset + length])
        offset += length


def _hand_gpu_over(self, key):
    """Without termination protection, a GPU held by a killed enclave
    goes to the next EGCREATE, its GECS and TGMR rows released."""
    if key in self._gecs:
        self.graceful_release(self._gecs[key].enclave_id)


def _reset_keeping_vram(self):
    vram = self.vram
    _RESET(self)
    self.vram = vram


#: Mechanism -> the patches that switch its enforcement point off.
KNOCKOUTS = {
    # The AES-NI engine off, so seal runs the suite's own keystream,
    # which becomes the identity: frames keep their tags but carry
    # plaintext.
    "AEAD confidentiality": [(suite_module, "_AESGCM", None),
                             (FastAuthSuite, "_xor_stream", _copy_stream)],
    "AEAD tag check": [(SimGpu, "open_scatter", _open_without_tag_check)],
    "replay guard": [(ReplayGuard, "check", _no_op)],
    "EPCM check": [(SgxUnit, "_validate_epc", _no_op)],
    "termination protection": [(HixExtension, "_check_unowned",
                                _hand_gpu_over)],
    "physical-device check": [(HixExtension, "_check_physical", _no_op)],
    "TGMR walker check": [(HixExtension, "validate_translation", _no_op)],
    "MMIO lockdown": [(RootComplex, "lockdown_active_for",
                       lambda self, bdf: False)],
    "BIOS measurement": [(GpuEnclaveService, "_check_bios", _no_op)],
    "cleanse on free": [(GdevDriver, "free",
                         lambda self, handle, gpu_va, cleanse=False:
                         _FREE(self, handle, gpu_va, cleanse=False))],
    "device reset": [(SimGpu, "reset", _reset_keeping_vram)],
    "CC firewall": [(SimGpu, "_check_firewall", _no_op)],
    "certificate chain": [(gpucc, "verify_device_cert",
                           lambda cert: bytes.fromhex(cert["k_att"]))],
    "signed firmware measurement": [(gpucc.GpuCcApi, "_check_firmware",
                                     _no_op)],
}

_KEY_EXCHANGE_OVERWRITES = (
    "the thief's first VRAM allocation, its 512-byte KEY_EXCHANGE reply "
    "buffer, lands on the victim's block and overwrites the secret with "
    "leading zero bytes before the thief's own buffer takes that block")

#: Rows whose verdict holds with their mechanism knocked out, and why.
MASKED = {
    ("kill GPU enclave and reclaim GPU", "gpucc"): _KEY_EXCHANGE_OVERWRITES,
    ("read residual data of a prior user", "gpucc"): _KEY_EXCHANGE_OVERWRITES,
}


def _matrix():
    return {(result.name, backend): result.secure
            for backend in BACKEND_LABELS
            for result in run_attack_matrix(backend)}


@pytest.fixture(scope="module")
def intact():
    return _matrix()


def _assert_knockout(monkeypatch, intact, mechanism, extra_patches=()):
    """Switch *mechanism* off; exactly the rows naming it (less the
    masked ones) turn into SUCCEEDS, and every other verdict of the full
    matrix is unchanged."""
    for owner, name, replacement in [*KNOCKOUTS[mechanism], *extra_patches]:
        monkeypatch.setattr(owner, name, replacement)
    flipped = {key for key, stopper in STOPPERS.items()
               if stopper.mechanism == mechanism} - set(MASKED)
    for key, verdict in _matrix().items():
        assert verdict == (SUCCEEDS if key in flipped else intact[key]), (
            mechanism, key, verdict)


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_knockout_flips_exactly_its_rows(monkeypatch, intact, mechanism):
    _assert_knockout(monkeypatch, intact, mechanism)


def test_every_mechanism_has_a_knockout_and_an_enforcement_point():
    assert sorted(KNOCKOUTS) == sorted(MECHANISMS)
    for mechanism, path in MECHANISMS.items():
        assert callable(pkgutil.resolve_name(path)), (mechanism, path)


@pytest.mark.parametrize("also_destroy", [False, True],
                         ids=["free", "free-and-destroy"])
def test_cleanse_knockout_lets_residual_read_succeed(monkeypatch, intact,
                                                     also_destroy):
    """GPU-CC's residual verdict holds even with the context-teardown
    cleanse off too."""
    extra = [(GdevDriver, "destroy_context",
              lambda self, handle, cleanse=False:
              _DESTROY_CONTEXT(self, handle, cleanse=False))]
    _assert_knockout(monkeypatch, intact, "cleanse on free",
                     extra if also_destroy else ())


@pytest.mark.parametrize("backend", sorted(BACKEND_LABELS))
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
