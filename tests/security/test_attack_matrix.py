"""The Section 5.5 attack-surface analysis, as executable assertions.

Every attack must genuinely *succeed* against the Gdev baseline and be
defended by every TEE backend — both halves are asserted, so a
regression that silently weakens the baseline model (making attacks
"fail" for the wrong reason) is caught too.  Each backend's verdict
must also be the one its row of :data:`~repro.evalkit.security.STOPPERS`
gives (BLOCKED vs DETECTED vs TOLERATED, and the reason), pinning the
*threat-model shape*, not just "defended".
"""

import pytest

from repro.evalkit import security

BACKENDS = sorted(security.BACKEND_LABELS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("attack", security.ATTACKS,
                         ids=lambda fn: fn.__name__)
def test_attack_succeeds_on_baseline_and_is_defended(attack, backend):
    result = attack(backend)
    assert result.baseline.startswith(security.SUCCEEDS), (
        f"{result.name}: expected the baseline to be vulnerable, got "
        f"{result.baseline}")
    assert not result.secure.startswith(security.SUCCEEDS), (
        f"{result.name}: {backend} failed to defend: {result.secure}")
    assert result.defended


@pytest.mark.parametrize("backend", BACKENDS)
def test_verdict_classes_match_expectations(backend):
    results = security.run_attack_matrix(backend)
    assert {(r.name, backend) for r in results} == {
        key for key in security.STOPPERS if key[1] == backend}
    for result in results:
        stopper = security.STOPPERS[result.name, backend]
        assert result.secure == stopper.text, (
            f"{result.name} under {backend}: expected {stopper.text!r}, "
            f"got {result.secure!r}")


def test_stopper_table_is_well_formed():
    """A TOLERATED row names no mechanism; every other row names one
    that :data:`~repro.evalkit.security.MECHANISMS` knows."""
    for key, stopper in security.STOPPERS.items():
        assert stopper.verdict in (security.BLOCKED, security.DETECTED,
                                   security.TOLERATED), key
        if stopper.verdict == security.TOLERATED:
            assert stopper.mechanism is None, key
        else:
            assert stopper.mechanism in security.MECHANISMS, key


def test_matrix_covers_every_figure10_class():
    ids = {attack().attack_id for attack in
           [security.attack_snoop_transit, security.attack_kill_and_reclaim,
            security.attack_map_mmio, security.attack_rewrite_routing,
            security.attack_redirect_dma, security.attack_emulated_gpu]}
    assert ids == {"(1)", "(2)", "(3)", "(4)", "(5)", "(6)"}


def test_run_attack_matrix_rejects_unknown_backend():
    with pytest.raises(ValueError):
        security.run_attack_matrix("sev-gpu")


@pytest.mark.parametrize("backend", BACKENDS)
def test_render_matrix_mentions_every_attack(backend):
    results = security.run_attack_matrix(backend)
    text = security.render_attack_matrix(results)
    assert security.BACKEND_LABELS[backend] in text
    for result in results:
        assert result.name in text
