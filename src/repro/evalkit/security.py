"""Executable attack-surface analysis (paper Section 5.5, Figure 10).

Every attack class from the paper runs twice — against the unsecure Gdev
baseline and against the secure stack under test — using only
privileged-adversary primitives (page tables, config writes, IOMMU,
process control).  The matrix the benchmark prints therefore
*demonstrates* each defense rather than asserting it: an attack must
genuinely succeed on the baseline and be denied (hardware fault),
detected (MAC/attestation failure), or tolerated by design on the
secure stack.

Every attack takes a ``backend`` argument (``"hix"`` or ``"gpucc"``).
Its secure half only performs the adversary's steps and reports what
the adversary got, or raises; :data:`STOPPERS` says, per (attack,
backend), which mechanism stops it, what shows it and the verdict text,
and :func:`_run` builds every secure verdict from that one table.
:data:`MECHANISMS` names each mechanism's enforcement point, which
``tests/security/test_protection_knockout.py`` switches off one at a
time.

Attack numbering follows Figure 10's circled labels:
  (1) inter-enclave shared memory    (4) PCIe routing
  (2) enclave state / termination    (5) DMA
  (3) MMIO address translation       (6) GPU emulation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.channel import BULK_OFFSET
from repro.crypto.blob import seal_blob
from repro.crypto.nonce import NonceSequence
from repro.crypto.session import CH_BULK_H2D
from repro.crypto.suite import KEY_LEN, make_suite
from repro.errors import (
    AttestationError,
    CertChainError,
    DriverError,
    GpuAlreadyOwned,
    IntegrityError,
    NotAGpu,
    ReplayError,
    TlbValidationError,
    UnsupportedRequest,
)
from repro.evalkit.report import render_table
from repro.gpu import regs
from repro.pcie.device import Bdf
from repro.system import Machine, MachineConfig

SUCCEEDS = "SUCCEEDS"

BACKEND_LABELS = {"hix": "HIX", "gpucc": "GPU-CC"}

#: Verdict classes of a defended attack.  BLOCKED: the primitive is
#: refused.  DETECTED: it executes, but attestation or an AEAD check
#: catches it and the session refuses to proceed.  TOLERATED: it lands
#: and nothing stops it, but by the threat model it gains nothing (it
#: touches only untrusted state or ciphertext), so no mechanism is named.
BLOCKED, DETECTED, TOLERATED = "BLOCKED", "DETECTED", "TOLERATED"

#: Each stopping mechanism and the one place that enforces it.
MECHANISMS: Dict[str, str] = {
    "AEAD confidentiality": "repro.crypto.suite.FastAuthSuite.seal",
    "AEAD tag check": "repro.gpu.device.SimGpu.open_scatter",
    "replay guard": "repro.crypto.nonce.ReplayGuard.check",
    "EPCM check": "repro.sgx.instructions.SgxUnit._validate_epc",
    "termination protection":
        "repro.sgx.hix_ext.HixExtension._check_unowned",
    "physical-device check": "repro.sgx.hix_ext.HixExtension._check_physical",
    "TGMR walker check": "repro.sgx.hix_ext.HixExtension.validate_translation",
    "MMIO lockdown": "repro.pcie.root_complex.RootComplex.lockdown_active_for",
    "BIOS measurement":
        "repro.core.gpu_enclave.GpuEnclaveService._check_bios",
    "cleanse on free": "repro.gdev.driver.GdevDriver.free",
    "device reset": "repro.gpu.device.SimGpu.reset",
    "CC firewall": "repro.gpu.device.SimGpu._check_firewall",
    "certificate chain": "repro.backends.gpucc.verify_device_cert",
    "signed firmware measurement":
        "repro.backends.gpucc.GpuCcApi._check_firmware",
}


class Stopper(NamedTuple):
    """What stops one attack on one backend."""

    verdict: str                 # BLOCKED, DETECTED or TOLERATED
    reason: str                  # the verdict's text in parentheses
    mechanism: Optional[str]     # a MECHANISMS key; None when TOLERATED
    #: The error the mechanism raises, or (text) what the attack observes
    #: when it returns without raising.
    evidence: Union[type, str]

    @property
    def text(self) -> str:
        return f"{self.verdict} ({self.reason})"


_NO_PLAINTEXT = "the secret is absent from what the adversary reads"
_NO_STALE_DATA = "the thief reads back no stale bytes"

#: (attack name, backend) -> its stopper: the only place that says which
#: mechanism stops which attack.
STOPPERS: Dict[Tuple[str, str], Stopper] = {
    ("snoop data in transit", "hix"): Stopper(
        BLOCKED, "only OCB-AES ciphertext visible",
        "AEAD confidentiality", _NO_PLAINTEXT),
    ("snoop data in transit", "gpucc"): Stopper(
        BLOCKED, "only sealed AEAD blobs visible in the bounce path",
        "AEAD confidentiality", _NO_PLAINTEXT),
    ("replay a captured request", "hix"): Stopper(
        DETECTED, "ReplayError", "replay guard", ReplayError),
    ("replay a captured request", "gpucc"): Stopper(
        DETECTED, "ReplayError", "replay guard", ReplayError),
    ("read driver/app secrets from memory", "hix"): Stopper(
        BLOCKED, "EPC access denied by walker", "EPCM check",
        TlbValidationError),
    ("read driver/app secrets from memory", "gpucc"): Stopper(
        BLOCKED, "no plaintext in host DRAM: keys live in the CPU TEE and "
                 "on-die SRAM", "AEAD confidentiality", _NO_PLAINTEXT),
    ("kill GPU enclave and reclaim GPU", "hix"): Stopper(
        BLOCKED, "GECS keeps GPU bound until cold boot",
        "termination protection", GpuAlreadyOwned),
    ("kill GPU enclave and reclaim GPU", "gpucc"): Stopper(
        BLOCKED, "reclaim forces a reset: VRAM scrubbed, contexts dropped, "
                 "CC mode sticky", "device reset", _NO_STALE_DATA),
    ("map GPU MMIO into attacker", "hix"): Stopper(
        BLOCKED, "TGMR: only the GPU enclave maps this MMIO",
        "TGMR walker check", TlbValidationError),
    ("map GPU MMIO into attacker", "gpucc"): Stopper(
        BLOCKED, "CC firewall: BAR1 VRAM aperture disabled", "CC firewall",
        UnsupportedRequest),
    ("remap victim's MMIO page to trap memory", "hix"): Stopper(
        BLOCKED, "walker check (4): registered VA must map TGMR PA",
        "TGMR walker check", TlbValidationError),
    ("remap victim's MMIO page to trap memory", "gpucc"): Stopper(
        TOLERATED, "driver is untrusted; MMIO carries no secrets and sealed "
                   "traffic is tamper-evident", None,
        "the untrusted driver reads the trap page"),
    ("rewrite PCIe BAR / bridge window", "hix"): Stopper(
        BLOCKED, "lockdown discarded the config writes (2 rejected)",
        "MMIO lockdown", "neither config write takes effect"),
    ("rewrite PCIe BAR / bridge window", "gpucc"): Stopper(
        TOLERATED, "no lockdown by design: rerouted traffic is ciphertext; "
                   "tampering fails AEAD checks", None,
        "both config writes take effect"),
    ("redirect DMA via IOMMU", "hix"): Stopper(
        DETECTED, "in-GPU OCB tag check failed, aborted", "AEAD tag check",
        DriverError),
    ("redirect DMA via IOMMU", "gpucc"): Stopper(
        DETECTED, "on-die engine tag check failed, aborted",
        "AEAD tag check", IntegrityError),
    ("substitute an emulated GPU", "hix"): Stopper(
        BLOCKED, "EGCREATE: root complex reports non-physical device",
        "physical-device check", NotAGpu),
    ("substitute an emulated GPU", "gpucc"): Stopper(
        DETECTED, "device certificate does not chain to the vendor root",
        "certificate chain", CertChainError),
    ("boot with trojaned GPU BIOS", "hix"): Stopper(
        DETECTED, "GPU BIOS failed measurement at enclave init",
        "BIOS measurement", AttestationError),
    ("boot with trojaned GPU BIOS", "gpucc"): Stopper(
        DETECTED, "firmware hash mismatch at session attestation",
        "signed firmware measurement", AttestationError),
    ("read residual data of a prior user", "hix"): Stopper(
        BLOCKED, "GPU enclave cleanses deallocated memory",
        "cleanse on free", _NO_STALE_DATA),
    ("read residual data of a prior user", "gpucc"): Stopper(
        BLOCKED, "device cleanses on free/destroy; firewall bars raw VRAM "
                 "reads", "cleanse on free", _NO_STALE_DATA),
}


@dataclass
class AttackResult:
    attack_id: str
    name: str
    baseline: str
    secure: str              # the secure-stack verdict
    backend: str = "hix"

    @property
    def defended(self) -> bool:
        return (self.baseline.startswith(SUCCEEDS)
                and not self.secure.startswith(SUCCEEDS))


_SECRET = b"TOP-SECRET-MODEL-WEIGHTS-" + bytes(range(64))


def _machine(backend: str = "hix") -> Machine:
    return Machine(MachineConfig(backend=backend))


def _run(attack_id: str, name: str, baseline: str, backend: str,
         secure: Callable[[Machine], object]) -> AttackResult:
    """Run *secure* on a fresh *backend* machine; its stopper names the
    verdict.

    The attack succeeds when a stopper that raises returns instead, or
    when *secure* reports that the adversary got what it was after.
    """
    stopper = STOPPERS[name, backend]
    error = stopper.evidence if isinstance(stopper.evidence, type) else ()
    try:
        got = secure(_machine(backend)) or bool(error)
    except error:
        got = False
    verdict = SUCCEEDS if got and stopper.mechanism else stopper.text
    return AttackResult(attack_id, name, baseline, verdict, backend=backend)


# -- (1) inter-enclave shared memory ------------------------------------------

def attack_snoop_transit(backend: str = "hix") -> AttackResult:
    """Privileged inspection of data in flight to the GPU."""
    # Baseline: plaintext sits in the driver's DMA staging buffer.
    machine = _machine()
    driver = machine.make_gdev()
    app = machine.gdev_session(driver).cuCtxCreate()
    buf = app.cuMemAlloc(len(_SECRET))
    app.cuMemcpyHtoD(buf, _SECRET)
    adversary = machine.adversary()
    snooped = adversary.read_physical(driver._staging_pa, len(_SECRET))  # noqa: SLF001
    baseline = (SUCCEEDS + " (plaintext recovered from DMA buffer)"
                if snooped == _SECRET else "FAILED")

    def secure(machine):
        # The shared region only ever holds ciphertext.
        service = machine.boot_secure()
        app = machine.secure_session(service).cuCtxCreate()
        buf = app.cuMemAlloc(len(_SECRET))
        app.cuMemcpyHtoD(buf, _SECRET)
        region = app._end.region  # noqa: SLF001 - experiment introspection
        observed = machine.adversary().read_physical(
            region.paddr + BULK_OFFSET, len(_SECRET) + 64)
        return _SECRET in observed

    return _run("(1)", "snoop data in transit", baseline, backend, secure)


def attack_replay_request(backend: str = "hix") -> AttackResult:
    """Replay a previously-observed command/request."""
    # Baseline: the OS re-rings the doorbell; the GPU re-executes.
    machine = _machine()
    driver = machine.make_gdev()
    app = machine.gdev_session(driver).cuCtxCreate()
    module = app.cuModuleLoad(["builtin.memset32"])
    buf = app.cuMemAlloc(4096)
    app.cuLaunchKernel(module, "builtin.memset32", [buf, 16, 7])
    launched_before = machine.gpu.contexts[app.ctx.ctx_id].kernels_launched
    adversary = machine.adversary()
    bar0 = driver.channel.regions["bar0"]
    # The adversary observed the victim's launch on the (unprotected)
    # FIFO and replays an identical command batch through its own MMIO
    # mapping — nothing authenticates command provenance on the baseline.
    from repro.gpu.commands import CommandOpcode, encode_command
    replayed = encode_command(
        CommandOpcode.LAUNCH, app.ctx.ctx_id,
        (module.gpu_va, module.nbytes, 0, app.ctx.param_va, 64, 0))
    adversary.write_mmio(bar0.paddr + regs.FIFO_OFFSET, replayed)
    adversary.write_mmio(bar0.paddr + regs.REG_DOORBELL,
                         len(replayed).to_bytes(4, "little"))
    launched_after = machine.gpu.contexts[app.ctx.ctx_id].kernels_launched
    baseline = (SUCCEEDS + " (replayed launch re-executed)"
                if launched_after > launched_before
                else SUCCEEDS + " (adversary drives MMIO at will)")

    def secure(machine):
        # Resending the sealed request must trip the replay guard
        # (enforced in the GPU enclave on HIX, on the on-die engine on
        # GPU-CC — either way before dispatch).
        service = machine.boot_secure()
        app = machine.secure_session(service).cuCtxCreate()
        app.cuMemAlloc(4096)
        end = app._end  # noqa: SLF001
        # Capture the sealed malloc request by reading shared memory.
        machine.adversary().read_physical(end.region.paddr, 512)
        end.to_service.send("request", 0, 512)
        service.poll(end)

    return _run("(1)", "replay a captured request", baseline, backend,
                secure)


# -- (2) enclave state and termination ------------------------------------------

def attack_read_runtime_secrets(backend: str = "hix") -> AttackResult:
    """Read the application's key material / plaintext from memory."""
    machine = _machine()
    driver = machine.make_gdev()
    app = machine.gdev_session(driver).cuCtxCreate()
    process = app._process  # noqa: SLF001
    vaddr = machine.kernel.alloc_pages(process, 1)
    machine.kernel.cpu_write(process, vaddr, _SECRET)
    paddr, _ = process.page_table.lookup(vaddr)
    adversary = machine.adversary()
    stolen = adversary.read_physical(paddr, len(_SECRET))
    baseline = (SUCCEEDS + " (app memory readable by OS)"
                if stolen == _SECRET else "FAILED")

    def secure(machine):
        service = machine.boot_secure()
        if backend == "hix":
            return machine.adversary().read_enclave_memory(
                service.process, service.enclave.base, 64)
        # GPU-CC has no driver enclave to rob: the driver never holds a
        # key, and plaintext/key material stay in the CPU TEE and the
        # device.  Sweep every host-DRAM structure the session touched.
        app = machine.secure_session(service).cuCtxCreate()
        buf = app.cuMemAlloc(len(_SECRET))
        app.cuMemcpyHtoD(buf, _SECRET)
        adversary = machine.adversary()
        region = app._end.region  # noqa: SLF001
        image = adversary.read_physical(region.paddr, region.size)
        image += adversary.read_physical(
            service.driver._staging_pa, 1 << 16)  # noqa: SLF001
        return _SECRET in image

    return _run("(2)", "read driver/app secrets from memory", baseline,
                backend, secure)


def attack_kill_and_reclaim(backend: str = "hix") -> AttackResult:
    """Kill the driver process and take over the GPU."""
    machine = _machine()
    machine.make_gdev()
    # Baseline: the OS owns the driver; a new driver instance simply
    # takes the GPU over, residual state intact.
    try:
        machine.make_gdev()
        baseline = SUCCEEDS + " (new driver grabs the GPU, data intact)"
    except Exception as exc:  # pragma: no cover
        baseline = f"FAILED ({exc})"

    def secure(machine):
        service = machine.boot_secure()
        if backend == "hix":
            machine.adversary().kill_process(service.process)
            return machine.boot_secure()
        # GPU-CC has no GECS: a new (attacker) driver CAN take the GPU.
        # What it cannot do is recover anything — bring-up forces a
        # device reset that scrubs VRAM and drops contexts, CC mode is
        # sticky, and the firewall bars raw reads throughout.
        victim = machine.secure_session(service, "victim").cuCtxCreate()
        buf = victim.cuMemAlloc(len(_SECRET))
        victim.cuMemcpyHtoD(buf, _SECRET)
        machine.adversary().kill_process(service.process)
        thief_service = machine.boot_secure()
        thief = machine.secure_session(thief_service, "thief").cuCtxCreate()
        grabbed = thief.cuMemAlloc(len(_SECRET))
        return bytes(thief.cuMemcpyDtoH(grabbed, len(_SECRET))) == _SECRET

    return _run("(2)", "kill GPU enclave and reclaim GPU", baseline,
                backend, secure)


# -- (3) MMIO address translation --------------------------------------------------

def attack_map_mmio(backend: str = "hix") -> AttackResult:
    """Map the GPU's registers into the attacker and drive the GPU."""
    machine = _machine()
    driver = machine.make_gdev()
    bar0_pa = driver.channel.regions["bar0"].paddr
    adversary = machine.adversary()
    value = adversary.map_mmio_into_self(bar0_pa + regs.REG_ID, 4)
    baseline = (SUCCEEDS + " (GPU registers readable/writable)"
                if int.from_bytes(value, "little") != 0 else "FAILED")

    def secure(machine):
        service = machine.boot_secure()
        if backend == "hix":
            bar0_pa = service.driver.channel.regions["bar0"].paddr
            return machine.adversary().map_mmio_into_self(
                bar0_pa + regs.REG_ID, 4)
        # GPU-CC leaves BAR0 registers mappable (they carry no data);
        # the payload the attacker wants is VRAM through the BAR1
        # aperture, which the on-die firewall refuses in CC mode.
        app = machine.secure_session(service).cuCtxCreate()
        buf = app.cuMemAlloc(len(_SECRET))
        app.cuMemcpyHtoD(buf, _SECRET)
        bar1_pa = service.driver.channel.regions["bar1"].paddr
        return machine.adversary().map_mmio_into_self(bar1_pa, len(_SECRET))

    return _run("(3)", "map GPU MMIO into attacker", baseline, backend,
                secure)


def attack_remap_victim_mmio(backend: str = "hix") -> AttackResult:
    """Redirect the driver's MMIO mapping to attacker-controlled DRAM."""
    machine = _machine()
    driver = machine.make_gdev()
    region = driver.channel.regions["bar0"]
    adversary = machine.adversary()
    trap = adversary.alloc_trap_buffer(4096)
    adversary.write_physical(trap, (0xDEAD).to_bytes(4, "little"))
    adversary.remap_victim_page(machine.kernel.kernel_process,
                                region.vaddr, trap)
    value = driver.channel.reg_read(regs.REG_ID)
    baseline = (SUCCEEDS + " (driver silently reads attacker memory)"
                if value == 0xDEAD else "FAILED")

    def secure(machine):
        # No TGMR on GPU-CC: the remap lands, and the untrusted driver
        # reads attacker memory — which is fine, because the driver is
        # outside the TCB and MMIO carries neither plaintext nor keys;
        # any damage it does to sealed traffic fails AEAD verification.
        service = machine.boot_secure()
        region = service.driver.channel.regions["bar0"]
        adversary = machine.adversary()
        trap = adversary.alloc_trap_buffer(4096)
        adversary.write_physical(trap, (0xDEAD).to_bytes(4, "little"))
        adversary.remap_victim_page(service.process, region.vaddr, trap)
        return service.driver.channel.reg_read(regs.REG_ID) == 0xDEAD

    return _run("(3)", "remap victim's MMIO page to trap memory", baseline,
                backend, secure)


# -- (4) PCIe routing ------------------------------------------------------------------

def attack_rewrite_routing(backend: str = "hix") -> AttackResult:
    """Retarget BARs / bridge windows to intercept MMIO traffic."""
    machine = _machine()
    machine.make_gdev()
    adversary = machine.adversary()
    moved = adversary.rewrite_bar(machine.gpu.bdf, 0,
                                  machine.config.mmio_base + (512 << 20))
    baseline = (SUCCEEDS + " (BAR retargeted)") if moved else "FAILED"

    def secure(machine):
        # GPU-CC ships no lockdown, so the rewrites land — and intercept
        # only sealed blobs and public DH values.  The trust argument
        # never depended on PCIe routing integrity on this backend.
        machine.boot_secure()
        adversary = machine.adversary()
        moved_bar = adversary.rewrite_bar(
            machine.gpu.bdf, 0, machine.config.mmio_base + (512 << 20))
        moved_window = adversary.rewrite_bridge_window(
            Bdf(0, 1, 0), machine.config.mmio_base,
            machine.config.mmio_base + (64 << 20))
        return moved_bar or moved_window

    return _run("(4)", "rewrite PCIe BAR / bridge window", baseline,
                backend, secure)


# -- (5) DMA ---------------------------------------------------------------------------

def attack_redirect_dma(backend: str = "hix") -> AttackResult:
    """IOMMU-redirect the GPU's DMA reads to attacker data."""
    payload = np.frombuffer(_SECRET[:64], dtype=np.uint8)

    def redirect_upload(machine, app) -> int:
        """Point the GPU's DMA reads of host buffers at a trap, then
        upload the payload; returns the device buffer."""
        adversary = machine.adversary()
        trap = adversary.alloc_trap_buffer(1 << 16)
        adversary.write_physical(trap, b"\xEE" * (1 << 16))
        # Redirect every page the GPU would read for host buffers.
        if app.secure:
            source_pa = app._end.region.paddr + BULK_OFFSET  # noqa: SLF001
            # A well-formed frame, so the device gets as far as its tag
            # check: valid magic and length, and the session's next
            # bulk-upload nonce (counter 1; nonces are public), but
            # sealed under a key the adversary made up.
            forged = make_suite(machine.config.suite_name,
                                b"\xA5" * KEY_LEN)
            adversary.write_physical(trap, seal_blob(
                forged, NonceSequence(CH_BULK_H2D), b"\xEE" * len(payload)))
        else:
            source_pa = machine._gdev_staging_pa
        for offset in range(0, 1 << 16, 4096):
            adversary.redirect_iommu(str(machine.gpu.bdf),
                                     source_pa + offset, trap)
        buf = app.cuMemAlloc(64)
        app.cuMemcpyHtoD(buf, payload)
        return buf

    machine = _machine()
    driver = machine.make_gdev()
    machine._gdev_staging_pa = driver._staging_pa  # noqa: SLF001
    app = machine.gdev_session(driver).cuCtxCreate()
    result = bytes(app.cuMemcpyDtoH(redirect_upload(machine, app), 64))
    baseline = (SUCCEEDS + " (GPU silently computed on attacker bytes)"
                if result == b"\xEE" * 64 else
                SUCCEEDS + " (DMA redirected without detection)")

    def secure(machine):
        # The device must refuse the forged frame at its AEAD tag check
        # (in-GPU on HIX, the on-die engine on GPU-CC); an upload it
        # accepts has put attacker bytes in the victim's buffer.
        service = machine.boot_secure()
        redirect_upload(machine,
                        machine.secure_session(service).cuCtxCreate())

    return _run("(5)", "redirect DMA via IOMMU", baseline, backend, secure)


# -- (6) GPU emulation --------------------------------------------------------------------

def attack_emulated_gpu(backend: str = "hix") -> AttackResult:
    """Substitute a software-emulated GPU."""
    from repro.gdev.driver import GdevDriver

    machine = _machine()
    adversary = machine.adversary()
    fake = adversary.plant_emulated_gpu(machine.root_port, Bdf(1, 1, 0))
    fake.connect_dma(machine.dma)
    driver = GdevDriver(machine.kernel, machine.root_complex, fake)
    baseline = (SUCCEEDS + " (driver controls the fake GPU)"
                if driver.vram.capacity > 0 else "FAILED")

    def secure(machine):
        # HIX refuses the fake at EGCREATE.  The untrusted GPU-CC driver
        # happily boots it; the user catches the substitution at session
        # setup: the fake's device certificate cannot chain to the
        # vendor root.
        fake = machine.adversary().plant_emulated_gpu(machine.root_port,
                                                      Bdf(1, 1, 0))
        fake.connect_dma(machine.dma)
        service = machine.boot_secure(device=fake)
        return machine.secure_session(service).cuCtxCreate()

    return _run("(6)", "substitute an emulated GPU", baseline, backend,
                secure)


def attack_tampered_bios(backend: str = "hix") -> AttackResult:
    """Trojan the GPU BIOS before driver initialization."""
    machine = _machine()
    adversary = machine.adversary()
    adversary.flash_gpu_bios(machine.gpu)
    try:
        machine.make_gdev()
        baseline = SUCCEEDS + " (baseline never measures the BIOS)"
    except Exception:  # pragma: no cover
        baseline = "FAILED"

    def secure(machine):
        # HIX measures the BIOS at enclave init.  GPU-CC boots blind (the
        # untrusted driver measures nothing); the signed firmware hash in
        # the attestation report catches the trojan when the first user
        # verifies its session.
        machine.adversary().flash_gpu_bios(machine.gpu)
        service = machine.boot_secure()
        return machine.secure_session(service).cuCtxCreate()

    return _run("(2)", "boot with trojaned GPU BIOS", baseline, backend,
                secure)


def attack_residual_memory(backend: str = "hix") -> AttackResult:
    """Recover another user's data from deallocated GPU memory (§4.5)."""
    def leak(machine, make_session) -> bytes:
        victim = make_session("victim").cuCtxCreate()
        buf = victim.cuMemAlloc(len(_SECRET))
        victim.cuMemcpyHtoD(buf, _SECRET)
        victim.cuMemFree(buf)
        victim.cuCtxDestroy()
        thief = make_session("thief").cuCtxCreate()
        grabbed = thief.cuMemAlloc(len(_SECRET))
        return thief.cuMemcpyDtoH(grabbed, len(_SECRET))

    machine = _machine()
    driver = machine.make_gdev()
    recovered = leak(machine, lambda n: machine.gdev_session(driver, n))
    baseline = (SUCCEEDS + " (stale VRAM returned to new context)"
                if recovered == _SECRET else "FAILED")

    def secure(machine):
        service = machine.boot_secure()
        return leak(machine, lambda n: machine.secure_session(service, n)
                    ) == _SECRET

    return _run("(2)", "read residual data of a prior user", baseline,
                backend, secure)


ATTACKS: List[Callable[..., AttackResult]] = [
    attack_snoop_transit,
    attack_replay_request,
    attack_read_runtime_secrets,
    attack_kill_and_reclaim,
    attack_map_mmio,
    attack_remap_victim_mmio,
    attack_rewrite_routing,
    attack_redirect_dma,
    attack_emulated_gpu,
    attack_tampered_bios,
    attack_residual_memory,
]


def run_attack_matrix(backend: str = "hix") -> List[AttackResult]:
    """Execute every attack against the baseline and *backend*."""
    if backend not in BACKEND_LABELS:
        known = ", ".join(sorted(BACKEND_LABELS))
        raise ValueError(f"unknown backend {backend!r}; known: {known}")
    return [attack(backend) for attack in ATTACKS]


def render_attack_matrix(results: List[AttackResult]) -> str:
    backend = results[0].backend if results else "hix"
    label = BACKEND_LABELS.get(backend, backend.upper())
    rows = [[r.attack_id, r.name, r.baseline, r.secure,
             "yes" if r.defended else "NO"] for r in results]
    return render_table(
        "Figure 10 / Section 5.5: attack-surface analysis (executed)",
        ["#", "Attack", "Gdev baseline", label, "Defended"], rows)
