"""Calibrated cost model for the simulated HIX testbed.

All timing in the reproduction flows through one :class:`CostModel`
instance attached to the machine.  The defaults are calibrated to the
paper's testbed (Table 3: i7-6700 + NVIDIA GTX 580 over PCIe 2.0 x16,
SGX SDK 2.0 / SGX-SSL) so that the *shapes* of Figures 6-9 hold:

* matrix addition ~2.5x slower under HIX (crypto-bound),
* matrix multiplication @11264 only ~6.3% slower (compute-bound),
* Rodinia mean overhead ~26.8% with BP/NW/PF the worst cases and
  HS/LUD/NN slightly *faster* under HIX (lower task-init cost),
* multi-user HIX ~45%/~40% worse than parallel Gdev at 2/4 users.

Absolute seconds are not expected to match the 2019 testbed; see
EXPERIMENTS.md for paper-vs-measured values per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

GB = float(1 << 30)
MB = float(1 << 20)
KB = float(1 << 10)

US = 1e-6
MS = 1e-3


@dataclass
class CostModel:
    """Tunable timing parameters of the simulated testbed.

    Bandwidths are bytes/second, latencies are seconds.  Every parameter
    carries the calibration rationale in a trailing comment.
    """

    # --- PCIe interconnect (PCIe 2.0 x16, GTX-580 era effective rates) ---
    pcie_h2d_bandwidth: float = 6.0 * GB      # host->device DMA, effective
    pcie_d2h_bandwidth: float = 5.0 * GB      # device->host DMA, effective
    pcie_mmio_bandwidth: float = 0.7 * GB     # programmed-IO through BAR1
    mmio_reg_latency: float = 1.0 * US        # one BAR0 register read/write
    config_access_latency: float = 2.0 * US   # one PCIe config TLP
    dma_setup_latency: float = 8.0 * US       # descriptor write + doorbell

    # --- CPU-side cryptography (SGX-SSL OCB-AES-128 w/ AES-NI) ---
    cpu_aead_bandwidth: float = 1.9 * GB      # enclave encrypt or decrypt
    cpu_aead_setup_latency: float = 1.0 * US  # per-message nonce/offset setup
    cpu_hash_bandwidth: float = 3.0 * GB      # SHA-256 measurement rate

    # --- GPU-side cryptography (OCB-AES CUDA kernels on Fermi) ---
    gpu_aead_bandwidth: float = 8.0 * GB      # in-GPU encrypt/decrypt kernel
    gpu_aead_kernel_latency: float = 40.0 * US  # crypto kernel launch+drain
    # Under concurrent multi-user service the crypto kernels run on small
    # per-chunk batches that underutilize the SMs (Section 5.4: "resource
    # underutilization for small data cryptography"), so their effective
    # throughput drops by this factor in the multi-user model.
    gpu_aead_multiuser_efficiency: float = 0.5

    # --- GPU-CC backend (H100-style confidential computing) --------------
    # On-die AES-GCM engine sits next to the copy engines: near line rate,
    # fixed-function (no kernel launch, no SM occupancy).
    gpucc_engine_bandwidth: float = 12.0 * GB
    gpucc_engine_latency: float = 8.0 * US
    # Staging copy through the unprotected bounce region the untrusted
    # driver DMAs from (ciphertext only ever crosses it).
    gpucc_bounce_bandwidth: float = 11.0 * GB
    # A fixed-function engine loses less throughput on small per-chunk
    # batches than HIX's SM-resident crypto kernels do.
    gpucc_aead_multiuser_efficiency: float = 0.85

    # --- Copy pipelining (Section 5.2: chunked encrypt || transfer) ---
    pipeline_chunk_bytes: int = 4 * int(MB)

    # --- Driver / task lifecycle ---
    gdev_task_init: float = 30.0 * MS   # cuInit+ctx create+module load (Gdev)
    hix_task_init: float = 13.0 * MS    # driver resident in GPU enclave
    session_setup: float = 5.5 * MS     # local attestation + 3-party DH
    kernel_launch_gdev: float = 60.0 * US   # ioctl + driver submission
    kernel_launch_hix: float = 35.0 * US    # user-level queue beats the ioctl
    memcpy_request_overhead_hix: float = 25.0 * US  # encrypted metadata msg
    enclave_transition: float = 2.0 * US    # EENTER/EEXIT pair
    msgqueue_hop: float = 3.0 * US          # wake + dequeue, one direction
    # GPU-CC lifecycle: plain (untrusted) kernel driver, so task init is
    # cheaper than HIX's in-enclave Gdev, but session setup pays the
    # cert-chain fetch/verify + SPDM-style device attestation instead of
    # a local SGX report.
    gpucc_task_init: float = 16.0 * MS
    gpucc_session_setup: float = 9.0 * MS
    kernel_launch_gpucc: float = 45.0 * US  # sealed submit via untrusted KMD
    memcpy_request_overhead_gpucc: float = 18.0 * US

    # --- GPU execution engine ---
    gpu_context_switch: float = 120.0 * US  # Fermi ctx save/restore
    gpu_memory_cleanse_bandwidth: float = 48.0 * GB  # VRAM zeroing rate
    gpu_kernel_dispatch: float = 5.0 * US   # on-device scheduling cost

    # --- Multi-tenant serving layer (repro.serve) ---
    # One scheduling decision + queue bookkeeping per dispatched request;
    # charged on the host side of the request (the GPU enclave's serving
    # loop runs on the CPU, like the msgqueue hops above).
    serve_dispatch_latency: float = 2.0 * US
    # Deficit round-robin quantum: GPU-engine seconds granted per tenant
    # per scheduler round.  Sized to one pipeline chunk's in-GPU crypto
    # pass (4 MiB / 8 GBps + launch drain) so a single bulk chunk never
    # needs more than two rounds of credit.
    serve_fair_quantum: float = 600.0 * US

    # --- SGX microcode (emulated via VM exits in the paper's prototype) ---
    sgx_instruction_latency: float = 3.0 * US   # ECREATE/EADD/EGADD etc.
    epc_page_add_latency: float = 1.5 * US      # per EADD'd page

    # --- Functional-vs-modeled data scaling --------------------------------
    # Workloads move real bytes at reduced scale; the clock is charged for
    # `real_bytes * data_inflation` so modeled sizes match the paper.
    data_inflation: float = 1.0

    extras: Dict[str, float] = field(default_factory=dict)

    # -- derived helpers ----------------------------------------------------

    def scaled(self, nbytes: int) -> float:
        """Modeled byte count for *nbytes* real bytes."""
        return nbytes * self.data_inflation

    def h2d_time(self, nbytes: int, via_mmio: bool = False) -> float:
        """Seconds to move *nbytes* (modeled) host->device, excluding crypto."""
        bandwidth = self.pcie_mmio_bandwidth if via_mmio else self.pcie_h2d_bandwidth
        return self.dma_setup_latency + self.scaled(nbytes) / bandwidth

    def d2h_time(self, nbytes: int, via_mmio: bool = False) -> float:
        bandwidth = self.pcie_mmio_bandwidth if via_mmio else self.pcie_d2h_bandwidth
        return self.dma_setup_latency + self.scaled(nbytes) / bandwidth

    def cpu_aead_time(self, nbytes: int) -> float:
        """Seconds for one CPU-side authenticated encrypt/decrypt pass."""
        return self.cpu_aead_setup_latency + self.scaled(nbytes) / self.cpu_aead_bandwidth

    def gpu_aead_time(self, nbytes: int) -> float:
        """Seconds for one in-GPU crypto kernel over *nbytes* (modeled)."""
        return self.gpu_aead_kernel_latency + self.scaled(nbytes) / self.gpu_aead_bandwidth

    def cleanse_time(self, nbytes: int) -> float:
        """Seconds to zero *nbytes* of VRAM on deallocation/context teardown."""
        return self.scaled(nbytes) / self.gpu_memory_cleanse_bandwidth

    def rpc_round_trip(self) -> float:
        """One sealed request/reply round trip over the untrusted channel."""
        return (2 * self.msgqueue_hop + 2 * self.enclave_transition
                + 2 * self.cpu_aead_setup_latency)

    def rpc_round_trip_gpucc(self) -> float:
        """GPU-CC sealed round trip: no enclave to enter, so the
        EENTER/EEXIT pair drops out; everything else is identical."""
        return 2 * self.msgqueue_hop + 2 * self.cpu_aead_setup_latency

    def launch_overhead(self, mode: str) -> float:
        """Driver-visible cost of one kernel launch, beyond GPU compute.

        *mode* is ``"gdev"`` (ioctl + param-buffer DMA + FIFO kick +
        status poll), ``"hix"`` (sealed round trip + trusted-MMIO param
        write) or ``"gpucc"`` (sealed round trip through the untrusted
        KMD + param staging via the bounce DMA path — no trusted MMIO
        exists under the CC firewall).  Shared by the evalkit harness's
        launch-count correction and the serving layer's job builder, so
        both charge elided launches identically.
        """
        if mode == "gdev":
            return (self.kernel_launch_gdev + self.dma_setup_latency
                    + 4 * self.mmio_reg_latency)
        if mode == "hix":
            return (self.kernel_launch_hix + self.rpc_round_trip()
                    + 4 * self.mmio_reg_latency)
        if mode == "gpucc":
            return (self.kernel_launch_gpucc + self.rpc_round_trip_gpucc()
                    + self.dma_setup_latency)
        raise ValueError(
            f"mode must be 'gdev', 'hix' or 'gpucc', got {mode!r}")

    def with_overrides(self, **overrides: float) -> "CostModel":
        """Return a copy with the given parameters replaced (for ablations)."""
        return replace(self, **overrides)
