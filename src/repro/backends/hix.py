"""The HIX-SGX backend: the paper's design, behind the backend contract.

The stack itself is the GPU-enclave service (:mod:`repro.core.gpu_enclave`)
and the user runtime (:mod:`repro.core.runtime`); this module builds
it and states its cost terms, so a machine configured with
``backend="hix"`` is bit-identical in simulated time to the
pre-refactor code path.
"""

from __future__ import annotations

from repro.backends.base import TeeBackend, register
from repro.core.gpu_enclave import GpuEnclaveService
from repro.core.runtime import HixApi
from repro.sgx.enclave import EnclaveImage


class HixBackend(TeeBackend):
    """SGX GPU enclave + OCB-DMA windows + in-GPU crypto kernels."""

    name = "hix"
    attestation = ("SGX local report chain + GPU BIOS measurement at "
                   "enclave init")
    sealed_path = "OCB-DMA window remapping + in-GPU AEAD kernels"
    mmio_lockdown = True
    termination_protection = True

    def boot(self, machine, device=None) -> GpuEnclaveService:
        device = device or machine.gpu
        return GpuEnclaveService(
            machine.kernel, machine.sgx, machine.root_complex, device,
            expected_bios_hash=machine.expected_bios_hash_for(device),
            suite_name=machine.config.suite_name).boot()

    def create_session(self, machine, service, name: str = "app",
                       channel_queue_depth=None) -> HixApi:
        # A user enclave hosting the trusted runtime, which expects the
        # vendor-published GPU enclave identity.
        process = machine.kernel.create_process(name)
        machine.kernel.load_enclave(process, EnclaveImage.from_code(
            f"user-{name}", f"user application {name}".encode()))
        return HixApi(machine.kernel, process, service,
                      clock=machine.clock, costs=machine.costs,
                      expected_gpu_enclave_measurement=(
                          machine.expected_gpu_enclave_measurement),
                      suite_name=machine.config.suite_name,
                      channel_queue_depth=channel_queue_depth)

    def session_costs(self, costs):
        return costs.hix_task_init, costs.session_setup

    def rpc_round_trip(self, costs) -> float:
        return costs.rpc_round_trip()

    def request_overhead(self, costs) -> float:
        return costs.memcpy_request_overhead_hix

    def launch_cost(self, costs) -> float:
        return costs.kernel_launch_hix

    def h2d_stages(self, costs):
        # Seal in the user enclave || DMA the ciphertext to the GPU.
        return ((costs.cpu_aead_bandwidth, costs.pcie_h2d_bandwidth),
                (costs.cpu_aead_setup_latency, costs.dma_setup_latency))

    def d2h_stages(self, costs):
        return ((costs.pcie_d2h_bandwidth, costs.cpu_aead_bandwidth),
                (costs.dma_setup_latency, costs.cpu_aead_setup_latency))

    def device_crypto(self, costs):
        # In-GPU AEAD kernels on the SMs.
        return costs.gpu_aead_kernel_latency, costs.gpu_aead_bandwidth

    def multiuser_efficiency(self, costs) -> float:
        return costs.gpu_aead_multiuser_efficiency


BACKEND = register(HixBackend())
