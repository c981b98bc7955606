"""HIX: Heterogeneous Isolated Execution for Commodity GPUs (ASPLOS'19).

Full-system Python reproduction of Jang, Tang, Kim, Sethumadhavan, Huh:
a simulated SGX-capable host with the HIX hardware extensions
(EGCREATE/EGADD, GECS/TGMR, MMIO lockdown, the extended page-table
walker), a Fermi-class GPU, the Gdev baseline CUDA stack, and the HIX
GPU enclave + trusted user runtime on top.

Quickstart::

    from repro import Machine

    machine = Machine()                      # backend="hix" by default
    service = machine.boot_secure()          # GPU enclave takes the GPU
    app = machine.secure_session(service)    # user enclave + trusted runtime
    app.cuCtxCreate()                        # attestation + 3-party DH
    buf = app.cuMemAlloc(4096)
    app.cuMemcpyHtoD(buf, b"secret" * 100)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results of every table and figure.
"""

from repro.core.gpu_enclave import GpuEnclaveService
from repro.core.runtime import HixApi
from repro.gdev.api import GdevApi
from repro.gdev.driver import GdevDriver
from repro.gpu.module import DevPtr
from repro.serve import ServeEngine, TenantQuota
from repro.sim.costs import CostModel
from repro.system import Machine, MachineConfig

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "MachineConfig",
    "CostModel",
    "GpuEnclaveService",
    "HixApi",
    "GdevApi",
    "GdevDriver",
    "DevPtr",
    "ServeEngine",
    "TenantQuota",
    "__version__",
]
