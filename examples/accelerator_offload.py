#!/usr/bin/env python3
"""Protecting a non-GPU accelerator with HIX (paper Section 7).

"HIX can be extended to support various accelerator architectures
communicating with CPUs over I/O interconnects by applying the proposed
device isolation principles."  This example runs a machine with a GPU
*and* a tensor-offload accelerator, gives each its own device enclave,
and shows the same protections hold for both: attested sessions, sealed
transfers, MMIO exclusivity, lockdown on each device's own PCIe path.

Run:  python examples/accelerator_offload.py
"""

import numpy as np

from repro import Machine
from repro.errors import TlbValidationError
from repro.system import MachineConfig


def main():
    machine = Machine(MachineConfig(num_gpus=1, num_accelerators=1))
    accel = machine.accelerators[0]

    gpu_service = machine.boot_secure(device=machine.gpu)
    accel_service = machine.boot_secure(device=accel)
    print("device enclaves booted:")
    print(f"  GPU   {machine.gpu.bdf} class={machine.gpu.config.class_code:#08x} "
          f"firmware={gpu_service.bios_measurement.hex()[:16]}...")
    print(f"  accel {accel.bdf} class={accel.config.class_code:#08x} "
          f"firmware={accel_service.bios_measurement.hex()[:16]}...")

    # The same trusted-runtime API drives both devices.
    with machine.secure_session(gpu_service, "gpu-user") as gpu_app, \
            machine.secure_session(accel_service, "accel-user") as accel_app:
        x = np.arange(1024, dtype=np.int32)
        for label, app, factor in (("GPU", gpu_app, 3),
                                   ("accelerator", accel_app, 7)):
            buf = app.cuMemAlloc(x.nbytes)
            app.cuMemcpyHtoD(buf, x)
            module = app.cuModuleLoad(["builtin.vector_scale"])
            app.cuLaunchKernel(module, "builtin.vector_scale",
                               [buf, len(x), factor])
            result = np.frombuffer(app.cuMemcpyDtoH(buf, x.nbytes),
                                   dtype=np.int32)
            assert (result == x * factor).all()
            print(f"  {label}: sealed offload verified "
                  f"(result[:3]={result[:3].tolist()})")

        # The OS can reach neither device's MMIO...
        adversary = machine.adversary()
        for label, device in (("GPU", machine.gpu), ("accel", accel)):
            try:
                adversary.map_mmio_into_self(device.config.bars[0].address, 4)
                print(f"  {label}: MMIO EXPOSED (bug!)")
            except TlbValidationError:
                print(f"  {label}: MMIO blocked for the OS (TGMR)")

        # ...and each device's PCIe path is independently locked.
        moved = adversary.rewrite_bar(accel.bdf, 0, 0x2_0000_0000)
        print(f"  accel BAR rewrite under lockdown took effect: {moved}")

    print("\nsame isolation principles, different accelerator — Section 7.")


if __name__ == "__main__":
    main()
