#!/usr/bin/env python3
"""Quickstart: secure GPU computing with HIX in ~40 lines.

Boots the simulated machine, brings up the GPU enclave (which takes
exclusive ownership of the GPU), establishes an attested user session,
and runs a matrix addition with end-to-end protected data — then runs
the identical computation on the unsecure Gdev baseline and compares
simulated execution times.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Machine


def compute(api, label, machine):
    """C = A + B on whichever stack *api* fronts."""
    a = np.arange(4 << 20, dtype=np.int32)          # 16 MiB per matrix
    b = (np.arange(4 << 20, dtype=np.int32) * 3).astype(np.int32)

    snapshot = machine.clock.snapshot()
    api.cuCtxCreate()
    d_a = api.cuMemAlloc(a.nbytes)
    d_b = api.cuMemAlloc(b.nbytes)
    d_c = api.cuMemAlloc(a.nbytes)
    api.cuMemcpyHtoD(d_a, a)
    api.cuMemcpyHtoD(d_b, b)
    module = api.cuModuleLoad(["builtin.matrix_add"])
    api.cuLaunchKernel(module, "builtin.matrix_add",
                       [d_a, d_b, d_c, len(a)], compute_seconds=1e-3)
    result = np.frombuffer(api.cuMemcpyDtoH(d_c, a.nbytes), dtype=np.int32)
    elapsed = machine.clock.elapsed_since(snapshot)

    assert (result == a + b).all(), "GPU result mismatch!"
    print(f"\n[{label}] result verified: C[:4] = {result[:4].tolist()}")
    print(f"[{label}] simulated time: {elapsed.total * 1e3:.3f} ms")
    for category, seconds in sorted(elapsed.by_category.items()):
        print(f"    {category:<16} {seconds * 1e3:8.3f} ms")
    api.cuCtxDestroy()
    return elapsed.total


def main():
    # --- HIX: GPU enclave owns the GPU; everything is attested/sealed ---
    machine = Machine()
    service = machine.boot_secure()
    print("GPU enclave booted:")
    print(f"  enclave measurement : {service.measurement.hex()[:32]}...")
    print(f"  GPU BIOS measurement: {service.bios_measurement.hex()[:32]}...")
    print(f"  PCIe MMIO lockdown  : {machine.root_complex.lockdown_enabled}")
    hix_app = machine.secure_session(service, "quickstart")
    hix_seconds = compute(hix_app, "HIX ", machine)

    # --- Gdev baseline: same computation, no protection ------------------
    baseline = Machine()
    gdev_app = baseline.gdev_session(baseline.make_gdev(), "quickstart")
    gdev_seconds = compute(gdev_app, "Gdev", baseline)

    print(f"\nsecurity overhead: "
          f"{(hix_seconds / gdev_seconds - 1.0) * 100.0:+.1f}% "
          f"(small transfers; see benchmarks/ for the paper's figures)")


if __name__ == "__main__":
    main()
