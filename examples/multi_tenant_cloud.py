#!/usr/bin/env python3
"""Multi-tenant GPU sharing under HIX (paper Section 4.5 / Figures 8-9).

Three tenants share one GPU through the GPU enclave.  Each gets its own
GPU context (separate address space), its own session key, and cleansed
memory on free — so tenants cannot see each other's data even though the
hardware is time-shared.  The script then prints the multi-user makespan
model behind Figures 8/9.

Run:  python examples/multi_tenant_cloud.py
"""

import numpy as np

from repro import Machine
from repro.core.multiuser import simulate_concurrent
from repro.evalkit.harness import GDEV, HIX, user_segments
from repro.sim.costs import CostModel
from repro.workloads.rodinia import BackProp, Hotspot, Pathfinder


def tenant_job(api, tenant_id):
    """Each tenant uploads a secret vector and scales it on the GPU."""
    secret = np.full(1024, tenant_id * 1111, dtype=np.int32)
    buf = api.cuMemAlloc(secret.nbytes)
    api.cuMemcpyHtoD(buf, secret)
    module = api.cuModuleLoad(["builtin.vector_scale"])
    api.cuLaunchKernel(module, "builtin.vector_scale", [buf, 1024, 2])
    result = np.frombuffer(api.cuMemcpyDtoH(buf, secret.nbytes),
                           dtype=np.int32)
    assert (result == secret * 2).all()
    return buf, result


def main():
    machine = Machine()
    service = machine.boot_secure()

    print("=== three tenants, one GPU, one GPU enclave ===")
    tenants = {}
    for tenant_id in (1, 2, 3):
        api = machine.secure_session(service, f"tenant-{tenant_id}")
        api.cuCtxCreate()
        buf, result = tenant_job(api, tenant_id)
        tenants[tenant_id] = (api, buf)
        print(f"tenant {tenant_id}: ctx={api.ctx_id} "
              f"result[:3]={result[:3].tolist()} "
              f"session-key={api._crypto.session_key.hex()[:16]}...")  # noqa: SLF001

    keys = {api._crypto.session_key for api, _ in tenants.values()}  # noqa: SLF001
    print(f"\ndistinct session keys: {len(keys)} (one per tenant)")

    # Same virtual address, different contexts, different device memory.
    addresses = {buf.addr for _, buf in tenants.values()}
    print(f"device VAs issued to tenants: {sorted(hex(a) for a in addresses)}"
          f" -- identical VAs are fine: contexts have separate page tables")

    # Freed memory is cleansed before anyone can re-allocate it.
    api1, buf1 = tenants[1]
    api1.cuMemFree(buf1)
    probe = tenants[2][0].cuMemAlloc(4096)
    leaked = tenants[2][0].cuMemcpyDtoH(probe, 4096)
    print(f"tenant 2 re-allocates tenant 1's freed VRAM: "
          f"{'LEAK!' if any(leaked) else 'zeroed (cleansed on free)'}")

    for api, _ in tenants.values():
        try:
            api.cuCtxDestroy()
        except Exception:
            pass

    # --- the Figures 8/9 contention model --------------------------------
    print("\n=== multi-user makespans (discrete-event model) ===")
    costs = CostModel()
    print(f"{'app':<12} {'users':>5} {'Gdev (ms)':>10} {'HIX (ms)':>10} "
          f"{'overhead':>9}")
    for workload in (BackProp(), Hotspot(), Pathfinder()):
        for users in (1, 2, 4):
            gdev, _, _ = simulate_concurrent(
                [user_segments(workload, costs, GDEV)] * users,
                costs.gpu_context_switch)
            hix, _, _ = simulate_concurrent(
                [user_segments(workload, costs, HIX)] * users,
                costs.gpu_context_switch)
            print(f"{workload.app_code:<12} {users:>5} {gdev * 1e3:>10.2f} "
                  f"{hix * 1e3:>10.2f} {(hix / gdev - 1) * 100:>+8.1f}%")


if __name__ == "__main__":
    main()
