#!/usr/bin/env python3
"""Secure ML inference on an untrusted cloud host.

The scenario from the paper's introduction: a tenant offloads inference
over *sensitive data* to a cloud GPU, but the cloud operator's OS is
compromised.  A two-layer MLP's weights and the tenant's inputs travel
to the GPU; we run the same job on both stacks and let a privileged
adversary inspect every byte of host memory it can reach:

* Gdev baseline — the adversary recovers the raw inputs (and weights)
  from the driver's DMA staging buffer.
* HIX — the adversary sees only OCB-AES ciphertext; the computation's
  inputs, weights, and outputs never exist in plaintext outside the
  user enclave and the GPU.

Run:  python examples/secure_ml_inference.py
"""

import numpy as np

from repro import Machine
from repro.gpu.kernels import global_registry

# -- a tiny MLP "model" -------------------------------------------------------

HIDDEN = 32
CLASSES = 4
FEATURES = 64
BATCH = 16


def register_inference_kernel():
    """An inference kernel: one hidden layer + argmax logits."""
    registry = global_registry()
    if "mlp.forward" in registry:
        return

    @registry.kernel("mlp.forward")
    def _mlp_forward(dev, ctx, params):
        x_ptr, w1_ptr, w2_ptr, out_ptr, batch, feats, hidden, classes = params
        read = lambda ptr, n: np.frombuffer(
            dev.read_ctx(ctx, ptr.addr, n * 4), dtype=np.float32).copy()
        x = read(x_ptr, batch * feats).reshape(batch, feats)
        w1 = read(w1_ptr, feats * hidden).reshape(feats, hidden)
        w2 = read(w2_ptr, hidden * classes).reshape(hidden, classes)
        logits = np.maximum(x @ w1, 0.0) @ w2
        labels = logits.argmax(axis=1).astype(np.int32)
        dev.write_ctx(ctx, out_ptr.addr, labels.tobytes())


def run_inference(api, x, w1, w2, after_upload=None):
    """Run the MLP; *after_upload* fires while the inputs are in flight."""
    api.cuCtxCreate()
    d_x = api.cuMemAlloc(x.nbytes)
    d_w1 = api.cuMemAlloc(w1.nbytes)
    d_w2 = api.cuMemAlloc(w2.nbytes)
    d_out = api.cuMemAlloc(BATCH * 4)
    api.cuMemcpyHtoD(d_x, x)
    if after_upload is not None:
        after_upload(api)
    api.cuMemcpyHtoD(d_w1, w1)
    api.cuMemcpyHtoD(d_w2, w2)
    module = api.cuModuleLoad(["mlp.forward"])
    api.cuLaunchKernel(module, "mlp.forward",
                       [d_x, d_w1, d_w2, d_out, BATCH, FEATURES,
                        HIDDEN, CLASSES], compute_seconds=2e-4)
    labels = np.frombuffer(api.cuMemcpyDtoH(d_out, BATCH * 4),
                           dtype=np.int32)
    api.cuCtxDestroy()
    return labels


def snoop_host_memory(machine, regions, needle):
    """Privileged adversary: scan reachable host memory for *needle*."""
    adversary = machine.adversary()
    hits = 0
    for paddr, size in regions:
        try:
            dump = adversary.read_physical(paddr, size)
        except Exception:
            continue
        if needle in dump:
            hits += 1
    return hits


def main():
    register_inference_kernel()
    rng = np.random.default_rng(2026)
    # Patient vitals, say — definitely not for the cloud operator's eyes.
    x = rng.standard_normal((BATCH, FEATURES)).astype(np.float32)
    for i in range(BATCH):                   # give each record a signature
        x[i, (i % CLASSES)::CLASSES] += 2.0
    w1 = rng.standard_normal((FEATURES, HIDDEN)).astype(np.float32) * 0.4
    w2 = rng.standard_normal((HIDDEN, CLASSES)).astype(np.float32)
    needle = x.tobytes()[:64]  # a recognisable slice of the inputs

    # --- Gdev baseline ---------------------------------------------------
    machine = Machine()
    driver = machine.make_gdev()
    snoop_hits = []

    def snoop_gdev(_api):
        # The inputs just crossed the driver's DMA staging buffer.
        snoop_hits.append(snoop_host_memory(
            machine, [(driver._staging_pa, 1 << 20)], needle))  # noqa: SLF001

    labels = run_inference(machine.gdev_session(driver, "clinic"),
                           x, w1, w2, after_upload=snoop_gdev)
    print(f"[Gdev] predictions: {labels.tolist()}")
    print(f"[Gdev] adversary found plaintext inputs in host memory: "
          f"{'YES - data leaked' if snoop_hits[0] else 'no'}")

    # --- HIX ----------------------------------------------------------------
    machine = Machine()
    service = machine.boot_secure()
    app = machine.secure_session(service, "clinic")
    snoop_hits.clear()

    def snoop_hix(api):
        region = api._end.region  # noqa: SLF001 - the shared channel memory
        snoop_hits.append(snoop_host_memory(
            machine, [(region.paddr, region.size)], needle))

    labels_hix = run_inference(app, x, w1, w2, after_upload=snoop_hix)
    print(f"\n[HIX ] predictions: {labels_hix.tolist()}")
    print(f"[HIX ] adversary found plaintext inputs in host memory: "
          f"{'YES - data leaked' if snoop_hits[0] else 'no (ciphertext only)'}")

    assert (labels == labels_hix).all(), "stacks disagree!"
    print("\nsame predictions on both stacks; only HIX kept the data secret")


if __name__ == "__main__":
    main()
