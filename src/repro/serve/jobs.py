"""Tenant job streams: a workload's phase profile as sealed requests.

A serving tenant does not call ``workload.run()`` monolithically — a
server admits *requests*.  This module decomposes a workload's modeled
profile (:meth:`Workload.phases`) into the request stream a client of
the serving engine would issue: setup (alloc + module load), chunked
host-to-device uploads, grouped kernel launches, chunked downloads, and
cleanup.  Every request really executes over the sealed protocol — the
uploads move ``modeled / inflation`` real bytes through the single-copy
path, launches run ``builtin.memset32`` with the workload's modeled
compute hint attached — so the per-request times the engine measures
carry the same structure the analytic Figures 8/9 segments assume
(pipelined copies, per-chunk in-GPU crypto, launch-grouped compute).

Chunk/group caps keep wall-clock bounded at high inflation; the launch
cap is compensated exactly like the harness's launch-count correction,
by charging the elided launches' overhead
(``costs.launch_overhead(backend)``) as extra host seconds on the
grouped launch requests.  Pass ``backend=`` matching the machine's
``MachineConfig.backend`` so the compensation uses that backend's
per-launch cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.serve.engine import TenantClient
from repro.serve.queues import ServeRequest
from repro.sim.costs import CostModel
from repro.workloads.base import Workload

_MIN_BUFFER = 4096
#: Caps on a stream's upload/download chunks and on its launch groups.
_MAX_COPY_CHUNKS, _MAX_LAUNCH_GROUPS = 8, 8


def _chunk_count(modeled_bytes: float, chunk_bytes: int, cap: int) -> int:
    if modeled_bytes <= 0:
        return 0
    chunks = int(-(-modeled_bytes // chunk_bytes))
    return max(min(chunks, cap), 1)


def submit_workload(client: TenantClient, workload: Workload,
                    inflation: float, costs: CostModel,
                    seed: Optional[int] = None,
                    backend: str = "hix") -> List[ServeRequest]:
    """Queue *workload* on *client* as a stream of serving requests.

    Returns the submitted requests (setup, uploads, launches, downloads,
    cleanup, in order).  Raises :class:`BackpressureError` if the
    tenant's queue cannot hold the stream — size ``max_queue_depth``
    accordingly.
    """
    real_h2d = int(workload.modeled_h2d / inflation)
    real_d2h = int(workload.modeled_d2h / inflation)
    h2d_chunks = _chunk_count(workload.modeled_h2d,
                              costs.pipeline_chunk_bytes, _MAX_COPY_CHUNKS)
    d2h_chunks = _chunk_count(workload.modeled_d2h,
                              costs.pipeline_chunk_bytes, _MAX_COPY_CHUNKS)
    h2d_per_chunk = (-(-real_h2d // h2d_chunks) if h2d_chunks else 0)
    d2h_per_chunk = (-(-real_d2h // d2h_chunks) if d2h_chunks else 0)
    # One reusable device buffer sized for the largest chunk; word-align
    # for memset32.
    buffer_bytes = max(h2d_per_chunk, d2h_per_chunk, _MIN_BUFFER)
    buffer_bytes += (-buffer_bytes) % 4

    launches = max(workload.n_launches, 0)
    groups = min(launches, _MAX_LAUNCH_GROUPS) if launches else 0
    per_group_compute = (workload.compute_seconds / groups) if groups else 0.0
    elided_per_group = 0.0
    if groups:
        elided_per_group = ((launches / groups) - 1.0) \
            * costs.launch_overhead(backend)

    state: Dict[str, object] = {}
    rng = np.random.default_rng(seed if seed is not None else 1)
    submitted: List[ServeRequest] = []

    def setup(api, nbytes: int = buffer_bytes):
        state["dptr"] = api.cuMemAlloc(nbytes)
        state["module"] = api.cuModuleLoad(["builtin.memset32"])

    submitted.append(client.submit(f"{workload.name}:setup", setup))

    def upload_batch(api, requests):
        api.cuMemcpyHtoDBatch(
            [(state["dptr"], request.batch_arg) for request in requests])

    for index in range(h2d_chunks):
        nbytes = min(h2d_per_chunk, real_h2d - index * h2d_per_chunk)
        if nbytes <= 0:
            break
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8)

        def upload(api, data=data):
            api.cuMemcpyHtoD(state["dptr"], data)

        submitted.append(
            client.submit(f"{workload.name}:h2d[{index}]", upload,
                          memo_key=("h2d", int(nbytes)),
                          batch_key=("h2d", id(state)),
                          batch_arg=data, batch_fn=upload_batch))

    fill_words = min(buffer_bytes // 4, 256)
    fill_value = 0x5A5A5A5A & 0x7FFFFFFF

    def launch_batch(api, requests):
        api.cuLaunchKernelBatch(state["module"], [
            ("builtin.memset32", [state["dptr"], fill_words, fill_value],
             request.batch_arg) for request in requests])

    for index in range(groups):

        def launch(api, hint=per_group_compute):
            api.cuLaunchKernel(state["module"], "builtin.memset32",
                               [state["dptr"], fill_words, fill_value],
                               compute_seconds=hint)

        submitted.append(client.submit(
            f"{workload.name}:launch[{index}]", launch,
            extra_host_seconds=elided_per_group,
            memo_key=("launch", "builtin.memset32", fill_words,
                      per_group_compute),
            batch_key=("launch", id(state)),
            batch_arg=per_group_compute, batch_fn=launch_batch))

    def download_batch(api, requests):
        chunks = api.cuMemcpyDtoHBatch(
            [(state["dptr"], request.batch_arg) for request in requests])
        for request, chunk in zip(requests, chunks):
            request.result = chunk

    for index in range(d2h_chunks):
        nbytes = min(d2h_per_chunk, real_d2h - index * d2h_per_chunk)
        if nbytes <= 0:
            break

        def download(api, nbytes=nbytes):
            return api.cuMemcpyDtoH(state["dptr"], nbytes)

        submitted.append(
            client.submit(f"{workload.name}:d2h[{index}]", download,
                          memo_key=("d2h", int(nbytes)),
                          batch_key=("d2h", id(state)),
                          batch_arg=int(nbytes), batch_fn=download_batch))

    def cleanup(api):
        api.cuMemFree(state["dptr"])

    submitted.append(client.submit(f"{workload.name}:cleanup", cleanup))

    def recover(api, nbytes: int = buffer_bytes):
        # Session re-established after a fault: the old device buffer
        # and module died with the enclave context (cleansed), so the
        # remaining requests' closures need fresh handles in ``state``.
        state["dptr"] = api.cuMemAlloc(nbytes)
        state["module"] = api.cuModuleLoad(["builtin.memset32"])

    client.on_recover.append(recover)
    return submitted
