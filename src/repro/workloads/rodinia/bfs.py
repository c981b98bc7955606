"""Breadth-First Search (BFS): 1,000,000-node random graph.

Level-synchronous BFS, one ``rodinia.bfs_level`` launch per frontier
level, exactly Rodinia's structure.  Table 5: 45.78 MB HtoD (CSR nodes,
edges, masks), 3.81 MB DtoH (the int32 distance array, 4 B x 1e6).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import MB, Workload
from repro.workloads.calibration import RODINIA_COMPUTE_SECONDS
from repro.workloads.rodinia._common import read_i32, registry, write_arr

N_NODES = 1_000_000
AVG_DEGREE = 8


@registry.kernel("rodinia.bfs_level")
def _bfs_level(dev, ctx, params) -> None:
    """Expand one frontier level: (offsets, edges, dist, flag, n, level).

    Writes the number of newly-discovered nodes into *flag* so the host
    can poll a 4-byte stop condition instead of the whole distance array
    (Rodinia's ``h_over`` flag).
    """
    off_ptr, edge_ptr, dist_ptr, flag_ptr, n, level = params
    offsets = read_i32(dev, ctx, off_ptr, n + 1)
    dist = read_i32(dev, ctx, dist_ptr, n)
    discovered = 0
    frontier = np.where(dist == level)[0].astype(np.int64)
    if frontier.size:
        starts = offsets[frontier].astype(np.int64)
        counts = (offsets[frontier + 1] - offsets[frontier]).astype(np.int64)
        total = int(counts.sum())
        if total:
            edges = read_i32(dev, ctx, edge_ptr, int(offsets[n]))
            base = np.repeat(starts - np.concatenate(
                ([0], np.cumsum(counts)[:-1])), counts)
            flat = edges[base + np.arange(total)]
            fresh = np.unique(flat[dist[flat] == -1])
            discovered = int(fresh.size)
            dist[fresh] = level + 1
    write_arr(dev, ctx, dist_ptr, dist)
    write_arr(dev, ctx, flag_ptr, np.array([discovered], dtype=np.int32))


class Bfs(Workload):
    app_code = "BFS"
    name = "bfs"
    problem_desc = "1,000,000 nodes"
    modeled_h2d = int(45.78 * MB)
    modeled_d2h = int(3.81 * MB)
    n_launches = 8   # typical frontier depth of the degree-8 random graph
    compute_seconds = RODINIA_COMPUTE_SECONDS["BFS"]

    def run(self, api, inflation: float = 1.0) -> None:
        n = self.scaled_elems(N_NODES, inflation)
        rng = np.random.default_rng(seed=13)
        degrees = rng.poisson(AVG_DEGREE, size=n).astype(np.int32)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(degrees, out=offsets[1:])
        n_edges = int(offsets[-1])
        edges = rng.integers(0, n, size=max(n_edges, 1), dtype=np.int32)

        dist = np.full(n, -1, dtype=np.int32)
        dist[0] = 0
        d_off = api.cuMemAlloc(offsets.nbytes)
        d_edges = api.cuMemAlloc(max(edges.nbytes, 4))
        d_dist = api.cuMemAlloc(dist.nbytes)
        d_flag = api.cuMemAlloc(4)
        api.cuMemcpyHtoD(d_off, offsets)
        api.cuMemcpyHtoD(d_edges, edges)
        api.cuMemcpyHtoD(d_dist, dist)
        module = api.cuModuleLoad(["rodinia.bfs_level", "builtin.memset32"])

        per_launch = self.per_launch_seconds()
        level = 0
        while level <= 64:
            api.cuLaunchKernel(module, "rodinia.bfs_level",
                               [d_off, d_edges, d_dist, d_flag, n, level],
                               compute_seconds=per_launch)
            level += 1
            flag = np.frombuffer(api.cuMemcpyDtoH(d_flag, 4), dtype=np.int32)
            if int(flag[0]) == 0:
                break
        result = np.frombuffer(api.cuMemcpyDtoH(d_dist, dist.nbytes),
                               dtype=np.int32)

        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path
        graph = csr_matrix(
            (np.ones(n_edges, dtype=np.int8), edges[:n_edges], offsets),
            shape=(n, n))
        reference = shortest_path(graph, method="D", unweighted=True,
                                  indices=0)
        expected = np.where(np.isinf(reference), -1,
                            reference).astype(np.int32)
        self.check(bool((result == expected).all()),
                   "BFS distances diverge from scipy reference")

        # Intermediate distance readbacks above are part of the real BFS
        # loop; pad the remaining HtoD volume up to Table 5.
        semantic_h2d = (offsets.nbytes + edges.nbytes + dist.nbytes) * inflation
        self.send_pad(api, max(int((self.modeled_h2d - semantic_h2d)
                                   / inflation), 0), seed=17)
        for ptr in (d_off, d_edges, d_dist, d_flag):
            api.cuMemFree(ptr)
