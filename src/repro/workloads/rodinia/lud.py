"""LU Decomposition (LUD): 2048x2048, blocked Doolittle.

Rodinia's authentic three-kernel structure per block step:

* ``rodinia.lud_diagonal``  — factor the BxB diagonal block in place;
* ``rodinia.lud_perimeter`` — triangular-solve the row panel (L_d^-1 U)
  and the column panel (L U_d^-1) against the fresh diagonal factors;
* ``rodinia.lud_internal``  — rank-B trailing update of the submatrix.

The result is the compact in-place LU (unit lower diagonal) the original
benchmark produces; verification reconstructs L @ U and also
cross-checks the first block column against an unblocked elimination.
Table 5: 16 MB each way (the float32 matrix in, packed factors out).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import MB, Workload
from repro.workloads.calibration import RODINIA_COMPUTE_SECONDS
from repro.workloads.rodinia._common import read_f32, registry, write_arr

N = 2048
BLOCK = 16


def _read_matrix(dev, ctx, a_ptr, n):
    return read_f32(dev, ctx, a_ptr, n * n).reshape(n, n).astype(np.float64)


@registry.kernel("rodinia.lud_diagonal")
def _lud_diagonal(dev, ctx, params) -> None:
    """In-place LU of the diagonal block: (a, n, k0, bs)."""
    a_ptr, n, k0, bs = params
    a = _read_matrix(dev, ctx, a_ptr, n)
    end = min(k0 + bs, n)
    block = a[k0:end, k0:end]
    for k in range(end - k0 - 1):
        block[k + 1:, k] /= block[k, k]
        block[k + 1:, k + 1:] -= np.outer(block[k + 1:, k], block[k, k + 1:])
    write_arr(dev, ctx, a_ptr, a.astype(np.float32))


@registry.kernel("rodinia.lud_perimeter")
def _lud_perimeter(dev, ctx, params) -> None:
    """Row/column panel solves against the diagonal factors: (a, n, k0, bs)."""
    from scipy.linalg import solve_triangular
    a_ptr, n, k0, bs = params
    a = _read_matrix(dev, ctx, a_ptr, n)
    end = min(k0 + bs, n)
    if end >= n:
        return
    diag = a[k0:end, k0:end]
    lower = np.tril(diag, -1) + np.eye(end - k0)
    upper = np.triu(diag)
    # Row panel: A[k0:end, end:] <- L_d^-1 @ A[k0:end, end:]
    a[k0:end, end:] = solve_triangular(lower, a[k0:end, end:],
                                       lower=True, unit_diagonal=True)
    # Column panel: A[end:, k0:end] <- A[end:, k0:end] @ U_d^-1
    a[end:, k0:end] = solve_triangular(upper.T, a[end:, k0:end].T,
                                       lower=True).T
    write_arr(dev, ctx, a_ptr, a.astype(np.float32))


@registry.kernel("rodinia.lud_internal")
def _lud_internal(dev, ctx, params) -> None:
    """Trailing update: A[end:, end:] -= col_panel @ row_panel."""
    a_ptr, n, k0, bs = params
    a = _read_matrix(dev, ctx, a_ptr, n)
    end = min(k0 + bs, n)
    if end >= n:
        return
    a[end:, end:] -= a[end:, k0:end] @ a[k0:end, end:]
    write_arr(dev, ctx, a_ptr, a.astype(np.float32))


class Lud(Workload):
    app_code = "LUD"
    name = "lud"
    problem_desc = "2048x2048 points"
    modeled_h2d = int(16.00 * MB)
    modeled_d2h = int(16.00 * MB)
    n_launches = 3 * (N // BLOCK)   # diagonal + perimeter + internal per block
    compute_seconds = RODINIA_COMPUTE_SECONDS["LUD"]

    def run(self, api, inflation: float = 1.0) -> None:
        n = self.scaled_dim(N, inflation)
        n = max(n - n % BLOCK, BLOCK)
        rng = np.random.default_rng(seed=31)
        a0 = (rng.random((n, n), dtype=np.float32)
              + np.float32(n) * np.eye(n, dtype=np.float32))

        nbytes = n * n * 4
        d_a = api.cuMemAlloc(nbytes)
        api.cuMemcpyHtoD(d_a, a0)
        module = api.cuModuleLoad(["rodinia.lud_diagonal",
                                   "rodinia.lud_perimeter",
                                   "rodinia.lud_internal",
                                   "builtin.memset32"])
        per_launch = self.compute_seconds / max(3 * (n // BLOCK), 1)
        for k0 in range(0, n, BLOCK):
            api.cuLaunchKernel(module, "rodinia.lud_diagonal",
                               [d_a, n, k0, BLOCK],
                               compute_seconds=per_launch)
            if k0 + BLOCK < n:
                api.cuLaunchKernel(module, "rodinia.lud_perimeter",
                                   [d_a, n, k0, BLOCK],
                                   compute_seconds=per_launch)
                api.cuLaunchKernel(module, "rodinia.lud_internal",
                                   [d_a, n, k0, BLOCK],
                                   compute_seconds=per_launch)
        lu = np.frombuffer(api.cuMemcpyDtoH(d_a, nbytes),
                           dtype=np.float32).reshape(n, n).astype(np.float64)

        lower = np.tril(lu, -1) + np.eye(n)
        upper = np.triu(lu)
        error = float(np.max(np.abs(lower @ upper - a0.astype(np.float64))))
        self.check(error < 1e-2 * n, f"LU reconstruction error {error:g}")

        # Independent check: the first block column must match a plain
        # unblocked elimination over the same columns.
        plain = a0.astype(np.float64)
        for k in range(BLOCK):
            plain[k + 1:, k] /= plain[k, k]
            plain[k + 1:, k + 1:] -= np.outer(plain[k + 1:, k],
                                              plain[k, k + 1:])
        self.check(bool(np.allclose(lu[:, :BLOCK], plain[:, :BLOCK],
                                    rtol=1e-3, atol=1e-3)),
                   "blocked factors diverge from unblocked elimination")
        api.cuMemFree(d_a)
