"""The TEE-backend contract: what a sealed GPU stack must provide.

A backend is one point in the CPU-GPU confidential-computing design
space.  It owns four things:

1. **Boot/attest** — bring up the trusted intermediary (HIX's GPU
   enclave; GPU-CC's on-die engines behind an untrusted driver) and
   establish what the user verifies: an enclave measurement chain or a
   device certificate chain.
2. **Key-exchange transcript** — how the per-session key is agreed
   (HIX: 3-party DH among user, GPU enclave and GPU; GPU-CC: 2-party
   DH user <-> device, relayed but never readable by the driver).
3. **Sealed-path framing** — how bulk data crosses the untrusted host
   (HIX: OCB-DMA windows + in-GPU crypto kernels; GPU-CC: bounce-buffer
   DMA + the on-die AEAD engine).
4. **Cost terms and cleanse/reset semantics** — the
   :class:`~repro.sim.costs.CostModel` values each sealed operation
   charges (the methods below), and what guarantees
   deallocation/reset give.

Everything else is shared.  Every backend's user runtime is a thin
subclass of :class:`~repro.core.runtime.SealedClient` (names plus the
attested handshake) and every service a thin subclass of
:class:`~repro.core.service.SealedService` (boot, hello, and how the
device opens and seals a staged frame).  The backend builds both
(:meth:`TeeBackend.boot`, :meth:`TeeBackend.create_session`), so
everything above — :class:`~repro.system.Machine`, the serving layer,
the fleet router, evalkit — is backend-agnostic.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

#: A copy pipeline: (stage bandwidths, stage setup latencies), in
#: data-flow order.
Stages = Tuple[Sequence[float], Sequence[float]]


class TeeBackend:
    """One TEE design point.  Subclasses are stateless singletons."""

    #: registry key, ``--backend`` value, and cost-model mode string
    name: str = "?"
    #: what the user verifies before trusting the stack
    attestation: str = "?"
    #: how bulk data is framed across the untrusted host
    sealed_path: str = "?"
    #: does the backend lock down GPU MMIO from other ring-0 software?
    mmio_lockdown: bool = False
    #: does killing the service leave the GPU bound (GECS-style)?
    termination_protection: bool = False

    # -- lifecycle ------------------------------------------------------

    def boot(self, machine, device=None):
        """Build and boot this backend's machine-side service on
        *machine* for *device* (default: the machine's first GPU)."""
        raise NotImplementedError

    def create_session(self, machine, service, name: str = "app",
                       channel_queue_depth=None):
        """A tenant's client runtime on *service*, expecting the
        vendor-published identity; its ``cuCtxCreate`` attests and
        keys the session.  *channel_queue_depth* bounds both
        notification queues (``None``: unbounded)."""
        raise NotImplementedError

    # -- cost terms -----------------------------------------------------
    # The one place a backend's simulated seconds come from: the shared
    # client charges them per operation and the evalkit harness's
    # analytic model reads the same terms.  Each takes the CostModel.

    def session_costs(self, costs) -> Tuple[float, float]:
        """(task init, session setup) seconds charged at cuCtxCreate."""
        raise NotImplementedError

    def rpc_round_trip(self, costs) -> float:
        """One sealed request/reply round trip over the channel."""
        raise NotImplementedError

    def request_overhead(self, costs) -> float:
        """Per-transfer overhead of the sealed memcpy request."""
        raise NotImplementedError

    def launch_cost(self, costs) -> float:
        """Client-side cost of one kernel launch request."""
        raise NotImplementedError

    def h2d_stages(self, costs) -> Stages:
        """The sealed upload pipeline (Section 5.2)."""
        raise NotImplementedError

    def d2h_stages(self, costs) -> Stages:
        """The sealed download pipeline."""
        raise NotImplementedError

    def device_crypto(self, costs) -> Tuple[float, float]:
        """(per-pass latency, bandwidth) of the device-side AEAD."""
        raise NotImplementedError

    def multiuser_efficiency(self, costs) -> float:
        """Derate of the backend's GPU-side crypto stage under sharing."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TeeBackend {self.name}>"


_REGISTRY: Dict[str, TeeBackend] = {}


def register(backend: TeeBackend) -> TeeBackend:
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> TeeBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ValueError(
            f"unknown TEE backend {name!r}; known backends: {known}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backends in registration order (hix, gpucc): report order."""
    return tuple(_REGISTRY)
