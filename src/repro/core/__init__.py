"""HIX core: the paper's primary contribution, assembled.

* :mod:`repro.core.protocol` — inter-enclave request/reply wire format.
* :mod:`repro.core.channel` — message queue + shared memory (untrusted
  media) connecting user enclaves to the GPU enclave (Section 4.4.1).
* :mod:`repro.core.key_exchange` — local attestation + three-party
  Diffie-Hellman session setup (user enclave, GPU enclave, GPU).
* :mod:`repro.core.service` — the request loop every TEE backend's
  service shares: channel setup, sealed request/reply, dispatch.
* :mod:`repro.core.gpu_enclave` — the GPU enclave service: the relocated
  driver, GPU initialization/measurement, request serving, per-user
  contexts (Sections 4.2, 4.4, 4.5).
* :mod:`repro.core.runtime` — the trusted user runtime library with its
  CUDA-like API (Section 4.4), including the single-copy pipelined
  secure memcpy (Section 4.4.2/5.2); every TEE backend's client is a
  subclass of its :class:`~repro.core.runtime.SealedClient`.
* :mod:`repro.core.multiuser` — the concurrent multi-user execution
  model behind Figures 8 and 9.
"""

from repro.core.channel import ChannelEnd, MessageQueue, SharedMemoryRegion
from repro.core.gpu_enclave import GpuEnclaveService
from repro.core.multiuser import Segment, simulate_concurrent
from repro.core.runtime import HixApi

__all__ = [
    "MessageQueue",
    "SharedMemoryRegion",
    "ChannelEnd",
    "GpuEnclaveService",
    "HixApi",
    "Segment",
    "simulate_concurrent",
]
