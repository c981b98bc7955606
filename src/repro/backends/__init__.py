"""Pluggable TEE backends for the secure GPU stack.

Importing this package registers the built-in backends; select one via
``MachineConfig(backend=...)`` or look it up with :func:`get_backend`.
"""

from repro.backends.base import (
    TeeBackend,
    backend_names,
    get_backend,
    register,
)
from repro.backends.hix import HixBackend
from repro.backends.gpucc import GpuCcBackend

__all__ = [
    "TeeBackend",
    "backend_names",
    "get_backend",
    "register",
    "HixBackend",
    "GpuCcBackend",
]
