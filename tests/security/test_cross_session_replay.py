"""A frame captured before a power cycle must not open after it.

After :meth:`~repro.system.Machine.cold_boot` the OS is fresh, so the
same tenant comes back with the same process id and the driver hands
out the same context id.  The user's and the GPU enclave's DH seeds
repeat with them.  Only the device's party changes: it draws a fresh
scalar for every key exchange, from a count that neither reset nor cold
boot clears.  Had it not, the re-attested session would hold the old
key, with its nonce counters and replay guards back at zero, and a bulk
upload the OS captured before the power cycle would open again.

Covered on every backend: the OS swaps the frame of a genuine upload
in the new session for the captured one.  The device must refuse it,
and the buffer must not hold the stale bytes.
"""

import pytest

from repro.backends import backend_names
from repro.core.channel import BULK_OFFSET
from repro.crypto.blob import sealed_size
from repro.errors import DriverError, IntegrityError
from repro.system import Machine, MachineConfig

STALE = b"\x5A" * 4096
FRESH = b"\x33" * 4096


def _upload(machine, payload: bytes):
    """A tenant session and one upload; returns the session, its buffer
    and the sealed frame the OS can read out of the bulk area."""
    service = machine.boot_secure()
    app = machine.secure_session(service, name="tenant").cuCtxCreate()
    buf = app.cuMemAlloc(len(payload))
    app.cuMemcpyHtoD(buf, payload)
    frame = machine.adversary().read_physical(
        app._end.region.paddr + BULK_OFFSET,  # noqa: SLF001
        sealed_size(len(payload)))
    return service, app, buf, frame


@pytest.mark.parametrize("backend", backend_names())
def test_pre_cold_boot_frame_refused_after_reattestation(backend):
    machine = Machine(MachineConfig(backend=backend))
    _, before, buf_before, captured = _upload(machine, STALE)

    machine.cold_boot()
    service = machine.boot_secure()
    app = machine.secure_session(service, name="tenant").cuCtxCreate()
    buf = app.cuMemAlloc(len(FRESH))
    # The replay lines up in every coordinate but the key.
    assert app.ctx_id == before.ctx_id
    assert buf.addr == buf_before.addr

    adversary = machine.adversary()
    original_poll = service.poll

    def swapping_poll(channel_end):
        adversary.write_physical(channel_end.region.paddr + BULK_OFFSET,
                                 captured)
        return original_poll(channel_end)

    service.poll = swapping_poll
    try:
        with pytest.raises((DriverError, IntegrityError)):
            app.cuMemcpyHtoD(buf, FRESH)
    finally:
        service.poll = original_poll
    assert bytes(app.cuMemcpyDtoH(buf, len(STALE))) != STALE


@pytest.mark.parametrize("backend", backend_names())
def test_every_key_exchange_on_a_device_is_fresh(backend):
    """Re-attesting the same tenant across cold boots and context
    churn never derives a key the device derived before."""
    machine = Machine(MachineConfig(backend=backend))
    keys = []
    for _ in range(3):
        service = machine.boot_secure()
        for _ in range(2):
            app = machine.secure_session(service, name="tenant").cuCtxCreate()
            keys.append(app._crypto.session_key)  # noqa: SLF001
            app.cuCtxDestroy()
        machine.cold_boot()
    assert len(set(keys)) == len(keys)
