"""A forged frame must not lock its session's genuine frames out.

The OS can write a well-formed frame into shared memory whenever it
likes: valid magic and length, a nonce counter of its choosing (nonces
are public), but sealed under a key it made up.  The receiver refuses
it at the tag check.  It must then forget the forged counter: had the
replay guard recorded it, every later genuine frame on that channel
(counters 2, 3, ...) would be refused as stale.

Covered on every backend, for the service's request guard and for the
device's bulk-upload guard.  After the forgery is refused, a genuine
``cuMemAlloc``, upload and download must succeed.
"""

import pytest

from repro.backends import backend_names
from repro.core import protocol
from repro.core.channel import BULK_OFFSET, REQUEST_OFFSET
from repro.crypto.blob import seal_blob
from repro.crypto.session import CH_BULK_H2D, CH_REQUEST
from repro.crypto.suite import KEY_LEN, make_suite
from repro.errors import DriverError, IntegrityError
from repro.system import Machine, MachineConfig

#: Far ahead of any genuine counter.
FORGED_COUNTER = 1 << 40


class _FixedNonce:
    """A nonce source that hands out one chosen counter."""

    def __init__(self, channel: int, counter: int) -> None:
        self._nonce = channel.to_bytes(4, "big") + counter.to_bytes(8, "big")

    def next(self) -> bytes:
        return self._nonce


def _forge(machine, channel: int, payload: bytes, associated_data: bytes):
    suite = make_suite(machine.config.suite_name, b"\xA5" * KEY_LEN)
    return seal_blob(suite, _FixedNonce(channel, FORGED_COUNTER), payload,
                     associated_data)


def _session(backend):
    machine = Machine(MachineConfig(backend=backend))
    service = machine.boot_secure()
    app = machine.secure_session(service).cuCtxCreate()
    return machine, service, app


def _still_serves(app) -> None:
    buf = app.cuMemAlloc(4096)
    payload = bytes(range(256)) * 16
    app.cuMemcpyHtoD(buf, payload)
    assert bytes(app.cuMemcpyDtoH(buf, len(payload))) == payload


@pytest.mark.parametrize("backend", backend_names())
def test_forged_request_does_not_wedge_the_request_guard(backend):
    machine, service, app = _session(backend)
    end = app._end  # noqa: SLF001
    forged = _forge(machine, CH_REQUEST,
                    protocol.encode_message({"op": protocol.OP_MALLOC,
                                             "nbytes": 64}),
                    protocol.REQUEST_AAD)
    machine.adversary().write_physical(end.region.paddr + REQUEST_OFFSET,
                                       forged)
    end.to_service.send("request", REQUEST_OFFSET, len(forged))
    with pytest.raises(IntegrityError):
        service.poll(end)
    _still_serves(app)


@pytest.mark.parametrize("backend", backend_names())
def test_forged_bulk_upload_does_not_wedge_the_device_guard(backend):
    machine, service, app = _session(backend)
    adversary = machine.adversary()
    buf = app.cuMemAlloc(4096)
    payload = b"\x42" * 4096
    forged = _forge(machine, CH_BULK_H2D, b"\xEE" * len(payload),
                    b"%s-bulk-ctx-%d" % (backend.encode(), app.ctx_id))
    # The user's request is genuine; the OS swaps the frame it announces
    # for the forgery after the user wrote it, before the service runs.
    original_poll = service.poll

    def swapping_poll(channel_end):
        adversary.write_physical(channel_end.region.paddr + BULK_OFFSET,
                                 forged)
        return original_poll(channel_end)

    service.poll = swapping_poll
    try:
        with pytest.raises((DriverError, IntegrityError)):
            app.cuMemcpyHtoD(buf, payload)
    finally:
        service.poll = original_poll
    _still_serves(app)
