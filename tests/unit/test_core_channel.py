"""Unit tests for inter-enclave channel plumbing and key exchange."""

import pytest

from repro.core.channel import (
    BULK_OFFSET,
    MessageQueue,
    Notification,
    REPLY_OFFSET,
    REQUEST_OFFSET,
    SharedMemoryRegion,
)
from repro.core.key_exchange import (
    bind_report_data,
    check_binding,
    dh_bytes_to_int,
    int_to_dh_bytes,
)
from repro.crypto.session import CH_BULK_H2D, CH_REQUEST, build_session_crypto
from repro.errors import AttestationError, ProtocolError, QueueFullError
from repro.system import Machine, MachineConfig


@pytest.fixture
def machine():
    return Machine(MachineConfig())


class TestMessageQueue:
    def test_fifo_order(self):
        queue = MessageQueue("q")
        queue.send("a", 0, 1)
        queue.send("b", 2, 3)
        assert queue.recv().kind == "a"
        assert queue.recv().kind == "b"

    def test_empty_recv_raises(self):
        with pytest.raises(ProtocolError):
            MessageQueue("q").recv()

    def test_len_and_counter(self):
        queue = MessageQueue("q")
        queue.send("x", 0, 0)
        assert len(queue) == 1
        assert queue.sent == 1
        queue.recv()
        assert len(queue) == 0
        assert queue.sent == 1

    def test_adversary_can_inject(self):
        """The queue is OS state: forgery is possible by design."""
        queue = MessageQueue("q")
        queue.entries.append(Notification("request", 0, 64))
        assert queue.recv().length == 64


class TestBoundedMessageQueue:
    def test_enqueue_on_full_raises(self):
        queue = MessageQueue("q", capacity=2)
        queue.send("a", 0, 1)
        queue.send("b", 0, 1)
        with pytest.raises(QueueFullError):
            queue.send("c", 0, 1)

    def test_queue_full_is_protocol_error(self):
        """Serving code can catch the overflow without special-casing."""
        assert issubclass(QueueFullError, ProtocolError)

    def test_rejected_counter_and_no_silent_drop(self):
        queue = MessageQueue("q", capacity=1)
        queue.send("kept", 0, 1)
        for _ in range(3):
            with pytest.raises(QueueFullError):
                queue.send("dropped", 0, 1)
        assert queue.rejected == 3
        assert queue.sent == 1
        assert len(queue) == 1
        assert queue.recv().kind == "kept"

    def test_recv_frees_capacity(self):
        queue = MessageQueue("q", capacity=1)
        queue.send("a", 0, 1)
        queue.recv()
        queue.send("b", 0, 1)  # does not raise
        assert queue.recv().kind == "b"

    def test_default_is_unbounded(self):
        queue = MessageQueue("q")
        for i in range(1000):
            queue.send("x", i, 1)
        assert len(queue) == 1000

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MessageQueue("q", capacity=0)


class TestSharedMemoryRegion:
    def test_cross_process_visibility(self, machine):
        region = SharedMemoryRegion(machine.kernel, 1 << 16)
        a = machine.kernel.create_process("a")
        b = machine.kernel.create_process("b")
        region.write(a, 100, b"across")
        assert region.read(b, 100, 6) == b"across"

    def test_attach_is_idempotent(self, machine):
        region = SharedMemoryRegion(machine.kernel, 1 << 16)
        process = machine.kernel.create_process("p")
        assert region.attach(process) == region.attach(process)

    def test_bounds_checked(self, machine):
        region = SharedMemoryRegion(machine.kernel, 1 << 16)
        process = machine.kernel.create_process("p")
        with pytest.raises(ProtocolError):
            region.write(process, (1 << 16) - 2, b"xxxx")
        with pytest.raises(ProtocolError):
            region.read(process, 1 << 16, 1)

    def test_layout_offsets_disjoint(self):
        assert REQUEST_OFFSET < REPLY_OFFSET < BULK_OFFSET

    def test_bulk_capacity(self, machine):
        region = SharedMemoryRegion(machine.kernel, 1 << 20)
        assert region.bulk_capacity == (1 << 20) - BULK_OFFSET

    def test_unaligned_size_rejected(self, machine):
        with pytest.raises(ValueError):
            SharedMemoryRegion(machine.kernel, 1000)

    def test_physically_contiguous(self, machine):
        """DMA needs contiguous frames: writes land linearly in DRAM."""
        region = SharedMemoryRegion(machine.kernel, 1 << 16)
        process = machine.kernel.create_process("p")
        region.write(process, 0x1234, b"pattern")
        assert machine.phys_mem.read(region.paddr + 0x1234, 7) == b"pattern"


class TestSessionCrypto:
    def test_channel_keys_distinct(self):
        crypto = build_session_crypto(bytes(16), "fast-auth")
        keys = {crypto.request_suite.key, crypto.reply_suite.key,
                crypto.bulk_suite.key}
        assert len(keys) == 3

    def test_same_session_key_same_suites(self):
        a = build_session_crypto(b"\x01" * 16, "fast-auth")
        b = build_session_crypto(b"\x01" * 16, "fast-auth")
        assert a.request_suite.key == b.request_suite.key

    def test_nonce_channels_configured(self):
        crypto = build_session_crypto(bytes(16), "fast-auth")
        assert crypto.request_nonces.peek()[:4] == (
            CH_REQUEST.to_bytes(4, "big"))
        assert crypto.bulk_h2d_nonces.peek()[:4] == (
            CH_BULK_H2D.to_bytes(4, "big"))


class TestDhWire:
    def test_int_roundtrip(self):
        value = 0x1234_5678_9ABC_DEF0
        assert dh_bytes_to_int(int_to_dh_bytes(value)) == value

    def test_wrong_length_rejected(self):
        with pytest.raises(AttestationError):
            dh_bytes_to_int(b"short")

    def test_binding_roundtrip(self):
        digest = bind_report_data(b"a", b"bb")
        check_binding(digest, b"a", b"bb")

    def test_binding_is_order_sensitive(self):
        with pytest.raises(AttestationError):
            check_binding(bind_report_data(b"a", b"bb"), b"bb", b"a")

    def test_binding_is_length_prefixed(self):
        """("ab","c") must not collide with ("a","bc")."""
        with pytest.raises(AttestationError):
            check_binding(bind_report_data(b"ab", b"c"), b"a", b"bc")
