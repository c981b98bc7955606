"""Nonce management and replay protection.

The paper: "An incrementing nonce is also used to ensure freshness of
the encryption messages and to prevent replay attacks" (Section 5.5).
:class:`NonceSequence` generates strictly increasing nonces for a sender;
:class:`ReplayGuard` enforces strict monotonicity at the receiver and
raises :class:`~repro.errors.ReplayError` on any reuse or rollback.
"""

from __future__ import annotations

from repro.errors import ReplayError

NONCE_LEN = 12


class NonceSequence:
    """Strictly-increasing 96-bit nonce generator for one channel direction.

    Each secure channel direction gets its own ``channel_id`` so that two
    directions of the same session can never collide under one key.
    """

    def __init__(self, channel_id: int = 0) -> None:
        if not 0 <= channel_id < (1 << 32):
            raise ValueError("channel_id must fit in 32 bits")
        self._channel_id = channel_id
        # The 4-byte channel prefix never changes for the lifetime of the
        # sequence; build it once instead of re-encoding per nonce.
        self._prefix = channel_id.to_bytes(4, "big")
        self._counter = 0

    @property
    def counter(self) -> int:
        return self._counter

    def next(self) -> bytes:
        """Return the next nonce: 4-byte channel id || 8-byte counter."""
        self._counter += 1
        if self._counter >= (1 << 64):
            raise OverflowError("nonce counter exhausted")
        return self._prefix + self._counter.to_bytes(8, "big")

    def peek(self) -> bytes:
        """The nonce :meth:`next` would return, without consuming it."""
        return self._prefix + (self._counter + 1).to_bytes(8, "big")


class ReplayGuard:
    """Receiver-side freshness check for an incrementing-nonce channel."""

    def __init__(self, channel_id: int = 0) -> None:
        self._channel_id = channel_id
        self._highest_seen = 0
        self._before_last = 0

    def check(self, nonce: bytes) -> None:
        """Accept *nonce* if strictly newer than anything seen; else raise.

        A receiver checks before it authenticates the frame, and calls
        :meth:`forget` if the frame then fails to open.
        """
        if len(nonce) != NONCE_LEN:
            raise ReplayError(f"malformed nonce of length {len(nonce)}")
        channel = int.from_bytes(nonce[:4], "big")
        counter = int.from_bytes(nonce[4:], "big")
        if channel != self._channel_id:
            raise ReplayError(
                f"nonce for channel {channel}, expected {self._channel_id}")
        if counter <= self._highest_seen:
            raise ReplayError(
                f"replayed or stale nonce counter {counter} "
                f"(highest seen {self._highest_seen})")
        self._before_last = self._highest_seen
        self._highest_seen = counter

    def forget(self, nonce: bytes) -> None:
        """Undo the :meth:`check` that admitted *nonce*: its frame failed
        to open, so its counter (which anyone can forge) must not raise
        the bar for genuine frames."""
        if self._highest_seen == int.from_bytes(nonce[4:], "big"):
            self._highest_seen = self._before_last
