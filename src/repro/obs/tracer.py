"""Span tracing over the simulated timelines.

A :class:`Span` is one named interval of *virtual* time (machine
``SimClock`` seconds or kernel ``EventClock`` seconds, whichever the
tracer is bound to) plus the *wall-clock* cost the simulator itself paid
inside it.  Spans nest: instrumented layer boundaries (SGX instruction
dispatch, TLP routing, MMU/IOMMU translation, DMA, AEAD seal/open, gdev
API calls, serve request lifecycles) open spans, and every clock charge
emitted while a span is open becomes a leaf under it — the tracer
attaches to a clock's ``add_listener`` surface, which ``SimClock`` and
the kernel's ``EventClock`` share, so one instrumentation point
observes every timing layer now that all of them run through the
unified kernel.

Tenant / session / request identity travels as span *attributes*;
:meth:`Span.attr` resolves a key through the ancestor chain, so a leaf
charge inherits the tenant of the request span it happened under.

Tracing is **off by default** and zero-cost when off: the process-wide
state is one attribute on :data:`STATE`.  Layer boundaries carry the
:func:`traced` decorator, whose wrapper reads that attribute and, with
no tracer installed, calls straight through (one load + one branch,
no span attributes computed); a region inside a function uses the
:func:`span` helper, which returns the shared no-op :data:`NULL_SPAN`
context manager without allocating; and an event at explicit virtual
times reads the attribute itself and calls :meth:`SpanTracer.event`.
Enabling the tracer never touches any clock's arithmetic, so
simulated-time results are bit-identical with tracing on or off
(pinned by ``tests/unit/test_obs.py``).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span", "SpanTracer", "NULL_SPAN", "STATE",
    "tracer", "set_tracer", "enable", "disable", "span", "traced",
]


class Span:
    """One traced interval: virtual-time bounds, wall cost, attributes."""

    __slots__ = ("name", "category", "start", "end", "wall_seconds",
                 "attrs", "parent", "children", "_tracer", "_wall0")

    def __init__(self, name: str, category: str,
                 start: float = 0.0, end: Optional[float] = None,
                 attrs: Optional[Dict[str, object]] = None,
                 parent: Optional["Span"] = None) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.end = end if end is not None else start
        self.wall_seconds = 0.0
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        self.parent = parent
        self.children: List["Span"] = []
        self._tracer: Optional["SpanTracer"] = None
        self._wall0 = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default=None):
        """Resolve *key* through this span and its ancestors."""
        node: Optional[Span] = self
        while node is not None:
            if key in node.attrs:
                return node.attrs[key]
            node = node.parent
        return default

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- context-manager surface (open spans only) ---------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        if self._tracer is not None:
            self._tracer.finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.category!r}, "
                f"[{self.start:.9f}, {self.end:.9f}], "
                f"attrs={self.attrs!r}, children={len(self.children)})")


class _NullSpan:
    """The shared disabled-tracer span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def attr(self, key: str, default=None):
        return default

    @property
    def attrs(self) -> Dict[str, object]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


#: Returned by :func:`span` when tracing is disabled; never allocates.
NULL_SPAN = _NullSpan()


class SpanTracer:
    """Collects a forest of spans against a virtual-time source.

    ``now`` is a zero-argument callable returning the current virtual
    time; :meth:`bind_clock` points it at a ``SimClock`` or kernel
    ``EventClock``, and :meth:`attach` additionally subscribes to the
    clock's charge listeners so every ``advance``/``charge`` becomes a
    leaf span under whatever span is currently open.
    """

    def __init__(self, now: Optional[Callable[[], float]] = None) -> None:
        self._now: Callable[[], float] = now if now is not None else (
            lambda: 0.0)
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._attached: List[object] = []

    # -- time binding ---------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Take virtual time from *clock* (anything with ``.now``)."""
        self._now = lambda: clock.now

    def attach(self, clock) -> None:
        """Bind to *clock* and subscribe to its charge listeners."""
        self.bind_clock(clock)
        if clock not in self._attached:
            clock.add_listener(self.on_charge)
            self._attached.append(clock)

    def detach(self, clock=None) -> None:
        """Unsubscribe from *clock* (default: every attached clock)."""
        clocks = [clock] if clock is not None else list(self._attached)
        for item in clocks:
            if item in self._attached:
                item.remove_listener(self.on_charge)
                self._attached.remove(item)

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, category: str = "span", **attrs) -> Span:
        """Open a child of the current span; use as a context manager."""
        parent = self._stack[-1] if self._stack else None
        node = Span(name, category, start=self._now(),
                    attrs=attrs, parent=parent)
        node._tracer = self
        node._wall0 = time.perf_counter()
        if parent is None:
            self.roots.append(node)
        else:
            parent.children.append(node)
        self._stack.append(node)
        return node

    def finish(self, node: Span) -> None:
        """Close *node* (and any children left open below it)."""
        node.end = self._now()
        node.wall_seconds = time.perf_counter() - node._wall0
        while self._stack:
            if self._stack.pop() is node:
                break

    def event(self, name: str, category: str, start: float,
              seconds: float, **attrs) -> Span:
        """Record an already-complete span at explicit virtual times."""
        parent = self._stack[-1] if self._stack else None
        node = Span(name, category, start=start, end=start + seconds,
                    attrs=attrs, parent=parent)
        if parent is None:
            self.roots.append(node)
        else:
            parent.children.append(node)
        return node

    def on_charge(self, start: float, seconds: float, category: str) -> None:
        """Clock-listener surface: a charge becomes a leaf span."""
        if seconds > 0.0:
            self.event(category, category, start, seconds)

    # -- queries --------------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Optional[Span]:
        for node in self.spans():
            if node.name == name:
                return node
        return None

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()


class _State:
    """Process-wide tracer slot; :func:`traced` wrappers and the
    explicit-time event sites read ``STATE.tracer`` directly."""

    __slots__ = ("tracer",)

    def __init__(self) -> None:
        self.tracer: Optional[SpanTracer] = None


STATE = _State()


def tracer() -> Optional[SpanTracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return STATE.tracer


def set_tracer(new: Optional[SpanTracer]) -> Optional[SpanTracer]:
    """Install *new* (or ``None`` to disable); returns the previous tracer."""
    previous = STATE.tracer
    STATE.tracer = new
    return previous


def enable(clock=None) -> SpanTracer:
    """Install a fresh :class:`SpanTracer`, optionally attached to *clock*."""
    new = SpanTracer()
    if clock is not None:
        new.attach(clock)
    set_tracer(new)
    return new


def disable() -> Optional[SpanTracer]:
    """Disable tracing; returns the tracer that was active."""
    return set_tracer(None)


def span(name: str, category: str = "span", **attrs):
    """Open a span on the active tracer, or :data:`NULL_SPAN` if disabled.

    The disabled path is one attribute load and one branch — the
    contract the perf gate's ``bench_obs`` suite pins.
    """
    active = STATE.tracer
    if active is None:
        return NULL_SPAN
    return active.span(name, category, **attrs)


def traced(name: str, category: Optional[str] = None,
           attrs: Optional[Callable[..., Dict[str, object]]] = None):
    """Decorate a layer boundary so that each call runs inside a span.

    While a tracer is installed, a call opens the span *name* in
    *category*, with the attributes ``attrs(*args, **kwargs)`` computes
    from the call's arguments (none without *attrs*), and closes it when
    the call returns or raises.  With no tracer the wrapper calls
    straight through: one attribute load and one branch, and *attrs*
    never runs.

    A method of a TEE backend's runtime leaves out *category*: its span
    is named ``<self.name>.<name>`` in the category ``self.name``
    (``hix.cuMemcpyHtoD``, ``gpucc.cuCtxCreate``).
    """
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            active = STATE.tracer
            if active is None:
                return fn(*args, **kwargs)
            span_name, span_category = name, category
            if span_category is None:
                span_category = args[0].name
                span_name = f"{span_category}.{name}"
            values = attrs(*args, **kwargs) if attrs is not None else {}
            with active.span(span_name, span_category, **values):
                return fn(*args, **kwargs)
        return inner
    return wrap
