"""Host-time spans around the simulator's layer boundaries.

The benchmark measures the simulator from the outside: nothing under
``src/`` records host time.  :class:`Tracer` patches the public entry
points listed by :func:`discover_boundaries` with thin wrappers that
append one span per call (boundary, host start, host end, parent span)
to an in-memory list, and restores every original on exit.  Patching
is process-wide, so a traced operation runs the exact code path an
untraced one does, plus the wrappers.

Layer attribution follows the code, not this file: each wrapped
function is charged to the ``repro`` package that *defines* it (its
``__module__``), and the classes are found through public factories
(``Machine.secure_session``, ``Machine.boot_secure``, ``make_suite``,
...) rather than by class name.  A refactor that moves a method into
another package therefore moves its time to that layer instead of
breaking the trace, and a boundary that disappears is reported by name
(:class:`BoundaryMissing`).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The layers the per-layer report covers: the packages under
#: ``src/repro/`` that a workload can reach (``system`` is the
#: ``repro.system`` module that assembles a machine).
LAYERS = ("system", "sgx", "osmodel", "gpu", "sim", "fleet", "crypto", "hw",
          "pcie", "gdev", "core", "backends", "serve", "obs", "chaos")

#: SGX (and HIX-extension) instructions modelled by the CPU package.
SGX_INSTRUCTIONS = ("ecreate", "eadd", "eextend", "einit", "eenter", "eexit",
                    "ereport", "egcreate", "egadd", "egdestroy")

#: OS-kernel services that create processes, map pages or load enclaves.
KERNEL_CALLS = ("create_process", "kill_process", "map_physical",
                "share_mapping", "load_enclave")


class BoundaryMissing(LookupError):
    """A layer boundary the benchmark wraps no longer exists."""


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point.

    *owner* is a class (the attribute is a method) or a module (the
    attribute is a function; every ``repro``/``perfbench`` module that
    imported it by name is patched too).  Every call adds one to the
    counter named *tag*, if set.  *count* derives an exact work count
    from one argument: ``(counter, parameter, fn)`` adds
    ``fn(argument)`` to ``counter`` on every call (*parameter* may be a
    tuple of alternative names).  *capture* keeps the
    call's ``self`` under that key so counters on the object can be
    read after the operation.  *lanes* names the parameter holding lane
    specs whose generator unit streams get traced too.
    """

    owner: Any
    attr: str
    tag: Optional[str] = None
    count: Optional[Tuple[str, Any, Callable[[Any], int]]] = None
    capture: Optional[str] = None
    lanes: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.owner.__name__.rsplit('.', 1)[-1]}.{self.attr}"


def layer_of(module: str) -> str:
    """``repro.sim.engine`` -> ``sim``; ``repro.system`` -> ``system``."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else module


def _public_methods(cls, prefix: str = "") -> List[str]:
    return sorted(name for name in dir(cls)
                  if name.startswith(prefix) and not name.startswith("_")
                  and inspect.isfunction(inspect.getattr_static(cls, name)))


def _nbytes(buffer) -> int:
    return memoryview(buffer).nbytes


def discover_boundaries() -> List[Boundary]:
    """Every boundary the traced pass wraps, found via public factories.

    Builds throwaway machines (one per backend, one each for a
    ``GdevDriver`` and a serve engine, one in a single-machine fleet)
    to read the concrete classes off the objects the factories return.
    Call before resetting telemetry: the probes boot services and so
    record audit events.
    """
    from repro.backends import backend_names
    from repro.chaos import campaign as chaos_campaign
    from repro.chaos.injector import FaultInjector
    from repro.crypto.suite import KEY_LEN, make_suite
    from repro.fleet import Fleet
    from repro.gpu import bios
    from repro.hw.phys_mem import PAGE_SIZE
    from repro.obs.audit import audit_log
    from repro.obs.slo import AlertManager
    from repro.obs.timeseries import TimeSeriesSampler
    from repro.serve import ServeEngine, jobs
    from repro.sim.engine import EventClock, LaneRun
    from repro.system import Machine, MachineConfig

    found: List[Boundary] = []

    def add(owner, *attrs, **extra):
        found.extend(Boundary(owner, attr, **extra) for attr in attrs)

    add(Machine, "__init__", tag="system.machines_built", capture="machines")
    add(Machine, "boot_secure", "secure_session", "cold_boot")
    add(bios, "build_bios_image")
    for backend in backend_names():
        probe = Machine(MachineConfig(backend=backend))
        service = probe.boot_secure()
        api = probe.secure_session(service, name="probe")
        add(type(service), "boot", "poll")
        api_cls = type(api)
        for name in _public_methods(api_cls, "cu"):
            if name.endswith("Batch"):
                add(api_cls, name, tag="serve.batch_frames",
                    count=("serve.batch_items", ("items", "launches"), len))
            else:
                add(api_cls, name)
    add(type(probe.sgx), *SGX_INSTRUCTIONS, tag="sgx.instructions")
    kernel_cls = type(probe.kernel)
    add(kernel_cls, *KERNEL_CALLS)
    add(kernel_cls, "alloc_pages",
        count=("osmodel.pages_allocated", "npages", int))
    add(kernel_cls, "alloc_dma_buffer",
        count=("osmodel.pages_allocated", "nbytes",
               lambda nbytes: -(-nbytes // PAGE_SIZE)))
    add(type(probe.mmu), "translate_range")
    add(type(probe.iommu), "translate_range")
    add(type(probe.dma), "read_host", "write_host")
    add(type(probe.root_complex), "window_read", "window_write",
        tag="pcie.window")
    add(type(probe.root_complex), "route", tag="pcie.route")
    add(type(probe.gpu), "bar_read", "bar_write")
    add(type(probe.clock), "advance")
    gdev_cls = type(Machine().make_gdev())
    add(gdev_cls, *_public_methods(gdev_cls))
    suite_cls = type(make_suite(probe.config.suite_name, bytes(KEY_LEN)))
    add(suite_cls, "seal", tag="crypto.aead_calls",
        count=("crypto.aead_bytes", "plaintext", _nbytes))
    add(suite_cls, "open", tag="crypto.aead_calls",
        count=("crypto.aead_bytes", "ciphertext", _nbytes))
    add(suite_cls, "seal_chunks", "open_chunks")

    add(EventClock, "run", "schedule")
    add(LaneRun, "__init__", lanes="lanes")
    add(LaneRun, "add_lane", lanes="spec")
    add(LaneRun, "finish")

    engine = ServeEngine(Machine())
    add(ServeEngine, "__init__", "run", "finish", "add_tenant")
    add(ServeEngine, "start", capture="engines")
    add(type(engine.memo), "get", "put")
    add(jobs, "submit_workload")

    fleet = Fleet(machines=1)
    add(Fleet, "__init__", "run")
    add(Fleet, "place", tag="fleet.placements")
    add(type(fleet.machines[0]), "status", tag="fleet.status_calls")
    add(type(fleet.router), "place")

    add(TimeSeriesSampler, "mark", "observe")
    add(AlertManager, "evaluate")
    add(type(audit_log()), "record")
    add(FaultInjector, "attach", "run", "verify")
    add(chaos_campaign, "run_campaign")

    unique: Dict[Tuple[int, str], Boundary] = {}
    for boundary in found:
        unique.setdefault((id(boundary.owner), boundary.attr), boundary)
    return list(unique.values())


def setup_boundaries() -> List[Boundary]:
    """Machine construction and TEE-service boot: what ``setup_s``
    times inside operations that build their own machines."""
    from repro.system import Machine
    return [Boundary(Machine, "__init__"), Boundary(Machine, "boot_secure")]


class _TracedUnits:
    """A lane's generator unit stream, with each resume recorded as a
    span of the package that defines the generator."""

    __slots__ = ("_units", "_call", "_nid")

    def __init__(self, units, call, nid) -> None:
        self._units = units
        self._call = call
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        return self._call(self._nid, self._units.__next__, (), {})


class Tracer:
    """Installs span-recording wrappers on *boundaries* while active.

    ``spans`` rows are ``[name_id, start, end, parent_index]`` with
    host times from :func:`time.perf_counter`; ``names[name_id]`` is
    ``(boundary_name, layer, tag)``.  ``counts`` holds the tag and
    argument counters, ``captured`` the captured objects.  Use as a
    context manager; everything patched is restored on exit, even after
    an error.
    """

    def __init__(self, boundaries: Iterable[Boundary]) -> None:
        self.boundaries = list(boundaries)
        self.names: List[Tuple[str, str, Optional[str]]] = []
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.captured: Dict[str, list] = {}
        self._stack: List[int] = [-1]
        self._restore: List[Callable[[], None]] = []
        self._unit_names: Dict[Tuple[str, str], int] = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str, layer: str, tag: Optional[str]) -> int:
        self.names.append((name, layer, tag))
        return len(self.names) - 1

    def _call(self, nid: int, fn, args, kwargs):
        spans = self.spans
        stack = self._stack
        span = [nid, 0.0, 0.0, stack[-1]]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _trace_lanes(self, lanes) -> None:
        for lane in lanes:
            units = lane.units
            if not inspect.isgenerator(units):
                continue
            module = units.gi_frame.f_globals.get("__name__", "")
            key = (units.__qualname__, module)
            nid = self._unit_names.get(key)
            if nid is None:
                nid = self._name_id(f"{units.__qualname__}.__next__",
                                    layer_of(module), None)
                self._unit_names[key] = nid
            lane.units = _TracedUnits(units, self._call, nid)

    def _wrapper(self, boundary: Boundary, original):
        nid = self._name_id(boundary.name, layer_of(original.__module__),
                            boundary.tag)
        call = self._call
        counts = self.counts
        tag = boundary.tag
        counter = pick = measure = None
        if boundary.count is not None:
            counter, param, measure = boundary.count
            pick = _param_picker(original, param, boundary.name)
        lanes = None
        if boundary.lanes is not None:
            lanes = _param_picker(original, boundary.lanes, boundary.name)
        captured = None
        if boundary.capture is not None:
            captured = self.captured.setdefault(boundary.capture, [])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tag is not None:
                counts[tag] = counts.get(tag, 0) + 1
            if pick is not None:
                counts[counter] = (counts.get(counter, 0)
                                   + measure(pick(args, kwargs)))
            if captured is not None:
                captured.append(args[0])
            if lanes is not None:
                arg = lanes(args, kwargs)
                self._trace_lanes(arg if isinstance(arg, (list, tuple))
                                  else [arg])
            return call(nid, original, args, kwargs)

        wrapper._perfbench_original = original
        wrapper._perfbench_tracer = self
        return wrapper

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for boundary in self.boundaries:
                self._install(boundary)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self, boundary: Boundary) -> None:
        owner, attr = boundary.owner, boundary.attr
        if inspect.ismodule(owner):
            self._install_function(boundary)
            return
        static = inspect.getattr_static(owner, attr, None)
        own = attr in vars(owner)
        if not own and getattr(static, "_perfbench_tracer", None) is self:
            # Inherited from a class this tracer already wrapped: wrap
            # the original once more, not the wrapper (no double span).
            static = static._perfbench_original
        if not inspect.isfunction(static):
            raise BoundaryMissing(boundary.name)
        setattr(owner, attr, self._wrapper(boundary, static))
        if own:
            self._restore.append(lambda: setattr(owner, attr, static))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def _install_function(self, boundary: Boundary) -> None:
        original = getattr(boundary.owner, boundary.attr, None)
        if not inspect.isfunction(original):
            raise BoundaryMissing(boundary.name)
        wrapper = self._wrapper(boundary, original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", None) or ""
            if not name.startswith(("repro", "perfbench")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._restore.append(
                        lambda ns=namespace, k=key: ns.__setitem__(
                            k, original))

    def _uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _param_picker(func, param, where: str):
    """``(args, kwargs) -> value`` of *param* in a call of *func*.

    *param* is a parameter name, or a tuple of names of which the
    function has exactly one.
    """
    names = list(inspect.signature(func).parameters)
    found = [name for name in ((param,) if isinstance(param, str) else param)
             if name in names]
    if len(found) != 1:
        raise BoundaryMissing(f"{where}({param})")
    param = found[0]
    index = names.index(param)

    def pick(args, kwargs):
        return args[index] if len(args) > index else kwargs[param]
    return pick


# -- analysis ---------------------------------------------------------------


def layer_totals(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer self time (span minus covered child spans) and calls."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for _nid, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index, (nid, start, end, _parent) in enumerate(spans):
        layer = tracer.names[nid][1]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - covered[index]
        calls[layer] = calls.get(layer, 0) + 1
    return self_s, calls


def tlp_count(tracer: Tracer) -> int:
    """Memory/config transactions entering the PCIe fabric: every CPU
    MMIO window access plus every ``route`` not issued by a window
    access (a window access routes only when its decode cache misses)."""
    window = {nid for nid, (_, _, tag) in enumerate(tracer.names)
              if tag == "pcie.window"}
    spans = tracer.spans
    routed = sum(1 for nid, _s, _e, parent in spans
                 if tracer.names[nid][2] == "pcie.route"
                 and (parent < 0 or spans[parent][0] not in window))
    return tracer.counts.get("pcie.window", 0) + routed


def fired_boundaries(tracer: Tracer) -> Dict[str, int]:
    """Calls per boundary name (generator streams included)."""
    fired: Dict[str, int] = {}
    for row in tracer.spans:
        name = tracer.names[row[0]][0]
        fired[name] = fired.get(name, 0) + 1
    return fired


def write_spans(tracers: List[Tracer], path, origin: float) -> None:
    """Write every span as one JSON line, times relative to *origin*.

    One tracer per traced operation; ``op`` is its index, ``id`` and
    ``parent`` index spans within that operation (``-1``: no parent).
    """
    with open(path, "w") as out:
        for op, tracer in enumerate(tracers):
            for index, (nid, start, end, parent) in enumerate(tracer.spans):
                name, layer, _tag = tracer.names[nid]
                out.write(json.dumps({
                    "op": op, "id": index, "parent": parent, "name": name,
                    "layer": layer, "start": start - origin,
                    "end": end - origin}) + "\n")
