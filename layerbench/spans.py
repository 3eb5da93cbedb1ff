"""Span recorder: per-layer host-time attribution from outside the program.

:class:`SpanRecorder` wraps the public entry points of each ``repro``
layer (see :data:`TARGETS`) so every call records one span -- name,
start, end and parent -- in flat in-memory lists.  A process body is
timed per resumption: ``Engine.spawn`` hands the engine a proxy whose
``send``/``throw`` each record one span, attributed to the layer whose
module defines the generator function.

A layer's self time is its spans' durations minus the time their child
spans cover.  Everything runs inside a benchmark root span, so the
self times of all layers (plus the benchmark's own glue, layer
``bench``) add up to the root span's wall time exactly.

The wrappers exist only inside ``with recorder.installed():``; on exit
every patched attribute is put back, so untraced reps measure the
unpatched program.  Nothing under ``src/`` knows about the recorder.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Every layer a span can be billed to, in report order.  ``other`` is
#: program code outside the eight named layers (``machine.py``,
#: ``workloads/``, ...); ``bench`` is the benchmark's own root glue.
LAYERS = (
    "sim", "device", "storage", "core", "records", "cluster", "faults",
    "observers", "other", "bench",
)

#: Module prefix -> layer, for process bodies (first match wins).
PACKAGE_LAYERS = (
    ("repro.sim.", "sim"),
    ("repro.device.", "device"),
    ("repro.storage.", "storage"),
    ("repro.core.", "core"),
    ("repro.records.", "records"),
    ("repro.cluster.", "cluster"),
    ("repro.faults.", "faults"),
    ("repro.trace.", "observers"),
    ("repro.analysis.", "observers"),
)


def _arg(args, kwargs, pos: int, name: str, default=None):
    """Argument ``name`` of a wrapped method call (``args[0]`` is self)."""
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _size(data) -> int:
    return len(data) if isinstance(data, (bytes, bytearray)) else data.size


# User bytes one SimFile call moves, from its arguments.
def _bytes_read(a, kw):
    nbytes = _arg(a, kw, 2, "nbytes")
    if nbytes is None:  # peek() of the whole tail
        return a[0].size - _arg(a, kw, 1, "offset", 0)
    return nbytes


def _bytes_write(a, kw):
    return _size(_arg(a, kw, 2, "data"))


def _bytes_append(a, kw):
    return _size(_arg(a, kw, 1, "data"))


def _bytes_strided(a, kw):
    return _arg(a, kw, 2, "count") * _arg(a, kw, 4, "access_size")


def _bytes_gather(a, kw):
    return len(_arg(a, kw, 1, "offsets")) * _arg(a, kw, 2, "access_size")


def _bytes_gather_var(a, kw):
    return int(np.asarray(_arg(a, kw, 2, "lengths")).sum())


def _frontier_entries(result):
    return len(result[0])


#: ``(module, class or None, attribute, layer, measure)``.  A class
#: target is wrapped on the class and on every subclass that defines
#: the attribute itself; a function target is replaced in every loaded
#: ``repro`` module that holds it.  ``measure`` maps a call's
#: ``(args, kwargs)`` -- or, marked ``"result"``, its return value --
#: to a number accumulated per span name.
TARGETS: Tuple[tuple, ...] = (
    # sim: the event loop and the fluid solver
    ("repro.sim.engine", "Engine", "run", "sim", None),
    ("repro.sim.engine", "Engine", "run_until", "sim", None),
    ("repro.sim.engine", "Engine", "spawn", "sim", None),
    ("repro.sim.fluid", "FluidScheduler", "add", "sim", None),
    ("repro.sim.fluid", "FluidScheduler", "rerate", "sim", None),
    ("repro.sim.fluid", "FluidScheduler", "pop_completed", "sim", None),
    # device: the BRAID rate model, op costing and device statistics
    ("repro.device.device", "BraidRateModel", "assign", "device", None),
    ("repro.device.device", "BraidRateModel", "vector_state", "device", None),
    ("repro.device.device", "BraidRateModel", "vector_sig", "device", None),
    ("repro.device.device", None, "make_io_op", "device", None),
    ("repro.device.profile", "DeviceProfile", "random_batch_work", "device",
     None),
    ("repro.device.host", "HostModel", "sort_seconds", "device", None),
    ("repro.device.host", "HostModel", "merge_compare_seconds", "device",
     None),
    ("repro.device.stats", "DeviceStats", "observe", "device", None),
    ("repro.device.stats", "DeviceStats", "credit_submission", "device",
     None),
    ("repro.device.stats", "InterconnectStats", "observe", "device", None),
    # storage: timed and raw file access
    ("repro.storage.file", "SimFile", "read", "storage", _bytes_read),
    ("repro.storage.file", "SimFile", "write", "storage", _bytes_write),
    ("repro.storage.file", "SimFile", "append", "storage", _bytes_append),
    ("repro.storage.file", "SimFile", "read_strided", "storage", _bytes_strided),
    ("repro.storage.file", "SimFile", "read_gather", "storage", _bytes_gather),
    ("repro.storage.file", "SimFile", "read_gather_var", "storage",
     _bytes_gather_var),
    ("repro.storage.file", "SimFile", "peek", "storage", _bytes_read),
    ("repro.storage.file", "SimFile", "poke", "storage", _bytes_write),
    # core: the k-way merge kernel
    ("repro.core.kway", "MergeFrontier", "step", "core",
     ("result", _frontier_entries)),
    # records: generation, key sort, validation
    ("repro.records.gensort", None, "make_records", "records", None),
    ("repro.records.gensort", None, "generate_dataset", "records", None),
    ("repro.records.format", None, "key_sort_indices", "records", None),
    ("repro.records.validate", None, "validate_sorted_file", "records", None),
    # cluster: interconnect and admission
    ("repro.cluster.cluster", "Cluster", "net_op", "cluster", None),
    ("repro.cluster.policies", "AdmissionPolicy", "pick", "cluster", None),
    ("repro.cluster.policies", "AdmissionPolicy", "on_arrival", "cluster",
     None),
    # faults: crash recovery (the injector's issue_* hooks run SimFile's
    # own build closures, so they stay billed to storage)
    ("repro.core.base", "SortSystem", "recover", "faults", None),
    # observers: tracer, sanitizer (and its charge auditor), race detector
    *(
        ("repro.trace.tracer", "Tracer", hook, "observers", None)
        for hook in (
            "begin_span", "end_span", "add_complete_span", "instant",
            "counter_sample", "on_op_issue", "on_op_complete", "on_rerate",
            "sched_event", "analyze_spawn", "analyze_finish", "wait_begin",
            "wait_end",
        )
    ),
    *(
        ("repro.analysis.sanitizer", "SimSanitizer", hook, "observers", None)
        for hook in (
            "on_wait", "on_wake", "on_op_complete", "on_proc_finish",
            "on_proc_cancel",
        )
    ),
    *(
        ("repro.analysis.sanitizer", "ChargeAuditor", hook, "observers", None)
        for hook in ("timed", "note_raw", "note_charge", "begin_exempt",
                     "end_exempt")
    ),
    *(
        ("repro.analysis.race", "RaceDetector", hook, "observers", None)
        for hook in (
            "on_spawn", "on_block", "on_resume", "on_finish", "on_cancel",
            "on_acquire", "on_release", "note_span", "note_batch",
        )
    ),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in PACKAGE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class _TimedGen:
    """Generator proxy: each ``send``/``throw`` into the body is a span."""

    __slots__ = ("_gen", "_call")

    def __init__(self, gen, call):
        self._gen = gen
        self._call = call

    def send(self, value):
        return self._call(self._gen.send, value)

    def throw(self, *exc):
        return self._call(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


class SpanRecorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        #: Per span: name id, start, end (perf_counter s), parent index.
        self.names = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        #: ``(first, stop)`` span indices of every root span's subtree.
        self.roots: List[Tuple[int, int]] = []
        #: Per name id: span name and its layer.
        self.span_names: List[str] = []
        self.span_layers: List[str] = []
        #: Per name id: accumulated ``measure`` value (see TARGETS).
        self.measured: Dict[int, float] = {}
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = [-1]
        #: ``(owner, attribute, original)`` of every live patch.
        self.patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_layers.append(layer)
        return nid

    def _timer(self, nid: int) -> Callable:
        """``call(fn, *args, **kwargs)`` that records one span of ``nid``."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter

        def call(fn, *args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return call

    @contextmanager
    def root(self, name: str = "rep"):
        """A ``bench`` span that every program span of one rep nests under."""
        nid = self.name_id(name, "bench")
        i = len(self.starts)
        self.names.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()
            self.roots.append((i, len(self.starts)))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, measure) -> Callable:
        call = self._timer(self.name_id(name, layer))
        if measure is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(fn, *args, **kwargs)
            return wrapper
        nid = self.name_id(name, layer)
        measured = self.measured
        measured.setdefault(nid, 0.0)
        if isinstance(measure, tuple):  # ("result", fn)
            of_result = measure[1]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = call(fn, *args, **kwargs)
                measured[nid] += of_result(result)
                return result
            return wrapper

        names, stack, span_layers = self.names, self._stack, self.span_layers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Count only calls entering the layer from outside it, so a
            # delegating call (append -> write -> poke) counts once.
            top = stack[-1]
            if top < 0 or span_layers[names[top]] != layer:
                measured[nid] += measure(args, kwargs)
            return call(fn, *args, **kwargs)
        return wrapper

    def _wrap_spawn(self, spawn) -> Callable:
        call = self._timer(self.name_id("Engine.spawn", "sim"))
        timers: Dict[str, Callable] = {}

        @functools.wraps(spawn)
        def wrapper(engine, gen, name=""):
            frame = gen.gi_frame
            module = frame.f_globals.get("__name__", "") if frame else ""
            key = f"{module}.{gen.__qualname__}"
            body = timers.get(key)
            if body is None:
                body = timers[key] = self._timer(
                    self.name_id(f"body:{key}", layer_of_module(module + "."))
                )
            return call(spawn, engine, _TimedGen(gen, body), name)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; see :meth:`installed` for the scoped form."""
        if self.patches:
            raise RuntimeError("span recorder is already installed")
        for module_name, cls_name, attr, layer, measure in TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is None:
                self._patch_function(module, attr, layer, measure)
                continue
            for cls in _class_and_subclasses(getattr(module, cls_name)):
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                name = f"{cls.__name__}.{attr}"
                if (cls_name, attr) == ("Engine", "spawn"):
                    new = self._wrap_spawn(raw)
                else:
                    new = self._wrap(raw, name, layer, measure)
                self._patch(cls, attr, new)

    def _patch_function(self, module, attr: str, layer: str, measure) -> None:
        original = getattr(module, attr)
        new = self._wrap(original, attr, layer, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                self._patch(mod, attr, new)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------
    def calls_since(self, first: int) -> Dict[str, int]:
        """Spans recorded per name from span index ``first`` on."""
        counts = np.bincount(np.frombuffer(self.names[first:], dtype=np.int64),
                             minlength=len(self.span_names))
        return {self.span_names[k]: int(c) for k, c in enumerate(counts) if c}

    def rollup(self) -> "Rollup":
        """Self and inclusive time per layer and per span name.

        Only root subtrees count: a hook fired after a rep (by an object
        that outlived it) has no root to bill.
        """
        n = len(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.names, dtype=np.int64)
        kept = np.zeros(n, dtype=bool)
        for first, stop in self.roots:
            kept[first:stop] = True
        roots = [first for first, _ in self.roots]
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        dur = np.where(kept, dur, 0.0)
        inner = parents >= 0
        child = np.zeros(n)
        np.add.at(child, parents[inner], dur[inner])
        own = dur - child
        layer_of_name = np.asarray(
            [LAYERS.index(layer) for layer in self.span_layers], dtype=np.int64
        )
        layers = layer_of_name[names] if n else names
        parent_layer = np.full(n, -1, dtype=np.int64)
        parent_layer[inner] = layers[parents[inner]]
        n_names = len(self.span_names)
        return Rollup(
            root_wall=float(dur[roots].sum()),
            layer_self=np.bincount(layers, weights=own, minlength=len(LAYERS)),
            name_self=np.bincount(names, weights=own, minlength=n_names),
            name_incl=np.bincount(names, weights=dur, minlength=n_names),
            name_calls=np.bincount(names, weights=kept, minlength=n_names),
            # Calls entering a layer from outside it (append -> write
            # counts once).
            name_entries=np.bincount(
                names, weights=kept & (parent_layer != layers),
                minlength=n_names,
            ),
            names=list(self.span_names),
            layers=list(self.span_layers),
            measured={self.span_names[k]: v for k, v in self.measured.items()},
        )


class Rollup:
    """Per-layer and per-name totals of one recorder's spans."""

    def __init__(self, root_wall, layer_self, name_self, name_incl, name_calls,
                 name_entries, names, layers, measured):
        self.root_wall = root_wall
        self.layer_self = {l: float(t) for l, t in zip(LAYERS, layer_self)}
        self.names = names
        self.layers = layers
        self.name_self = dict(zip(names, map(float, name_self)))
        self.name_incl = dict(zip(names, map(float, name_incl)))
        self.name_calls = dict(zip(names, map(int, name_calls)))
        self.name_entries = dict(zip(names, map(int, name_entries)))
        self.measured = measured

    def calls(self, *names: str) -> int:
        return sum(self.name_calls.get(n, 0) for n in names)

    def incl(self, *names: str) -> float:
        return sum(self.name_incl.get(n, 0.0) for n in names)

    def layer_calls(self, layer: str, entries: bool = False) -> int:
        table = self.name_entries if entries else self.name_calls
        return sum(table[n] for n, l in zip(self.names, self.layers)
                   if l == layer)


def _class_and_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out
