"""Layer tracer: host time per repo layer, from outside the program.

Installed only for the traced pass, entirely from this directory — no
source edit, no switch in ``src/``. It wraps

* the public (non-underscore) functions and methods, plus ``__init__``
  and ``__call__``, of every module of a layer — except *trivial
  leaves* (straight-line bytecode with no call and no loop, e.g.
  ``Resource.fits_in``): their bounded few-hundred-nanosecond cost
  stays with the caller, because timing them from Python costs several
  times what they cost and a hot loop over one would otherwise be
  charged to the wrong layer,
* generators handed to the sim kernel (``Environment.process``) and
  generators returned by public generator functions — each *step* is
  timed, attributed to the generator's defining module,
* callables handed across a layer boundary (``call_later`` callbacks,
  process hooks, node-loss listeners ...), attributed the same way.

The layer map is by module prefix (longest wins), not a function list,
so it survives refactors. A wrapper that is entered while its own
layer is already current passes straight through; one that crosses a
boundary opens a span (name, start, end, parent), and the time until
its children open is the layer's *self* time. Every instant of the
traced region belongs to exactly one current layer, so the self times
plus ``unattributed`` sum to the traced wall by construction.

A traced region is timed in reference-host seconds like every other
(``calibrate.HostClock``), but a timer signal could land between two
lines of a wrapper's bookkeeping. So the tracer takes the host-speed
samples itself, at span opens, each as a span of the pseudo-layer
``paused`` that is left out of the traced wall.

What the tracer cannot see stays with the caller's layer: private
callbacks stored by attribute assignment, closures called by name.
The attribution sanity checks in ``run.py`` fail the traced pass when
that leakage grows large enough to reorder layers — the tracer, not
the program, is then wrong.
"""

from __future__ import annotations

import dis
import importlib
import json
import pkgutil
import sys
import time
from array import array
from types import FunctionType, GeneratorType, MethodType

__all__ = ["LAYERS", "LAYER_PREFIXES", "Tracer", "layer_of_module"]

# Longest prefix wins. Modules under `repro` that match nothing
# (harness, workloads, bench, engines.spark) are driver code: their
# time lands in `trace.unattributed_s`.
LAYER_PREFIXES = (
    ("repro.sim", "sim"),
    ("repro.cluster", "cluster"),
    ("repro.yarn", "yarn"),
    ("repro.hdfs", "hdfs"),
    ("repro.shuffle", "shuffle"),
    ("repro.tez", "tez.client"),          # dag, client, registry, config
    ("repro.tez.am", "tez.am"),
    ("repro.tez.vertex_manager", "tez.am"),
    ("repro.tez.edge_manager", "tez.am"),
    ("repro.tez.coordinator", "tez.am"),
    ("repro.tez.templates", "tez.templates"),
    ("repro.tez.runtime", "tez.runtime"),
    ("repro.tez.library", "tez.runtime"),
    ("repro.tez.events", "tez.runtime"),
    ("repro.tez.initializer", "tez.runtime"),
    ("repro.tez.committer", "tez.runtime"),
    ("repro.engines.hive", "engines.hive"),
    ("repro.engines.pig", "engines.pig"),
    ("repro.engines.mapreduce", "engines.mapreduce"),
    ("repro.telemetry", "telemetry"),
    ("repro.chaos", "chaos"),
)
LAYERS = tuple(dict.fromkeys(layer for _p, layer in LAYER_PREFIXES))
_UNATTRIBUTED = len(LAYERS)            # index of the driver pseudo-layer
_PAUSED = len(LAYERS) + 1              # host-speed samples: not traced time
_PSEUDO_LAYERS = ("unattributed", "paused")
_SIM = LAYERS.index("sim")
_WRAPPED_DUNDERS = ("__init__", "__call__")
_HANDOFF_TYPES = (FunctionType, MethodType, GeneratorType)


def layer_of_module(name: str):
    """Layer of a module name, or None for driver/third-party code."""
    best, best_len = None, -1
    for prefix, layer in LAYER_PREFIXES:
        if (name == prefix or name.startswith(prefix + ".")) \
                and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


_CALLS = {op for name, op in dis.opmap.items() if name.startswith("CALL")
          or name in ("PRECALL", "YIELD_VALUE", "SEND")}


def _trivial_leaf(fn) -> bool:
    """Straight-line code: no call, no yield, no backward jump."""
    for ins in dis.get_instructions(fn.__code__):
        if ins.opcode in _CALLS:
            return False
        if ins.opcode in dis.hasjrel and "BACKWARD" in ins.opname:
            return False
        if ins.opname in ("FOR_ITER", "GET_ITER"):
            return False
    return True


class _Callback:
    """A callable handed across a layer boundary, run in its defining
    layer. Compares and hashes as the callable it wraps, so listener
    lists can still ``remove`` it."""

    __slots__ = ("fn", "call")

    def __init__(self, fn, call):
        self.fn = fn
        self.call = call

    def __call__(self, *args, **kwargs):
        return self.call(*args, **kwargs)

    def __eq__(self, other):
        if type(other) is _Callback:
            other = other.fn
        return self.fn == other

    def __hash__(self):
        return hash(self.fn)

    def __getattr__(self, name):
        return getattr(self.fn, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        n = len(LAYERS) + len(_PSEUDO_LAYERS)
        self._cur = [_UNATTRIBUTED]     # current layer
        self._mark = [0.0]              # when the current layer took over
        self._open = [-1]               # index of the innermost open span
        self._acc = [0.0] * n
        self._calls = [0] * n
        self._names: list[str] = []         # span name by id ...
        self._name_layer: list[int] = []    # ... and its layer
        self._name_ids: dict = {}
        self._files: dict[str, int] = {}
        self._span_name = array("l")
        self._span_parent = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self._taps: dict[str, list] = {}
        self.tap_totals: dict[str, int] = {}
        self._restore: list = []
        self._t0 = None
        self.result = None
        self._due = [float("inf")]      # when the next sample is due
        self._sample = self._period = None
        self._pause_name = self._name_id("host-speed sample", _PAUSED)
        # What the wrappers close over: plain lists and arrays, so the
        # hot path does no attribute lookups.
        self._state = (self._cur, self._mark, self._open, self._acc,
                       self._calls, self._span_name, self._span_parent,
                       self._span_start, self._span_end,
                       time.perf_counter, self._due, self._pause)

    # ------------------------------------------------------ hot path

    def _pause(self) -> None:
        """A span has just opened and the books are balanced: take one
        host-speed sample, as a child span no layer is charged for."""
        self._sample()
        start, now = self._mark[0], time.perf_counter()
        self._span_name.append(self._pause_name)
        self._span_parent.append(self._open[0])
        self._span_start.append(start)
        self._span_end.append(now)
        self._acc[_PAUSED] += now - start
        self._mark[0] = now
        self._due[0] = now + self._period

    def _name_id(self, name: str, lid: int) -> int:
        nid = self._name_ids.get((name, lid))
        if nid is None:
            nid = self._name_ids[name, lid] = len(self._names)
            self._names.append(name)
            self._name_layer.append(lid)
        return nid

    def _handoff(self, lid: int, args: tuple, kwargs: dict):
        """Wrap callables (and, for the kernel, generators) passed
        across the boundary into layer ``lid``."""
        args = tuple(self._wrap_handoff(lid, arg)
                     if type(arg) in _HANDOFF_TYPES else arg
                     for arg in args)
        for key, arg in kwargs.items():
            if type(arg) in _HANDOFF_TYPES:
                kwargs[key] = self._wrap_handoff(lid, arg)
        return args, kwargs

    def _wrap_handoff(self, lid: int, arg):
        kind = type(arg)
        if kind is GeneratorType:
            return self.proxy(arg) if lid == _SIM else arg
        func = arg.__func__ if kind is MethodType else arg
        code = getattr(func, "__code__", None)
        owner = self._files.get(code.co_filename) if code else None
        if owner is None or owner == lid:
            return arg      # already a wrapper, driver code, or same layer
        name = getattr(arg, "__qualname__", repr(arg))
        return _Callback(arg, self._wrap(arg, owner, name, handoff=False))

    def _wrap(self, fn, lid: int, name: str, handoff: bool = True):
        (cur, mark, open_, acc, calls, s_name, s_parent, s_start, s_end,
         clock, due, pause) = self._state
        nid = self._name_id(name, lid)
        do_handoff = self._handoff
        proxy = self._proxy_for
        handoff_types = _HANDOFF_TYPES if handoff else ()

        def traced(*args, **kwargs):
            prev = cur[0]
            if prev == lid:
                result = fn(*args, **kwargs)
                if type(result) is GeneratorType:
                    return proxy(result, lid, nid)
                return result
            for arg in args:
                if type(arg) in handoff_types:
                    args, kwargs = do_handoff(lid, args, kwargs)
                    break
            else:
                if kwargs and handoff_types:
                    args, kwargs = do_handoff(lid, args, kwargs)
            index = len(s_name)
            s_name.append(nid)
            s_parent.append(open_[0])
            s_end.append(0.0)
            open_[0] = index
            calls[lid] += 1
            cur[0] = lid
            now = clock()
            s_start.append(now)
            acc[prev] += now - mark[0]
            mark[0] = now
            if now >= due[0]:
                pause()
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                acc[lid] += now - mark[0]
                mark[0] = now
                s_end[index] = now
                cur[0] = prev
                open_[0] = s_parent[index]
            if type(result) is GeneratorType:
                return proxy(result, lid, nid)
            return result

        taps = self._taps.get(name)
        if taps:
            untapped, tap_totals = traced, self.tap_totals

            def traced(*args, **kwargs):
                result = untapped(*args, **kwargs)
                for key, measure in taps:
                    tap_totals[key] += measure(args, kwargs, result)
                return result

        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            try:
                setattr(traced, attr, getattr(fn, attr))
            except AttributeError:
                pass
        traced.__wrapped__ = fn
        return traced

    def proxy(self, gen):
        """Proxy a raw generator by its defining module (no-op for
        proxies and for driver-code generators)."""
        code = gen.gi_code
        if code is _PROXY_CODE:
            return gen
        lid = self._files.get(code.co_filename, _UNATTRIBUTED)
        return self._proxy_for(gen, lid, self._name_id(
            getattr(gen, "__qualname__", code.co_name), lid))

    def _proxy_for(self, gen, lid: int, nid: int):
        if gen.gi_code is _PROXY_CODE:
            return gen
        wrapped = _step_proxy(gen, lid, nid, *self._state)
        wrapped.__name__ = gen.__name__
        wrapped.__qualname__ = gen.__qualname__
        return wrapped

    # ------------------------------------------------------ install
    def tap(self, qualname: str, key: str, measure) -> None:
        """Accumulate ``measure(args, kwargs, result)`` into
        ``tap_totals[key]`` on every call of the named public function
        (counts taken at the traced boundary). Call before install."""
        self._taps.setdefault(qualname, []).append((key, measure))
        self.tap_totals.setdefault(key, 0)

    def install(self) -> None:
        """Import every module of every layer, then wrap."""
        for prefix in dict.fromkeys(p for p, _l in LAYER_PREFIXES):
            module = importlib.import_module(prefix)
            for info in pkgutil.walk_packages(
                    getattr(module, "__path__", []), prefix + "."):
                importlib.import_module(info.name)
        modules = {
            name: (module, LAYERS.index(layer))
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("repro")
            and (layer := layer_of_module(name)) is not None
        }
        for module, lid in modules.values():
            path = getattr(module, "__file__", None)
            if path:
                self._files[path] = lid
        replaced: dict = {}                   # original -> wrapper
        for name, (module, lid) in modules.items():
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != name:
                    continue
                if isinstance(value, FunctionType):
                    if not attr.startswith("_") \
                            and not _trivial_leaf(value):
                        replaced[value] = self._wrap(
                            value, lid, f"{name}.{attr}")
                elif isinstance(value, type):
                    self._wrap_class(value, lid, name, replaced)
        missing = [q for q in self._taps if q not in self._names]
        if missing:
            raise RuntimeError(f"tracer taps name functions that no "
                               f"longer exist: {missing}")
        # Rebind every alias of a wrapped function (`from x import f`,
        # class-level aliases) so identity comparisons keep holding.
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in replaced:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replaced[value])

    def _wrap_class(self, cls: type, lid: int, module: str,
                    replaced: dict) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                continue
            qual = f"{module}.{cls.__qualname__}.{attr}"
            if isinstance(value, FunctionType):
                if _trivial_leaf(value):
                    continue
                wrapper = replaced[value] = self._wrap(value, lid, qual)
            elif isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if not isinstance(inner, FunctionType) \
                        or _trivial_leaf(inner):
                    continue
                wrapper = type(value)(self._wrap(inner, lid, qual))
            else:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------ measure
    def start(self, sample=None, period: float = None) -> None:
        """Begin the traced region: everything recorded so far (set-up
        ran through the wrappers too) is dropped. ``sample()`` is then
        called about every ``period`` seconds, outside traced time."""
        self._sample, self._period = sample, period
        n = len(LAYERS) + len(_PSEUDO_LAYERS)
        self._acc[:] = [0.0] * n
        self._calls[:] = [0] * n
        for spans in (self._span_name, self._span_parent,
                      self._span_start, self._span_end):
            del spans[:]
        for key in self.tap_totals:
            self.tap_totals[key] = 0
        self._cur[0] = _UNATTRIBUTED
        self._open[0] = -1
        self._t0 = self._mark[0] = time.perf_counter()
        if sample is not None:
            self._due[0] = self._t0 + period

    def stop(self) -> dict:
        """End the traced region and freeze the result."""
        now = time.perf_counter()
        self._acc[self._cur[0]] += now - self._mark[0]
        self._mark[0] = now
        self._due[0] = float("inf")
        self.result = {
            "run_id": self.run_id,
            "wall_s": now - self._t0 - self._acc[_PAUSED],
            "paused_s": self._acc[_PAUSED],
            "self_s": dict(zip(LAYERS, self._acc)),
            "calls": dict(zip(LAYERS, self._calls)),
            "unattributed_s": self._acc[_UNATTRIBUTED],
            "spans": len(self._span_name),
            "taps": dict(self.tap_totals),
        }
        self._frozen = len(self._span_name)
        return self.result

    def write(self, path: str) -> None:
        """Spans and counts of this workload run as one JSON object:
        ``names``/``name_layer`` index the per-span ``name`` column;
        ``start``/``end`` are seconds from the start of the traced
        region, ``paused`` spans included; ``parent`` is a span index
        or -1."""
        n, t0 = self._frozen, self._t0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **self.result,
                "names": self._names,
                "name_layer": [(LAYERS + _PSEUDO_LAYERS)[lid]
                               for lid in self._name_layer],
                "name": self._span_name[:n].tolist(),
                "parent": self._span_parent[:n].tolist(),
                "start": [t - t0 for t in self._span_start[:n]],
                "end": [t - t0 for t in self._span_end[:n]],
            }, fh)


def _step_proxy(gen, lid, nid, cur, mark, open_, acc, calls, s_name,
                s_parent, s_start, s_end, clock, due, pause):
    """Drive ``gen`` one step at a time (PEP 380 delegation), timing
    each step in layer ``lid``."""
    send, throw = gen.send, gen.throw
    value = exc = None
    while True:
        prev = cur[0]
        if prev != lid:
            index = len(s_name)
            s_name.append(nid)
            s_parent.append(open_[0])
            s_end.append(0.0)
            open_[0] = index
            calls[lid] += 1
            cur[0] = lid
            now = clock()
            s_start.append(now)
            acc[prev] += now - mark[0]
            mark[0] = now
            if now >= due[0]:
                pause()
        try:
            if exc is None:
                item = send(value)
            else:
                pending, exc = exc, None
                item = throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            if prev != lid:
                now = clock()
                acc[lid] += now - mark[0]
                mark[0] = now
                s_end[index] = now
                cur[0] = prev
                open_[0] = s_parent[index]
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as error:      # delivered on the next step
            exc = error


_PROXY_CODE = _step_proxy.__code__
