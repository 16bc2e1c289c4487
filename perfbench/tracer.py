"""Per-layer spans and counters for a qoesched run, recorded from outside.

The tracer replaces public functions and methods of the package with
wrappers that record one span per call: the function called, the span that
was open when it was called, and its start and end in host nanoseconds.
``qoesched.engine`` binds its helpers with ``from ... import``, so the
wrappers go on those names in the engine namespace, and on the methods of
the classes the engine drives. Nothing in the package changes; ``remove()``
puts every original back.

Spans are kept in flat integer arrays while a unit runs and turned into
per-layer figures when it ends. A layer's self time is the duration of its
spans minus the time their direct children cover. Each wrapper also costs
host time outside the span it records, which would land in the caller's
self time; ``calibrate()`` measures that cost on a no-op call and it is
subtracted per child, as is the time spent in the counting hooks.
"""
from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from statistics import median

import numpy as np

LAYERS = ("engine", "traffic", "buffering", "channel", "qoe", "scheduler",
          "metrics", "output")

# (attribute holder, names, layer). Holders are resolved by ``_holder``.
HOOKS = (
    ("engine", ("arrivals", "apply_adjustment"), "traffic"),
    ("engine", ("cqi_step", "rate_of"), "channel"),
    ("engine", ("select", "update_avg_rate"), "scheduler"),
    ("engine", ("jfi", "qoe_fi"), "metrics"),
    ("Simulation", ("run", "step"), "engine"),
    ("UeBuffer", ("enqueue", "expire", "drain", "hol_delay_tti",
                  "conservation_holds"), "buffering"),
    ("QoeState", ("update_requirement", "record_delivered", "q_of",
                  "satisfaction", "reset_window"), "qoe"),
    ("MetricsWindow", ("record_arrival", "record_delivery", "record_drops",
                       "close"), "metrics"),
    ("output", ("emit",), "output"),
)

# Per-layer metrics: (name, unit, better). The benchmark reports all of them
# for every workload; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("engine.self_s", "s", "lower"),
    ("engine.step_us_p50", "us", "lower"),
    ("engine.step_us_p99", "us", "lower"),
    ("engine.ttis", "count", "lower"),
    ("traffic.calls", "count", "lower"),
    ("traffic.packets", "count", "lower"),
    ("traffic.self_s", "s", "lower"),
    ("traffic.us_per_packet", "us", "lower"),
    ("traffic.adjustments", "count", "lower"),
    ("buffering.enqueues", "count", "lower"),
    ("buffering.accept_ratio", "ratio", "higher"),
    ("buffering.expire_drops", "count", "lower"),
    ("buffering.drain_splits", "count", "lower"),
    ("buffering.self_s", "s", "lower"),
    ("channel.calls", "count", "lower"),
    ("channel.self_s", "s", "lower"),
    ("qoe.calls", "count", "lower"),
    ("qoe.self_s", "s", "lower"),
    ("scheduler.selects", "count", "lower"),
    ("scheduler.candidates", "count", "lower"),
    ("scheduler.idle_ratio", "ratio", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("scheduler.us_per_candidate", "us", "lower"),
    ("metrics.window_closes", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("output.rows", "count", "lower"),
    ("output.bytes", "count", "lower"),
    ("output.self_s", "s", "lower"),
    ("output.us_per_row", "us", "lower"),
    ("scenario.parse_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Counts that must repeat exactly when a unit is traced twice.
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def _noop(*args, **kwargs):
    return None


class Tracer:
    """Records spans for every hooked call while installed."""

    def __init__(self, engine_mod, output_mod):
        self._modules = {"engine": engine_mod, "output": output_mod}
        self.names: list[str] = []       # function id -> "Holder.name"
        self.layer_of: list[int] = []    # function id -> index into LAYERS
        self._fid = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._hook_ns: dict[int, int] = {}   # parent span -> ns in counting hooks
        self.counts = {"packets": 0, "accepted": 0, "expire_drops": 0,
                       "drain_splits": 0, "candidates": 0, "idle": 0}
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self.outer_ns = 0.0
        self.inner_ns = 0.0
        self._prepare()

    # -- recording ---------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, fid: int, hook=None):
        add_fid, add_parent = self._fid.append, self._parent.append
        add_start, add_end, ends = self._start.append, self._end.append, self._end
        stack, hook_ns = self._stack, self._hook_ns
        push, pop = stack.append, stack.pop
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ends)
            add_fid(fid)
            add_parent(stack[-1])
            add_end(0)
            push(i)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[i] = t1
                pop()
            if hook is not None:
                hook(args, kwargs, result)
                p = stack[-1]
                hook_ns[p] = hook_ns.get(p, 0) + clock() - t1
            return result

        return traced

    def _hooks(self) -> dict:
        c = self.counts

        def arrivals(args, kwargs, result):
            c["packets"] += len(result)

        def enqueue(args, kwargs, result):
            if result:
                c["accepted"] += 1

        def expire(args, kwargs, result):
            if result:
                c["expire_drops"] += 1

        def drain(args, kwargs, result):
            # The budget ran out with bits still queued: the head packet
            # leaves this TTI only partly sent.
            buf = args[0]
            budget = args[1] if len(args) > 1 else kwargs["budget_bits"]
            if result[0] == budget and buf.occupied_bits > 0:
                c["drain_splits"] += 1

        def select(args, kwargs, result):
            inputs = args[0] if args else kwargs["inputs"]
            c["candidates"] += sum(1 for u in inputs if u.buffer_bits)
            if result.selected_ue is None:
                c["idle"] += 1

        return {"engine.arrivals": arrivals, "UeBuffer.enqueue": enqueue,
                "UeBuffer.expire": expire, "UeBuffer.drain": drain,
                "engine.select": select}

    def _holder(self, key: str):
        if key in self._modules:
            return self._modules[key]
        return getattr(self._modules["engine"], key, None)

    def _prepare(self) -> None:
        hooks = self._hooks()
        for holder_key, attrs, layer in HOOKS:
            holder = self._holder(holder_key)
            for attr in attrs:
                name = f"{holder_key}.{attr}"
                original = getattr(holder, attr, None) if holder is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                fid = self._register(name, layer)
                traced = self._wrap(original, fid, hooks.get(name))
                self._patches.append((holder, attr, original, traced))

    def install(self) -> None:
        for holder, attr, _, traced in self._patches:
            setattr(holder, attr, traced)

    def remove(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def reset(self) -> None:
        for arr in (self._fid, self._parent, self._start, self._end):
            del arr[:]
        del self._stack[1:]
        self._hook_ns.clear()
        for k in self.counts:
            self.counts[k] = 0

    # -- calibration -------------------------------------------------------

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> None:
        """Measure the host cost a wrapper adds outside and inside its span.

        ``outer_ns`` is charged to the caller for each child span and
        ``inner_ns`` to the span itself; both are subtracted in ``summary``.
        """
        fid = self._register("calibration", "engine")
        traced = self._wrap(_noop, fid)
        clock = time.perf_counter_ns
        outer, inner = [], []
        for _ in range(rounds):
            self.reset()
            loop = range(calls)
            t0 = clock()
            for _ in loop:
                pass
            t1 = clock()
            for _ in loop:
                _noop()
            t2 = clock()
            for _ in loop:
                traced()
            t3 = clock()
            bare = (t2 - t1 - (t1 - t0)) / calls
            wrapped = (t3 - t2 - (t1 - t0)) / calls
            recorded = (sum(self._end) - sum(self._start)) / calls
            extra = max(wrapped - bare, 0.0)
            inside = min(max(recorded - bare, 0.0), extra)
            inner.append(inside)
            outer.append(extra - inside)
        self.reset()
        self.outer_ns = median(outer)
        self.inner_ns = median(inner)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self._fid, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict:
        """Per-layer self times, call counts and step durations of the unit."""
        a = self.arrays()
        fid, parent = a["fid"], a["parent"]
        n = len(fid)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        n_children = np.bincount(parent[has_parent], minlength=n)
        hook_ns = np.zeros(n)
        for p, ns in self._hook_ns.items():
            if p >= 0:
                hook_ns[p] = ns
        self_ns = dur - child_ns - n_children * self.outer_ns - self.inner_ns - hook_ns

        layer = np.asarray(self.layer_of, dtype=np.int64)[fid]
        layer_self = np.bincount(layer, weights=self_ns, minlength=len(LAYERS))
        calls = np.bincount(fid, minlength=len(self.names))
        by_name = {name: int(calls[i]) for i, name in enumerate(self.names)}

        # Step durations, less the tracer cost of every span nested in them.
        step = np.flatnonzero(fid == self.names.index("Simulation.step")) \
            if "Simulation.step" in self.names else np.zeros(0, dtype=np.int64)
        last = np.searchsorted(a["start_ns"], a["end_ns"][step], side="left")
        nested = last - step - 1
        hook_cum = np.concatenate(([0.0], np.cumsum(hook_ns)))
        step_ns = (dur[step] - nested * (self.outer_ns + self.inner_ns)
                   - self.inner_ns - (hook_cum[last] - hook_cum[step]))
        return {
            "self_s": {name: max(float(v), 0.0) / 1e9 for name, v in zip(LAYERS, layer_self)},
            "calls": by_name,
            "step_us": step_ns / 1e3,
            "counts": dict(self.counts),
        }

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans of the last traced unit, with their names, once."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), **self.arrays())
        meta = {"functions": self.names, "layers": list(LAYERS),
                "layer_of": self.layer_of, "outer_ns": self.outer_ns,
                "inner_ns": self.inner_ns, "missing_hooks": self.missing, **extra}
        path.with_suffix(".json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
