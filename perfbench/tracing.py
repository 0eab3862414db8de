"""Spans around stapy's public functions, for the traced benchmark run.

The tracer replaces each public function listed in :data:`SPANS` with a
wrapper that records a span: name, start, end, parent span and instance id
(the index of the enclosing ``sta_run`` call).  Spans live in compact
in-memory columns and are written out once, when the run ends.  A name that
no longer exists in the program is reported as missing; the run goes on.

A layer's self time is its span's duration minus the time covered by its
child spans, so the self times of all spans add up to the duration of the
root spans, which is the traced wall time.  The draws of ``RandomSource``
are counted and timed but are not spans: their time stays in the self time
of the operator that draws, which is where rotation-kernel work shows.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

#: (span name, module, attribute) for every wrapped public function.
SPANS = (
    ("cli.main", "stapy.cli", "main"),
    ("cli.parse_config", "stapy.cli", "parse_config"),
    ("cli.run_command", "stapy.cli", "run_command"),
    ("cli.resolve_objective", "stapy.cli", "resolve_objective"),
    ("sta_run", "stapy.engine", "sta_run"),
    ("engine.initialize", "stapy.engine", "initialize"),
    ("engine.phase", "stapy.engine", "phase"),
    ("engine.project", "stapy.engine", "project"),
    ("engine.select_best", "stapy.engine", "select_best"),
    ("engine.greedy_update", "stapy.engine", "greedy_update"),
    ("operators.op_expand", "stapy.operators", "op_expand"),
    ("operators.op_rotate", "stapy.operators", "op_rotate"),
    ("operators.op_axes", "stapy.operators", "op_axes"),
    ("operators.op_translate", "stapy.operators", "op_translate"),
    ("core.evaluate_batch", "stapy.core", "evaluate_batch"),
    ("core.CallCounter", "stapy.core", "CallCounter.__call__"),
    ("objective", "stapy.expressions", "CompiledExpression.__call__"),
)

#: RandomSource draw methods, counted and timed without a span.
DRAWS = ("uniform", "normal", "integers")

PHASE_KINDS = ("expansion", "rotation", "axesion")

#: Span names reported in the benchmark's per-layer metrics on every
#: workload; the cli.* spans only run on the CLI workload.
LAYER_SPANS = tuple(name for name, _, _ in SPANS if not name.startswith("cli."))


def _param_index(fn, name: str):
    try:
        return list(inspect.signature(fn).parameters).index(name)
    except (TypeError, ValueError):
        return None


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counts for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.instance = array("i")
        self._stack: list[int] = []
        self.current = -1  # instance id of the enclosing sta_run, or -1
        self.instances = 0
        self.paused = False
        self.counts: Counter = Counter()
        self.points: Counter = Counter()  # objective points per instance
        self.missing: list[str] = []
        self.t0 = time.perf_counter_ns()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span named ``name``; ``after(args, kwargs,
        result)`` runs inside the span when the call returns."""
        nid = self._id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, instances, stack = self.parent, self.instance, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            instances.append(self.current)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every function in SPANS and the RandomSource draws."""
        for name, module_name, attr in SPANS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None)
            if method:
                orig = owner.__dict__.get(method) if isinstance(owner, type) else None
            else:
                orig = owner
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig, self._observer(name, orig))
            if name == "sta_run":
                wrapped = self._per_instance(wrapped)
            if method:
                setattr(owner, method, wrapped)
            else:
                _rebind(orig, wrapped)
        source = getattr(sys.modules.get("stapy.core"), "RandomSource", None)
        for method in DRAWS:
            orig = getattr(source, method, None) if source is not None else None
            if orig is None:
                self.missing.append(f"core.RandomSource.{method}")
                continue
            setattr(source, method, self._counted_draw(orig))

    def _per_instance(self, wrapped):
        def run(*args, **kwargs):
            self.current = self.instances
            self.instances += 1
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.current = -1

        return run

    def _counted_draw(self, orig):
        counts = self.counts
        clock = time.perf_counter_ns

        def draw(*args, **kwargs):
            t = clock()
            result = orig(*args, **kwargs)
            counts["rng.ns"] += clock() - t
            counts["rng.calls"] += 1
            return result

        return draw

    def _observer(self, name: str, fn):
        counts = self.counts
        if name == "engine.phase":
            ik, ii = _param_index(fn, "kind"), _param_index(fn, "incumbent")
            if ik is None or ii is None:
                self.missing.append("engine.phase.improve_ratio")
                return None

            def after(args, kwargs, result):
                kind = _arg(args, kwargs, ik, "kind")
                old = _arg(args, kwargs, ii, "incumbent")
                counts[f"phase.{kind}"] += 1
                if getattr(result, "fitness", None) is not None and result.fitness < old.fitness:
                    counts[f"phase.{kind}.improved"] += 1

            return after
        if name == "engine.greedy_update":
            ic = _param_index(fn, "candidate")
            if ic is None:
                self.missing.append("engine.translate.accept_ratio")
                return None

            def after(args, kwargs, result):
                if result is _arg(args, kwargs, ic, "candidate"):
                    counts["translate.accepted"] += 1

            return after
        if name == "operators.op_translate":

            def after(args, kwargs, result):
                counts["translate.fires"] += 1

            return after
        if name == "objective":
            return self.count_points(1)
        return None

    def count_points(self, x_index: int):
        points = self.points

        def after(args, kwargs, result):
            x = np.asarray(args[x_index])
            points[self.current] += 1 if x.ndim == 1 else x.shape[0]

        return after

    # ------------------------------------------------------------ results

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64) - self.t0,
            "end": np.frombuffer(self.end, dtype=np.int64) - self.t0,
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "instance": np.frombuffer(self.instance, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, instance) as .npz;
        times are ns since the tracer started, ``parent`` indexes the span
        rows (-1 for a root) and ``names`` maps ``name`` ids to text."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.columns())


class TracedObjective:
    """A benchmark objective whose calls are ``objective`` spans."""

    def __init__(self, tracer: Tracer, objective):
        self.supports_batch = bool(getattr(objective, "supports_batch", False))
        self._call = tracer.wrap("objective", objective, tracer.count_points(0))

    def __call__(self, x):
        return self._call(x)


def _rebind(orig, wrapped) -> None:
    # Callers hold the function under their own module's name (for example
    # engine's ``from .core import evaluate_batch``), so replace every
    # reference in the loaded stapy modules.
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "stapy" or module_name.startswith("stapy.")):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapped)


def self_times(start, end, parent) -> np.ndarray:
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """
    start, end, parent = (np.asarray(a, dtype=np.int64) for a in (start, end, parent))
    duration = end - start
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def layer_metrics(names, cols) -> dict[str, float]:
    """Calls, self time and share of the traced wall time per span name."""
    self_ns = self_times(cols["start"], cols["end"], cols["parent"])
    roots = cols["parent"] < 0
    wall_ns = int((cols["end"][roots] - cols["start"][roots]).sum())
    out = {"trace.wall_ms": wall_ns / 1e6, "trace.spans": float(len(self_ns))}
    total_self = 0
    for nid, name in enumerate(names):
        mine = cols["name"] == nid
        s = int(self_ns[mine].sum())
        total_self += s
        out[f"{name}.calls"] = float(mine.sum())
        out[f"{name}.self_ms"] = s / 1e6
        out[f"{name}.share"] = s / wall_ns if wall_ns else 0.0
    out["trace.residual_ms"] = (total_self - wall_ns) / 1e6
    return out


def cli_metrics(names, cols) -> dict[str, float]:
    """Inclusive ms of the CLI steps: parse_config, resolve_objective, the
    seed loop (first sta_run start to last sta_run end in run_command) and
    writing outputs (last sta_run end to the end of run_command)."""
    name, start, end, parent = cols["name"], cols["start"], cols["end"], cols["parent"]
    ids = {n: i for i, n in enumerate(names)}
    out = {}
    for step in ("cli.parse_config", "cli.resolve_objective"):
        mine = name == ids.get(step, -1)
        out[f"{step}.ms"] = float((end[mine] - start[mine]).sum()) / 1e6
    loop_ns = write_ns = 0
    runs = name == ids.get("sta_run", -1)
    for r in np.nonzero(name == ids.get("cli.run_command", -1))[0]:
        children = runs & (parent == r)
        if children.any():
            last = end[children].max()
            loop_ns += int(last - start[children].min())
            write_ns += int(end[r] - last)
    out["cli.seed_loop.ms"] = loop_ns / 1e6
    out["cli.write_outputs.ms"] = write_ns / 1e6
    return out


def ratio_metrics(counts: Counter) -> dict[str, float]:
    """Operator success and translation ratios, each over its base count."""
    out = {}
    phases = sum(counts[f"phase.{k}"] for k in PHASE_KINDS)
    for kind in PHASE_KINDS:
        n = counts[f"phase.{kind}"]
        out[f"engine.phase.{kind}.improve_ratio"] = counts[f"phase.{kind}.improved"] / n if n else 0.0
    fires = counts["translate.fires"]
    out["engine.translate.fire_ratio"] = fires / phases if phases else 0.0
    out["engine.translate.accept_ratio"] = counts["translate.accepted"] / fires if fires else 0.0
    out["core.RandomSource.calls"] = float(counts["rng.calls"])
    out["core.RandomSource.ms"] = counts["rng.ns"] / 1e6
    return out


def rotate_peak_alloc_mib(dim: int, se: int, seed: int, calls: int = 3) -> float:
    """Peak bytes allocated inside one ``op_rotate`` call, under tracemalloc
    (largest of ``calls`` calls), in MiB."""
    import stapy

    rng = stapy.RandomSource(seed)
    x = rng.uniform(-1.0, 1.0, dim)
    peak = 0
    tracemalloc.start()
    try:
        for _ in range(calls):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            stapy.op_rotate(x, se, 1.0, rng)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / 2**20
