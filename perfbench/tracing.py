"""Outside-in tracing for the benchmark's traced run.

The simulator carries no instrumentation of its own.  During a traced
repetition, :func:`install` replaces a fixed set of public entry points
with wrappers that record one :class:`Span` per call (name, start, end,
parent span, job id, and a few counts read from the arguments or result),
and installs :class:`EventCounter` as the engine's ``default_instrument``.
:meth:`Tracer.restore` puts every original back.  Spans stay in memory
until the run ends; layer self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One timed call into a layer's public function."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: object
    data: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Children run on their parent's thread, inside the parent's interval and
    one after another, so their durations sum to the time they cover.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed data counts."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += selfs[span.id]
        for key, value in (span.data or {}).items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return totals


class EventCounter:
    """Engine instrument counting executed events per callback function.

    Callbacks are bound methods or ``functools.partial`` objects over them;
    both are unwrapped to the plain function, whose ``__module__`` (the full
    dotted name, so ``repro.cpu.core`` and ``repro.core.*`` stay apart)
    keys the per-module totals.
    """

    def __init__(self):
        self.counts: dict = {}

    def __call__(self, _time_ps, callback) -> None:
        target = getattr(callback, "func", callback)
        target = getattr(target, "__func__", target)
        counts = self.counts
        counts[target] = counts.get(target, 0) + 1

    def by_module(self) -> dict[str, int]:
        modules: dict[str, int] = {}
        for target, count in self.counts.items():
            name = getattr(target, "__module__", None) or type(target).__module__
            modules[name] = modules.get(name, 0) + count
        return modules


class Tracer:
    """Records spans around wrapped callables; :meth:`restore` unwraps."""

    def __init__(self):
        self.spans: list[Span] = []
        #: Job id stamped on spans as they close; the workload updates it.
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``pre(args)`` runs before the call; ``post(args, result, pre_value)``
        after a successful one and returns the span's data dict.
        """
        # The owner's own entry, so restore() puts back exactly what was there.
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            before = pre(args) if pre is not None else None
            stack.append(span_id)
            returned = False
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                returned = True
            finally:
                end = time.perf_counter()
                stack.pop()
                data = None
                if returned and post is not None:
                    data = post(args, result, before)
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, tracer.job, data)
                )
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped callable, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _file_bytes(path) -> int:
    try:
        return path.stat().st_size
    except (AttributeError, OSError):
        return 0


def install(tracer: Tracer, counter: EventCounter) -> None:
    """Wrap the layers' public entry points and count engine events.

    Modules that imported a function by name hold their own reference, so
    such functions are wrapped in every module that calls them.
    """
    from repro.cpu import kernels
    from repro.experiments import checkpoints, executor, sweep, trace_cache
    from repro.mem.hierarchy import CacheHierarchy
    from repro.sim.engine import Engine
    from repro.system.world import SimCheckpoint, SimWorld

    wrap = tracer.wrap
    wrap(trace_cache, "cached_trace", "trace_cache.cached_trace")
    wrap(trace_cache.TraceCache, "get", "trace_cache.get")
    wrap(trace_cache.TraceCache, "put", "trace_cache.put")
    wrap(
        trace_cache.SyntheticTraceSpec,
        "build",
        "cpu.generator",
        post=lambda args, trace, _: {"records": len(trace)},
    )
    for module in (kernels, trace_cache):
        wrap(module, "trace_through_hierarchy", "cpu.kernels")
    wrap(
        CacheHierarchy,
        "access_batch",
        "mem.hierarchy",
        pre=lambda args: len(args[3]) if len(args) > 3 and args[3] is not None else 0,
        post=lambda args, traffic, before: {
            "accesses": len(args[2]),
            "traffic": len(traffic) - before,
        },
    )
    wrap(SimWorld, "__init__", "system.build")
    wrap(
        SimWorld,
        "run",
        "sim.engine",
        pre=lambda args: (args[0].events_executed, args[0].trace_progress),
        post=lambda args, _finished, before: {
            "scheme": args[0].scheme.name,
            "events": args[0].events_executed - before[0],
            "requests": round(
                args[0].total_requests * (args[0].trace_progress - before[1])
            ),
        },
    )
    wrap(SimWorld, "snapshot", "checkpoints.snapshot")
    wrap(
        SimCheckpoint,
        "thaw",
        "checkpoints.thaw",
        post=lambda args, _world, _: {"events_resumed": args[0].events_executed},
    )
    wrap(
        checkpoints.CheckpointStore,
        "put",
        "checkpoints.put",
        post=lambda args, path, _: {"bytes": _file_bytes(path)},
    )
    wrap(checkpoints.CheckpointStore, "deepest", "checkpoints.deepest")
    wrap(executor.ResultCache, "get", "executor.result_cache_get")
    wrap(executor.ResultCache, "put", "executor.result_cache_put")
    wrap(executor.JobSpec, "digest", "executor.digest")
    wrap(sweep, "plan_sweep", "sweep.plan")

    previous = Engine.default_instrument
    Engine.default_instrument = counter
    tracer._saved.insert(0, (Engine, "default_instrument", previous))


class Probe:
    """What a repetition sees of tracing: the phase to trace, the job id.

    Untraced (no tracer), both are no-ops, so one repetition function
    serves the timed and the traced run.
    """

    def __init__(self, tracer: Tracer | None = None, counter=None):
        self.tracer = tracer
        self.counter = counter

    @contextlib.contextmanager
    def measured(self):
        """Trace the enclosed block only (set-up and checks stay untraced)."""
        if self.tracer is None:
            yield
            return
        install(self.tracer, self.counter)
        try:
            yield
        finally:
            self.tracer.restore()

    def job(self, job_id) -> None:
        if self.tracer is not None:
            self.tracer.job = job_id
