"""Metric names, the percentile rule, and how repetitions become metrics.

End-to-end metrics come from untraced repetitions; per-layer metrics from
traced ones.  Per-layer counts and times are per repetition (totals over
the traced repetitions divided by their number); ratios are taken over
the totals.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from pathlib import Path

from tracing import layer_totals

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; below that the "p90" of a handful of jobs is one outlier.
MIN_SAMPLES_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "sim_requests_per_s": "req/s",
    "accesses_per_s": "accesses/s",
    "cold_latency_p50_ms": "ms",
    "cold_latency_p90_ms": "ms",
    "warm_latency_p50_ms": "ms",
    "warm_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Schemes of the sweep grid (with its unprotected anchors).
SWEEP_SCHEMES = ("unprotected", "encryption_only", "obfusmem_auth", "oram_ring", "hide")

#: Engine components whose events are counted, by module under ``repro.``.
EVENT_MODULES = (
    "cpu.core",
    "core.controller",
    "mem.scheduler",
    "secure.memory_encryption",
    "oram.timing",
)

PER_LAYER = {
    "cpu.kernels.self_s": "s",
    "mem.hierarchy.self_s": "s",
    "mem.hierarchy.accesses": "count",
    "mem.hierarchy.accesses_per_s": "accesses/s",
    "mem.hierarchy.llc_miss_ratio": "ratio",
    "cpu.generator.self_s": "s",
    "cpu.generator.records": "count",
    "trace_cache.hits": "count",
    "trace_cache.misses": "count",
    "trace_cache.get_s": "s",
    "trace_cache.put_s": "s",
    "system.build_s": "s",
    "system.run_s": "s",
    "sim.events": "count",
    "sim.events_per_request": "events/req",
    "sim.events_per_s": "events/s",
    **{f"sim.events_per_request.{scheme}": "events/req" for scheme in SWEEP_SCHEMES},
    **{f"sim.events_per_s.{scheme}": "events/s" for scheme in SWEEP_SCHEMES},
    **{f"events.{module}": "count" for module in EVENT_MODULES},
    "checkpoints.saves": "count",
    "checkpoints.save_s": "s",
    "checkpoints.bytes_per_save": "bytes",
    "checkpoints.restores": "count",
    "checkpoints.restore_s": "s",
    "checkpoints.events_resumed": "count",
    "checkpoints.warm_start_ratio": "ratio",
    "executor.digest_calls": "count",
    "executor.digest_s": "s",
    "executor.result_cache_get_s": "s",
    "executor.result_cache_put_s": "s",
    "sweep.plan_s": "s",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p90_ms": "ms",
    "serve.worker_wall_p50_ms": "ms",
    "serve.overhead_p50_ms": "ms",
    "serve.sim_events_per_s": "events/s",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.http_attempts_per_job": "req/job",
    "serve.worker_restarts": "count",
    "sim.engine.wall_share": "ratio",
    "frontend.wall_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def samples_needed(q: float) -> int:
    """Smallest sample count for which :func:`percentile` reports ``q``."""
    n = 1
    while percentile(range(n), q) is None:
        n += 1
    return n


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-quantile of ``samples``, or None when too few.

    The value is the sample at rank ``ceil(q * n)``; the ``n - ceil(q * n)``
    samples above it are the ones "beyond" it.  For a tail (``q > 0.5``)
    with fewer than :data:`MIN_SAMPLES_BEYOND` of those, the tail is not
    resolved and nothing is reported; a median needs only one sample.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(reps, import_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metric values and sample counts from untraced reps.

    Rates are medians over repetitions; latency percentiles pool every
    job of the run.  A tail without enough samples is left out.
    """
    cold = [ms for rep in reps for ms in rep.cold_ms]
    warm = [ms for rep in reps for ms in rep.warm_ms]
    values = {
        "setup_s": import_s + statistics.median(rep.setup_s for rep in reps),
        "jobs_per_s": statistics.median(rep.jobs / rep.wall_s for rep in reps),
        "sim_requests_per_s": statistics.median(
            rep.sim_requests / rep.wall_s for rep in reps
        ),
        "accesses_per_s": statistics.median(rep.accesses / rep.wall_s for rep in reps),
        "cold_latency_p50_ms": percentile(cold, 0.5),
        "cold_latency_p90_ms": percentile(cold, 0.9),
        "warm_latency_p50_ms": percentile(warm, 0.5),
        "warm_latency_p90_ms": percentile(warm, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "repetitions": len(reps),
        "cold_latency": len(cold),
        "warm_latency": len(warm),
    }
    return {k: v for k, v in values.items() if v is not None}, samples


def merge_layer(reps) -> dict:
    """Sum the reps' numeric layer outputs; concatenate their lists."""
    merged: dict = {}
    for rep in reps:
        for key, value in rep.layer.items():
            if isinstance(value, list):
                merged.setdefault(key, []).extend(value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def per_layer(traced, probe, untraced_walls: list[float]) -> dict:
    """Per-layer metric values from the traced reps and the run's probe."""
    n = len(traced)
    spans = probe.tracer.spans
    totals = layer_totals(spans)
    layer = merge_layer(traced)
    wall = sum(rep.wall_s for rep in traced)

    def get(name: str, key: str = "total_s") -> float:
        return totals.get(name, {}).get(key, 0)

    modules = probe.counter.by_module()
    per_scheme: dict[str, list[float]] = {}
    for span in spans:
        if span.name == "sim.engine" and span.data is not None:
            entry = per_scheme.setdefault(span.data["scheme"], [0, 0, 0.0])
            entry[0] += span.data["events"]
            entry[1] += span.data["requests"]
            entry[2] += span.duration

    events = get("sim.engine", "events")
    run_s = get("sim.engine")
    accesses = get("mem.hierarchy", "accesses")
    queue_wait = layer.get("queue_wait_ms", [])
    values = {
        "cpu.kernels.self_s": get("cpu.kernels", "self_s") / n,
        "mem.hierarchy.self_s": get("mem.hierarchy", "self_s") / n,
        "mem.hierarchy.accesses": accesses / n,
        "mem.hierarchy.accesses_per_s": _ratio(
            accesses, get("mem.hierarchy", "self_s")
        ),
        "mem.hierarchy.llc_miss_ratio": _ratio(
            get("mem.hierarchy", "traffic"), accesses
        ),
        "cpu.generator.self_s": get("cpu.generator", "self_s") / n,
        "cpu.generator.records": get("cpu.generator", "records") / n,
        "trace_cache.hits": layer.get("trace_hits", 0) / n,
        "trace_cache.misses": layer.get("trace_misses", 0) / n,
        "trace_cache.get_s": get("trace_cache.get") / n,
        "trace_cache.put_s": get("trace_cache.put") / n,
        "system.build_s": get("system.build") / n,
        "system.run_s": run_s / n,
        "sim.events": events / n,
        "sim.events_per_request": _ratio(events, get("sim.engine", "requests")),
        "sim.events_per_s": _ratio(events, run_s),
        "checkpoints.saves": get("checkpoints.put", "calls") / n,
        "checkpoints.save_s": (
            get("checkpoints.snapshot") + get("checkpoints.put")
        ) / n,
        "checkpoints.bytes_per_save": _ratio(
            get("checkpoints.put", "bytes"), get("checkpoints.put", "calls")
        ),
        "checkpoints.restores": get("checkpoints.thaw", "calls") / n,
        "checkpoints.restore_s": (
            get("checkpoints.thaw") + get("checkpoints.deepest")
        ) / n,
        "checkpoints.events_resumed": get("checkpoints.thaw", "events_resumed") / n,
        "checkpoints.warm_start_ratio": _ratio(
            layer.get("forks", 0), layer.get("warm_starts_planned", 0)
        ),
        "executor.digest_calls": get("executor.digest", "calls") / n,
        "executor.digest_s": get("executor.digest") / n,
        "executor.result_cache_get_s": get("executor.result_cache_get") / n,
        "executor.result_cache_put_s": get("executor.result_cache_put") / n,
        "sweep.plan_s": get("sweep.plan") / n,
        "serve.queue_wait_p50_ms": percentile(queue_wait, 0.5) or 0.0,
        "serve.queue_wait_p90_ms": percentile(queue_wait, 0.9) or 0.0,
        "serve.worker_wall_p50_ms": percentile(layer.get("worker_wall_ms", []), 0.5)
        or 0.0,
        "serve.overhead_p50_ms": percentile(layer.get("overhead_ms", []), 0.5) or 0.0,
        "serve.sim_events_per_s": _ratio(
            layer.get("sim_events", 0), layer.get("sim_wall_s", 0)
        ),
        "serve.cache_hit_ratio": _ratio(
            layer.get("cache_hits", 0), layer.get("completed", 0)
        ),
        "serve.coalesced": layer.get("coalesced", 0) / n,
        "serve.http_attempts_per_job": _ratio(
            layer.get("http_attempts", 0), sum(rep.attempted for rep in traced)
        ),
        "serve.worker_restarts": layer.get("worker_restarts", 0) / n,
        "sim.engine.wall_share": _ratio(run_s, wall),
        "frontend.wall_share": _ratio(
            get("cpu.kernels", "self_s")
            + get("mem.hierarchy", "self_s")
            + get("cpu.generator", "self_s"),
            wall,
        ),
        "trace.overhead_ratio": _ratio(
            statistics.median(rep.wall_s for rep in traced),
            statistics.median(untraced_walls),
        ),
    }
    for scheme in SWEEP_SCHEMES:
        scheme_events, requests, seconds = per_scheme.get(scheme, (0, 0, 0.0))
        values[f"sim.events_per_request.{scheme}"] = _ratio(scheme_events, requests)
        values[f"sim.events_per_s.{scheme}"] = _ratio(scheme_events, seconds)
    for module in EVENT_MODULES:
        values[f"events.{module}"] = modules.get(f"repro.{module}", 0) / n
    return values


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_record(root: Path) -> dict:
    """What a measurement needs beside it to be comparable: host and code."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": commit_of(root),
    }
