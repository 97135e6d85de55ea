"""Persistent, content-addressed cache of front-end traces.

Producing a trace is the front end of every full-stack run: synthetic
generation (:func:`repro.cpu.generator.make_trace`) for the SPEC
reproduction, or a kernel filtered through the cache hierarchy
(:func:`repro.cpu.kernels.trace_through_hierarchy`) for the application
kernels.  Both are pure functions of a small spec — so repeated jobs (the
common case for the serve layer, which replays the same benchmarks at many
protection levels) can skip the front end entirely.

This module stores those traces next to the simulation results, through
the one :class:`~repro.experiments.executor.JsonFileCache` entry codec:

* entries are ``trace-<digest>.json`` files, content-addressed by
  :func:`~repro.experiments.executor.content_digest` over the schema
  version, the spec kind and the full trace spec (benchmark/seed or
  kernel/params/hierarchy config), and validated on load by echoing the
  spec — corruption, hash collisions and schema skew degrade to a miss;
* traces are stored in the lossless JSON form of
  :meth:`repro.cpu.trace.Trace.to_jsonable`, so a cached trace is
  bit-identical to a freshly generated one (floats round-trip exactly);
* entries share the result cache's directory and therefore its LRU byte
  budget — one :data:`~repro.experiments.executor.CACHE_CONFIG` holds the
  settings for both kinds, so ``--cache-dir``/``--cache-bytes`` govern
  both and ``--no-cache`` disables both.

Sharing one directory also means sharing it *across processes*: every
persistent serve worker, the supervisor and any concurrent CLI sweep may
read, write and evict the same store at once.  That is safe by
construction — writes are atomic (write-then-rename) and byte-budget
eviction is serialized by the base class's single-evictor ``flock``
lease (:attr:`~repro.experiments.executor.JsonFileCache.EVICTOR_LEASE_NAME`),
so concurrent evictors never double-unlink or over-evict; a process that
loses the lease race simply skips eviction until its next write.

In front of the persistent store sits a small always-on in-process memo
(:data:`MEMO_MAX_ENTRIES` traces, LRU): a design-space sweep replays the
same trace under every scheme and machine configuration, and re-reading —
let alone regenerating — it per job dominated front-end cost.  Traces are
immutable once built, so handing the same object to many worlds is safe.

Hit/miss counters are process-wide (:func:`counters`); the serving layer
ships them back from its persistent pool workers and reports the hit
ratio in ``/metrics``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from repro.cpu.generator import make_trace
from repro.cpu.kernels import KERNELS, trace_through_hierarchy
from repro.cpu.spec_profiles import BENCHMARK_NAMES, SPEC_PROFILES
from repro.cpu.trace import Trace
from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError
from repro.experiments.executor import (
    CACHE_CONFIG,
    CacheConfig,
    JsonFileCache,
    _jsonable,
    content_digest,
)
from repro.mem.hierarchy import HierarchyConfig

#: Bumped whenever trace generation or the entry format changes in a way
#: that invalidates previously cached traces.  Participates in every trace
#: digest, so a bump orphans (rather than corrupts) old entries.
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """One synthetic benchmark trace, as :func:`repro.system.run_benchmark`
    builds it: a profile name, a request count and the generator seed."""

    benchmark: str
    num_requests: int
    seed: int

    #: Spec kind tag, part of the digest.
    kind: ClassVar[str] = "synthetic"

    def __post_init__(self) -> None:
        if self.benchmark not in SPEC_PROFILES:
            raise ConfigurationError(
                f"unknown benchmark {self.benchmark!r}; choose from {BENCHMARK_NAMES}"
            )
        if self.num_requests < 1:
            raise ConfigurationError("trace needs at least one request")

    def to_jsonable(self) -> dict:
        """The spec as a canonical JSON-ready dict (the digest input)."""
        return {
            "benchmark": self.benchmark,
            "num_requests": self.num_requests,
            "seed": self.seed,
        }

    def digest(self) -> str:
        """Content hash identifying this spec's cache entry."""
        return content_digest(
            TRACE_SCHEMA_VERSION, kind=self.kind, spec=self.to_jsonable()
        )

    def build(self) -> Trace:
        """Generate the trace (the cache-miss path)."""
        return make_trace(
            SPEC_PROFILES[self.benchmark], self.num_requests, seed=self.seed
        )


@dataclass(frozen=True)
class KernelTraceSpec:
    """One application-kernel trace: a registered kernel filtered through a
    cache hierarchy, as :func:`repro.cpu.kernels.trace_through_hierarchy`
    produces it.

    ``params`` holds the kernel's keyword arguments as a sorted tuple of
    ``(name, value)`` pairs so the spec stays hashable; use :meth:`create`
    to pass them as plain keywords.  ``seed``, when set, seeds the kernel's
    :class:`~repro.crypto.rng.DeterministicRng`; None keeps each kernel's
    built-in default seed.
    """

    kernel: str
    params: tuple[tuple[str, int | float], ...] = ()
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    gap_ns: float = 2.0
    core_id: int = 0
    seed: int | None = None

    #: Spec kind tag, part of the digest.
    kind: ClassVar[str] = "kernel"

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; choose from {sorted(KERNELS)}"
            )
        for pair in self.params:
            if (
                not isinstance(pair, tuple)
                or len(pair) != 2
                or not isinstance(pair[0], str)
                or not isinstance(pair[1], (int, float))
            ):
                raise ConfigurationError(
                    f"kernel params must be (name, number) pairs, got {pair!r}"
                )

    @classmethod
    def create(
        cls,
        kernel: str,
        hierarchy: HierarchyConfig | None = None,
        gap_ns: float = 2.0,
        core_id: int = 0,
        seed: int | None = None,
        **params: int | float,
    ) -> "KernelTraceSpec":
        """Convenience constructor taking kernel parameters as keywords."""
        return cls(
            kernel=kernel,
            params=tuple(sorted(params.items())),
            hierarchy=hierarchy or HierarchyConfig(),
            gap_ns=gap_ns,
            core_id=core_id,
            seed=seed,
        )

    def to_jsonable(self) -> dict:
        """The spec as a canonical JSON-ready dict (the digest input)."""
        return {
            "kernel": self.kernel,
            "params": dict(self.params),
            "hierarchy": _jsonable(self.hierarchy),
            "gap_ns": self.gap_ns,
            "core_id": self.core_id,
            "seed": self.seed,
        }

    def digest(self) -> str:
        """Content hash identifying this spec's cache entry."""
        return content_digest(
            TRACE_SCHEMA_VERSION, kind=self.kind, spec=self.to_jsonable()
        )

    def build(self) -> Trace:
        """Run the kernel through the hierarchy (the cache-miss path)."""
        kwargs: dict = dict(self.params)
        if self.seed is not None:
            kwargs["rng"] = DeterministicRng(self.seed)
        stream = KERNELS[self.kernel](**kwargs)
        trace, _hierarchy = trace_through_hierarchy(
            stream,
            self.hierarchy,
            gap_ns=self.gap_ns,
            core_id=self.core_id,
            name=self.kernel,
        )
        return trace


#: Either trace spec kind (they share the digest/build/to_jsonable shape).
TraceSpec = SyntheticTraceSpec | KernelTraceSpec


class TraceCache(JsonFileCache):
    """Content-addressed persistent store of front-end traces.

    Entries are ``trace-<digest>.json`` files holding the schema version,
    the spec echo and the lossless JSON trace, read and written by the
    :class:`~repro.experiments.executor.JsonFileCache` codec.  The cache
    is designed to share its directory with a
    :class:`~repro.experiments.executor.ResultCache` — the inherited
    eviction machinery walks every ``*.json`` entry, so results and traces
    compete inside one LRU byte budget.
    """

    schema = TRACE_SCHEMA_VERSION
    file_prefix = "trace-"
    payload_key = "trace"
    encode = staticmethod(Trace.to_jsonable)
    decode = staticmethod(Trace.from_jsonable)


_lock = threading.Lock()
_hits = 0
_misses = 0

#: Upper bound on in-process memoized traces.  Traces are a few hundred
#: kilobytes at sweep-scale request counts, so this caps the memo at a few
#: megabytes while still covering every family of a large design-space sweep
#: (a sweep axis over schemes or machine knobs reuses one trace per
#: (benchmark, num_requests, seed) point).
MEMO_MAX_ENTRIES = 32

_memo: dict[str, Trace] = {}


def clear_memo() -> None:
    """Drop every in-process memoized trace (config changes and tests)."""
    with _lock:
        _memo.clear()


def _memo_get(digest: str) -> Trace | None:
    with _lock:
        trace = _memo.get(digest)
        if trace is not None:
            # dict preserves insertion order; re-insert to mark recency.
            del _memo[digest]
            _memo[digest] = trace
        return trace


def _memo_put(digest: str, trace: Trace) -> None:
    with _lock:
        _memo[digest] = trace
        while len(_memo) > MEMO_MAX_ENTRIES:
            _memo.pop(next(iter(_memo)))


def configure(
    enabled: bool | None = None,
    directory: str | Path | None = None,
    max_bytes: int | None = None,
) -> CacheConfig:
    """Update the process-wide cache config; None leaves a field as is.

    The settings are the one :data:`~repro.experiments.executor.CACHE_CONFIG`
    that also governs the result cache.  ``max_bytes`` accepts a negative
    value to mean "back to unbounded".  Any call clears the trace memo.
    """
    if enabled is not None:
        CACHE_CONFIG.enabled = bool(enabled)
    if directory is not None:
        CACHE_CONFIG.directory = Path(directory)
    if max_bytes is not None:
        CACHE_CONFIG.max_bytes = None if max_bytes < 0 else int(max_bytes)
    clear_memo()
    return CACHE_CONFIG


def sync(enabled: bool, directory: str | Path, max_bytes: int | None) -> None:
    """Overwrite every cache setting at once (a negative budget means 0)."""
    CACHE_CONFIG.max_bytes = None if max_bytes is None else max(0, int(max_bytes))
    configure(enabled, directory)


def active_cache() -> TraceCache | None:
    """The trace cache per current config, or None when caching is off."""
    return CACHE_CONFIG.open(TraceCache)


def counters() -> tuple[int, int]:
    """Process-lifetime ``(hits, misses)`` of :func:`cached_trace`."""
    with _lock:
        return _hits, _misses


def reset_counters() -> None:
    """Zero the process-lifetime hit/miss counters (mainly for tests)."""
    global _hits, _misses
    with _lock:
        _hits = 0
        _misses = 0


def _count(hit: bool) -> None:
    global _hits, _misses
    with _lock:
        if hit:
            _hits += 1
        else:
            _misses += 1


def cached_trace(spec: TraceSpec) -> Trace:
    """Resolve one trace spec through the memo and cache tiers.

    Two tiers, checked in order: a small in-process memo (always on — a
    sweep replays the same trace under many schemes and machine configs,
    and rebuilding or re-reading it per job dominated front-end cost), then
    the persistent on-disk store when caching is enabled.  A hit in either
    tier counts toward :func:`counters`; with ``--no-cache`` only rebuilds
    the memo cannot absorb are counted as misses, so hit-ratio metrics
    still reflect front-end work actually skipped.
    """
    digest = spec.digest()
    trace = _memo_get(digest)
    if trace is not None:
        _count(hit=True)
        return trace
    cache = active_cache()
    if cache is not None:
        trace = cache.get(spec)
        if trace is not None:
            _count(hit=True)
            _memo_put(digest, trace)
            return trace
    _count(hit=False)
    trace = spec.build()
    if cache is not None:
        cache.put(spec, trace)
    _memo_put(digest, trace)
    return trace


def traces_for_benchmark(
    benchmark: str, num_requests: int, seed: int, cores: int = 1
) -> list[Trace]:
    """The per-core traces :func:`repro.system.run_benchmark` would build.

    Seeds follow the simulator's convention (``seed + 1000 * core``), so a
    warm cache hands back traces bit-identical to fresh generation and
    :meth:`repro.experiments.executor.JobSpec.execute` can feed them
    straight to :func:`repro.system.run_traces`.
    """
    return [
        cached_trace(SyntheticTraceSpec(benchmark, num_requests, seed + 1000 * core))
        for core in range(cores)
    ]
