"""Shared experiment plumbing: one resolve call, process config, tables.

Every experiment module (table1/table3/figure4/figure5/energy, and the
attack matrix) builds its grid once as a spec list and hands it to
:func:`resolve`, which returns the results in spec order together with
the sweep's run manifest.  Resolution goes through one
:class:`~repro.experiments.executor.ParallelRunner`: a process-lifetime
memo, then the persistent on-disk
:class:`~repro.experiments.executor.ResultCache`, then simulation fanned
out over the configured workers — so a full regeneration of the paper's
evaluation reuses each (benchmark, level, machine, seed) simulation
across processes and can spread cold jobs over every core.

The execution surface is configured once per process::

    from repro.experiments import runner

    runner.configure(workers=4, cache_dir="/tmp/obfus-cache")
    rows = table1.run()          # cold jobs run on 4 workers, warm ones hit
    print(runner.runtime_stats())  # {'executor.memory_hits': ..., ...}

or from any experiment CLI / ``python -m repro experiments`` via
``--workers N``, ``--no-cache`` and ``--cache-dir PATH`` (environment
equivalents: ``REPRO_WORKERS``, ``REPRO_NO_CACHE``, ``REPRO_CACHE_DIR``).
The cache settings are the one
:data:`~repro.experiments.executor.CACHE_CONFIG`, which also governs the
trace cache.  Each :func:`resolve` sweep records a run manifest; with the
disk cache enabled it is written under
``<cache-dir>/manifests/<label>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
from dataclasses import dataclass
from pathlib import Path

from repro.cpu.spec_profiles import BENCHMARK_NAMES, SPEC_PROFILES
from repro.errors import ConfigurationError
from repro.experiments import trace_cache
from repro.experiments.executor import (
    CACHE_CONFIG,
    DEFAULT_CACHE_DIR,
    CacheConfig,
    JsonFileCache,
    ParallelRunner,
    ResultCache,
    RunManifest,
)
from repro.attacks import add_attack_arguments
from repro.schemes import add_scheme_arguments, scheme_name_of
from repro.sim import profiling
from repro.sim.statistics import StatRegistry
from repro.system.simulator import RunResult

WORKERS_ENV = "REPRO_WORKERS"
PROFILE_ENV = "REPRO_PROFILE"

_cache: dict[str, RunResult] = {}
_stats = StatRegistry()


@dataclass
class RunnerConfig:
    """Process-wide execution settings for experiment runs."""

    workers: int = 1
    profile: bool = False

    @property
    def cache(self) -> CacheConfig:
        """The process-wide cache settings, shared with the trace cache."""
        return CACHE_CONFIG


def _config_from_env() -> RunnerConfig:
    """Build the runner config from ``REPRO_*`` environment variables."""
    try:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    except ValueError:
        workers = 1
    return RunnerConfig(
        workers=max(1, workers), profile=bool(os.environ.get(PROFILE_ENV))
    )


_config = _config_from_env()


def configure(
    workers: int | None = None,
    cache_enabled: bool | None = None,
    cache_dir: str | Path | None = None,
    cache_bytes: int | None = None,
    profile: bool | None = None,
) -> RunnerConfig:
    """Update the process-wide runner config; None leaves a field unchanged.

    The cache settings go to :func:`repro.experiments.trace_cache.configure`
    (which also clears the trace memo).  ``cache_bytes`` accepts a negative
    value to mean "back to unbounded" (None is the leave-unchanged sentinel
    shared by every parameter).
    """
    if workers is not None:
        _config.workers = max(1, int(workers))
    if profile is not None:
        _config.profile = bool(profile)
    trace_cache.configure(cache_enabled, cache_dir, cache_bytes)
    return _config


def get_config() -> RunnerConfig:
    """The live process-wide runner config (mutable via :func:`configure`)."""
    return _config


def reset_config() -> RunnerConfig:
    """Re-derive every setting from the environment (mainly for tests)."""
    global _config
    _config = _config_from_env()
    CACHE_CONFIG.load_env()
    trace_cache.clear_memo()
    return _config


def clear_cache() -> None:
    """Drop the in-memory result cache and counters (the disk cache stays)."""
    _cache.clear()
    global _stats
    _stats = StatRegistry()


def runtime_stats() -> dict[str, float]:
    """Process-lifetime cache/simulation counters, flattened to one dict."""
    return _stats.as_dict()


def simulations_performed() -> int:
    """How many actual simulations this process has executed so far."""
    return int(_stats.group("executor").get("simulations"))


def resolve(
    specs: list,
    label: str = "sweep",
    progress=None,
    memory: dict | None = None,
    cache: JsonFileCache | None = None,
) -> tuple[list, RunManifest]:
    """Resolve a whole sweep: ``(results in spec order, manifest)``.

    Each spec is served from the in-memory memo, then the disk store, and
    the remaining cold jobs are fanned over the configured workers; fresh
    results feed both layers.  ``memory`` and ``cache`` replace those
    layers for jobs with their own stores (the attack matrix passes its
    outcome memo and attack-cell cache); by default they are this
    module's result memo and the configured :class:`ResultCache`.  With
    the disk cache enabled the manifest is also written to
    ``<cache-dir>/manifests/<label>.json``.  ``progress`` (a callable
    taking one :class:`~repro.experiments.executor.JobRecord`) streams
    per-job resolution as the sweep advances.

    With profiling enabled (``--profile`` / ``REPRO_PROFILE``), the sweep
    runs serially in-process under cProfile + event accounting (fork
    workers cannot feed a parent-side profiler), and the hotspot reports
    are written alongside the manifest as ``<label>.profile.json`` /
    ``<label>.profile.txt``.
    """
    if memory is None:
        memory, cache = _cache, CACHE_CONFIG.open(ResultCache)
    parallel = ParallelRunner(
        workers=1 if _config.profile else _config.workers,
        cache=cache,
        memory=memory,
        stats=_stats,
    )
    capture = profiling.capture() if _config.profile else contextlib.nullcontext()
    with capture as session:
        results = parallel.run(list(specs), label=label, progress=progress)
    manifest = parallel.manifest
    assert manifest is not None
    manifest_dir = CACHE_CONFIG.directory / "manifests"
    if CACHE_CONFIG.enabled:
        manifest.write(manifest_dir / f"{label}.json")
    if session is not None:
        json_path, text_path = session.write_reports(manifest_dir, label)
        print(
            f"[profile] {label}: {session.accountant.events} events in "
            f"{session.wall_s:.3f} s -> {json_path} / {text_path}"
        )
    return results, manifest


def by_benchmark(specs: list, results: list) -> dict[str, dict[str, RunResult]]:
    """A resolved (benchmark x scheme) grid: benchmark -> scheme name -> result."""
    grid: dict[str, dict[str, RunResult]] = {}
    for spec, result in zip(specs, results):
        grid.setdefault(spec.benchmark, {})[scheme_name_of(spec.level)] = result
    return grid


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--workers/--no-cache/--cache-dir`` flags.

    Also attaches ``--list-schemes`` and ``--list-attacks`` so every
    experiment CLI can print the protection-scheme and attacker registries
    without running anything.
    """
    add_scheme_arguments(parser)
    add_attack_arguments(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for cold simulations (default: current config)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"persistent result cache directory (default {DEFAULT_CACHE_DIR}/)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="byte budget for the persistent cache; least-recently-used "
        "entries are evicted on write (default: unbounded)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile cold simulations (cProfile + event counts); forces "
        "serial execution and writes <label>.profile.{json,txt} next to "
        "the run manifest",
    )


def configure_from_args(args: argparse.Namespace) -> RunnerConfig:
    """Apply parsed :func:`add_runner_arguments` flags to the global config."""
    return configure(
        workers=getattr(args, "workers", None),
        cache_enabled=False if getattr(args, "no_cache", False) else None,
        cache_dir=getattr(args, "cache_dir", None),
        cache_bytes=getattr(args, "cache_bytes", None),
        profile=True if getattr(args, "profile", False) else None,
    )


def select_benchmarks(benchmarks: list[str] | None) -> list[str]:
    """Validate a benchmark subset; None means the full Table 1 suite."""
    if benchmarks is None:
        return list(BENCHMARK_NAMES)
    unknown = [name for name in benchmarks if name not in SPEC_PROFILES]
    if unknown:
        raise ConfigurationError(f"unknown benchmarks: {unknown}")
    return benchmarks


@dataclass(frozen=True)
class TableColumn:
    """One column of a fixed-width text table (header, width, alignment)."""

    header: str
    width: int
    align: str = ">"


def format_table(columns: list[TableColumn], rows: list[list[str]]) -> str:
    """Render a fixed-width text table (the experiment CLIs print these)."""
    header = " ".join(f"{c.header:{c.align}{c.width}}" for c in columns)
    separator = "-" * len(header)
    body = [
        " ".join(f"{cell:{c.align}{c.width}}" for c, cell in zip(columns, row))
        for row in rows
    ]
    return "\n".join([header, separator, *body])
