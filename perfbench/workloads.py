"""The benchmark's three workloads: inputs from a seed, one repetition each.

Each workload maps the benchmark seed to a fixed job list and runs one
repetition of it (``run_sweep_rep`` and friends) from empty result, trace
and checkpoint stores in a fresh directory, through the public APIs only.
A repetition returns a :class:`Rep`: host-clock timings, the per-job
latencies split into cold and warm, its failures, and the public outputs
the per-layer metrics need.  Simulated results are never metrics; each
job's result is checked against its pin (see :mod:`pins`).

Why these three (README.md has the full rationale): ``sweep`` is
engine-bound with checkpoint forks on the path, ``serve`` puts result-cache
hits beside pooled simulations, and ``kernels`` is front-end-bound, so a
change to one layer has a workload that should move and one that should not.
"""

from __future__ import annotations

import random
import threading
import time
import traceback
from dataclasses import dataclass, field

import pins

#: The benchmark seed selects one of this many pinned input sets
#: (``seed % INPUT_SEEDS``); each has its own simulation seeds.
INPUT_SEEDS = 16

SWEEP_BENCHMARKS = ("mcf", "lbm", "astar")
SWEEP_LEVELS = ("encryption_only", "obfusmem_auth", "oram_ring", "hide")
SWEEP_REQUESTS = (1000, 2000, 4000)
SWEEP_CHANNELS = (1, 2)

SERVE_BENCHMARKS = ("mcf", "lbm", "astar", "milc")
SERVE_LEVELS = (
    "unprotected",
    "encryption_only",
    "obfusmem",
    "obfusmem_auth",
    "oram_ring",
    "palermo",
    "hide",
    "hide_encrypted",
)
SERVE_SEEDS_PER_SPEC = 4
SERVE_REQUESTS = 2000
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
#: Per-job server timeout and client wait deadline; a job past it fails.
SERVE_JOB_TIMEOUT_S = 60.0

KERNELS = ("sequential_scan", "random_lookup", "pointer_chase", "stencil")
#: Sixteen working sets on a geometric ladder from 16 to 128 KiB, within
#: the L1..L2 range of the Table 2 hierarchy (32 KiB L1, 512 KiB L2,
#: 8 MiB L3), dealt round-robin to the kernels.  Job costs then climb in
#: small steps, so a latency percentile never sits on a wide gap between
#: clusters of jobs and jump across it from run to run.  Each kernel
#: touches every block of its working set many times, so most accesses
#: hit and the filtered trace is about one record per block.
KERNEL_WORKING_SETS_KIB = tuple(round(16 * 8 ** (i / 15)) for i in range(16))
#: CPU accesses per working-set block: enough passes that the front end,
#: not the engine, does most of the work.
KERNEL_ACCESSES_PER_BLOCK = 160
KERNEL_LEVEL = "obfusmem_auth"
BLOCK_BYTES = 64


def input_seed(seed: int) -> int:
    """Which pinned input set the benchmark seed selects."""
    return seed % INPUT_SEEDS


@dataclass
class Rep:
    """What one repetition of a workload measured."""

    #: Host seconds in which the ``jobs`` resolved (no set-up, no teardown).
    wall_s: float
    #: Host seconds of this repetition's set-up (stores, server, warm-up).
    setup_s: float
    #: Jobs resolved in ``wall_s``.
    jobs: int
    #: Job results checked, and how many of them were wrong or missing.
    attempted: int
    failed: int
    cold_ms: list[float] = field(default_factory=list)
    warm_ms: list[float] = field(default_factory=list)
    #: Simulated memory requests of every resolved job.
    sim_requests: int = 0
    #: CPU-side accesses that entered the front end.
    accesses: int = 0
    #: Public outputs for the per-layer metrics (numbers sum across
    #: repetitions, lists concatenate).
    layer: dict = field(default_factory=dict)


def _elapsed_ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def repeat_order(jobs, rng: random.Random) -> list[tuple[int, int]]:
    """Pair each job with a warm repeat of a job already run.

    The repeat is a seeded pick among the jobs run but not yet repeated,
    so every job is repeated exactly once: the seed reorders the work but
    never changes how much of it there is.
    """
    pairs = []
    waiting: list[int] = []
    for job in jobs:
        waiting.append(job)
        pairs.append((job, waiting.pop(rng.randrange(len(waiting)))))
    return pairs


# ---------------------------------------------------------------------------
# sweep


def sweep_spec(k: int):
    """The sweep grid for input set ``k`` (90 jobs with the anchors)."""
    from repro.experiments.sweep import SweepAxis, SweepSpec

    return SweepSpec(
        axes=(
            SweepAxis("benchmark", SWEEP_BENCHMARKS),
            SweepAxis("level", SWEEP_LEVELS),
            SweepAxis("num_requests", SWEEP_REQUESTS),
            SweepAxis("machine.channels", SWEEP_CHANNELS),
            SweepAxis("seed", (1000 + k,)),
        )
    )


def run_sweep_rep(seed: int, workdir, pin_table: dict, probe) -> Rep:
    """One ``run_sweep`` of the grid with fresh stores, then a warm re-run.

    The first sweep simulates every job (cold; some fork from checkpoints)
    and sets the throughput.  The re-run of the same sweep finds every
    result in the result cache (warm), as when a user extends a finished
    sweep.  A job's latency is the host time between its result and the
    previous one; the first job of each sweep also carries compile and
    plan, which users pay on every run.
    """
    from repro.experiments import trace_cache
    from repro.experiments.checkpoints import CheckpointStore
    from repro.experiments.executor import ResultCache
    from repro.experiments.sweep import run_sweep

    k = input_seed(seed)
    started = time.perf_counter()
    trace_cache.sync(enabled=True, directory=workdir, max_bytes=None)
    cache = ResultCache(workdir)
    store = CheckpointStore(workdir)
    setup_s = time.perf_counter() - started

    def sweep(phase: str, latencies: list[float]):
        last = time.perf_counter()

        def progress(_record) -> None:
            nonlocal last
            now = time.perf_counter()
            latencies.append((now - last) * 1000.0)
            last = now
            probe.job(f"{phase}-{len(latencies)}")

        probe.job(f"{phase}-0")
        try:
            return run_sweep(
                sweep_spec(k).compile(),
                workers=1,
                cache=cache,
                checkpoints=store,
                progress=progress,
            )
        except Exception:
            traceback.print_exc()
            return None

    cold: list[float] = []
    warm: list[float] = []
    hits0, misses0 = trace_cache.counters()
    with probe.measured():
        started = time.perf_counter()
        first = sweep("cold", cold)
        wall_s = time.perf_counter() - started
        rerun = sweep("warm", warm)
    hits1, misses1 = trace_cache.counters()

    jobs = sweep_spec(k).compile().jobs
    failed = 0
    sim_requests = 0
    for run in (first, rerun):
        for index, spec in enumerate(jobs):
            result = None if run is None else run.results.get(spec.digest())
            if result is None or not pins.check(pin_table, "sweep", k, index, result):
                failed += 1
            elif run is first:
                sim_requests += result.num_requests
    traces = {(s.benchmark, s.num_requests, s.seed, s.cores) for s in jobs}
    return Rep(
        wall_s=wall_s,
        setup_s=setup_s,
        jobs=len(jobs),
        attempted=2 * len(jobs),
        failed=failed,
        cold_ms=cold,
        warm_ms=warm,
        sim_requests=sim_requests,
        accesses=sum(n * cores for _b, n, _s, cores in traces),
        layer={
            "trace_hits": hits1 - hits0,
            "trace_misses": misses1 - misses0,
            "forks": 0 if first is None else first.manifest.checkpoint_hits,
            "warm_starts_planned": (
                0 if first is None else first.plan.warm_starts_planned
            ),
        },
    )


# ---------------------------------------------------------------------------
# serve


def serve_specs(k: int) -> list:
    """The serve workload's distinct cold specs for input set ``k``, in
    submission order (4 benchmarks x 8 schemes x 4 seeds = 128)."""
    from repro.experiments.executor import JobSpec

    specs = [
        JobSpec(benchmark, level, num_requests=SERVE_REQUESTS, seed=seed)
        for seed in range(
            2000 + SERVE_SEEDS_PER_SPEC * k, 2000 + SERVE_SEEDS_PER_SPEC * (k + 1)
        )
        for benchmark in SERVE_BENCHMARKS
        for level in SERVE_LEVELS
    ]
    random.Random(k).shuffle(specs)
    return specs


#: One small job per repetition, before measuring, so the forked workers
#: have run a simulation; its seed is outside every input set's range.
SERVE_WARMUP = {
    "benchmark": "mcf",
    "level": "unprotected",
    "num_requests": 200,
    "seed": 1,
}


def run_serve_rep(seed: int, workdir, pin_table: dict, probe) -> Rep:
    """Closed loop of 2 clients against a fresh in-process server.

    Client ``c`` submits cold specs ``c, c + 2, ...``; after each one
    finishes it submits a repeat of one of its own finished specs (see
    :func:`repeat_order`), which the result cache answers.  Latency is
    submit-to-result on the client's clock.
    """
    from repro.experiments.executor import result_from_jsonable
    from repro.serve.client import ClientError
    from repro.serve.harness import ServerThread
    from repro.serve.service import ServiceConfig

    k = input_seed(seed)
    specs = serve_specs(k)
    wire = [spec.to_jsonable() for spec in specs]
    config = ServiceConfig(
        workers=SERVE_WORKERS,
        queue_depth=16,
        cache_dir=workdir,
        default_timeout_s=SERVE_JOB_TIMEOUT_S,
    )
    started = time.perf_counter()
    server = ServerThread(config).start()
    try:
        control = server.client()
        control.run(SERVE_WARMUP, deadline_s=SERVE_JOB_TIMEOUT_S)
        setup_s = time.perf_counter() - started
        before = control.metrics()
        records: list[tuple[int, bool, float, dict | None]] = []
        attempts = [0] * SERVE_CLIENTS

        def request(client, index: int, cold: bool) -> None:
            sent = time.perf_counter()
            final = None
            try:
                job = client.submit(wire[index])
                final = client.wait(job["id"], deadline_s=SERVE_JOB_TIMEOUT_S)
            except (ClientError, OSError):
                traceback.print_exc()
            records.append((index, cold, _elapsed_ms(sent), final))

        def client_loop(c: int) -> None:
            client = server.client()
            own = range(c, len(specs), SERVE_CLIENTS)
            rng = random.Random(seed * SERVE_CLIENTS + c)
            for index, repeat in repeat_order(own, rng):
                request(client, index, True)
                request(client, repeat, False)
            attempts[c] = client.stats["requests"]

        with probe.measured():
            started = time.perf_counter()
            threads = [
                threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
                for c in range(SERVE_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - started
        after = control.metrics()
    finally:
        server.stop()

    cold_results: dict[int, dict] = {}
    attempted = 2 * len(specs)
    failed = attempted - len(records)  # requests a client never completed
    sim_requests = 0
    layer = {"queue_wait_ms": [], "worker_wall_ms": [], "overhead_ms": []}
    # Cold replies first, so every warm reply has its original to match.
    for index, cold, latency_ms, final in sorted(records, key=lambda r: not r[1]):
        ok = final is not None and final["state"] == "done"
        if ok and cold:
            result = result_from_jsonable(final["result"])
            ok = pins.check(pin_table, "serve", k, index, result)
            if ok:
                cold_results[index] = final["result"]
                layer["queue_wait_ms"].append(
                    (final["started_at"] - final["submitted_at"]) * 1000.0
                )
                layer["worker_wall_ms"].append(final["wall_ms"])
                layer["overhead_ms"].append(latency_ms - final["wall_ms"])
        elif ok:
            ok = index in cold_results and final["result"] == cold_results[index]
        if ok:
            sim_requests += specs[index].num_requests
        else:
            failed += 1

    def delta(key: str) -> float:
        return after["counters"].get(key, 0.0) - before["counters"].get(key, 0.0)

    completed = delta("serve.completed")
    layer.update(
        {
            "sim_events": after["sim_events_total"] - before["sim_events_total"],
            "sim_wall_s": after["sim_wall_s_total"] - before["sim_wall_s_total"],
            "completed": completed,
            "cache_hits": completed - delta("serve.simulations"),
            "coalesced": delta("serve.hits_coalesced"),
            "http_attempts": sum(attempts),
            "worker_restarts": after["worker_restarts"] - before["worker_restarts"],
            "trace_hits": after["trace_cache_hits"] - before["trace_cache_hits"],
            "trace_misses": after["trace_cache_misses"] - before["trace_cache_misses"],
        }
    )
    return Rep(
        wall_s=wall_s,
        setup_s=setup_s,
        jobs=len(records),
        attempted=attempted,
        failed=failed,
        cold_ms=[latency for _i, cold, latency, _f in records if cold],
        warm_ms=[latency for _i, cold, latency, _f in records if not cold],
        sim_requests=sim_requests,
        accesses=len({(s.benchmark, s.seed) for s in specs}) * SERVE_REQUESTS,
        layer=layer,
    )


# ---------------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class KernelJob:
    """One kernel trace spec and the CPU accesses it feeds the hierarchy."""

    spec: object
    accesses: int


def _kernel_params(kernel: str, working_set: int) -> tuple[dict, int]:
    """Kernel keyword arguments for a working set, and their access count."""
    blocks = working_set // BLOCK_BYTES
    target = blocks * KERNEL_ACCESSES_PER_BLOCK
    if kernel == "sequential_scan":
        per_pass = working_set // 8
        passes = max(1, target // per_pass)
        return {"array_bytes": working_set, "passes": passes, "stride": 8,
                "write_fraction": 0.2}, passes * per_pass
    if kernel == "random_lookup":
        lookups = max(1, target // (BLOCK_BYTES // 8))
        return {"table_bytes": working_set, "lookups": lookups,
                "record_bytes": BLOCK_BYTES}, lookups * (BLOCK_BYTES // 8)
    if kernel == "pointer_chase":
        return {"pool_bytes": working_set, "hops": target,
                "node_bytes": BLOCK_BYTES}, target
    if kernel == "stencil":
        rows = working_set // 4096
        per_sweep = (rows - 2) * (4096 // BLOCK_BYTES) * 3
        sweeps = max(1, target // per_sweep)
        return {"grid_bytes": working_set, "sweeps": sweeps,
                "row_bytes": 4096}, sweeps * per_sweep
    raise ValueError(f"unknown kernel {kernel!r}")


def kernel_specs(k: int) -> list[KernelJob]:
    """The 16 cold kernel jobs of input set ``k`` (one per working set),
    in a seeded order."""
    from repro.experiments.trace_cache import KernelTraceSpec

    jobs = []
    for index, size_kib in enumerate(KERNEL_WORKING_SETS_KIB):
        kernel = KERNELS[index % len(KERNELS)]
        params, accesses = _kernel_params(kernel, size_kib << 10)
        spec = KernelTraceSpec.create(kernel, seed=3000 + 64 * k + index, **params)
        jobs.append(KernelJob(spec, accesses))
    random.Random(k).shuffle(jobs)
    return jobs


def kernel_sim_seed(k: int) -> int:
    """Simulation seed of every kernel trace in input set ``k``."""
    return 4000 + k


def kernel_sequence(seed: int, cold_jobs: int) -> list[tuple[int, bool]]:
    """``(job index, cold)`` in run order: cold and warm jobs alternate."""
    order: list[tuple[int, bool]] = []
    for index, repeat in repeat_order(range(cold_jobs), random.Random(seed)):
        order += [(index, True), (repeat, False)]
    return order


def run_kernels_rep(seed: int, workdir, pin_table: dict, probe) -> Rep:
    """Kernel traces through ``cached_trace`` then ``run_trace``.

    A cold job builds its trace (kernel through the hierarchy); a warm job
    repeats an earlier spec, whose trace the trace cache returns, and
    simulates it again.  Latency is the job's host time.
    """
    from repro.experiments import trace_cache
    from repro.system.simulator import run_trace

    k = input_seed(seed)
    jobs = kernel_specs(k)
    sequence = kernel_sequence(seed, len(jobs))
    started = time.perf_counter()
    trace_cache.sync(enabled=True, directory=workdir, max_bytes=None)
    setup_s = time.perf_counter() - started

    outcomes = []
    hits0, misses0 = trace_cache.counters()
    with probe.measured():
        started = time.perf_counter()
        for position, (index, cold) in enumerate(sequence):
            probe.job(position)
            sent = time.perf_counter()
            result = None
            try:
                trace = trace_cache.cached_trace(jobs[index].spec)
                result = run_trace(trace, KERNEL_LEVEL, seed=kernel_sim_seed(k))
            except Exception:
                traceback.print_exc()
            outcomes.append((index, cold, _elapsed_ms(sent), result))
        wall_s = time.perf_counter() - started
    hits1, misses1 = trace_cache.counters()

    failed = 0
    sim_requests = 0
    for index, _cold, _latency, result in outcomes:
        if result is None or not pins.check(pin_table, "kernels", k, index, result):
            failed += 1
        else:
            sim_requests += result.num_requests
    return Rep(
        wall_s=wall_s,
        setup_s=setup_s,
        jobs=len(outcomes),
        attempted=len(outcomes),
        failed=failed,
        cold_ms=[latency for _i, cold, latency, _r in outcomes if cold],
        warm_ms=[latency for _i, cold, latency, _r in outcomes if not cold],
        sim_requests=sim_requests,
        accesses=sum(job.accesses for job in jobs),
        layer={"trace_hits": hits1 - hits0, "trace_misses": misses1 - misses0},
    )


WORKLOADS = {
    "sweep": run_sweep_rep,
    "serve": run_serve_rep,
    "kernels": run_kernels_rep,
}

#: Modules whose import a user pays before the workload's first job.
IMPORTS = {
    "sweep": ("repro.experiments.sweep", "repro.experiments.checkpoints"),
    "serve": ("repro.serve.harness", "repro.serve.service"),
    "kernels": ("repro.experiments.trace_cache", "repro.system.simulator"),
}
