#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Repetitions of the workload run while
another fits in ``--seconds``, and until the latency tails have enough
samples.
With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric (host clock, no tracing); with ``--trace 1`` it holds
every per-layer metric, from traced repetitions alternating with untraced
ones.  Each job's simulated result is checked against ``pins.json``;
mismatches, errors and timeouts count as failed.  A record of the run
(machine, metrics, sample counts and, when traced, every span) is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: No repetition starts once this much time has been spent measuring, so a
#: run ends well inside three minutes however slow the host.
MAX_MEASURE_S = 110.0
#: Fresh-interpreter imports timed per run; set-up reports their median.
IMPORT_SAMPLES = 3


def _import_seconds(modules) -> float:
    """Median wall time of a fresh interpreter importing ``modules``."""
    import statistics

    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import " + ", ".join(modules)
    times = []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    """Max resident set of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _measure(workload, seed, seconds, traced_run, pin_table, workroot):
    """Run repetitions; returns ``[(traced, rep)]`` in run order and the
    probe that traced every other one (None for an untraced run)."""
    import metrics
    import workloads
    from tracing import EventCounter, Probe, Tracer

    run_rep = workloads.WORKLOADS[workload]
    needed = metrics.samples_needed(0.9)
    reps = []

    def enough() -> bool:
        untraced = [rep for traced, rep in reps if not traced]
        if traced_run:
            return bool(untraced) and len(untraced) < len(reps)
        cold = sum(len(rep.cold_ms) for rep in untraced)
        warm = sum(len(rep.warm_ms) for rep in untraced)
        return cold >= needed and warm >= needed

    probe = Probe(Tracer(), EventCounter()) if traced_run else None
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        traced = traced_run and len(reps) % 2 == 1
        workdir = tempfile.mkdtemp(dir=workroot)
        began = time.perf_counter()
        try:
            rep = run_rep(seed, workdir, pin_table, probe if traced else Probe())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reps.append((traced, rep))
        now = time.perf_counter()
        if now - started > MAX_MEASURE_S:
            break
        # Once done, start another repetition only if it fits the budget.
        if enough() and now + (now - began) > deadline:
            break
    return reps, probe


def _record(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "serve", "kernels")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    workroot = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    workroot.mkdir(parents=True, exist_ok=True)
    # Anything that falls back to the default cache directory lands here.
    os.environ["REPRO_CACHE_DIR"] = str(workroot / "default-cache")
    sys.path.insert(0, str(SRC))

    import metrics
    import pins
    import workloads

    try:
        pin_table = pins.load_pins()
        modules = workloads.IMPORTS[args.workload]
        for module in modules:
            __import__(module)
        import_s = 0.0 if args.trace else _import_seconds(modules)
        reps, probe = _measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            pin_table,
            workroot,
        )
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass

    untraced = [rep for traced, rep in reps if not traced]
    traced = [rep for is_traced, rep in reps if is_traced]
    attempted = sum(rep.attempted for _t, rep in reps)
    failed = sum(rep.failed for _t, rep in reps)
    record = {
        "machine": metrics.machine_record(ROOT),
        "args": vars(args),
        "input_seed": workloads.input_seed(args.seed),
        "repetitions": [
            {"traced": t, "wall_s": rep.wall_s, "setup_s": rep.setup_s,
             "jobs": rep.jobs, "attempted": rep.attempted, "failed": rep.failed}
            for t, rep in reps
        ],
    }
    if args.trace:
        values = metrics.per_layer(traced, probe, [rep.wall_s for rep in untraced])
        units = metrics.PER_LAYER
        record["events_by_module"] = probe.counter.by_module()
        record["spans"] = [
            [s.id, s.name, s.start, s.end, s.parent, s.job, s.data]
            for s in probe.tracer.spans
        ]
    else:
        values, samples = metrics.end_to_end(untraced, import_s, _peak_rss_mb())
        units = metrics.END_TO_END
        record["samples"] = samples
        print(f"samples: {json.dumps(samples)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: not enough samples for {missing}", file=sys.stderr)
    record["result"] = result
    _record(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
