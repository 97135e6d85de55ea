"""Pinned simulation results: the benchmark's output check.

Every job a workload runs has a pin: a short hash of its simulated
``execution_time_ns``, request count and full statistics dict, computed
once on the plain cold path (``JobSpec.execute`` or a direct
``trace_through_hierarchy`` + ``run_trace``), with no result, trace or
checkpoint store in the way.  A run whose result hashes differently has
produced a different simulation, whatever path served it.

Regenerate after a deliberate change to the simulated physics or to the
workload definitions (two processes, a few minutes)::

    python3 perfbench/pins.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
PINS_SCHEMA = 1
#: Worker processes that compute pins, one input seed at a time.
PIN_PROCESSES = 2


def fingerprint(result) -> str:
    """Hash of everything a simulation measures (a ``RunResult``).

    Numbers hash as floats: a count is an int fresh from the simulator and
    a float after a JSON round trip through a cache or the service.
    """
    payload = {
        "execution_time_ns": float(result.execution_time_ns),
        "num_requests": result.num_requests,
        "stats": {key: float(value) for key, value in result.stats.items()},
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def load_pins(path: Path = PINS_PATH) -> dict:
    """The pin table: ``{workload: [[hash per job] per input seed]}``."""
    payload = json.loads(path.read_text())
    if payload.get("schema") != PINS_SCHEMA:
        raise ValueError(f"{path}: pin schema {payload.get('schema')!r}")
    return payload


def check(pins: dict, workload: str, input_seed: int, index: int, result) -> bool:
    """True when ``result`` matches the pin of job ``index`` for the seed."""
    try:
        expected = pins[workload][input_seed][index]
    except (KeyError, IndexError):
        return False
    return fingerprint(result) == expected


def _pins_for_seed(input_seed: int) -> dict:
    """Every workload's pins for one input seed, on the plain cold path."""
    from repro.cpu.kernels import KERNELS, trace_through_hierarchy
    from repro.crypto.rng import DeterministicRng
    from repro.experiments import trace_cache
    from repro.system.simulator import run_trace

    import workloads

    trace_cache.configure(enabled=False)
    pins = {
        "sweep": [
            fingerprint(spec.execute())
            for spec in workloads.sweep_spec(input_seed).compile().jobs
        ],
        "serve": [
            fingerprint(spec.execute()) for spec in workloads.serve_specs(input_seed)
        ],
    }
    kernel_pins = []
    for kernel in workloads.kernel_specs(input_seed):
        spec = kernel.spec
        kwargs = dict(spec.params)
        kwargs["rng"] = DeterministicRng(spec.seed)
        trace, hierarchy = trace_through_hierarchy(
            KERNELS[spec.kernel](**kwargs), spec.hierarchy, name=spec.kernel
        )
        if hierarchy.instructions != kernel.accesses:
            raise AssertionError(
                f"{spec.kernel}: {hierarchy.instructions} accesses filtered, "
                f"workload counts {kernel.accesses}"
            )
        result = run_trace(
            trace, workloads.KERNEL_LEVEL, seed=workloads.kernel_sim_seed(input_seed)
        )
        kernel_pins.append(fingerprint(result))
    pins["kernels"] = kernel_pins
    return pins


def write_pins() -> Path:
    """Recompute every pin and write :data:`PINS_PATH`."""
    import multiprocessing

    import workloads

    seeds = list(range(workloads.INPUT_SEEDS))
    with multiprocessing.get_context("spawn").Pool(PIN_PROCESSES) as pool:
        per_seed = pool.map(_pins_for_seed, seeds, chunksize=1)
    payload = {"schema": PINS_SCHEMA, "input_seeds": len(seeds)}
    for workload in ("sweep", "serve", "kernels"):
        payload[workload] = [entry[workload] for entry in per_seed]
    PINS_PATH.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return PINS_PATH


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="recompute pins.json")
    args = parser.parse_args(argv)
    if not args.write:
        parser.print_help()
        return 2
    print(write_pins())
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    sys.exit(main())
