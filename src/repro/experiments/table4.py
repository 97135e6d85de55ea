"""Table 4 — measured security comparison of ORAM and ObfusMem.

The qualitative rows of the paper's Table 4 are backed by measurements:

* the four access-pattern aspects (spatial, temporal, type, footprint) are
  scored by the attacker metrics of :mod:`repro.analysis.leakage` on real
  bus traces from the timing simulator — unprotected vs ObfusMem;
* storage overhead, write amplification and deadlock are measured on the
  functional Path ORAM;
* execution-time overheads come from the Table 3 runs.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.analysis.leakage import (
    channel_coactivity,
    ciphertext_repeat_fraction,
    footprint_leak,
    spatial_locality_score,
    type_inference_accuracy,
)
from repro.cpu.generator import make_trace
from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.crypto.rng import DeterministicRng
from repro.errors import OramDeadlockError
from repro.experiments import table3
from repro.experiments.executor import DEFAULT_SEED
from repro.experiments.runner import (
    TableColumn,
    add_runner_arguments,
    configure_from_args,
    format_table,
)
from repro.mem.bus import BusObserver, MemoryBus
from repro.oram.path_oram import PathOram
from repro.schemes import resolve_scheme
from repro.system.config import MachineConfig, ProtectionLevel
from repro.system.simulator import run_trace


@dataclass(frozen=True)
class LeakageMeasurement:
    """Wire-level metrics for one system on one workload."""

    spatial_locality: float
    ciphertext_repeats: float
    type_accuracy: float
    footprint_error: float
    channel_coactivity: float


@dataclass(frozen=True)
class OramMeasurement:
    """Functional Path ORAM accounting."""

    capacity_overhead_pct: float
    blocks_per_access: int
    max_stash: int
    deadlock_observed: bool


@dataclass(frozen=True)
class Table4Result:
    unprotected: LeakageMeasurement
    obfusmem: LeakageMeasurement
    oram: OramMeasurement
    oram_overhead_pct: float
    obfusmem_overhead_pct: float
    obfusmem_cell_writes: int
    obfusmem_real_writes: int

    @property
    def obfusmem_write_amplification(self) -> float:
        """Cell writes per real write (1.0 = none, ORAM ~100)."""
        if not self.obfusmem_real_writes:
            return 0.0
        return self.obfusmem_cell_writes / self.obfusmem_real_writes


def _measure_leakage(
    benchmark: str, level: ProtectionLevel, num_requests: int, seed: int
) -> tuple[LeakageMeasurement, dict[str, float]]:
    profile = SPEC_PROFILES[benchmark]
    machine = MachineConfig(channels=4)
    trace = make_trace(profile, num_requests, seed=seed)
    observer = BusObserver()
    bus = MemoryBus()
    bus.attach(observer)
    result = run_trace(
        trace, level, machine=machine, window=profile.window, seed=seed, bus=bus
    )
    transfers = observer.transfers
    leak = footprint_leak(transfers)
    return (
        LeakageMeasurement(
            spatial_locality=spatial_locality_score(transfers),
            ciphertext_repeats=ciphertext_repeat_fraction(transfers),
            type_accuracy=type_inference_accuracy(transfers),
            footprint_error=leak.relative_error,
            channel_coactivity=channel_coactivity(transfers, machine.channels),
        ),
        result.stats,
    )


def _measure_oram(seed: int, accesses: int = 2000, num_blocks: int = 2048) -> OramMeasurement:
    rng = DeterministicRng(seed)
    oram = PathOram(num_blocks, rng.fork("table4"), stash_limit=500)
    deadlock = False
    try:
        for i in range(accesses):
            address = rng.randrange(num_blocks)
            if i % 2:
                oram.read(address)
            else:
                oram.write(address, bytes([i % 256]) * 8)
    except OramDeadlockError:
        deadlock = True
    return OramMeasurement(
        capacity_overhead_pct=100.0 * oram.capacity_overhead,
        blocks_per_access=oram.blocks_per_access,
        max_stash=oram.max_stash_seen,
        deadlock_observed=deadlock,
    )


def run(
    benchmark: str = "bwaves",
    num_requests: int = 2000,
    seed: int = DEFAULT_SEED,
) -> Table4Result:
    """Measure every Table 4 row on live traffic and functional ORAM."""
    unprotected, _ = _measure_leakage(
        benchmark, ProtectionLevel.UNPROTECTED, num_requests, seed
    )
    obfusmem, obfus_stats = _measure_leakage(
        benchmark, ProtectionLevel.OBFUSMEM_AUTH, num_requests, seed
    )
    oram = _measure_oram(seed)
    overheads = table3.run(benchmarks=[benchmark], num_requests=num_requests, seed=seed)
    # The scheme's declared stat bindings say which groups own these
    # counters (pcm* for cell writes, channel* for scheduled writes), so
    # no endswith-guessing over the flattened stat dict.
    scheme = resolve_scheme(ProtectionLevel.OBFUSMEM_AUTH)
    cell_writes = int(scheme.stat_sum(obfus_stats, "array_writes"))
    real_writes = int(scheme.stat_sum(obfus_stats, "writes"))
    return Table4Result(
        unprotected=unprotected,
        obfusmem=obfusmem,
        oram=oram,
        oram_overhead_pct=overheads.avg_oram_pct,
        obfusmem_overhead_pct=overheads.avg_obfusmem_pct,
        obfusmem_cell_writes=cell_writes,
        obfusmem_real_writes=real_writes,
    )


def format_results(result: Table4Result) -> str:
    """Render the comparison as a fixed-width text table."""
    columns = [
        TableColumn("Aspect", 28, "<"),
        TableColumn("Unprotected", 12),
        TableColumn("ObfusMem", 12),
        TableColumn("ORAM", 12),
    ]
    u, o = result.unprotected, result.obfusmem
    rows = [
        ["Spatial locality visible", f"{u.spatial_locality:.2f}", f"{o.spatial_locality:.2f}", "hidden"],
        ["Temporal repeats visible", f"{u.ciphertext_repeats:.2f}", f"{o.ciphertext_repeats:.2f}", "hidden"],
        ["Type inference accuracy", f"{u.type_accuracy:.2f}", f"{o.type_accuracy:.2f}", "0.50"],
        ["Footprint estimate error", f"{u.footprint_error:.2f}", f"{o.footprint_error:.2f}", "large"],
        ["Channel co-activity", f"{u.channel_coactivity:.2f}", f"{o.channel_coactivity:.2f}", "n/a"],
        ["Command authentication", "no", "yes", "no"],
        ["TCB", "none", "Proc+Mem", "Proc only"],
        [
            "Exe time overhead",
            "0%",
            f"{result.obfusmem_overhead_pct:.1f}%",
            f"{result.oram_overhead_pct:.0f}%",
        ],
        [
            "Storage overhead",
            "0%",
            "0%",
            f"{result.oram.capacity_overhead_pct:.0f}%",
        ],
        [
            "Write amplification",
            "1.0x",
            f"{result.obfusmem_write_amplification:.1f}x",
            f"~{result.oram.blocks_per_access // 2}x",
        ],
        [
            "Deadlock possibility",
            "zero",
            "zero",
            "low" if not result.oram.deadlock_observed else "observed",
        ],
    ]
    return format_table(columns, rows)


def main(argv: list[str] | None = None) -> None:
    """Print the regenerated table (script entry point)."""
    parser = argparse.ArgumentParser(prog="repro.experiments.table4")
    add_runner_arguments(parser)
    configure_from_args(parser.parse_args(argv))
    print("Table 4 — measured security/overhead comparison")
    print(format_results(run()))


if __name__ == "__main__":
    main()
