"""Related-work comparison (§7): chunk permutation vs ObfusMem vs ORAM.

The paper positions ObfusMem against the chunk-permuting obfuscators
(HIDE et al.) and the ORAMs.  This experiment makes the positioning
measurable: one workload, every registered system — unprotected, HIDE,
ObfusMem+Auth, and the full ORAM backend family (Path, Ring, Pyramid,
Palermo) — with overhead next to what each actually hides on the wire.

A finding worth calling out: on the PCM substrate, chunk permutation is
not only *partial* (chunk-grain locality, temporal reuse and request type
all stay visible) — it is also *expensive*, because randomizing placement
destroys row-buffer locality.  That is §6.2's core argument measured from
the other side: "that ObfusMem does not reshuffle data locations in the
main memory is its key advantage (resulting in low overheads)".

``python -m repro.experiments.related``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.analysis.leakage import (
    chunk_locality_score,
    ciphertext_repeat_fraction,
    expected_leakage,
    spatial_locality_score,
    type_inference_accuracy,
)
from repro.cpu.generator import make_trace
from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.experiments.executor import DEFAULT_SEED
from repro.experiments.runner import (
    TableColumn,
    add_runner_arguments,
    configure_from_args,
    format_table,
)
from repro.mem.bus import BusObserver, MemoryBus
from repro.system.config import MachineConfig, ProtectionLevel
from repro.system.simulator import run_trace


@dataclass(frozen=True)
class RelatedRow:
    system: str
    overhead_pct: float
    block_locality: float  # visible intra-chunk spatial pattern
    chunk_locality: float  # visible chunk-grain spatial pattern
    temporal_repeats: float
    type_accuracy: float


@dataclass(frozen=True)
class RelatedResult:
    rows: list[RelatedRow]

    def row(self, system: str) -> RelatedRow:
        """The row for one system name; KeyError if absent."""
        for row in self.rows:
            if row.system == system:
                return row
        raise KeyError(system)


def run(
    benchmark: str = "bwaves",
    num_requests: int = 2000,
    seed: int = DEFAULT_SEED,
) -> RelatedResult:
    """Measure overhead and leakage for all four systems on one workload."""
    profile = SPEC_PROFILES[benchmark]
    trace = make_trace(profile, num_requests, seed=seed)
    machine = MachineConfig()

    def observe(level):
        observer = BusObserver()
        bus = MemoryBus()
        bus.attach(observer)
        result = run_trace(
            trace, level, machine=machine, window=profile.window, seed=seed, bus=bus
        )
        return result.execution_time_ns, observer.transfers

    base_time, base_transfers = observe(ProtectionLevel.UNPROTECTED)
    obfus_time, obfus_transfers = observe(ProtectionLevel.OBFUSMEM_AUTH)
    # HIDE is a first-class registry scheme now: same builder path as the
    # others, no hand-assembled stack.
    hide_time, hide_transfers = observe(ProtectionLevel.HIDE)

    def leak_row(system, time_ns, transfers):
        return RelatedRow(
            system=system,
            overhead_pct=100.0 * (time_ns / base_time - 1.0),
            block_locality=spatial_locality_score(transfers),
            chunk_locality=chunk_locality_score(transfers),
            temporal_repeats=ciphertext_repeat_fraction(transfers),
            type_accuracy=type_inference_accuracy(transfers),
        )

    def opaque_row(system, scheme):
        # Opaque backends have no wire model; their leakage columns come
        # from the registry's declarative traits (everything hidden by
        # construction, type inference reduced to the 0.5 coin flip).
        time_ns, _ = observe(scheme)
        expectation = expected_leakage(scheme)
        return RelatedRow(
            system=system,
            overhead_pct=100.0 * (time_ns / base_time - 1.0),
            block_locality=0.0 if expectation.spatial_hidden else 1.0,
            chunk_locality=0.0 if expectation.chunk_hidden else 1.0,
            temporal_repeats=0.0 if expectation.temporal_hidden else 1.0,
            type_accuracy=expectation.type_accuracy,
        )

    rows = [
        leak_row("unprotected", base_time, base_transfers),
        leak_row("hide-chunk-permute", hide_time, hide_transfers),
        leak_row("obfusmem+auth", obfus_time, obfus_transfers),
        opaque_row("path-oram", ProtectionLevel.ORAM),
        opaque_row("ring-oram", "oram_ring"),
        opaque_row("pyramid-oram", "pyramid"),
        opaque_row("palermo-oram", "palermo"),
    ]
    return RelatedResult(rows)


def format_results(result: RelatedResult) -> str:
    """Render the comparison as a fixed-width text table."""
    columns = [
        TableColumn("System", 20, "<"),
        TableColumn("Overhead", 9),
        TableColumn("BlockLoc", 9),
        TableColumn("ChunkLoc", 9),
        TableColumn("Repeats", 8),
        TableColumn("TypeAcc", 8),
    ]
    body = [
        [
            row.system,
            f"{row.overhead_pct:+.1f}%",
            f"{row.block_locality:.2f}",
            f"{row.chunk_locality:.2f}",
            f"{row.temporal_repeats:.2f}",
            f"{row.type_accuracy:.2f}",
        ]
        for row in result.rows
    ]
    return format_table(columns, body)


def main(argv: list[str] | None = None) -> None:
    """Print the comparison (script entry point)."""
    parser = argparse.ArgumentParser(prog="repro.experiments.related")
    add_runner_arguments(parser)
    configure_from_args(parser.parse_args(argv))
    print("Related-work comparison (§7): what each scheme costs and hides")
    print("(leakage columns: lower = better hidden; TypeAcc 0.5 = blind)")
    print(format_results(run()))


if __name__ == "__main__":
    main()
