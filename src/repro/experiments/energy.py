"""§5.2 — impact on memory energy and lifetime.

Regenerates the paper's analytical comparison (ORAM ~780x read energy per
access vs ObfusMem 3.9x; ~200x PCM energy reduction; 800 vs 64/16 pads;
~100x lifetime improvement) and cross-checks the pad and cell-write counts
against what the simulator measured.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.analysis.energy import (
    EnergyComparison,
    MeasuredEnergy,
    analytical_comparison,
    measure_obfusmem,
    measure_oram,
)
from repro.experiments.executor import DEFAULT_SEED, sweep_specs
from repro.experiments.runner import (
    TableColumn,
    add_runner_arguments,
    configure_from_args,
    format_table,
    resolve,
)
from repro.system.config import MachineConfig, ProtectionLevel


@dataclass(frozen=True)
class EnergyResult:
    analytical: EnergyComparison
    obfusmem_measured: MeasuredEnergy
    oram_measured: MeasuredEnergy


def run(
    benchmark: str = "bwaves",
    num_requests: int = 2000,
    seed: int = DEFAULT_SEED,
    channels: int = 4,
) -> EnergyResult:
    """Run the §5.2 analysis (analytical + measured) for one benchmark."""
    specs = sweep_specs(
        [benchmark],
        [ProtectionLevel.OBFUSMEM_AUTH, ProtectionLevel.ORAM],
        machine=MachineConfig(channels=channels),
        num_requests=num_requests,
        seed=seed,
    )
    (obfus, oram), _manifest = resolve(specs, label="energy")
    return EnergyResult(
        analytical=analytical_comparison(channels=channels),
        obfusmem_measured=measure_obfusmem(obfus.stats, benchmark),
        oram_measured=measure_oram(oram.stats, benchmark),
    )


def format_results(result: EnergyResult) -> str:
    """Render the result as a fixed-width text table."""
    a = result.analytical
    columns = [
        TableColumn("Quantity", 36, "<"),
        TableColumn("ORAM", 10),
        TableColumn("ObfusMem", 10),
    ]
    rows = [
        [
            "Energy per access (read units)",
            f"{a.oram_energy_factor:.0f}x",
            f"{a.obfusmem_energy_factor:.1f}x",
        ],
        ["PCM energy reduction", "1x", f"{a.pcm_energy_reduction:.0f}x"],
        [
            "128-bit pads per access (worst)",
            f"{a.oram_pads_per_access}",
            f"{a.obfusmem_pads_worst_case}",
        ],
        [
            "128-bit pads per access (best)",
            f"{a.oram_pads_per_access}",
            f"{a.obfusmem_pads_best_case}",
        ],
        ["Lifetime improvement", "1x", f"{a.lifetime_improvement:.0f}x"],
        [
            "Measured pads/access",
            f"{result.oram_measured.pads_per_access:.0f}",
            f"{result.obfusmem_measured.pads_per_access:.0f}",
        ],
        [
            "Measured cell writes/access",
            f"{result.oram_measured.cell_writes_per_access:.1f}",
            f"{result.obfusmem_measured.cell_writes_per_access:.3f}",
        ],
        [
            "Dummy writes dropped",
            "0",
            f"{result.obfusmem_measured.dummy_writes_dropped}",
        ],
    ]
    return format_table(columns, rows)


def main(argv: list[str] | None = None) -> None:
    """Print the regenerated result (script entry point)."""
    parser = argparse.ArgumentParser(prog="repro.experiments.energy")
    add_runner_arguments(parser)
    configure_from_args(parser.parse_args(argv))
    print("Section 5.2 — energy and lifetime comparison")
    print(format_results(run()))


if __name__ == "__main__":
    main()
