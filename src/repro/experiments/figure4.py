"""Figure 4 — execution-time overhead breakdown by protection level.

For each benchmark, the overhead (normalized to the unprotected system) of:
memory encryption only, plain ObfusMem, and ObfusMem with authenticated
communication.  Paper averages: 2.2% / 8.3% / 10.9%, with the observation
that authentication adds little because it overlaps encryption.
"""

from __future__ import annotations

import argparse
import statistics
from dataclasses import dataclass

from repro.experiments.executor import DEFAULT_REQUESTS, DEFAULT_SEED, sweep_specs
from repro.experiments.runner import (
    TableColumn,
    add_runner_arguments,
    by_benchmark,
    configure_from_args,
    format_table,
    resolve,
    select_benchmarks,
)
from repro.system.config import MachineConfig, ProtectionLevel


@dataclass(frozen=True)
class Figure4Row:
    benchmark: str
    encryption_pct: float
    obfusmem_pct: float
    obfusmem_auth_pct: float


@dataclass(frozen=True)
class Figure4Result:
    rows: list[Figure4Row]

    @property
    def avg_encryption_pct(self) -> float:
        """Mean encryption-only overhead across benchmarks (paper: 2.2%)."""
        return statistics.mean(r.encryption_pct for r in self.rows)

    @property
    def avg_obfusmem_pct(self) -> float:
        """Mean plain-ObfusMem overhead across benchmarks (paper: 8.3%)."""
        return statistics.mean(r.obfusmem_pct for r in self.rows)

    @property
    def avg_obfusmem_auth_pct(self) -> float:
        """Mean ObfusMem+Auth overhead across benchmarks (paper: 10.9%)."""
        return statistics.mean(r.obfusmem_auth_pct for r in self.rows)


def run(
    benchmarks: list[str] | None = None,
    num_requests: int = DEFAULT_REQUESTS,
    seed: int = DEFAULT_SEED,
    machine: MachineConfig | None = None,
) -> Figure4Result:
    """Measure the per-level overhead breakdown for each benchmark."""
    specs = sweep_specs(
        select_benchmarks(benchmarks),
        [
            ProtectionLevel.UNPROTECTED,
            ProtectionLevel.ENCRYPTION_ONLY,
            ProtectionLevel.OBFUSMEM,
            ProtectionLevel.OBFUSMEM_AUTH,
        ],
        machine=machine or MachineConfig(),
        num_requests=num_requests,
        seed=seed,
    )
    results, _manifest = resolve(specs, label="figure4")
    rows = []
    for name, cells in by_benchmark(specs, results).items():
        baseline = cells["unprotected"]
        rows.append(
            Figure4Row(
                benchmark=name,
                encryption_pct=cells["encryption_only"].overhead_pct(baseline),
                obfusmem_pct=cells["obfusmem"].overhead_pct(baseline),
                obfusmem_auth_pct=cells["obfusmem_auth"].overhead_pct(baseline),
            )
        )
    return Figure4Result(rows)


def format_results(result: Figure4Result) -> str:
    """Render the result as a fixed-width text table."""
    columns = [
        TableColumn("Benchmark", 12, "<"),
        TableColumn("Enc%", 7),
        TableColumn("ObfMem%", 8),
        TableColumn("+Auth%", 7),
    ]
    body = [
        [
            row.benchmark,
            f"{row.encryption_pct:.1f}",
            f"{row.obfusmem_pct:.1f}",
            f"{row.obfusmem_auth_pct:.1f}",
        ]
        for row in result.rows
    ]
    body.append(
        [
            "Avg",
            f"{result.avg_encryption_pct:.1f}",
            f"{result.avg_obfusmem_pct:.1f}",
            f"{result.avg_obfusmem_auth_pct:.1f}",
        ]
    )
    body.append(["Paper avg", "2.2", "8.3", "10.9"])
    return format_table(columns, body)


def main(argv: list[str] | None = None) -> None:
    """Print the regenerated figure (script entry point)."""
    parser = argparse.ArgumentParser(prog="repro.experiments.figure4")
    add_runner_arguments(parser)
    configure_from_args(parser.parse_args(argv))
    print("Figure 4 — overhead breakdown vs unprotected system")
    print(format_results(run()))


if __name__ == "__main__":
    main()
