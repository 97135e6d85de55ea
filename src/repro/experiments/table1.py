"""Table 1 — characteristics of the evaluated benchmarks.

Regenerates the paper's Table 1 (IPC, LLC MPKI, average gap between memory
requests) by simulating each calibrated synthetic workload on the
unprotected baseline machine and measuring the same three quantities.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.experiments.executor import DEFAULT_REQUESTS, DEFAULT_SEED, JobSpec
from repro.experiments.runner import (
    TableColumn,
    add_runner_arguments,
    configure_from_args,
    format_table,
    resolve,
    select_benchmarks,
)
from repro.system.config import MachineConfig, ProtectionLevel


@dataclass(frozen=True)
class Table1Row:
    benchmark: str
    measured_ipc: float
    measured_mpki: float
    measured_gap_ns: float
    paper_ipc: float
    paper_mpki: float
    paper_gap_ns: float

    @property
    def gap_error_pct(self) -> float:
        """Relative error of the measured gap vs the paper's (percent)."""
        return 100.0 * (self.measured_gap_ns / self.paper_gap_ns - 1.0)


def run(
    benchmarks: list[str] | None = None,
    num_requests: int = DEFAULT_REQUESTS,
    seed: int = DEFAULT_SEED,
) -> list[Table1Row]:
    """Measure Table 1's three characteristics per benchmark."""
    machine = MachineConfig()
    specs = [
        JobSpec(name, ProtectionLevel.UNPROTECTED, machine, num_requests, seed)
        for name in select_benchmarks(benchmarks)
    ]
    results, _manifest = resolve(specs, label="table1")
    rows = []
    for spec, result in zip(specs, results):
        profile = SPEC_PROFILES[spec.benchmark]
        # MPKI is fixed by trace construction (instructions per request);
        # IPC and gap are measured from the simulation.
        rows.append(
            Table1Row(
                benchmark=spec.benchmark,
                measured_ipc=result.ipc(machine.cpu_clock_ghz),
                measured_mpki=1000.0 / profile.instructions_per_request,
                measured_gap_ns=result.average_gap_ns,
                paper_ipc=profile.ipc,
                paper_mpki=profile.llc_mpki,
                paper_gap_ns=profile.avg_gap_ns,
            )
        )
    return rows


def format_results(rows: list[Table1Row]) -> str:
    """Render the rows as a fixed-width text table."""
    columns = [
        TableColumn("Benchmark", 12, "<"),
        TableColumn("IPC", 6),
        TableColumn("MPKI", 7),
        TableColumn("Gap(ns)", 9),
        TableColumn("pIPC", 6),
        TableColumn("pMPKI", 7),
        TableColumn("pGap(ns)", 9),
        TableColumn("gap err%", 9),
    ]
    body = [
        [
            row.benchmark,
            f"{row.measured_ipc:.2f}",
            f"{row.measured_mpki:.2f}",
            f"{row.measured_gap_ns:.1f}",
            f"{row.paper_ipc:.2f}",
            f"{row.paper_mpki:.2f}",
            f"{row.paper_gap_ns:.1f}",
            f"{row.gap_error_pct:+.1f}",
        ]
        for row in rows
    ]
    return format_table(columns, body)


def main(argv: list[str] | None = None) -> None:
    """Print the regenerated table (script entry point)."""
    parser = argparse.ArgumentParser(prog="repro.experiments.table1")
    add_runner_arguments(parser)
    configure_from_args(parser.parse_args(argv))
    print("Table 1 — benchmark characteristics (measured vs paper 'p' columns)")
    print(format_results(run()))


if __name__ == "__main__":
    main()
