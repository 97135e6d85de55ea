"""Table 3 — execution time overhead of ORAM vs ObfusMem+Auth.

For every benchmark: overhead of the fixed-latency ORAM model and of
ObfusMem with authenticated communication, both relative to the unprotected
baseline on the same trace, plus the speedup ratio of ObfusMem+Auth over
ORAM.  Paper averages: ORAM 946.1%, ObfusMem+Auth 10.9%, speedup 9.1x.

:func:`run_extended` widens the comparison along the paper's own axis:
one overhead column per *registered ORAM scheme* (every scheme whose
stack ends in an :class:`~repro.schemes.stages.OramBackendStage` — Path,
Ring, Pyramid, Palermo, plus anything a plugin registers), so the table
shows where the obfuscated bus sits against the whole ORAM design space
rather than a single point.  ``--extended`` on the CLI prints it.
"""

from __future__ import annotations

import argparse
import statistics
from dataclasses import dataclass

from repro.cpu.spec_profiles import SPEC_PROFILES
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
from repro.schemes import available_schemes
from repro.schemes.stages import OramBackendStage
from repro.system.config import MachineConfig, ProtectionLevel


def oram_scheme_names() -> list[str]:
    """Names of registered schemes backed by an ORAM backend stage.

    Discovery is structural (the stack's terminal stage is an
    :class:`~repro.schemes.stages.OramBackendStage`), so a newly
    registered ORAM design joins the extended comparison without touching
    this module.
    """
    return [
        scheme.name
        for scheme in available_schemes()
        if isinstance(scheme.stages[-1], OramBackendStage)
    ]


@dataclass(frozen=True)
class Table3Row:
    benchmark: str
    oram_overhead_pct: float
    obfusmem_auth_overhead_pct: float
    paper_oram_pct: float
    paper_obfusmem_pct: float

    @property
    def speedup(self) -> float:
        """ObfusMem+Auth speedup over ORAM (paper's rightmost column)."""
        return (100.0 + self.oram_overhead_pct) / (
            100.0 + self.obfusmem_auth_overhead_pct
        )

    @property
    def paper_speedup(self) -> float:
        """The paper's speedup column, recomputed from its overheads."""
        return (100.0 + self.paper_oram_pct) / (100.0 + self.paper_obfusmem_pct)


@dataclass(frozen=True)
class Table3Result:
    rows: list[Table3Row]

    @property
    def avg_oram_pct(self) -> float:
        """Mean ORAM overhead across benchmarks (paper: 946.1%)."""
        return statistics.mean(r.oram_overhead_pct for r in self.rows)

    @property
    def avg_obfusmem_pct(self) -> float:
        """Mean ObfusMem+Auth overhead across benchmarks (paper: 10.9%)."""
        return statistics.mean(r.obfusmem_auth_overhead_pct for r in self.rows)

    @property
    def avg_speedup(self) -> float:
        """Mean ObfusMem-over-ORAM speedup across benchmarks (paper: 9.1x)."""
        return statistics.mean(r.speedup for r in self.rows)


def run(
    benchmarks: list[str] | None = None,
    num_requests: int = DEFAULT_REQUESTS,
    seed: int = DEFAULT_SEED,
    machine: MachineConfig | None = None,
) -> Table3Result:
    """Measure ORAM and ObfusMem+Auth overheads per benchmark."""
    specs = sweep_specs(
        select_benchmarks(benchmarks),
        [
            ProtectionLevel.UNPROTECTED,
            ProtectionLevel.ORAM,
            ProtectionLevel.OBFUSMEM_AUTH,
        ],
        machine=machine or MachineConfig(),
        num_requests=num_requests,
        seed=seed,
    )
    results, _manifest = resolve(specs, label="table3")
    rows = []
    for name, cells in by_benchmark(specs, results).items():
        profile = SPEC_PROFILES[name]
        baseline = cells["unprotected"]
        rows.append(
            Table3Row(
                benchmark=name,
                oram_overhead_pct=cells["oram"].overhead_pct(baseline),
                obfusmem_auth_overhead_pct=cells["obfusmem_auth"].overhead_pct(
                    baseline
                ),
                paper_oram_pct=profile.oram_overhead_pct,
                paper_obfusmem_pct=profile.obfusmem_overhead_pct,
            )
        )
    return Table3Result(rows)


@dataclass(frozen=True)
class ExtendedRow:
    """One benchmark's overheads across every registered ORAM scheme."""

    benchmark: str
    oram_overheads_pct: dict[str, float]  # scheme name -> overhead %
    obfusmem_auth_overhead_pct: float

    def speedup_over(self, scheme: str) -> float:
        """ObfusMem+Auth speedup over one ORAM scheme on this benchmark."""
        return (100.0 + self.oram_overheads_pct[scheme]) / (
            100.0 + self.obfusmem_auth_overhead_pct
        )


@dataclass(frozen=True)
class Table3Extended:
    """The extended Table 3: one overhead column per ORAM scheme."""

    schemes: tuple[str, ...]
    rows: list[ExtendedRow]

    def avg_overhead_pct(self, scheme: str) -> float:
        """Mean overhead of one ORAM scheme across benchmarks."""
        return statistics.mean(r.oram_overheads_pct[scheme] for r in self.rows)

    @property
    def avg_obfusmem_pct(self) -> float:
        """Mean ObfusMem+Auth overhead across benchmarks."""
        return statistics.mean(r.obfusmem_auth_overhead_pct for r in self.rows)


def run_extended(
    benchmarks: list[str] | None = None,
    num_requests: int = DEFAULT_REQUESTS,
    seed: int = DEFAULT_SEED,
    machine: MachineConfig | None = None,
    schemes: list[str] | None = None,
) -> Table3Extended:
    """Measure every registered ORAM scheme's overhead per benchmark.

    ``schemes`` defaults to :func:`oram_scheme_names`; ObfusMem+Auth rides
    along as the paper's comparison anchor.
    """
    scheme_names = list(schemes) if schemes is not None else oram_scheme_names()
    specs = sweep_specs(
        select_benchmarks(benchmarks),
        [ProtectionLevel.UNPROTECTED, ProtectionLevel.OBFUSMEM_AUTH, *scheme_names],
        machine=machine or MachineConfig(),
        num_requests=num_requests,
        seed=seed,
    )
    results, _manifest = resolve(specs, label="table3-extended")
    rows = []
    for name, cells in by_benchmark(specs, results).items():
        baseline = cells["unprotected"]
        rows.append(
            ExtendedRow(
                benchmark=name,
                oram_overheads_pct={
                    scheme: cells[scheme].overhead_pct(baseline)
                    for scheme in scheme_names
                },
                obfusmem_auth_overhead_pct=cells["obfusmem_auth"].overhead_pct(
                    baseline
                ),
            )
        )
    return Table3Extended(schemes=tuple(scheme_names), rows=rows)


def format_results(result: Table3Result) -> str:
    """Render the result as a fixed-width text table."""
    columns = [
        TableColumn("Benchmark", 12, "<"),
        TableColumn("ORAM%", 9),
        TableColumn("ObfMem%", 8),
        TableColumn("Speedup", 8),
        TableColumn("pORAM%", 9),
        TableColumn("pObf%", 7),
        TableColumn("pSpd", 6),
    ]
    body = [
        [
            row.benchmark,
            f"{row.oram_overhead_pct:.1f}",
            f"{row.obfusmem_auth_overhead_pct:.1f}",
            f"{row.speedup:.1f}x",
            f"{row.paper_oram_pct:.1f}",
            f"{row.paper_obfusmem_pct:.1f}",
            f"{row.paper_speedup:.1f}x",
        ]
        for row in result.rows
    ]
    body.append(
        [
            "Avg",
            f"{result.avg_oram_pct:.1f}",
            f"{result.avg_obfusmem_pct:.1f}",
            f"{result.avg_speedup:.1f}x",
            "946.1",
            "10.9",
            "9.1x",
        ]
    )
    return format_table(columns, body)


def format_extended(result: Table3Extended) -> str:
    """Render the extended comparison: one column per ORAM scheme."""
    columns = [TableColumn("Benchmark", 12, "<")]
    columns.extend(TableColumn(f"{name}%", 11) for name in result.schemes)
    columns.append(TableColumn("ObfMem%", 8))
    body = [
        [
            row.benchmark,
            *[f"{row.oram_overheads_pct[name]:.1f}" for name in result.schemes],
            f"{row.obfusmem_auth_overhead_pct:.1f}",
        ]
        for row in result.rows
    ]
    body.append(
        [
            "Avg",
            *[f"{result.avg_overhead_pct(name):.1f}" for name in result.schemes],
            f"{result.avg_obfusmem_pct:.1f}",
        ]
    )
    return format_table(columns, body)


def main(argv: list[str] | None = None) -> None:
    """Print the regenerated table (script entry point)."""
    parser = argparse.ArgumentParser(prog="repro.experiments.table3")
    add_runner_arguments(parser)
    parser.add_argument(
        "--extended",
        action="store_true",
        help="one overhead column per registered ORAM scheme "
        "(path, ring, pyramid, palermo, ...)",
    )
    args = parser.parse_args(argv)
    configure_from_args(args)
    if args.extended:
        print("Table 3 (extended) — overheads across every registered ORAM scheme")
        print(format_extended(run_extended()))
        return
    print("Table 3 — ORAM vs ObfusMem+Auth overheads ('p' columns = paper)")
    print(format_results(run()))


if __name__ == "__main__":
    main()
