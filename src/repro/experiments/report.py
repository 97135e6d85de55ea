"""One-shot report: regenerate the paper's whole evaluation as Markdown.

``python -m repro.experiments.report [-o FILE] [--requests N] [--fast]``

Runs Table 1, Table 3, Figure 4, Figure 5, Table 4 and the §5.2 energy
analysis at the requested scale and renders a single Markdown document with
the measured results next to the paper's numbers.  EXPERIMENTS.md in the
repository root is the curated full-scale instance of this output.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import energy, figure4, figure5, table1, table3, table4
from repro.experiments.executor import DEFAULT_REQUESTS, DEFAULT_SEED
from repro.experiments.runner import add_runner_arguments, configure_from_args


def _code_block(text: str) -> str:
    return "```\n" + text + "\n```"


def generate_report(
    num_requests: int = DEFAULT_REQUESTS,
    seed: int = DEFAULT_SEED,
    benchmarks: list[str] | None = None,
    include_figure5: bool = True,
    figure5_requests: int | None = None,
) -> str:
    """Run every experiment and return the Markdown report."""
    sections: list[str] = [
        "# ObfusMem reproduction report",
        "",
        f"Generated with seed {seed}, {num_requests} requests per benchmark.",
        "Paper reference values appear in each table's 'p'/paper columns.",
        "",
    ]

    started = time.time()
    sections += [
        "## Table 1 — benchmark characteristics",
        "",
        _code_block(table1.format_results(table1.run(benchmarks, num_requests, seed))),
        "",
        "## Table 3 — ORAM vs ObfusMem+Auth execution overhead",
        "",
        _code_block(table3.format_results(table3.run(benchmarks, num_requests, seed))),
        "",
        "## Figure 4 — overhead breakdown by protection level",
        "",
        _code_block(figure4.format_results(figure4.run(benchmarks, num_requests, seed))),
        "",
    ]

    if include_figure5:
        fig5 = figure5.run(
            benchmarks,
            num_requests=figure5_requests or max(num_requests // 3, 400),
            seed=seed,
        )
        sections += [
            "## Figure 5 — channel-count sweep (4-core)",
            "",
            _code_block(figure5.format_results(fig5)),
            "",
        ]

    sections += [
        "## Table 4 — measured security comparison",
        "",
        _code_block(
            table4.format_results(
                table4.run(num_requests=min(num_requests, 2000), seed=seed)
            )
        ),
        "",
        "## Section 5.2 — energy and lifetime",
        "",
        _code_block(
            energy.format_results(
                energy.run(num_requests=min(num_requests, 2000), seed=seed)
            )
        ),
        "",
        f"_Report generated in {time.time() - started:.0f}s._",
        "",
    ]
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> None:
    """Parse CLI arguments and emit the report (script entry point)."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.report", description=__doc__
    )
    parser.add_argument("-o", "--output", help="write the report to this file")
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS, help="requests per benchmark"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--benchmarks", nargs="*", default=None, help="subset of benchmark names"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced scale: 800 requests, skip the Figure 5 sweep",
    )
    add_runner_arguments(parser)
    args = parser.parse_args(argv)
    configure_from_args(args)

    report = generate_report(
        num_requests=800 if args.fast else args.requests,
        seed=args.seed,
        benchmarks=args.benchmarks,
        include_figure5=not args.fast,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(report)


if __name__ == "__main__":
    main()
