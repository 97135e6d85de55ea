"""Figure 5 — impact of the channel count on ObfusMem overhead.

Sweeps 1/2/4/8 memory channels and compares the two inter-channel
dummy-injection strategies of §3.4 — UNOPT (replicate dummies on every
other channel) and OPT (inject only on idle channels) — with and without
authentication, each normalized to an unprotected system with the *same*
number of channels.  Paper peaks at 8 channels: UNOPT 18.8%/16.3%
(with/without auth), OPT 13.2%/10.1%.
"""

from __future__ import annotations

import argparse
import statistics
from dataclasses import dataclass, replace

from repro.core.config import ChannelInjection
from repro.experiments.executor import DEFAULT_SEED, JobSpec
from repro.experiments.runner import (
    TableColumn,
    add_runner_arguments,
    configure_from_args,
    format_table,
    resolve,
    select_benchmarks,
)
from repro.system.config import MachineConfig, ProtectionLevel

DEFAULT_CHANNELS = (1, 2, 4, 8)
DEFAULT_FIG5_REQUESTS = 1200  # per core; the sweep is 4x wider and 4-core
DEFAULT_FIG5_CORES = 4  # Table 2's CMP: multi-channel load needs multi-core


@dataclass(frozen=True)
class Figure5Point:
    channels: int
    injection: ChannelInjection
    authenticated: bool
    avg_overhead_pct: float


@dataclass(frozen=True)
class Figure5Result:
    points: list[Figure5Point]

    def series(self, injection: ChannelInjection, authenticated: bool) -> list[Figure5Point]:
        """All points of one (injection, auth) series, by channel count."""
        return sorted(
            (
                p
                for p in self.points
                if p.injection is injection and p.authenticated == authenticated
            ),
            key=lambda p: p.channels,
        )

    def point(
        self, channels: int, injection: ChannelInjection, authenticated: bool
    ) -> Figure5Point:
        """The single point at (channels, injection, auth); KeyError if absent."""
        for p in self.points:
            if (
                p.channels == channels
                and p.injection is injection
                and p.authenticated == authenticated
            ):
                return p
        raise KeyError((channels, injection, authenticated))


def run(
    benchmarks: list[str] | None = None,
    channel_counts: tuple[int, ...] = DEFAULT_CHANNELS,
    num_requests: int = DEFAULT_FIG5_REQUESTS,
    seed: int = DEFAULT_SEED,
    cores: int = DEFAULT_FIG5_CORES,
) -> Figure5Result:
    """Sweep channel counts and injection strategies (4-core by default)."""
    names = select_benchmarks(benchmarks)
    specs = []
    for channels in channel_counts:
        base_machine = MachineConfig(channels=channels)
        specs += [
            JobSpec(name, ProtectionLevel.UNPROTECTED, base_machine, num_requests, seed, cores)
            for name in names
        ]
        for injection in (ChannelInjection.UNOPT, ChannelInjection.OPT):
            machine = replace(base_machine, channel_injection=injection)
            for level in (ProtectionLevel.OBFUSMEM, ProtectionLevel.OBFUSMEM_AUTH):
                specs += [
                    JobSpec(name, level, machine, num_requests, seed, cores)
                    for name in names
                ]
    results, _manifest = resolve(specs, label="figure5")
    # Baselines precede their channel count's protected jobs in ``specs``;
    # each series averages its benchmarks' overheads in benchmark order.
    baselines = {}
    overheads: dict[tuple, list[float]] = {}
    for spec, result in zip(specs, results):
        channels = spec.machine.channels
        if spec.level is ProtectionLevel.UNPROTECTED:
            baselines[channels, spec.benchmark] = result
            continue
        series = (
            channels,
            spec.machine.channel_injection,
            spec.level is ProtectionLevel.OBFUSMEM_AUTH,
        )
        overheads.setdefault(series, []).append(
            result.overhead_pct(baselines[channels, spec.benchmark])
        )
    return Figure5Result(
        [
            Figure5Point(channels, injection, authenticated, statistics.mean(values))
            for (channels, injection, authenticated), values in overheads.items()
        ]
    )


def format_results(result: Figure5Result) -> str:
    """Render the sweep as a fixed-width text table."""
    columns = [
        TableColumn("Series", 22, "<"),
        *[TableColumn(f"{c}ch", 8) for c in sorted({p.channels for p in result.points})],
    ]
    body = []
    for injection in (ChannelInjection.UNOPT, ChannelInjection.OPT):
        for authenticated in (False, True):
            series = result.series(injection, authenticated)
            label = f"ObfusMem-{injection.value.upper()}" + ("+Auth" if authenticated else "")
            body.append([label, *[f"{p.avg_overhead_pct:.1f}%" for p in series]])
    body.append(["Paper UNOPT+Auth @8ch", "", "", "", "18.8%"])
    body.append(["Paper OPT+Auth   @8ch", "", "", "", "13.2%"])
    return format_table(columns, body)


def main(argv: list[str] | None = None) -> None:
    """Print the regenerated figure (script entry point)."""
    parser = argparse.ArgumentParser(prog="repro.experiments.figure5")
    add_runner_arguments(parser)
    configure_from_args(parser.parse_args(argv))
    print("Figure 5 — channel-count sweep (avg overhead vs equal-channel baseline)")
    print(format_results(run()))


if __name__ == "__main__":
    main()
