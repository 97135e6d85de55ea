"""The scheme×attack leakage matrix: every defense against every adversary.

Fans every registered protection scheme against every registered attacker
(:mod:`repro.attacks`) over a small workload suite, through the same
:func:`~repro.experiments.runner.resolve` call the paper tables use, with
its own outcome memo and :class:`AttackCache` in place of the result
layers.  Each cell is one
:class:`~repro.attacks.AttackOutcome` — a normalized advantage in
``[0, 1]`` over the attack's random-guess baseline — plus a leak verdict
(advantage at or above the attacker's threshold) checked against the
trait-derived prediction of :func:`repro.analysis.leakage.expected_leakage`.

The matrix is the paper's security claims run as one experiment: plaintext
and ECB-style wires light up under fingerprinting and the §3.2 dictionary
attack, ObfusMem's counter-mode wire drives the address/type/footprint
attackers to random guessing, and the rebuild-timing attacker flags exactly
the ORAM backends whose amortized maintenance pulses in countable bursts.

Run it with ``python -m repro matrix`` (``--workers N`` parallelizes the
cold captures; cells are content-addressed in the result cache, so reruns
are pure cache hits).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import lru_cache

from repro.analysis.leakage import expected_leakage
from repro.attacks import (
    AttackInput,
    AttackOutcome,
    WorkloadCapture,
    attacker_names,
    get_attacker,
)
from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.errors import ConfigurationError
from repro.experiments import runner, trace_cache
from repro.experiments.executor import (
    CACHE_CONFIG,
    DEFAULT_SEED,
    JsonFileCache,
    RunManifest,
    content_digest,
)
from repro.experiments.runner import TableColumn, format_table
from repro.mem.bus import BusObserver, MemoryBus
from repro.schemes import resolve_scheme, scheme_names
from repro.schemes.stages import TRAIT_REBUILD_BURSTS
from repro.system.config import MachineConfig
from repro.system.simulator import run_traces

#: Version of the attack-cell cache payload; bumped when attacker scoring
#: or the outcome format changes, orphaning (never corrupting) old entries.
ATTACK_SCHEMA_VERSION = "attack-cell-1"

#: Default workload suite: one streaming, one pointer-chasing and one
#: mixed-locality benchmark — enough behavioural spread for the
#: fingerprinting attacker to have something to distinguish.
DEFAULT_WORKLOADS = ("bwaves", "mcf", "astar")
DEFAULT_MATRIX_REQUESTS = 1200
DEFAULT_MATRIX_CHANNELS = 4

#: Ring-buffer cap on each capture (satellite: bounded observer memory).
#: Generously above the transfer count of the default capture length, so
#: default matrices observe complete traces (``dropped == 0``).
CAPTURE_MAX_TRANSFERS = 200_000


@lru_cache(maxsize=32)
def capture_workload(
    level: str,
    workload: str,
    num_requests: int,
    seed: int,
    channels: int,
) -> WorkloadCapture:
    """Simulate one workload under one scheme with a bus observer attached.

    Front-end traces come from the persistent trace cache, so captures of
    the same workload under different schemes replay identical request
    streams.  Memoized per process (the matrix reuses one capture across
    every passive attacker of a scheme).
    """
    profile = SPEC_PROFILES[workload]
    bus = MemoryBus()
    observer = BusObserver("matrix", max_transfers=CAPTURE_MAX_TRANSFERS)
    bus.attach(observer)
    traces = trace_cache.traces_for_benchmark(workload, num_requests, seed)
    run_traces(
        traces,
        level,
        machine=MachineConfig(channels=channels),
        window=profile.window,
        seed=seed,
        bus=bus,
    )
    return WorkloadCapture(workload, seed, tuple(observer.transfers), observer.dropped)


@dataclass(frozen=True)
class AttackCellSpec:
    """One matrix cell: run one attacker against one scheme's captures.

    Duck-typed to ride :class:`~repro.experiments.executor.ParallelRunner`
    exactly like a :class:`~repro.experiments.executor.JobSpec`: it is
    hashable by value, content-addressable via :meth:`digest`, and
    :meth:`execute` produces the cell's :class:`AttackOutcome`.
    """

    attack: str
    level: str
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS
    num_requests: int = DEFAULT_MATRIX_REQUESTS
    seed: int = DEFAULT_SEED
    channels: int = DEFAULT_MATRIX_CHANNELS

    def __post_init__(self) -> None:
        get_attacker(self.attack)  # unknown attackers fail fast, with a hint
        resolve_scheme(self.level)
        if not self.workloads:
            raise ConfigurationError("an attack cell needs at least one workload")
        unknown = [name for name in self.workloads if name not in SPEC_PROFILES]
        if unknown:
            raise ConfigurationError(f"unknown workloads: {unknown}")
        if self.num_requests < 1:
            raise ConfigurationError("num_requests must be positive")

    @property
    def benchmark(self) -> str:
        """Manifest label for the cell's workload suite."""
        return "+".join(self.workloads)

    @property
    def machine(self) -> MachineConfig:
        """The machine configuration the captures run on."""
        return MachineConfig(channels=self.channels)

    @property
    def cores(self) -> int:
        """Captures are single-core (manifest bookkeeping field)."""
        return 1

    def to_jsonable(self) -> dict:
        """The cell spec as a canonical JSON-ready dict."""
        return {
            "attack": self.attack,
            "level": self.level,
            "workloads": list(self.workloads),
            "num_requests": self.num_requests,
            "seed": self.seed,
            "channels": self.channels,
        }

    def digest(self) -> str:
        """Content hash of the spec plus the attack schema version."""
        return content_digest(ATTACK_SCHEMA_VERSION, spec=self.to_jsonable())

    def execute(self) -> AttackOutcome:
        """Capture the scheme's bus traffic and run the attacker over it.

        Passive attackers get ``seeds_needed`` captures per workload at
        consecutive seeds; active attackers (``seeds_needed == 0``) drive
        the functional stack themselves and get an empty capture map.
        """
        attacker = get_attacker(self.attack)
        captures = {
            workload: tuple(
                capture_workload(
                    self.level,
                    workload,
                    self.num_requests,
                    self.seed + offset,
                    self.channels,
                )
                for offset in range(attacker.seeds_needed)
            )
            for workload in self.workloads
        }
        observed = AttackInput(
            scheme=self.level, channels=self.channels, captures=captures
        )
        return attacker.attack(observed)


class AttackCache(JsonFileCache):
    """Content-addressed persistent store of attack-cell outcomes.

    One ``<digest>.json`` entry per cell, read and written by the
    :class:`~repro.experiments.executor.JsonFileCache` codec that also
    serves results and traces.
    """

    schema = ATTACK_SCHEMA_VERSION
    payload_key = "result"
    encode = staticmethod(AttackOutcome.to_jsonable)
    decode = staticmethod(AttackOutcome.from_jsonable)


# Process-lifetime outcome cache, shared across matrix runs like
# runner._cache is shared across table/figure regenerations.
_memory: dict[str, AttackOutcome] = {}


def clear_memory() -> None:
    """Drop the in-process outcome cache (the disk cache stays)."""
    _memory.clear()


@dataclass(frozen=True)
class MatrixCell:
    """One resolved matrix cell: outcome, verdict and the trait prediction."""

    scheme: str
    attack: str
    outcome: AttackOutcome
    #: What :func:`~repro.analysis.leakage.expected_leakage` predicts for
    #: this (scheme, attack) pair via the attacker's ``expects_leak``.
    expected_leak: bool
    #: The attacker's advantage threshold for calling the scheme leaky.
    threshold: float

    @property
    def leaked(self) -> bool:
        """Measured verdict: advantage at or above the attack's threshold."""
        return self.outcome.advantage >= self.threshold

    @property
    def agrees(self) -> bool:
        """Whether the measured verdict matches the trait prediction."""
        return self.leaked == self.expected_leak


@dataclass
class MatrixResult:
    """The full scheme×attack sweep plus its execution manifest."""

    workloads: tuple[str, ...]
    num_requests: int
    seed: int
    channels: int
    cells: list[MatrixCell]
    manifest: RunManifest | None = None

    def schemes(self) -> list[str]:
        """Scheme names in first-appearance (registry) order."""
        return list(dict.fromkeys(cell.scheme for cell in self.cells))

    def attacks(self) -> list[str]:
        """Attack names in first-appearance (registry) order."""
        return list(dict.fromkeys(cell.attack for cell in self.cells))

    def cell(self, scheme: str, attack: str) -> MatrixCell:
        """The single cell at (scheme, attack); KeyError if absent."""
        for cell in self.cells:
            if cell.scheme == scheme and cell.attack == attack:
                return cell
        raise KeyError((scheme, attack))

    @property
    def agreement(self) -> tuple[int, int]:
        """``(agreeing_cells, total_cells)`` against the trait predictions."""
        return sum(1 for cell in self.cells if cell.agrees), len(self.cells)

    def check_orderings(self) -> list[tuple[str, bool]]:
        """Evaluate the paper's security orderings over the measured cells.

        Three claims, each skipped (absent from the list) when the sweep
        did not include the cells it needs:

        1. every observable wire the fingerprinting attacker is *expected*
           to beat (plaintext/ECB-style and encrypted-data-only schemes)
           actually leaks above threshold;
        2. ObfusMem's counter-mode wire drives the address/type/footprint
           attackers to within 0.15 of random guessing;
        3. the rebuild-timing attacker flags exactly the schemes carrying
           :data:`~repro.schemes.stages.TRAIT_REBUILD_BURSTS`.
        """
        checks: list[tuple[str, bool]] = []
        fingerprint = [cell for cell in self.cells if cell.attack == "fingerprint"]
        expected_hot = [cell for cell in fingerprint if cell.expected_leak]
        if expected_hot:
            checks.append(
                (
                    "observable wires leak to fingerprinting",
                    all(cell.leaked for cell in expected_hot),
                )
            )
        address_attacks = ("fingerprint", "type_recovery", "footprint")
        obfus = [
            cell
            for cell in self.cells
            if cell.scheme.startswith("obfusmem") and cell.attack in address_attacks
        ]
        if obfus:
            checks.append(
                (
                    "obfusmem address/type/footprint advantage ~ random guess",
                    all(cell.outcome.advantage <= 0.15 for cell in obfus),
                )
            )
        timing = [cell for cell in self.cells if cell.attack == "rebuild_timing"]
        if timing:
            checks.append(
                (
                    "rebuild-timing flags exactly the bursty ORAM backends",
                    all(
                        cell.leaked
                        == (TRAIT_REBUILD_BURSTS in resolve_scheme(cell.scheme).traits)
                        for cell in timing
                    ),
                )
            )
        return checks


def matrix_specs(
    schemes: list[str] | None = None,
    attacks: list[str] | None = None,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    num_requests: int = DEFAULT_MATRIX_REQUESTS,
    seed: int = DEFAULT_SEED,
    channels: int = DEFAULT_MATRIX_CHANNELS,
) -> list[AttackCellSpec]:
    """The (scheme × attack) grid as cell specs, in deterministic order.

    ``None`` for ``schemes``/``attacks`` means the full respective
    registry; unknown names fail fast with close-match hints.
    """
    scheme_list = list(schemes) if schemes is not None else scheme_names()
    attack_list = list(attacks) if attacks is not None else attacker_names()
    return [
        AttackCellSpec(
            attack=attack,
            level=scheme,
            workloads=tuple(workloads),
            num_requests=num_requests,
            seed=seed,
            channels=channels,
        )
        for scheme in scheme_list
        for attack in attack_list
    ]


def run(
    schemes: list[str] | None = None,
    attacks: list[str] | None = None,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    num_requests: int = DEFAULT_MATRIX_REQUESTS,
    seed: int = DEFAULT_SEED,
    channels: int = DEFAULT_MATRIX_CHANNELS,
    progress=None,
) -> MatrixResult:
    """Run the scheme×attack sweep and assemble the verdict matrix."""
    specs = matrix_specs(schemes, attacks, workloads, num_requests, seed, channels)
    outcomes, manifest = runner.resolve(
        specs,
        label="matrix",
        progress=progress,
        memory=_memory,
        cache=CACHE_CONFIG.open(AttackCache, "attacks"),
    )
    cells = []
    for spec, outcome in zip(specs, outcomes):
        attacker = get_attacker(spec.attack)
        expected = expected_leakage(resolve_scheme(spec.level))
        cells.append(
            MatrixCell(
                scheme=spec.level,
                attack=spec.attack,
                outcome=outcome,
                expected_leak=attacker.expects_leak(expected),
                threshold=attacker.leak_threshold,
            )
        )
    return MatrixResult(
        workloads=tuple(workloads),
        num_requests=num_requests,
        seed=seed,
        channels=channels,
        cells=cells,
        manifest=manifest,
    )


def format_matrix(result: MatrixResult) -> str:
    """Render the matrix as a fixed-width table with a verdict legend.

    Each cell shows the normalized advantage and the verdict mark
    (``+`` leak / ``-`` resist); a trailing ``*`` flags disagreement with
    the trait-derived expectation.
    """
    schemes = result.schemes()
    attacks = result.attacks()
    columns = [
        TableColumn("scheme", max(6, *(len(name) for name in schemes)), "<"),
        *[TableColumn(name, max(len(name), 7)) for name in attacks],
        TableColumn("agree", 5),
    ]
    rows = []
    for scheme in schemes:
        row = [scheme]
        agreeing = total = 0
        for attack in attacks:
            cell = result.cell(scheme, attack)
            mark = "+" if cell.leaked else "-"
            flag = "" if cell.agrees else "*"
            row.append(f"{cell.outcome.advantage:.2f}{mark}{flag}")
            agreeing += cell.agrees
            total += 1
        row.append(f"{agreeing}/{total}")
        rows.append(row)
    legend = (
        "cells: advantage with verdict (+ leak / - resist at the attack's "
        "threshold); * = disagrees with expected_leakage"
    )
    return format_table(columns, rows) + "\n" + legend


def main(argv: list[str] | None = None) -> None:
    """Run the leakage matrix and print the report (script entry point).

    Exits non-zero when any of the paper's security orderings
    (:meth:`MatrixResult.check_orderings`) fails over the selected cells.
    """
    parser = argparse.ArgumentParser(
        prog="repro.experiments.matrix",
        description="scheme x attack leakage matrix",
    )
    runner.add_runner_arguments(parser)
    parser.add_argument(
        "--schemes",
        nargs="+",
        default=None,
        help="scheme subset (default: every registered scheme)",
    )
    parser.add_argument(
        "--attacks",
        nargs="+",
        default=None,
        help="attacker subset (default: every registered attacker)",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(DEFAULT_WORKLOADS),
        help=f"workload suite (default: {' '.join(DEFAULT_WORKLOADS)})",
    )
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_MATRIX_REQUESTS,
        help="requests per capture",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--channels", type=int, default=DEFAULT_MATRIX_CHANNELS,
        help="memory channels for the captures",
    )
    parser.add_argument(
        "--csv", default=None, help="also write the matrix as CSV to this path"
    )
    args = parser.parse_args(argv)
    runner.configure_from_args(args)
    result = run(
        schemes=args.schemes,
        attacks=args.attacks,
        workloads=tuple(args.workloads),
        num_requests=args.requests,
        seed=args.seed,
        channels=args.channels,
    )
    title = (
        f"Leakage matrix — {len(result.schemes())} schemes x "
        f"{len(result.attacks())} attacks over {'+'.join(result.workloads)} "
        f"({result.num_requests} requests, {result.channels} channels)"
    )
    print(title)
    print(format_matrix(result))
    agreeing, total = result.agreement
    print(f"expected-leakage agreement: {agreeing}/{total} cells")
    failures = []
    for claim, passed in result.check_orderings():
        print(f"{'OK  ' if passed else 'FAIL'} {claim}")
        if not passed:
            failures.append(claim)
    if result.manifest is not None:
        print(
            f"cells: {result.manifest.jobs} "
            f"({result.manifest.cache_misses} executed, "
            f"{result.manifest.cache_hits} cached) in "
            f"{result.manifest.wall_clock_s:.1f} s"
        )
    if args.csv:
        from repro.experiments.export import write_matrix

        path = write_matrix(result, args.csv)
        print(f"wrote {path}")
    if failures:
        raise SystemExit(f"{len(failures)} security ordering(s) failed")


if __name__ == "__main__":
    main()
