"""Experiment runners: structure and headline-shape checks.

These use reduced request counts and benchmark subsets so the whole suite
stays fast; the full-scale regenerations are the benchmark harness's job.
"""

import pytest

from repro.core.config import ChannelInjection
from repro.experiments import clear_cache, figure4, figure5, table1, table3, table4
from repro.experiments import energy as energy_experiment
from repro.errors import ConfigurationError
from repro.experiments.executor import JobSpec
from repro.experiments.runner import resolve, select_benchmarks
from repro.system.config import ProtectionLevel

FAST = dict(num_requests=500, seed=7)
SUBSET = ["bwaves", "mcf", "astar"]


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRunner:
    def test_cache_returns_same_object(self):
        (a,), _ = resolve([JobSpec("astar", ProtectionLevel.UNPROTECTED, **FAST)])
        (b,), _ = resolve([JobSpec("astar", ProtectionLevel.UNPROTECTED, **FAST)])
        assert a is b

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve([JobSpec("quake", ProtectionLevel.UNPROTECTED, **FAST)])

    def test_select_benchmarks(self):
        assert len(select_benchmarks(None)) == 15
        assert select_benchmarks(["mcf"]) == ["mcf"]
        with pytest.raises(ConfigurationError):
            select_benchmarks(["nope"])


class TestTable1:
    def test_rows_and_shape(self):
        rows = table1.run(benchmarks=SUBSET, **FAST)
        assert [r.benchmark for r in rows] == SUBSET
        for row in rows:
            assert abs(row.gap_error_pct) < 30.0  # gap reproduced
            assert row.measured_mpki == row.paper_mpki
        assert "Benchmark" in table1.format_results(rows)


class TestTable3:
    def test_oram_dwarfs_obfusmem(self):
        result = table3.run(benchmarks=SUBSET, **FAST)
        for row in result.rows:
            assert row.oram_overhead_pct > 5 * row.obfusmem_auth_overhead_pct
            assert row.speedup >= 1.0
        assert result.avg_oram_pct > 100
        assert result.avg_obfusmem_pct < 40
        assert "Avg" in table3.format_results(result)

    def test_high_mpki_suffers_more(self):
        result = table3.run(benchmarks=["mcf", "astar"], **FAST)
        by_name = {r.benchmark: r for r in result.rows}
        assert by_name["mcf"].oram_overhead_pct > by_name["astar"].oram_overhead_pct


class TestTable3Extended:
    def test_covers_every_registered_oram_scheme(self):
        result = table3.run_extended(benchmarks=["mcf"], **FAST)
        assert set(result.schemes) == set(table3.oram_scheme_names())
        assert {"oram", "oram_ring", "pyramid", "palermo"} <= set(result.schemes)
        for row in result.rows:
            assert set(row.oram_overheads_pct) == set(result.schemes)

    def test_backend_overheads_keep_design_ordering(self):
        result = table3.run_extended(benchmarks=["mcf", "bwaves"], **FAST)
        for row in result.rows:
            overheads = row.oram_overheads_pct
            assert overheads["palermo"] < overheads["oram_ring"] < overheads["oram"]
            assert overheads["pyramid"] < overheads["oram"]
            # Every ORAM design still costs more than the obfuscated bus.
            for scheme in result.schemes:
                assert overheads[scheme] > row.obfusmem_auth_overhead_pct
                assert row.speedup_over(scheme) > 1.0

    def test_formatting_has_a_column_per_scheme(self):
        result = table3.run_extended(benchmarks=["mcf"], **FAST)
        table = table3.format_extended(result)
        assert "Avg" in table
        for scheme in result.schemes:
            assert f"{scheme}%" in table


class TestFigure4:
    def test_levels_ordered(self):
        result = figure4.run(benchmarks=SUBSET, **FAST)
        for row in result.rows:
            assert row.encryption_pct <= row.obfusmem_pct + 0.5
            assert row.obfusmem_pct <= row.obfusmem_auth_pct + 0.5
        assert result.avg_obfusmem_auth_pct >= result.avg_encryption_pct


class TestFigure5:
    def test_opt_beats_unopt_at_scale(self):
        result = figure5.run(
            benchmarks=["bwaves"],
            channel_counts=(2, 4),
            num_requests=400,
            cores=2,
        )
        for channels in (2, 4):
            unopt = result.point(channels, ChannelInjection.UNOPT, True)
            opt = result.point(channels, ChannelInjection.OPT, True)
            assert opt.avg_overhead_pct <= unopt.avg_overhead_pct + 0.5
        assert "ObfusMem-OPT" in figure5.format_results(result)

    def test_missing_point_raises(self):
        result = figure5.run(
            benchmarks=["astar"], channel_counts=(2,), num_requests=300, cores=1
        )
        with pytest.raises(KeyError):
            result.point(8, ChannelInjection.OPT, True)


class TestTable4:
    def test_measured_comparison(self):
        result = table4.run(benchmark="bwaves", num_requests=400, seed=7)
        # Access-pattern rows: ObfusMem hides what unprotected leaks.
        assert result.unprotected.type_accuracy > 0.9
        assert result.obfusmem.type_accuracy < 0.6
        assert result.obfusmem.ciphertext_repeats == 0.0
        assert result.unprotected.spatial_locality > result.obfusmem.spatial_locality
        # Overhead rows.
        assert result.oram.capacity_overhead_pct >= 50.0
        assert result.oram.blocks_per_access >= 8
        assert result.obfusmem_write_amplification < 2.0
        assert "TCB" in table4.format_results(result)


class TestEnergy:
    def test_energy_experiment(self):
        result = energy_experiment.run(benchmark="astar", num_requests=300)
        assert result.analytical.oram_energy_factor == pytest.approx(780.0)
        assert result.obfusmem_measured.pads_per_access >= 16
        assert (
            result.oram_measured.cell_writes_per_access
            > 50 * max(result.obfusmem_measured.cell_writes_per_access, 0.01)
        )
        assert "Lifetime" in energy_experiment.format_results(result)
