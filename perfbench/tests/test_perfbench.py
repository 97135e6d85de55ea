"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import pins  # noqa: E402
from tracing import Span, Tracer, layer_totals, self_times  # noqa: E402


# -- the percentile rule -----------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.percentile(range(99), 0.9) is None
    assert metrics.percentile(range(100), 0.9) == 89
    beyond = [x for x in range(100) if x > metrics.percentile(range(100), 0.9)]
    assert len(beyond) == metrics.MIN_SAMPLES_BEYOND
    assert metrics.samples_needed(0.9) == 100


def test_median_is_reported_from_one_sample():
    assert metrics.percentile([7.0], 0.5) == 7.0
    assert metrics.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert metrics.percentile([], 0.5) is None


def test_end_to_end_leaves_out_an_unresolved_tail_and_counts_samples():
    reps = [
        SimpleNamespace(
            wall_s=2.0, setup_s=0.5, jobs=60, sim_requests=600, accesses=60,
            cold_ms=[float(i) for i in range(50)],
            warm_ms=[float(i) for i in range(10)],
        )
        for _ in range(2)
    ]
    values, samples = metrics.end_to_end(reps, import_s=0.25, peak_rss_mb=10.0)
    assert samples == {"repetitions": 2, "cold_latency": 100, "warm_latency": 20}
    assert "cold_latency_p90_ms" in values
    assert "warm_latency_p90_ms" not in values
    assert values["warm_latency_p50_ms"] == 4.0
    assert values["setup_s"] == 0.75
    assert values["jobs_per_s"] == 30.0


# -- self time of nested spans -----------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, "outer", 0.0, 10.0, None, 0),
        Span(2, "a", 1.0, 4.0, 1, 0),
        Span(3, "b", 5.0, 9.0, 1, 0),
        Span(4, "a", 6.0, 8.0, 3, 0),
    ]
    assert self_times(spans) == {1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0}
    totals = layer_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == 5.0
    assert totals["a"]["total_s"] == 5.0
    assert totals["b"]["self_s"] == 2.0


def test_tracer_records_parents_and_restores_originals():
    owner = SimpleNamespace()
    owner.inner = lambda x: x + 1
    owner.outer = lambda x: owner.inner(x) * 2
    originals = (owner.inner, owner.outer)
    tracer = Tracer()
    tracer.wrap(owner, "inner", "inner", post=lambda args, result, _: {"n": result})
    tracer.wrap(owner, "outer", "outer")
    tracer.job = 7
    assert owner.outer(1) == 4
    tracer.restore()
    assert (owner.inner, owner.outer) == originals
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["inner"].data == {"n": 2}
    assert {span.job for span in tracer.spans} == {7}


# -- the pin check -----------------------------------------------------------


def _result(**changes):
    fields = {
        "execution_time_ns": 123456.5,
        "num_requests": 1000,
        "stats": {"channel0.requests": 1000, "core0.read_latency_ns.mean": 97.25},
    }
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_pin_check_flags_a_perturbed_result():
    table = {"sweep": [[pins.fingerprint(_result())]]}
    assert pins.check(table, "sweep", 0, 0, _result())
    later = _result(execution_time_ns=123456.50000001)
    assert not pins.check(table, "sweep", 0, 0, later)
    perturbed = _result()
    perturbed.stats = dict(perturbed.stats, **{"core0.read_latency_ns.mean": 97.26})
    assert not pins.check(table, "sweep", 0, 0, perturbed)
    assert not pins.check(table, "sweep", 0, 1, _result())  # no pin: a failure
    assert not pins.check(table, "sweep", 1, 0, _result())


def test_pin_check_ignores_int_float_spelling():
    round_tripped = _result()
    round_tripped.stats = {k: float(v) for k, v in round_tripped.stats.items()}
    assert pins.fingerprint(round_tripped) == pins.fingerprint(_result())


# -- the benchmark description -----------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    described = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in described["workloads"]] == ["sweep", "serve", "kernels"]
    assert {m["name"]: m["unit"] for m in described["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in described["per_layer"]} == metrics.PER_LAYER
