"""The one store codec and the one cache key, across every store kind.

Results, traces and attack cells all go through
:class:`~repro.experiments.executor.JsonFileCache` and
:func:`~repro.experiments.executor.content_digest`.  These tests pin the
behaviour every store shares — hit, damage, schema skew, spec-echo
mismatch — and that entries and keys written by earlier releases still
hit: digests are literals, and old entries are written by hand in their
exact on-disk layout.
"""

import json

import pytest

from repro.attacks import AttackOutcome
from repro.experiments.executor import JobSpec, ResultCache
from repro.experiments.matrix import AttackCache, AttackCellSpec
from repro.experiments.trace_cache import (
    KernelTraceSpec,
    SyntheticTraceSpec,
    TraceCache,
)
from repro.system.config import ProtectionLevel
from repro.system.simulator import RunResult


def _result_case():
    spec = JobSpec("astar", ProtectionLevel.UNPROTECTED, num_requests=60, seed=1)
    other = JobSpec("astar", ProtectionLevel.UNPROTECTED, num_requests=60, seed=2)
    result = RunResult(
        benchmark="astar",
        level=ProtectionLevel.UNPROTECTED,
        channels=1,
        execution_time_ns=1234.5,
        num_requests=60,
        instructions=9000.0,
        stats={"pcm0.reads": 42.0},
    )
    legacy = {
        "schema": 1,
        "spec": spec.to_jsonable(),
        "result": {
            "benchmark": "astar",
            "level": "unprotected",
            "channels": 1,
            "execution_time_ns": 1234.5,
            "num_requests": 60,
            "instructions": 9000.0,
            "stats": {"pcm0.reads": 42.0},
        },
    }
    return ResultCache, spec, other, result, f"{spec.digest()}.json", legacy


def _trace_case():
    spec = SyntheticTraceSpec("astar", 50, 3)
    trace = spec.build()
    legacy = {
        "schema": 1,
        "kind": "synthetic",
        "spec": spec.to_jsonable(),
        "trace": trace.to_jsonable(),
    }
    other = SyntheticTraceSpec("astar", 50, 4)
    return TraceCache, spec, other, trace, f"trace-{spec.digest()}.json", legacy


def _attack_case():
    spec = AttackCellSpec("dictionary", "unprotected")
    other = AttackCellSpec("dictionary", "obfusmem")
    outcome = AttackOutcome("dictionary", "unprotected", 1.0, 0.0, 1.0, {"hits": 3})
    legacy = {
        "schema": "attack-cell-1",
        "spec": spec.to_jsonable(),
        "result": outcome.to_jsonable(),
    }
    return AttackCache, spec, other, outcome, f"{spec.digest()}.json", legacy


@pytest.fixture(
    params=[_result_case, _trace_case, _attack_case],
    ids=["results", "traces", "attacks"],
)
def case(request):
    return request.param()


def _same(left, right) -> bool:
    # Traces have no value equality; their records and name carry it all.
    if hasattr(left, "records"):
        return (left.name, left.records) == (right.name, right.records)
    return left == right


class TestStoreCodec:
    def test_hit_and_every_damage_kind_misses(self, case, tmp_path):
        store_type, spec, other, value, _name, _legacy = case
        store = store_type(tmp_path)
        assert store.get(spec) is None  # empty store
        path = store.put(spec, value)
        assert _same(store.get(spec), value)  # hit

        entry = json.loads(path.read_text())
        path.write_text(json.dumps({**entry, "schema": "stale"}))
        assert store.get(spec) is None  # wrong schema token
        path.write_text(json.dumps({**entry, "spec": other.to_jsonable()}))
        assert store.get(spec) is None  # spec echo of a different spec
        path.write_text(json.dumps({**entry, store.payload_key: {"bogus": 1}}))
        assert store.get(spec) is None  # value that does not decode
        path.write_text("{not json")
        assert store.get(spec) is None  # damaged JSON

        store.put(spec, value)  # a fresh put repairs the entry
        assert _same(store.get(spec), value)

    def test_entry_in_the_earlier_layout_still_hits(self, case, tmp_path):
        store_type, spec, _other, value, name, legacy = case
        (tmp_path / name).write_text(json.dumps(legacy, sort_keys=True, indent=1))
        assert _same(store_type(tmp_path).get(spec), value)


class TestDigestPins:
    """Every key keeps its exact value: pool sharding, sweep wave order and
    every existing cache entry depend on it."""

    def test_job_digests(self):
        spec = JobSpec("mcf", "obfusmem_auth", num_requests=300)
        assert spec.digest() == (
            "7b1c6e8a70f97430a5e7f13ba224a1ab364289d185d6dc6d4ac2ada016999a2b"
        )
        assert spec.prefix_digest() == (
            "38aafa6e312cf5936e2cb7301962cc06695e7cbe5442dc0cfccf5b64ece6ae8e"
        )

    def test_trace_digests(self):
        assert SyntheticTraceSpec("mcf", 300, 2017).digest() == (
            "205b07bb9afc519a27f606ed940589a149bbc61bccb7cf108f5b4413148e1a0f"
        )
        assert KernelTraceSpec.create("pointer_chase").digest() == (
            "84ec978a9641b650ee6cfb14991ebad50cd39dc0acaccbfb18075b44e4748850"
        )

    def test_attack_cell_digest(self):
        assert AttackCellSpec("dictionary", "obfusmem").digest() == (
            "2d8a0b706ac5502ec35e2da687d0524380b14a6d0c4b5c43a26f140b3a715656"
        )
