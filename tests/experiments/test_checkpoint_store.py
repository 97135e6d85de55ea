"""CheckpointStore and the warm-started executor path."""

import json

import pytest

from repro.errors import CheckpointError
from repro.experiments.checkpoints import (
    KEEP_PER_FAMILY,
    CheckpointStore,
    world_for_spec,
)
from repro.experiments.executor import JobSpec, ParallelRunner, ResultCache, execute
from repro.sim.engine import Engine
from repro.sim.profiling import EventAccountant

from tests.system.test_golden_determinism import GOLDEN

#: Every scheme of the golden determinism grid.
GOLDEN_SCHEMES = sorted(
    {
        cell.rsplit("/", 1)[1]
        for key, grid in GOLDEN.items()
        if key.startswith("execution_time_ns")
        for cell in grid
    }
)


def spec(n=300, **overrides) -> JobSpec:
    params = dict(benchmark="mcf", level="obfusmem_auth", num_requests=n, seed=7)
    params.update(overrides)
    return JobSpec(**params)


def snapshot_at(job: JobSpec, events: int):
    world, _ = world_for_spec(job, None)
    world.run(stop_after_events=events)
    return world.snapshot()


class TestPrefixDigest:
    def test_stable_across_num_requests(self):
        assert spec(n=300).prefix_digest() == spec(n=4000).prefix_digest()

    def test_sensitive_to_everything_else(self):
        base = spec().prefix_digest()
        assert spec(seed=8).prefix_digest() != base
        assert spec(level="oram").prefix_digest() != base
        assert spec(benchmark="astar").prefix_digest() != base


class TestStore:
    def test_put_then_deepest_round_trips(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        store.put(job, snapshot_at(job, 500))
        entry = store.deepest(job)
        assert entry is not None
        assert entry.num_requests == job.num_requests
        assert entry.checkpoint.events_executed >= 500
        world = entry.checkpoint.thaw()
        assert world.events_executed == entry.checkpoint.events_executed

    def test_deepest_prefers_more_progress(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        store.put(job, snapshot_at(job, 300))
        store.put(job, snapshot_at(job, 900))
        entry = store.deepest(job)
        assert entry.checkpoint.events_executed >= 900

    def test_finished_worlds_are_refused(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec(n=100)
        world, _ = world_for_spec(job, None)
        world.run()
        with pytest.raises(CheckpointError, match="finished"):
            store.put(job, world.snapshot())

    def test_shorter_safe_prefix_seeds_a_longer_spec(self, tmp_path):
        store = CheckpointStore(tmp_path)
        short = spec(n=300)
        checkpoint = snapshot_at(short, 800)
        assert checkpoint.safe_prefix
        store.put(short, checkpoint)
        entry = store.deepest(spec(n=600))
        assert entry is not None
        assert entry.num_requests == 300

    def test_longer_runs_never_seed_shorter_specs(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put(spec(n=600), snapshot_at(spec(n=600), 800))
        assert store.deepest(spec(n=300)) is None

    def test_other_families_are_invisible(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        store.put(job, snapshot_at(job, 500))
        assert store.deepest(spec(seed=8)) is None
        assert store.deepest(spec(level="oram")) is None

    def test_family_is_pruned_to_the_deepest_few(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        depths = [200 * (i + 1) for i in range(KEEP_PER_FAMILY + 2)]
        for events in depths:
            store.put(job, snapshot_at(job, events))
        entries = store.candidates(job)
        assert len(entries) == KEEP_PER_FAMILY
        kept = [entry.checkpoint.events_executed for entry in entries]
        assert kept == sorted(kept, reverse=True)
        assert min(kept) > 200  # the shallowest saves are gone

    def test_damaged_entry_degrades_to_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        path = store.put(job, snapshot_at(job, 500))
        path.write_text("not json at all")
        assert store.deepest(job) is None

    def test_undecodable_payload_falls_back_to_cold(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec()
        path = store.put(job, snapshot_at(job, 500))
        record = json.loads(path.read_text())
        record["checkpoint"]["digest"] = "0" * 64  # thaw-time damage
        path.write_text(json.dumps(record))
        world, forked_from = world_for_spec(job, store)
        assert forked_from == 0
        assert not path.exists()  # the poisoned entry was evicted
        world.run()
        assert world.result().stats == execute(job).result.stats


def accounted(job: JobSpec):
    """``execute(job)`` with an :class:`EventAccountant` counting every event."""
    accountant = EventAccountant()
    previous = Engine.default_instrument
    Engine.default_instrument = accountant
    try:
        run = execute(job)
    finally:
        Engine.default_instrument = previous
    return run, accountant.events


#: Periodic-save interval: ORAM schemes run ~2 events per request, so a
#: 300-request run must pause well below 600 events to leave a snapshot.
INTERVAL = 200


@pytest.mark.parametrize("level", GOLDEN_SCHEMES)
class TestExecuteWithCheckpoints:
    def test_cold_and_warm_agree_bit_for_bit(self, tmp_path, level):
        store = CheckpointStore(tmp_path)
        cold, cold_events = accounted(spec(level=level))
        assert cold.telemetry.forked_from_events == 0
        assert cold.telemetry.sim_events == cold_events
        seeded = execute(spec(level=level), store=store, interval_events=INTERVAL)
        assert seeded.telemetry.checkpoints_saved >= 1
        warm = execute(spec(n=600, level=level), store=store, interval_events=INTERVAL)
        assert warm.telemetry.forked_from_events > 0
        colder, colder_events = accounted(spec(n=600, level=level))
        assert colder.telemetry.sim_events == colder_events
        assert (
            warm.telemetry.forked_from_events + warm.telemetry.sim_events
            == colder.telemetry.sim_events
        )
        assert warm.result == colder.result
        assert cold.result == execute(spec(level=level), store=store).result

    def test_warm_run_skips_the_forked_events(self, tmp_path, level):
        store = CheckpointStore(tmp_path)
        execute(spec(level=level), store=store, interval_events=INTERVAL)
        warm = execute(spec(n=600, level=level), store=store, interval_events=INTERVAL)
        cold = execute(spec(n=600, level=level))
        assert warm.telemetry.sim_events < cold.telemetry.sim_events


class TestRunnerIntegration:
    def test_sweep_through_the_runner_matches_cold_results(self, tmp_path):
        sweep = [spec(n=n) for n in (200, 400, 600)]
        cold = ParallelRunner(workers=1).run(sweep)
        store = CheckpointStore(tmp_path / "ckpt")
        runner = ParallelRunner(
            workers=1,
            cache=ResultCache(tmp_path / "results"),
            checkpoints=store,
            checkpoint_interval_events=500,
        )
        warm = runner.run(sweep)
        for a, b in zip(cold, warm):
            assert a.execution_time_ns == b.execution_time_ns
            assert a.stats == b.stats
        # The sweep left reusable snapshots behind for future longer runs.
        assert store.deepest(spec(n=800)) is not None


class FailingStore(CheckpointStore):
    """A store whose every save fails, counting the attempts."""

    attempts = 0

    def put(self, spec, checkpoint):
        self.attempts += 1
        raise CheckpointError("disk full")


class TestWallBudget:
    """A job longer than one preemption slice (~31k kernel events)."""

    def test_expired_budget_preempts_then_resumes_bit_identically(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = spec(n=3000)
        sliced = execute(job, store=store, budget_s=0.0)
        assert sliced.telemetry.preempted and sliced.result is None
        assert sliced.telemetry.checkpoints_saved == 1
        resumed = execute(job, store=store, save_milestones=())
        assert resumed.telemetry.forked_from_events == sliced.telemetry.sim_events
        assert resumed.result == execute(job).result

    def test_failed_preemption_save_runs_to_completion(self, tmp_path):
        store = FailingStore(tmp_path)
        job = spec(n=3000)
        run = execute(job, store=store, budget_s=0.0)
        assert not run.telemetry.preempted
        assert run.telemetry.checkpoints_saved == 0
        assert store.attempts == 1  # the budget was dropped after one failure
        assert run.result == execute(job).result
