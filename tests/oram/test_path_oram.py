"""Path ORAM: correctness, invariants, overheads, failure modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError, OramDeadlockError, OramError
from repro.oram.path_oram import PathOram
from repro.oram.timing import OramMemoryModel
from repro.mem.request import MemoryRequest, RequestType
from repro.sim.engine import Engine, ns_to_ps
from repro.sim.statistics import StatRegistry


def make_oram(num_blocks=64, **kwargs):
    return PathOram(num_blocks, DeterministicRng(2017), **kwargs)


class TestBasicCorrectness:
    def test_read_your_write(self):
        oram = make_oram()
        oram.write(5, b"hello")
        assert oram.read(5) == b"hello"

    def test_unwritten_reads_none(self):
        assert make_oram().read(3) is None

    def test_overwrite(self):
        oram = make_oram()
        oram.write(5, b"v1")
        oram.write(5, b"v2")
        assert oram.read(5) == b"v2"

    def test_access_returns_old_data(self):
        oram = make_oram()
        oram.write(1, b"old")
        assert oram.access(1, write_data=b"new") == b"old"

    def test_many_blocks(self):
        oram = make_oram(num_blocks=128)
        for block in range(128):
            oram.write(block, bytes([block]))
        for block in range(128):
            assert oram.read(block) == bytes([block])

    def test_out_of_range_rejected(self):
        with pytest.raises(OramError):
            make_oram(num_blocks=8).read(8)

    def test_too_small_tree_rejected(self):
        with pytest.raises(ConfigurationError):
            PathOram(100, DeterministicRng(1), levels=2, bucket_size=4)


class TestInvariant:
    def test_invariant_holds_after_mixed_workload(self):
        oram = make_oram(num_blocks=64)
        rng = DeterministicRng(7)
        for i in range(400):
            block = rng.randrange(64)
            if i % 3:
                oram.write(block, bytes([i % 256]))
            else:
                oram.read(block)
        oram.check_invariant()

    @settings(max_examples=20, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
            max_size=60,
        )
    )
    def test_invariant_property(self, operations):
        oram = make_oram(num_blocks=32)
        for block, is_write in operations:
            if is_write:
                oram.write(block, b"x")
            else:
                oram.read(block)
        oram.check_invariant()

    @settings(max_examples=20, deadline=None)
    @given(
        writes=st.dictionaries(
            st.integers(min_value=0, max_value=31), st.binary(max_size=8), max_size=20
        )
    )
    def test_read_your_writes_property(self, writes):
        oram = make_oram(num_blocks=32)
        for block, data in writes.items():
            oram.write(block, data)
        for block, data in writes.items():
            assert oram.read(block) == data


class TestObliviousness:
    def test_blocks_moved_is_constant_per_access(self):
        """Reads and writes move exactly the same number of blocks."""
        oram = make_oram(num_blocks=64)
        per_access = 2 * (oram.levels + 1) * oram.bucket_size

        oram.write(1, b"a")
        after_write = oram.stats.get("blocks_read") + oram.stats.get("blocks_written")
        oram.read(1)
        after_read = oram.stats.get("blocks_read") + oram.stats.get("blocks_written")
        assert after_write == per_access
        assert after_read - after_write == per_access

    def test_position_remapped_every_access(self):
        oram = make_oram(num_blocks=64)
        oram.write(9, b"x")
        leaves = set()
        for _ in range(50):
            oram.read(9)
            leaves.add(oram.position_map.lookup(9))
        assert len(leaves) > 5  # uniformly re-randomized


class TestOverheadAccounting:
    def test_capacity_overhead_at_least_half(self):
        oram = make_oram(num_blocks=64)
        assert oram.capacity_overhead >= 0.5  # paper: >=50% waste

    def test_blocks_per_access_formula(self):
        oram = make_oram(num_blocks=64)
        assert oram.blocks_per_access == 2 * (oram.levels + 1) * oram.bucket_size

    def test_paper_geometry(self):
        """L=24, Z=4 gives the ~100-block paths of the paper."""
        oram = PathOram(1 << 24, DeterministicRng(0), levels=24, bucket_size=4)
        assert (oram.levels + 1) * oram.bucket_size == 100


class TestDeadlock:
    def test_tiny_stash_overflows(self):
        # A heavily utilized tree (60 blocks in a 124-slot tree) with no
        # stash headroom eventually cannot evict everything back — the
        # failure mode the paper calls a potential deadlock.
        oram = PathOram(60, DeterministicRng(5), levels=4, stash_limit=0)
        rng = DeterministicRng(9)
        with pytest.raises(OramDeadlockError):
            for block in range(60):
                oram.write(block, b"fill")
            for _ in range(500):
                oram.read(rng.randrange(60))

    def test_generous_stash_survives(self):
        oram = make_oram(num_blocks=64, stash_limit=256)
        for block in range(64):
            oram.write(block, b"fill")
        assert oram.max_stash_seen <= 256


class TestTimingModel:
    def test_fixed_latency(self):
        engine = Engine()
        model = OramMemoryModel(engine, StatRegistry())
        done = []
        request = MemoryRequest(0, RequestType.READ)
        request.issue_time_ps = 0
        model.issue(request, lambda r: done.append(r))
        engine.run()
        assert done[0].latency_ps == ns_to_ps(2500)

    def test_unlimited_bandwidth(self):
        engine = Engine()
        model = OramMemoryModel(engine, StatRegistry())
        done = []
        for i in range(10):
            request = MemoryRequest(i * 64, RequestType.READ)
            request.issue_time_ps = 0
            model.issue(request, lambda r: done.append(r))
        engine.run()
        assert engine.now_ps == ns_to_ps(2500)  # all in parallel
        assert len(done) == 10

    def test_write_amplification_stat(self):
        engine = Engine()
        stats = StatRegistry()
        model = OramMemoryModel(engine, stats)
        model.issue(MemoryRequest(0, RequestType.WRITE), None)
        engine.run()
        assert stats.group("oram").get("cell_block_writes") == 100
