"""Path ORAM (Stefanov et al., CCS 2013) — the baseline ObfusMem is compared
against.

Functional implementation of the full protocol: a binary tree of buckets
(Z blocks each), a position map assigning every block to a leaf, and a stash
of overflow blocks on the (trusted) processor.  The invariant maintained is
the paper's quote of Stefanov et al.:

    If a block is mapped to leaf l, then it must be either in some bucket on
    path l or in the stash.

Every access reads the whole path into the stash, remaps the block to a
fresh random leaf, then writes the path back greedily from the stash —
which is precisely where ORAM's bandwidth, capacity and write-amplification
overheads come from (the quantities Tables 3/4 and §5.2 compare).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError, OramDeadlockError, OramError
from repro.sim.statistics import StatGroup


@dataclass
class OramBlock:
    """A real data block stored in the tree or stash."""

    address: int
    leaf: int
    data: bytes


@dataclass
class Bucket:
    """A tree node holding up to Z real blocks (the rest are dummies)."""

    capacity: int
    blocks: list[OramBlock] = field(default_factory=list)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.blocks)


class PositionMap:
    """Block address -> leaf mapping, randomly initialized on first touch."""

    def __init__(self, num_leaves: int, rng: DeterministicRng):
        self._num_leaves = num_leaves
        self._rng = rng
        self._map: dict[int, int] = {}

    def lookup(self, address: int) -> int:
        """Leaf currently assigned to a block (drawn lazily)."""
        if address not in self._map:
            self._map[address] = self._rng.randrange(self._num_leaves)
        return self._map[address]

    def remap(self, address: int) -> int:
        """Assign a fresh uniformly random leaf (the reshuffle step)."""
        new_leaf = self._rng.randrange(self._num_leaves)
        self._map[address] = new_leaf
        return new_leaf

    def __len__(self) -> int:
        return len(self._map)


class PathOram:
    """Functional Path ORAM over ``num_blocks`` addressable blocks.

    Parameters
    ----------
    num_blocks:
        How many distinct real blocks the ORAM must hold.
    bucket_size:
        Z, blocks per bucket (paper baseline: 4).
    levels:
        Tree levels L (leaves = 2^L).  Default picks the smallest L with at
        least ``num_blocks`` leaves, giving the >=100% capacity overhead the
        paper describes.
    stash_limit:
        Maximum stash occupancy; exceeding it raises
        :class:`OramDeadlockError`, modelling the failure mode the paper
        calls out (reshuffling cannot proceed).
    """

    def __init__(
        self,
        num_blocks: int,
        rng: DeterministicRng,
        bucket_size: int = 4,
        levels: int | None = None,
        stash_limit: int = 256,
        stats: StatGroup | None = None,
    ):
        if num_blocks < 1:
            raise ConfigurationError("ORAM needs at least one block")
        if bucket_size < 1:
            raise ConfigurationError("bucket size must be >= 1")
        self.bucket_size = bucket_size
        if levels is None:
            levels = max(1, (num_blocks - 1).bit_length())
        self.levels = levels
        self.num_leaves = 1 << levels
        self.num_buckets = (1 << (levels + 1)) - 1
        if self.num_leaves * bucket_size < num_blocks:
            raise ConfigurationError(
                f"tree with L={levels}, Z={bucket_size} cannot hold {num_blocks} blocks"
            )
        self.num_blocks = num_blocks
        self.stash_limit = stash_limit
        self.position_map = PositionMap(self.num_leaves, rng.fork("posmap"))
        #: Buckets allocated on first touch (heap index -> bucket), so a
        #: paper-scale tree (2^25 buckets at L=24) costs memory only for the
        #: paths actually accessed.  Allocation draws no randomness.
        self._buckets: dict[int, Bucket] = {}
        self.stash: dict[int, OramBlock] = {}
        self.stats = stats or StatGroup("path_oram")
        self.max_stash_seen = 0

    # ------------------------------------------------------------------
    # Tree geometry: buckets stored heap-style, root at index 0.
    # ------------------------------------------------------------------

    def _path_indices(self, leaf: int) -> list[int]:
        """Bucket indices from root (index 0) down to the given leaf."""
        if not 0 <= leaf < self.num_leaves:
            raise OramError(f"leaf {leaf} out of range")
        node = leaf + self.num_leaves - 1  # leaf bucket in heap order
        path = []
        while True:
            path.append(node)
            if node == 0:
                break
            node = (node - 1) // 2
        path.reverse()
        return path

    def path_of(self, leaf: int) -> list[int]:
        """Public accessor used by tests and invariant checks."""
        return self._path_indices(leaf)

    def _bucket(self, index: int) -> Bucket:
        """The bucket at heap ``index``, allocated empty on first touch."""
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = Bucket(self.bucket_size)
        return bucket

    # ------------------------------------------------------------------

    def access(self, address: int, write_data: bytes | None = None) -> bytes | None:
        """One ORAM access: read if ``write_data`` is None, else write.

        Returns the block's previous data (None if never written).  Reads
        and writes are indistinguishable by construction: both read a full
        path, remap, and write the path back.
        """
        if not 0 <= address < self.num_blocks:
            raise OramError(f"address {address} out of ORAM range")
        leaf = self.position_map.lookup(address)
        new_leaf = self.position_map.remap(address)
        path = self._path_indices(leaf)

        # Step 1: read every block on the path into the stash.
        for index in path:
            bucket = self._bucket(index)
            for block in bucket.blocks:
                self.stash[block.address] = block
            self.stats.add("blocks_read", self.bucket_size)
            bucket.blocks = []

        # Step 2: read or update the target block in the stash.
        old_data = None
        if address in self.stash:
            old_data = self.stash[address].data
            self.stash[address].leaf = new_leaf
            if write_data is not None:
                self.stash[address].data = write_data
        elif write_data is not None:
            self.stash[address] = OramBlock(address, new_leaf, write_data)

        # Step 3: write the path back, greedily evicting stash blocks to the
        # deepest bucket they may legally occupy (path intersection rule).
        for depth in range(len(path) - 1, -1, -1):
            bucket = self._bucket(path[depth])
            candidates = [
                block
                for block in self.stash.values()
                if self._path_indices(block.leaf)[depth] == path[depth]
            ]
            for block in candidates[: bucket.free_slots]:
                bucket.blocks.append(block)
                del self.stash[block.address]
            self.stats.add("blocks_written", self.bucket_size)

        self.max_stash_seen = max(self.max_stash_seen, len(self.stash))
        self.stats.add("accesses")
        if len(self.stash) > self.stash_limit:
            raise OramDeadlockError(
                f"stash overflow: {len(self.stash)} blocks exceed limit "
                f"{self.stash_limit} (reshuffling cannot proceed)"
            )
        return old_data

    def read(self, address: int) -> bytes | None:
        """Oblivious read of one block."""
        return self.access(address)

    def write(self, address: int, data: bytes) -> None:
        """Oblivious write of one block."""
        self.access(address, write_data=data)

    # ------------------------------------------------------------------
    # Invariants and accounting
    # ------------------------------------------------------------------

    def check_invariant(self) -> None:
        """Assert the Path ORAM invariant for every mapped block.

        Walks only the allocated buckets: an untouched one is empty.
        """
        located: dict[int, str] = {}
        for index, bucket in self._buckets.items():
            for block in bucket.blocks:
                located[block.address] = f"bucket{index}"
                if index not in self._path_indices(block.leaf):
                    raise OramError(
                        f"block {block.address} in bucket {index} is off its "
                        f"leaf-{block.leaf} path"
                    )
        for address, block in self.stash.items():
            if address in located:
                raise OramError(f"block {address} duplicated in stash and tree")
            located[address] = "stash"

    @property
    def capacity_blocks(self) -> int:
        """Total block slots in the tree (real + dummy)."""
        return self.num_buckets * self.bucket_size

    @property
    def capacity_overhead(self) -> float:
        """Fraction of tree capacity not usable for real data (>= 0.5)."""
        return 1.0 - self.num_blocks / self.capacity_blocks

    @property
    def blocks_per_access(self) -> int:
        """Blocks moved per access: read + write of a full path."""
        return 2 * (self.levels + 1) * self.bucket_size
