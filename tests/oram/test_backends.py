"""ORAM backend descriptors: registry, decompositions, and end-to-end wiring."""

import pickle
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError
from repro.oram.backend import (
    AccessDecomposition,
    AccessPhase,
    OramBackend,
    PalermoBackend,
    PathOramBackend,
    PyramidOramBackend,
    RingOramBackend,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.oram.path_oram import PathOram
from repro.oram.pyramid import PyramidOram
from repro.oram.ring_oram import RingOram
from repro.oram.timing import OramMemoryModel
from repro.schemes import ProtectionScheme, get_scheme, register, unregister
from repro.schemes.stages import OramBackendStage
from repro.sim.engine import Engine, ns_to_ps
from repro.sim.statistics import StatRegistry
from repro.system.builder import build_system
from repro.system.config import MachineConfig


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"path", "ring", "pyramid", "palermo"} <= set(backend_names())

    def test_lookup_returns_descriptor(self):
        assert isinstance(get_backend("path"), PathOramBackend)
        assert isinstance(get_backend("ring"), RingOramBackend)
        assert isinstance(get_backend("pyramid"), PyramidOramBackend)
        assert isinstance(get_backend("palermo"), PalermoBackend)

    def test_unknown_backend_gets_close_match_hint(self):
        with pytest.raises(ConfigurationError, match="did you mean 'pyramid'"):
            get_backend("pyramind")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(PathOramBackend())

    def test_available_backends_lists_descriptors(self):
        names = [backend.name for backend in available_backends()]
        assert names == backend_names()


class TestDecompositions:
    def test_path_baseline_is_exactly_the_paper_constant(self):
        # x/2 + x/2 == x in floating point: the refactor must keep the
        # golden grid's 2500 ns bit-identical.
        decomposition = PathOramBackend().decompose()
        assert decomposition.latency_ns == 2500.0
        assert decomposition.blocks_read == 100
        assert decomposition.blocks_written == 100
        assert decomposition.cell_writes == 100
        assert decomposition.overlap_savings_ns == 0.0

    def test_palermo_overlap_collapses_steps(self):
        decomposition = PalermoBackend().decompose()
        # Three phases fold into one pipeline step: latency is the slowest
        # phase, not the sum.
        assert len(decomposition.steps()) == 1
        slowest = max(p.latency_ns for p in decomposition.phases)
        assert decomposition.latency_ns == slowest
        assert decomposition.overlap_savings_ns > 0
        assert decomposition.serialized_latency_ns > decomposition.latency_ns

    def test_latency_ordering_across_designs(self):
        latency = {
            name: get_backend(name).decompose().latency_ns
            for name in ("path", "ring", "pyramid", "palermo")
        }
        assert latency["palermo"] < latency["ring"]
        assert latency["ring"] < latency["pyramid"]
        assert latency["pyramid"] < latency["path"]

    def test_ring_bus_traffic_is_a_multiple_below_path(self):
        # The 24x-vs-120x flavor: Ring moves far fewer amortized blocks.
        path = PathOramBackend().decompose()
        ring = RingOramBackend().decompose()
        path_total = path.blocks_read + path.blocks_written
        ring_total = ring.blocks_read + ring.blocks_written
        assert ring_total < path_total / 4

    def test_with_latency_rescales_every_phase(self):
        base = RingOramBackend().decompose().latency_ns
        scaled = RingOramBackend().with_latency(5000.0).decompose().latency_ns
        assert scaled == pytest.approx(2 * base)

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            PathOramBackend(access_latency_ns=0)
        with pytest.raises(ConfigurationError):
            PathOramBackend().with_latency(-1.0)

    def test_first_phase_cannot_overlap(self):
        with pytest.raises(ConfigurationError):
            AccessDecomposition(
                phases=(AccessPhase("only", 1.0, overlapped=True),)
            )

    def test_phase_named_lookup(self):
        decomposition = PathOramBackend().decompose()
        assert decomposition.phase_named("writeback").cell_writes == 100
        with pytest.raises(KeyError):
            decomposition.phase_named("absent")

    def test_descriptors_pickle_round_trip(self):
        for backend in available_backends():
            clone = pickle.loads(pickle.dumps(backend))
            assert clone == backend
            assert clone.decompose() == backend.decompose()


class TestFunctionalFactories:
    def test_each_backend_constructs_its_algorithm(self):
        rng = DeterministicRng(11)
        assert isinstance(
            get_backend("path").make_functional(32, rng.fork("p")), PathOram
        )
        assert isinstance(
            get_backend("ring").make_functional(32, rng.fork("r")), RingOram
        )
        assert isinstance(
            get_backend("pyramid").make_functional(32, rng.fork("y")), PyramidOram
        )
        # Palermo keeps Ring's functional tree semantics (the co-design
        # changes timing, not the access algorithm).
        assert isinstance(
            get_backend("palermo").make_functional(32, rng.fork("m")), RingOram
        )

    def test_functional_instances_serve_a_workload(self):
        rng = DeterministicRng(13)
        for name in backend_names():
            kwargs = {} if name == "pyramid" else {"stash_limit": 512}
            oram = get_backend(name).make_functional(16, rng.fork(name), **kwargs)
            for block in range(16):
                oram.write(block, bytes([block]))
            for block in range(16):
                assert oram.read(block) == bytes([block])
            oram.check_invariant()


class TestTimingModelBackends:
    def _model(self, backend):
        return OramMemoryModel(Engine(), StatRegistry(), backend=backend)

    def test_model_accepts_backend_by_name(self):
        model = self._model("ring")
        assert model.backend.name == "ring"
        assert model.access_latency_ps == ns_to_ps(
            RingOramBackend().decompose().latency_ns
        )

    def test_model_charges_backend_traffic(self):
        from repro.mem.request import MemoryRequest, RequestType

        model = self._model("palermo")
        stats = model.stats
        model.issue(MemoryRequest(0, RequestType.READ), None)
        decomposition = PalermoBackend().decompose()
        assert stats.get("accesses") == 1
        assert stats.get("blocks_read") == decomposition.blocks_read
        assert stats.get("cell_block_writes") == decomposition.cell_writes


@dataclass(frozen=True)
class _TollboothBackend(OramBackend):
    """Custom test backend: one flat phase, registered by the test."""

    name: ClassVar[str] = "tollbooth"
    summary: ClassVar[str] = "flat-latency test backend"

    def decompose(self):
        return AccessDecomposition(
            phases=(AccessPhase("toll", self.access_latency_ns, blocks_read=1.0),)
        )

    def make_functional(self, num_blocks, rng, **kwargs):
        return PathOram(num_blocks, rng, **kwargs)


class TestCustomBackendEndToEnd:
    def test_registered_backend_builds_through_a_scheme(self):
        register_backend(_TollboothBackend())
        try:
            register(
                ProtectionScheme(
                    name="tollbooth_oram",
                    description="custom ORAM backend registered by a test",
                    stages=(OramBackendStage(backend="tollbooth"),),
                )
            )
            try:
                scheme = get_scheme("tollbooth_oram")
                assert scheme.stack_summary() == "oram-tollbooth"
                assert "opaque-backend" in scheme.traits
                system = build_system(
                    scheme,
                    MachineConfig(),
                    Engine(),
                    StatRegistry(),
                    DeterministicRng(1),
                )
                assert system.oram is not None
                assert system.oram.backend.name == "tollbooth"
                assert system.oram.access_latency_ps == ns_to_ps(
                    MachineConfig().oram_access_latency_ns
                )
            finally:
                unregister("tollbooth_oram")
        finally:
            unregister_backend("tollbooth")
