"""Golden-equivalence and scratch-pool tests for the mesh engines.

The numpy engine (`repro.perf.mesh_engine`) and the native C kernel
(`repro.perf.native`) must reproduce the reference automaton
(`repro.decoders.sfq_mesh._MeshState`) bit-for-bit: identical
corrections, cycle counts and convergence flags on every design variant.
These tests are the contract that lets the Monte-Carlo harness route all
decoding through the fast paths.

Native-kernel tests skip only when no C compiler (`cc`) is on PATH; with
a compiler present, a kernel that fails to build makes them fail.
"""

import shutil
import warnings

import numpy as np
import pytest

from repro.decoders import sfq_mesh
from repro.decoders.sfq_mesh import (
    MeshConfig,
    MeshDecoderFactory,
    SFQMeshDecoder,
    _MeshState,
)
from repro.montecarlo.thresholds import run_threshold_sweep
from repro.noise.models import DephasingChannel
from repro.perf import native
from repro.perf.buffers import CompactionPolicy, ScratchPool
from repro.perf.mesh_engine import FastMeshEngine
from repro.surface.lattice import SurfaceLattice

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler ('cc') on PATH"
)

VARIANTS = [
    MeshConfig.baseline(),
    MeshConfig.with_reset(),
    MeshConfig.with_reset_and_boundary(),
    MeshConfig.final(),
]


def _mixed_rate_syndromes(lattice, shots, seed):
    """Seeded syndrome batch spanning the paper's 1-12% rate grid."""
    rng = np.random.default_rng(seed)
    model = DephasingChannel()
    chunks = []
    per_rate = shots // 4
    for p in (0.01, 0.04, 0.08, 0.12):
        sample = model.sample(lattice, p, per_rate, rng)
        chunks.append(lattice.syndrome_of_z_errors(sample.z))
    return np.concatenate(chunks)


def assert_batches_equal(ref, fast):
    assert np.array_equal(ref.corrections, fast.corrections)
    assert np.array_equal(ref.cycles, fast.cycles)
    assert np.array_equal(ref.converged, fast.converged)


class TestGoldenEquivalence:
    @pytest.mark.parametrize(
        "config", VARIANTS, ids=[c.label() for c in VARIANTS]
    )
    def test_d5_1024_shots_per_variant(self, config):
        """Acceptance: >=1000 seeded shots per MeshConfig variant."""
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice, config=config)
        syndromes = _mixed_rate_syndromes(lattice, 1024, seed=7042)
        ref = decoder.decode_arrays(syndromes, engine="reference")
        fast = decoder.decode_arrays(syndromes, engine="fast")
        assert_batches_equal(ref, fast)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "config", VARIANTS, ids=[c.label() for c in VARIANTS]
    )
    @pytest.mark.parametrize("d", [3, 7, 9])
    def test_other_distances(self, d, config):
        lattice = SurfaceLattice(d)
        decoder = SFQMeshDecoder(lattice, config=config)
        syndromes = _mixed_rate_syndromes(lattice, 256, seed=100 + d)
        ref = decoder.decode_arrays(syndromes, engine="reference")
        fast = decoder.decode_arrays(syndromes, engine="fast")
        assert_batches_equal(ref, fast)

    def test_x_orientation(self):
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice, error_type="x")
        rng = np.random.default_rng(99)
        errors = (rng.random((400, lattice.n_data)) < 0.05).astype(np.uint8)
        syndromes = lattice.syndrome_of_x_errors(errors)
        ref = decoder.decode_arrays(syndromes, engine="reference")
        fast = decoder.decode_arrays(syndromes, engine="fast")
        assert_batches_equal(ref, fast)

    def test_empty_and_trivial_batches(self):
        lattice = SurfaceLattice(3)
        decoder = SFQMeshDecoder(lattice)
        empty = np.zeros((0, lattice.n_x_ancillas), dtype=np.uint8)
        out = decoder.decode_arrays(empty, engine="fast")
        assert out.corrections.shape == (0, lattice.n_data)
        quiet = np.zeros((5, lattice.n_x_ancillas), dtype=np.uint8)
        out = decoder.decode_arrays(quiet, engine="fast")
        assert not out.corrections.any()
        assert np.array_equal(out.cycles, np.zeros(5, dtype=np.int64))
        assert out.converged.all()

    def test_engine_reuse_across_batches(self):
        """One cached engine decodes successive batches of varying size."""
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice)
        rng = np.random.default_rng(4)
        for shots in (64, 200, 64, 513):
            sample = DephasingChannel().sample(lattice, 0.06, shots, rng)
            syndromes = lattice.syndrome_of_z_errors(sample.z)
            ref = decoder.decode_arrays(syndromes, engine="reference")
            fast = decoder.decode_arrays(syndromes, engine="fast")
            assert_batches_equal(ref, fast)
        assert "fast" in decoder._engines

    def test_unknown_engine_rejected(self):
        lattice = SurfaceLattice(3)
        decoder = SFQMeshDecoder(lattice)
        syn = np.zeros((1, lattice.n_x_ancillas), dtype=np.uint8)
        with pytest.raises(ValueError):
            decoder.decode_arrays(syn, engine="warp")


class TestCompaction:
    def _early_finisher_batch(self, lattice):
        """Batch where most shots finish early, forcing compaction.

        A few far-separated syndromes decode slowly; the rest are
        adjacent pairs that pair off within a handful of cycles, so the
        live window shrinks fast while the heavy shots are mid-flight.
        """
        n = lattice.n_x_ancillas
        syndromes = np.zeros((96, n), dtype=np.uint8)
        slow = lattice.x_syndrome_vector_from_coords([(1, 0), (7, 8)])
        quick = lattice.x_syndrome_vector_from_coords([(3, 2), (5, 2)])
        for i in range(96):
            if i % 16 == 0:
                syndromes[i] = slow
            elif i % 3 != 0:  # leave some shots empty
                syndromes[i] = quick
        return syndromes

    def test_fast_engine_compaction_preserves_shot_mapping(self):
        """Compacted and never-compacted runs must agree shot-for-shot."""
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice)
        syndromes = self._early_finisher_batch(lattice)

        eager = FastMeshEngine(
            decoder, capacity=96,
            policy=CompactionPolicy(dead_fraction=0.01, min_dead=1),
        )
        never = FastMeshEngine(
            decoder, capacity=96, policy=CompactionPolicy.never()
        )
        outs = {}
        for name, engine in (("eager", eager), ("never", never)):
            corr = np.zeros((96, lattice.n_data), dtype=np.uint8)
            cycles = np.zeros(96, dtype=np.int64)
            conv = np.ones(96, dtype=bool)
            engine.decode(syndromes, corr, cycles, conv)
            outs[name] = (corr, cycles, conv)
        # The eager policy must actually have compacted mid-run.
        assert eager.n < 96
        for a, b in zip(outs["eager"], outs["never"]):
            assert np.array_equal(a, b)

    def test_reference_compaction_preserves_shot_mapping(self, monkeypatch):
        """`_MeshState._maybe_compact` keeps original shot indices/results."""
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice)
        syndromes = self._early_finisher_batch(lattice)
        compacted = decoder.decode_arrays(syndromes, engine="reference")
        monkeypatch.setattr(_MeshState, "_maybe_compact", lambda self: None)
        plain = decoder.decode_arrays(syndromes, engine="reference")
        assert_batches_equal(compacted, plain)

    def test_compaction_policy_thresholds(self):
        policy = CompactionPolicy(dead_fraction=0.25, min_dead=16)
        assert not policy.should_compact(live=100, dead=0)
        assert not policy.should_compact(live=100, dead=15)  # min floor
        assert policy.should_compact(live=100, dead=25)
        assert policy.should_compact(live=8, dead=16)
        assert not CompactionPolicy.never().should_compact(live=1, dead=10**9)


class TestScratchPool:
    def test_buffers_are_cached_by_name(self):
        pool = ScratchPool(4, 3, 2)
        a = pool.plane("x")
        assert pool.plane("x") is a
        assert pool.nbytes >= a.nbytes

    def test_shape_conflicts_rejected(self):
        pool = ScratchPool(4, 3, 2)
        pool.plane("x")
        with pytest.raises(ValueError):
            pool.take("x", (4, 3, 2), np.int8)

    def test_capacity_growth_reallocates(self):
        lattice = SurfaceLattice(3)
        decoder = SFQMeshDecoder(lattice)
        engine = FastMeshEngine(decoder, capacity=8)
        syndromes = np.zeros((32, lattice.n_x_ancillas), dtype=np.uint8)
        syndromes[:, 0] = 1
        corr = np.zeros((32, lattice.n_data), dtype=np.uint8)
        cycles = np.zeros(32, dtype=np.int64)
        conv = np.ones(32, dtype=bool)
        engine.decode(syndromes, corr, cycles, conv)
        assert engine.capacity >= 32
        ref = decoder.decode_arrays(syndromes, engine="reference")
        assert np.array_equal(ref.corrections, corr)
        assert np.array_equal(ref.cycles, cycles)


@needs_cc
class TestNativeEngine:
    @pytest.mark.parametrize(
        "config", VARIANTS, ids=[c.label() for c in VARIANTS]
    )
    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
    def test_golden_vs_reference(self, d, config):
        lattice = SurfaceLattice(d)
        decoder = SFQMeshDecoder(lattice, config=config)
        syndromes = _mixed_rate_syndromes(lattice, 96, seed=300 + d)
        ref = decoder.decode_arrays(syndromes, engine="reference")
        nat = decoder.decode_arrays(syndromes, engine="native")
        assert_batches_equal(ref, nat)
        assert (ref.engine, nat.engine) == ("reference", "native")

    def test_x_orientation(self):
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice, error_type="x")
        rng = np.random.default_rng(5)
        errors = (rng.random((300, lattice.n_data)) < 0.06).astype(np.uint8)
        syndromes = lattice.syndrome_of_x_errors(errors)
        assert_batches_equal(
            decoder.decode_arrays(syndromes, engine="reference"),
            decoder.decode_arrays(syndromes, engine="native"),
        )

    @pytest.mark.parametrize("shots", [0, 1, 7, 33])
    def test_batch_sizes(self, shots):
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice)
        syndromes = _mixed_rate_syndromes(lattice, 64, seed=shots)[:shots]
        nat = decoder.decode_arrays(syndromes, engine="native")
        assert nat.corrections.shape == (shots, lattice.n_data)
        assert_batches_equal(
            decoder.decode_arrays(syndromes, engine="reference"), nat
        )

    @pytest.mark.parametrize("engine", ["fast", "native"])
    def test_batch_larger_than_cached_capacity(self, engine):
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice)
        syndromes = _mixed_rate_syndromes(lattice, 400, seed=8)
        decoder.decode_arrays(syndromes[:8], engine=engine)
        assert_batches_equal(
            decoder.decode_arrays(syndromes, engine="reference"),
            decoder.decode_arrays(syndromes, engine=engine),
        )

    def test_all_quiet(self):
        lattice = SurfaceLattice(7)
        decoder = SFQMeshDecoder(lattice)
        quiet = np.zeros((9, lattice.n_x_ancillas), dtype=np.uint8)
        out = decoder.decode_arrays(quiet, engine="native")
        assert not out.corrections.any()
        assert np.array_equal(out.cycles, np.zeros(9, dtype=np.int64))
        assert out.converged.all()

    def test_non_contiguous_inputs(self):
        lattice = SurfaceLattice(5)
        decoder = SFQMeshDecoder(lattice)
        syndromes = _mixed_rate_syndromes(lattice, 256, seed=3)
        expected = decoder.decode_arrays(syndromes[::2], engine="reference")
        strided, fortran = syndromes[::2], np.asfortranarray(syndromes[::2])
        assert not strided.flags.c_contiguous
        assert not fortran.flags.c_contiguous
        for view in (strided, fortran, strided.astype(bool)):
            assert_batches_equal(
                expected, decoder.decode_arrays(view, engine="native")
            )

    def test_rejects_mismatched_buffers(self):
        lattice = SurfaceLattice(3)
        engine = SFQMeshDecoder(lattice)._engine("native", 2)
        syn = np.zeros((2, lattice.n_x_ancillas), dtype=np.uint8)
        corr = np.zeros((2, lattice.n_data), dtype=np.uint8)
        cycles = np.zeros(2, dtype=np.int64)
        conv = np.ones(2, dtype=bool)
        with pytest.raises(ValueError):
            engine.decode(syn[:, 1:], corr, cycles, conv)
        with pytest.raises(ValueError):
            engine.decode(syn, corr, cycles.astype(np.int32), conv)
        with pytest.raises(ValueError):
            engine.decode(syn, corr[:1], cycles, conv)
        engine.decode(syn, corr, cycles, conv)
        assert not corr.any() and conv.all()

    def test_default_engine_is_native(self):
        assert native.load_kernel() is not None, native.build_error()
        lattice = SurfaceLattice(3)
        decoder = SFQMeshDecoder(lattice)
        syn = _mixed_rate_syndromes(lattice, 16, seed=1)
        assert decoder.decode_arrays(syn).engine == "native"
        assert sfq_mesh.DEFAULT_ENGINE == "native"
        assert decoder.decode_batch(syn).metadata == {"engine": "native"}

    def test_sweep_identical_for_any_worker_count(self):
        kw = dict(
            decoder_factory=MeshDecoderFactory(MeshConfig.final()),
            model=DephasingChannel(),
            distances=[3, 5],
            physical_rates=[0.03, 0.08],
            trials=200,
            seed=13,
        )
        serial = run_threshold_sweep(workers=1, **kw)
        parallel = run_threshold_sweep(workers=2, **kw)
        for d in kw["distances"]:
            for a, b in zip(serial.results[d], parallel.results[d]):
                assert a.engine == b.engine == "native"
                assert (a.failures, a.inconsistent, a.nonconverged) == (
                    b.failures, b.inconsistent, b.nonconverged
                )
                assert np.array_equal(a.cycles, b.cycles)
        assert serial.as_rows() == parallel.as_rows()
        assert {row["engine"] for row in serial.as_rows()} == {"native"}


class TestNativeBuild:
    def _fresh(self, monkeypatch, tmp_path):
        """Forget any loaded kernel and build into ``tmp_path``."""
        monkeypatch.setattr(native, "_tried", False)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_error", None)
        monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")

    def test_missing_compiler_falls_back_with_one_warning(
        self, monkeypatch, tmp_path
    ):
        self._fresh(monkeypatch, tmp_path)
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        monkeypatch.setattr(sfq_mesh, "DEFAULT_ENGINE", "native")
        lattice = SurfaceLattice(3)
        decoder = SFQMeshDecoder(lattice)
        syn = _mixed_rate_syndromes(lattice, 16, seed=2)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            out = decoder.decode_arrays(syn)
        assert out.engine == "fast"
        assert sfq_mesh.DEFAULT_ENGINE == "fast"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the warning is emitted once
            assert decoder.decode_arrays(syn).engine == "fast"
        assert_batches_equal(
            decoder.decode_arrays(syn, engine="reference"), out
        )
        with pytest.raises(RuntimeError, match="no C compiler"):
            decoder.decode_arrays(syn, engine="native")

    @needs_cc
    def test_compiler_error_is_reported(self, monkeypatch, tmp_path):
        self._fresh(monkeypatch, tmp_path)
        broken = tmp_path / "mesh_kernel.c"
        broken.write_text("int mesh_decode(void) { return }\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        assert native.load_kernel() is None
        assert "failed" in native.build_error()
        assert "mesh_kernel.c" in native.build_error()
        assert not list((tmp_path / "cache").glob("*"))  # no partial .so

    @needs_cc
    def test_build_is_cached_by_source_hash(self, monkeypatch, tmp_path):
        self._fresh(monkeypatch, tmp_path)
        first = native._build()
        stamp = first.stat().st_mtime_ns
        assert first.parent == tmp_path / "cache"
        assert native._build() == first
        assert first.stat().st_mtime_ns == stamp  # reused, not rebuilt
        assert native.load_kernel() is not None

