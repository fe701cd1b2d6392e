"""Batched-decode equivalence: ``decode_batch`` === per-shot ``decode``.

The PR-3 tentpole contract: every decoder's vectorized batch path must
produce bit-identical corrections (and metadata, where defined) to its
per-shot golden path, across distances, orientations and error models.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoders import (
    BatchDecodeResult,
    GreedyMatchingDecoder,
    LookupDecoder,
    MaximumLikelihoodDecoder,
    MWPMDecoder,
    SFQMeshDecoder,
    UnionFindDecoder,
    base,
    geometry,
    mwpm,
)
from repro.decoders.mwpm import matching_weight
from repro.noise.models import (
    BitFlipChannel,
    DephasingChannel,
    DepolarizingChannel,
)
from repro.surface.lattice import SurfaceLattice

BITWISE_IDENTICAL = [GreedyMatchingDecoder, UnionFindDecoder, MWPMDecoder]
MODELS = [DephasingChannel(), BitFlipChannel(), DepolarizingChannel()]


def syndromes_for(decoder, model, p, batch, rng):
    lattice = decoder.lattice
    sample = model.sample(lattice, p, batch, rng)
    errors = sample.z if decoder.error_type == "z" else sample.x
    return decoder.geometry.syndrome_of_errors(errors)


class TestBatchEqualsDecode:
    @pytest.mark.parametrize("cls", BITWISE_IDENTICAL)
    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    @pytest.mark.parametrize("error_type", ["z", "x"])
    def test_all_distances(self, cls, d, error_type):
        rng = np.random.default_rng(1000 + d)
        decoder = cls(SurfaceLattice(d), error_type)
        syndromes = syndromes_for(
            decoder, DephasingChannel(), 0.08, 24, rng
        )
        batch = decoder.decode_batch(syndromes)
        assert isinstance(batch, BatchDecodeResult)
        for i, syn in enumerate(syndromes):
            single = decoder.decode(syn)
            assert np.array_equal(single.correction, batch.corrections[i])
            assert batch.converged[i]

    @pytest.mark.parametrize("cls", BITWISE_IDENTICAL)
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_all_error_models(self, cls, model):
        rng = np.random.default_rng(7)
        decoder = cls(SurfaceLattice(5))
        syndromes = syndromes_for(decoder, model, 0.1, 20, rng)
        batch = decoder.decode_batch(syndromes)
        for i, syn in enumerate(syndromes):
            assert np.array_equal(
                decoder.decode(syn).correction, batch.corrections[i]
            )

    @pytest.mark.parametrize(
        "cls", [LookupDecoder, MaximumLikelihoodDecoder]
    )
    def test_small_lattice_decoders(self, cls, lattice3, rng):
        decoder = cls(lattice3)
        syndromes = syndromes_for(
            decoder, DephasingChannel(), 0.12, 40, rng
        )
        batch = decoder.decode_batch(syndromes)
        for i, syn in enumerate(syndromes):
            assert np.array_equal(
                decoder.decode(syn).correction, batch.corrections[i]
            )

    def test_mesh_batch_matches_decode_arrays(self, lattice3, rng):
        decoder = SFQMeshDecoder(lattice3)
        syndromes = syndromes_for(
            decoder, DephasingChannel(), 0.1, 16, rng
        )
        batch = decoder.decode_batch(syndromes)
        arrays = decoder.decode_arrays(syndromes)
        assert np.array_equal(batch.corrections, arrays.corrections)
        assert np.array_equal(batch.cycles, arrays.cycles)
        assert np.array_equal(batch.converged, arrays.converged)

    @given(st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_property_randomized(self, seed):
        """Random seeds, both orientations, both hot decoders (d=5)."""
        rng = np.random.default_rng(seed)
        lattice = SurfaceLattice(5)
        for cls in (UnionFindDecoder, GreedyMatchingDecoder):
            for error_type in ("z", "x"):
                decoder = cls(lattice, error_type)
                syndromes = syndromes_for(
                    decoder, DephasingChannel(), 0.15, 6, rng
                )
                batch = decoder.decode_batch(syndromes)
                for i, syn in enumerate(syndromes):
                    assert np.array_equal(
                        decoder.decode(syn).correction,
                        batch.corrections[i],
                    ), (cls.name, error_type, seed, i)


class TestUnionFindMetadata:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_growth_rounds_match(self, d, rng):
        decoder = UnionFindDecoder(SurfaceLattice(d))
        syndromes = syndromes_for(
            decoder, DephasingChannel(), 0.1, 20, rng
        )
        batch = decoder.decode_batch(syndromes)
        rounds = batch.metadata["growth_rounds"]
        for i, syn in enumerate(syndromes):
            expected = decoder.decode(syn).metadata.get("growth_rounds", 0)
            assert rounds[i] == expected


class TestMWPMEngines:
    """Fast engine: weight-optimal like the blossom golden path."""

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_fast_matches_reference_weight(self, d, rng):
        lattice = SurfaceLattice(d)
        fast = MWPMDecoder(lattice)
        reference = MWPMDecoder(lattice, engine="reference")
        geo = fast.geometry
        syndromes = syndromes_for(fast, DephasingChannel(), 0.08, 15, rng)
        for syn in syndromes:
            rf = fast.decode(syn)
            rr = reference.decode(syn)
            assert matching_weight(geo, rf.pairs) == matching_weight(
                geo, rr.pairs
            )
            assert fast.verify_correction(syn, rf)

    def test_reference_engine_batch_is_per_shot(self, lattice5, rng):
        decoder = MWPMDecoder(lattice5, engine="reference")
        syndromes = syndromes_for(
            decoder, DephasingChannel(), 0.1, 8, rng
        )
        batch = decoder.decode_batch(syndromes)
        for i, syn in enumerate(syndromes):
            assert np.array_equal(
                decoder.decode(syn).correction, batch.corrections[i]
            )

    def test_unknown_engine_rejected(self, lattice3):
        with pytest.raises(ValueError):
            MWPMDecoder(lattice3, engine="quantum")

    #: sha256 of the fast engine's ``decode_batch`` corrections on the
    #: fixed workload below, computed with the per-shot split that
    #: preceded the batched one: the batched split must be bit-identical
    GOLDEN_DIGEST = (
        "008c81b06820ffd46dc9338e8a70bb2dce1e65c4334bf45099e84ef080a56231"
    )

    def test_fast_engine_golden_digest(self):
        digest = hashlib.sha256()
        for d in (3, 5, 7, 9, 11):
            lattice = SurfaceLattice(d)
            for error_type in ("z", "x"):
                decoder = MWPMDecoder(lattice, error_type)
                for p in (0.01, 0.05, 0.1):
                    rng = np.random.default_rng(
                        [d, error_type == "x", int(p * 1000)]
                    )
                    sample = DepolarizingChannel().sample(lattice, p, 48, rng)
                    errors = sample.z if error_type == "z" else sample.x
                    syndromes = decoder.geometry.syndrome_of_errors(errors)
                    corrections = decoder.decode_batch(syndromes).corrections
                    digest.update(np.ascontiguousarray(corrections).tobytes())
        assert digest.hexdigest() == self.GOLDEN_DIGEST


def assert_batch_rows_match_decode(decoder, syndromes):
    """``decode_batch`` equals ``decode`` row by row, and every
    ``decode`` correction is the one its reported pairs imply."""
    batch = decoder.decode_batch(syndromes)
    assert batch.corrections.shape == (len(syndromes), decoder.lattice.n_data)
    assert batch.corrections.dtype == np.uint8
    assert batch.converged.all()
    geo = decoder.geometry
    for i, syn in enumerate(np.asarray(syndromes)):
        single = decoder.decode(syn)
        assert np.array_equal(single.correction, batch.corrections[i]), i
        assert np.array_equal(
            geo.correction_from_pairs(single.pairs), single.correction
        )
    return batch


class TestMWPMBatchedSplit:
    """Edge cases of the fast engine's one-call component split."""

    @pytest.fixture
    def decoder(self, lattice5):
        return MWPMDecoder(lattice5)

    def noisy(self, decoder, p=0.1, batch=24, seed=5):
        rng = np.random.default_rng(seed)
        return syndromes_for(decoder, DephasingChannel(), p, batch, rng)

    def test_empty_batch(self, decoder):
        n = decoder.geometry.n_syndromes
        batch = decoder.decode_batch(np.zeros((0, n), dtype=np.uint8))
        assert batch.corrections.shape == (0, decoder.lattice.n_data)
        assert len(batch.converged) == 0

    def test_all_quiet_batch(self, decoder):
        n = decoder.geometry.n_syndromes
        batch = assert_batch_rows_match_decode(
            decoder, np.zeros((5, n), dtype=np.uint8)
        )
        assert not batch.corrections.any()

    def test_one_shot(self, decoder):
        syndromes = self.noisy(decoder)
        hot = syndromes[syndromes.sum(axis=1) >= 3][:1]
        assert len(hot) == 1
        assert_batch_rows_match_decode(decoder, hot)

    @pytest.mark.parametrize("layout", ["bool", "strided", "fortran"])
    def test_input_layouts(self, decoder, layout):
        syndromes = self.noisy(decoder)
        expected = decoder.decode_batch(syndromes).corrections
        if layout == "bool":
            arranged = syndromes.astype(bool)
        elif layout == "strided":
            wide = np.zeros(
                (2 * len(syndromes), 2 * syndromes.shape[1]), dtype=np.uint8
            )
            wide[::2, ::2] = syndromes
            arranged = wide[::2, ::2]
            assert not arranged.flags.c_contiguous
        else:
            arranged = np.asfortranarray(syndromes)
            assert not arranged.flags.c_contiguous
        batch = assert_batch_rows_match_decode(decoder, arranged)
        assert np.array_equal(batch.corrections, expected)

    def test_components_beyond_dp_take_branch_and_bound(self):
        decoder = MWPMDecoder(SurfaceLattice(9))
        syndromes = self.noisy(decoder, p=0.15, batch=16)
        assert_batch_rows_match_decode(decoder, syndromes)
        assert any(len(key) > mwpm._DP_MAX for key in decoder._match_memo)

    def test_blossom_fallback(self, monkeypatch):
        calls = []
        blossom = mwpm._blossom_match

        def counting(geometry, key):
            calls.append(key)
            return blossom(geometry, key)

        monkeypatch.setattr(mwpm, "_BNB_NODE_CAP", 0)
        monkeypatch.setattr(mwpm, "_blossom_match", counting)
        lattice = SurfaceLattice(9)
        decoder = MWPMDecoder(lattice)
        syndromes = self.noisy(decoder, p=0.15, batch=16)
        assert_batch_rows_match_decode(decoder, syndromes)
        assert calls
        reference = MWPMDecoder(lattice, engine="reference")
        for syn in syndromes:
            assert matching_weight(
                decoder.geometry, decoder.decode(syn).pairs
            ) == matching_weight(
                decoder.geometry, reference.decode(syn).pairs
            )

    def test_no_correction_tables(self, monkeypatch, lattice5):
        with_tables = MWPMDecoder(lattice5)
        syndromes = self.noisy(with_tables)
        expected = with_tables.decode_batch(syndromes).corrections
        monkeypatch.setattr(
            geometry, "_CORRECTION_TABLE_MAX_BYTES", 0
        )
        decoder = MWPMDecoder(lattice5)
        assert decoder.geometry.correction_tables is None
        batch = assert_batch_rows_match_decode(decoder, syndromes)
        assert np.array_equal(batch.corrections, expected)


class TestDecodeMemoCap:
    """Cross-call memos stay bounded in a long-lived decoder."""

    @pytest.mark.parametrize(
        "cls, attr",
        [(MWPMDecoder, "_match_memo"), (UnionFindDecoder, "_peel_memo")],
    )
    def test_memo_never_exceeds_cap(self, monkeypatch, cls, attr):
        lattice = SurfaceLattice(7)
        uncapped = cls(lattice)
        rng = np.random.default_rng(11)
        batches = [
            syndromes_for(uncapped, DephasingChannel(), 0.06, 32, rng)
            for _ in range(6)
        ]
        expected = [uncapped.decode_batch(s).corrections for s in batches]
        assert len(getattr(uncapped, attr)) > 8

        class PeakDict(dict):
            peak = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.peak = max(self.peak, len(self))

        monkeypatch.setattr(base, "MEMO_MAX_ENTRIES", 8)
        capped = cls(lattice)
        memo = PeakDict()
        setattr(capped, attr, memo)
        for syndromes, want in zip(batches, expected):
            assert np.array_equal(capped.decode_batch(syndromes).corrections,
                                  want)
        assert memo.peak == 8


class TestBatchResultStructure:
    def test_empty_batch(self, lattice3):
        decoder = GreedyMatchingDecoder(lattice3)
        batch = decoder.decode_batch(
            np.zeros((0, lattice3.n_x_ancillas), dtype=np.uint8)
        )
        assert len(batch) == 0
        assert batch.corrections.shape == (0, lattice3.n_data)

    def test_zero_syndromes_give_zero_corrections(self, lattice5):
        for cls in BITWISE_IDENTICAL:
            decoder = cls(lattice5)
            batch = decoder.decode_batch(
                np.zeros((3, lattice5.n_x_ancillas), dtype=np.uint8)
            )
            assert not batch.corrections.any()

    def test_shape_validation(self, lattice5):
        decoder = UnionFindDecoder(lattice5)
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros((4, 3), dtype=np.uint8))

    def test_getitem_materializes_decode_result(self, lattice3, rng):
        decoder = SFQMeshDecoder(lattice3)
        syndromes = syndromes_for(
            decoder, DephasingChannel(), 0.1, 5, rng
        )
        batch = decoder.decode_batch(syndromes)
        one = batch[2]
        assert np.array_equal(one.correction, batch.corrections[2])
        assert one.cycles == batch.cycles[2]

    def test_from_results_stacks(self, lattice3, rng):
        decoder = LookupDecoder(lattice3)
        syndromes = syndromes_for(
            decoder, DephasingChannel(), 0.1, 4, rng
        )
        stacked = BatchDecodeResult.from_results(
            [decoder.decode(s) for s in syndromes]
        )
        assert np.array_equal(
            stacked.corrections, decoder.decode_batch(syndromes).corrections
        )
