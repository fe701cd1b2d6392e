"""Single-round Monte-Carlo trials (the paper's lifetime benchmarking unit).

With perfect syndrome extraction (the paper's headline operating point) a
multi-cycle lifetime simulation factorizes into independent rounds, so the
logical error rate per cycle equals the single-shot failure rate estimated
here.  :mod:`repro.montecarlo.lifetime` runs the explicit multi-round
version through the stabilizer-circuit substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..decoders.base import Decoder
from ..decoders.sfq_mesh import SFQMeshDecoder
from ..noise.models import ErrorModel
from ..surface.lattice import SurfaceLattice
from .stats import RateEstimate


@dataclass
class TrialResult:
    """Aggregated outcome of a batch of single-round decode trials."""

    d: int
    p: float
    trials: int
    failures: int
    error_model: str
    decoder: str
    #: decoder cycles per shot (mesh decoder only)
    cycles: Optional[np.ndarray] = None
    #: shots whose correction did not reproduce the syndrome
    inconsistent: int = 0
    #: shots where the decoder gave up (watchdog)
    nonconverged: int = 0
    metadata: dict = field(default_factory=dict)
    #: decode backend that ran (mesh decoder: "native", "fast" or
    #: "reference"; ``None`` for decoders that do not report one)
    engine: Optional[str] = None

    @property
    def logical_error_rate(self) -> float:
        # Empty runs (trials == 0) report a 0.0 rate rather than raising.
        return self.failures / self.trials if self.trials else 0.0

    @property
    def estimate(self) -> RateEstimate:
        return RateEstimate(self.failures, self.trials)


class SampleDecoder:
    """Decodes :class:`~repro.noise.models.PauliErrorSample` batches.

    Wraps a Z-orientation decoder, lazily constructs the matching
    X-orientation decoder the first time a sample carries X errors (the
    paper's "operated symmetrically" protocol), and accumulates decode
    statistics across calls.  Both :func:`run_trials` and the
    weight-stratified importance sampler
    (:mod:`repro.montecarlo.importance`) count failures through this
    class, so their estimates share identical decode semantics.
    """

    def __init__(self, lattice: SurfaceLattice, decoder: Decoder) -> None:
        self.lattice = lattice
        self.decoder = decoder
        self.x_decoder: Optional[Decoder] = None
        self.inconsistent = 0
        self.nonconverged = 0
        self.cycles_chunks: list = []
        self.both_orientations = False
        self.engines: set = set()

    def failures(self, sample) -> np.ndarray:
        """Boolean failure mask for one sample batch (either orientation)."""
        fail, stats = _decode_orientation(
            self.lattice, self.decoder, sample.z, "z"
        )
        self.inconsistent += stats["inconsistent"]
        self.nonconverged += stats["nonconverged"]
        self.engines.add(stats["engine"])
        if stats["cycles"] is not None:
            self.cycles_chunks.append(stats["cycles"])
        if sample.x.any():
            self.both_orientations = True
            if self.x_decoder is None:
                self.x_decoder = type(self.decoder)(
                    self.lattice, error_type="x", **_extra_kwargs(self.decoder)
                )
            x_fail, x_stats = _decode_orientation(
                self.lattice, self.x_decoder, sample.x, "x"
            )
            self.inconsistent += x_stats["inconsistent"]
            self.nonconverged += x_stats["nonconverged"]
            self.engines.add(x_stats["engine"])
            fail = fail | x_fail
        return fail

    @property
    def cycles(self) -> Optional[np.ndarray]:
        if not self.cycles_chunks:
            return None
        return np.concatenate(self.cycles_chunks)

    @property
    def engine(self) -> Optional[str]:
        """The decode backend(s) that ran, ``"+"``-joined if several."""
        return "+".join(sorted(e for e in self.engines if e)) or None


def run_trials(
    lattice: SurfaceLattice,
    decoder: Decoder,
    model: ErrorModel,
    p: float,
    trials: int,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 2048,
) -> TrialResult:
    """Estimate the per-round logical failure rate of ``decoder``.

    Pure-Z (dephasing) and pure-X (bit-flip) channels exercise one decoding
    orientation; the depolarizing channel decodes both orientations with
    independent decoders of the same class (as the paper's "operated
    symmetrically" protocol) and counts a failure when either logical
    operator flips.
    """
    rng = rng or np.random.default_rng()
    runner = SampleDecoder(lattice, decoder)
    failures = 0
    done = 0
    while done < trials:
        batch = min(batch_size, trials - done)
        sample = model.sample(lattice, p, batch, rng)
        failures += int(runner.failures(sample).sum())
        done += batch
    return TrialResult(
        d=lattice.d,
        p=p,
        trials=trials,
        failures=failures,
        error_model=model.name,
        decoder=decoder.name,
        cycles=runner.cycles,
        inconsistent=runner.inconsistent,
        nonconverged=runner.nonconverged,
        metadata={"both_orientations": runner.both_orientations},
        engine=runner.engine,
    )


def _extra_kwargs(decoder: Decoder) -> dict:
    if isinstance(decoder, SFQMeshDecoder):
        return {"config": decoder.config}
    return {}


def _decode_orientation(lattice, decoder, errors, orientation):
    """Decode one orientation's error batch through ``decode_batch``.

    Every decoder flows through the batched API (the mesh backend's
    ``decode_arrays`` included); the syndrome computation and the
    correction-consistency check share the geometry's cached check
    support table, so no per-shot Python remains on this path.
    """
    geometry = decoder.geometry
    syndromes = geometry.syndrome_of_errors(errors)
    out = decoder.decode_batch(syndromes)
    corrections = out.corrections
    stats = {
        "inconsistent": 0,
        "nonconverged": int(np.sum(~out.converged)),
        "cycles": out.cycles,
        "engine": out.metadata.get("engine"),
    }
    produced = geometry.syndrome_of_errors(corrections)
    stats["inconsistent"] = int(np.sum(np.any(produced != syndromes, axis=1)))
    residual = errors ^ corrections
    return geometry.logical_failure(residual), stats
