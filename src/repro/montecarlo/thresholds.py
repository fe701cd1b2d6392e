"""Threshold and pseudo-threshold estimation (paper section VII metrics).

* The **accuracy threshold** is the physical error rate at which logical
  error curves for different code distances cross: below it, larger codes
  suppress errors more; above it, they amplify.
* The **pseudo-threshold** of a single code distance is the physical rate
  at which the logical rate equals the physical rate (``PL = p``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..decoders.base import Decoder
from ..noise.models import ErrorModel
from ..surface.lattice import SurfaceLattice
from .stats import loglog_crossing, pseudo_threshold
from .trial import TrialResult

DecoderFactory = Callable[[SurfaceLattice], Decoder]


@dataclass
class ThresholdSweep:
    """Logical error rates over a (code distance x physical rate) grid."""

    distances: List[int]
    physical_rates: List[float]
    #: results[d][i] is the TrialResult at physical_rates[i]
    results: Dict[int, List[TrialResult]] = field(default_factory=dict)

    def logical_rates(self, d: int) -> np.ndarray:
        return np.array([r.logical_error_rate for r in self.results[d]])

    @property
    def total_trials(self) -> int:
        """Decoded shots behind the sweep (sum over independent cells).

        :class:`repro.montecarlo.adaptive.AdaptiveSweep` overrides this:
        its cells share one weight-resolved profile per distance, so the
        per-cell trial numbers must not be summed per column.
        """
        return sum(r.trials for row in self.results.values() for r in row)

    # ------------------------------------------------------------------
    def pseudo_thresholds(self) -> Dict[int, Optional[float]]:
        """Per-distance PL = p crossing points."""
        return {
            d: pseudo_threshold(self.physical_rates, self.logical_rates(d))
            for d in self.distances
        }

    def accuracy_threshold(
        self, min_failures: int = 3, exclude: Sequence[int] = ()
    ) -> Optional[float]:
        """Median pairwise crossing point of the per-distance curves.

        Crossings are only trusted where both curves rest on at least
        ``min_failures`` observed failures: with finite Monte-Carlo
        budgets the deep-suppression region produces spurious crossings
        between statistically indistinguishable near-zero estimates.

        ``exclude`` drops code distances from the estimate — the paper
        itself reads its threshold "barring the anomalous d = 3
        behaviour" caused by boundary prioritization on small lattices.
        """
        distances = [d for d in self.distances if d not in set(exclude)]
        crossings = []
        for d1, d2 in itertools.combinations(distances, 2):
            reliable = [
                i
                for i in range(len(self.physical_rates))
                if self.results[d1][i].failures >= min_failures
                and self.results[d2][i].failures >= min_failures
            ]
            if len(reliable) < 2:
                continue
            crossing = loglog_crossing(
                [self.physical_rates[i] for i in reliable],
                [self.logical_rates(d1)[i] for i in reliable],
                [self.logical_rates(d2)[i] for i in reliable],
            )
            if crossing is not None:
                crossings.append(crossing)
        if not crossings:
            return None
        return float(np.median(crossings))

    # ------------------------------------------------------------------
    def as_rows(self) -> List[dict]:
        """Flat records for tabular output/serialization."""
        rows = []
        for d in self.distances:
            for result in self.results[d]:
                lo, hi = result.estimate.interval
                rows.append(
                    {
                        "d": d,
                        "p": result.p,
                        "logical_error_rate": result.logical_error_rate,
                        "ci_low": lo,
                        "ci_high": hi,
                        "trials": result.trials,
                        "decoder": result.decoder,
                        "engine": result.engine,
                    }
                )
        return rows


def run_threshold_sweep(
    decoder_factory: DecoderFactory,
    model: ErrorModel,
    distances: Sequence[int],
    physical_rates: Sequence[float],
    trials: int,
    seed: Optional[int] = None,
    workers: int = 1,
) -> ThresholdSweep:
    """Monte-Carlo sweep over the (d, p) grid.

    ``decoder_factory`` builds a fresh decoder per lattice, so sweeps can
    compare mesh variants and software baselines uniformly.

    Each ``(d, p)`` grid cell draws from its own child of
    ``np.random.SeedSequence(seed)`` (spawned in fixed grid order) and
    ``workers > 1`` fans the cells out over a process pool — results are
    bit-identical for any worker count.  Multi-process execution requires
    a picklable ``decoder_factory`` (e.g.
    :class:`repro.decoders.sfq_mesh.MeshDecoderFactory`); lambdas degrade
    gracefully to serial execution with the same seeding.
    """
    from ..perf.parallel import run_sweep_cells

    sweep = ThresholdSweep(list(distances), list(physical_rates))
    grid = run_sweep_cells(
        decoder_factory,
        model,
        sweep.distances,
        sweep.physical_rates,
        trials,
        seed=seed,
        workers=workers,
    )
    for i, d in enumerate(sweep.distances):
        sweep.results[d] = grid[i]
    return sweep


def default_rate_grid() -> List[float]:
    """The paper's Fig. 10 x-axis: 1% to 12%, log-spaced, 10 points."""
    return [float(p) for p in np.geomspace(0.01, 0.12, 10)]
