"""Sequential-stopping controller for the weight-stratified estimator.

:mod:`repro.montecarlo.importance` gives an estimator whose strata
(``f_w`` per Hamming weight) are p-independent, so one weight-resolved
run per code distance serves a whole physical-rate axis.  This module
decides *how many* shots each stratum deserves:

* batches grow geometrically round over round (``AdaptiveConfig.growth``)
  until the combined estimate reaches the requested relative std error
  at every stopping rate, or a budget cap is hit;
* within a round, the budget is split by a Neyman/water-filling rule —
  each stratum's cumulative share is proportional to
  ``max_p Binom(n, w; p) * sigma_w``, its contribution to the combined
  estimator's std error, with Jeffreys smoothing keeping unseen strata
  alive;
* every ``(d, w)`` stratum owns one child of the root
  :class:`numpy.random.SeedSequence`, and each round's batch spawns the
  next grandchild in order, so results are bit-identical for any
  ``workers`` count (fan-out via :mod:`repro.perf.parallel`).

:func:`run_trials_adaptive` replaces fixed-``trials`` guesswork for one
lattice; :func:`run_threshold_sweep_adaptive` replaces the whole
fixed-budget ``(d, p)`` grid of
:func:`repro.montecarlo.thresholds.run_threshold_sweep` with one shared
estimation pass per distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..decoders.base import Decoder
from ..noise.models import ErrorModel
from ..surface.lattice import SurfaceLattice
from .importance import (
    StratifiedRateEstimate,
    WeightProfile,
    WeightStratum,
    count_weight_configurations,
    decode_weight_batch,
    default_max_weight,
    exhaustive_stratum,
    weight_pmf,
)
from .thresholds import DecoderFactory, ThresholdSweep


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the sequential-stopping controller.

    The defaults aim a single distance at a Fig.-10-style rate axis in a
    few thousand decoded shots; tighten ``target_rse`` (passed to the
    run functions, not stored here) or raise the caps for deeper runs.
    """

    #: per-stratum shots in the uniform bootstrap round
    initial_trials: int = 128
    #: round-over-round growth of the total round budget
    growth: float = 2.0
    #: hard cap on controller rounds
    max_rounds: int = 12
    #: hard cap on decoded configurations per distance (None = unbounded)
    max_total_shots: Optional[int] = 500_000
    #: decode batch ceiling handed to the samplers
    batch_size: int = 2048
    #: smallest per-stratum allocation worth dispatching
    min_batch: int = 32
    #: weights enumerated exactly instead of sampled (when small enough)
    exhaustive_up_to: int = 1
    #: enumeration ceiling per stratum; larger strata fall back to sampling
    exhaustive_limit: int = 8192
    #: choose max_weight so P(weight > max_weight) <= this at max(ps)
    tail_epsilon: float = 1e-3
    #: explicit stratum ceiling (None = derived from tail_epsilon)
    max_weight: Optional[int] = None


@dataclass
class StratifiedCell:
    """One ``(d, p)`` sweep cell recombined from a shared weight profile.

    Duck-types :class:`~repro.montecarlo.trial.TrialResult` for the
    :class:`~repro.montecarlo.thresholds.ThresholdSweep` consumers:
    ``trials`` counts the decoded configurations behind the *shared*
    profile (every cell of a distance reports the same number) and
    ``failures`` the failures observed across all strata — a reliability
    proxy for the crossing-point gates, not a per-``p`` binomial count.
    """

    d: int
    p: float
    trials: int
    failures: int
    error_model: str
    decoder: str
    estimate: StratifiedRateEstimate
    metadata: dict = field(default_factory=dict)
    engine: Optional[str] = None

    @property
    def logical_error_rate(self) -> float:
        return self.estimate.rate


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive weight-resolved estimation."""

    profile: WeightProfile
    physical_rates: List[float]
    target_rse: float
    rounds: int
    shots_total: int
    converged: bool
    worst_rse: float
    #: per-round records: shots so far, round allocation, worst RSE
    history: List[dict] = field(default_factory=list)

    def estimate(self, p: float) -> StratifiedRateEstimate:
        return self.profile.rate_estimate(p)

    def cell(self, p: float) -> StratifiedCell:
        return StratifiedCell(
            d=self.profile.d,
            p=p,
            trials=self.shots_total,
            failures=self.profile.total_failures,
            error_model=self.profile.error_model,
            decoder=self.profile.decoder,
            estimate=self.profile.rate_estimate(p),
            metadata={
                "adaptive": True,
                "converged": self.converged,
                "rounds": self.rounds,
            },
        )


@dataclass
class AdaptiveSweep(ThresholdSweep):
    """A :class:`ThresholdSweep` whose cells share per-distance profiles."""

    profiles: Dict[int, WeightProfile] = field(default_factory=dict)
    adaptive_results: Dict[int, AdaptiveResult] = field(default_factory=dict)

    @property
    def total_trials(self) -> int:
        """Decoded configurations across all distances (profiles shared)."""
        return sum(r.shots_total for r in self.adaptive_results.values())

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.adaptive_results.values())


# ----------------------------------------------------------------------
# Budget allocation
# ----------------------------------------------------------------------
def _allocation_scores(
    profile: WeightProfile, sampled: Sequence[int], stop_ps: Sequence[float]
) -> np.ndarray:
    """Per-stratum std-error contribution scores (Neyman weights)."""
    weights = list(sampled)
    pmf_max = np.zeros(len(weights))
    for p in stop_ps:
        pmf_max = np.maximum(pmf_max, weight_pmf(profile.n, weights, p))
    sigma = np.empty(len(weights))
    for i, w in enumerate(weights):
        s = profile.strata[w]
        if s.trials == 0:
            sigma[i] = 0.5
        else:
            fh = (s.failures + 0.5) / (s.trials + 1.0)
            sigma[i] = math.sqrt(fh * (1.0 - fh))
    return pmf_max * sigma


def _neyman_allocation(
    profile: WeightProfile,
    sampled: Sequence[int],
    stop_ps: Sequence[float],
    budget: int,
    min_batch: int,
) -> Dict[int, int]:
    """Split ``budget`` shots so cumulative trials approach Neyman shares.

    Water-filling: the optimal cumulative allocation is proportional to
    the scores, so each round funds the strata furthest below their
    target share.  Dribbles under ``min_batch`` are dropped (their
    variance contribution is negligible by construction); if nothing
    clears the bar the whole budget goes to the top-scoring stratum.
    """
    weights = list(sampled)
    scores = _allocation_scores(profile, weights, stop_ps)
    total = float(scores.sum())
    if total <= 0.0 or budget <= 0:
        return {}
    current = np.array([profile.strata[w].trials for w in weights], dtype=float)
    target = (current.sum() + budget) * scores / total
    deficit = np.maximum(0.0, target - current)
    dsum = float(deficit.sum())
    raw = (
        budget * deficit / dsum if dsum > 0 else budget * scores / total
    )
    alloc = {
        w: int(t) for w, t in zip(weights, raw.astype(int)) if t >= min_batch
    }
    if not alloc:
        top = weights[int(np.argmax(scores))]
        alloc = {top: budget}
    return alloc


# ----------------------------------------------------------------------
# The controller
# ----------------------------------------------------------------------
def _resolve_factory(lattice: SurfaceLattice, decoder_or_factory):
    """Accept a Decoder instance or a factory; return (factory, probe)."""
    if isinstance(decoder_or_factory, Decoder):
        probe = decoder_or_factory
        if probe.lattice.d != lattice.d:
            raise ValueError(
                f"decoder is bound to d={probe.lattice.d}, lattice has "
                f"d={lattice.d}"
            )
        return (lambda lat: probe), probe
    factory = decoder_or_factory
    return factory, factory(lattice)


def run_trials_adaptive(
    lattice: SurfaceLattice,
    decoder_or_factory,
    model: ErrorModel,
    physical_rates: Sequence[float],
    target_rse: float = 0.1,
    seed: Optional[int] = None,
    workers: int = 1,
    config: Optional[AdaptiveConfig] = None,
    stopping_rates: Optional[Sequence[float]] = None,
) -> AdaptiveResult:
    """Adaptively estimate the weight profile of one lattice/decoder.

    Replaces fixed-``trials`` guesswork: batches grow geometrically and
    the run stops as soon as the recombined ``P_L(p)`` reaches
    ``target_rse`` relative precision at every stopping rate (default:
    all of ``physical_rates``), or when ``config``'s round/shot caps
    bind — ``AdaptiveResult.converged`` records which.

    Deeply sub-threshold rates are dominated by the lowest contributing
    stratum, whose failures may be genuinely rare; pass a moderate
    ``stopping_rates`` subset (and read the extrapolated tail off the
    same profile) when the full grid would demand an unbounded budget.

    ``decoder_or_factory`` may be a live :class:`Decoder` (serial only)
    or a picklable factory (``workers > 1`` fans each round's stratum
    batches over a process pool; results are bit-identical for any
    worker count).
    """
    config = config or AdaptiveConfig()
    ps = [float(p) for p in physical_rates]
    if not ps:
        raise ValueError("physical_rates must be non-empty")
    stop_ps = [float(p) for p in (stopping_rates or ps)]
    factory, probe = _resolve_factory(lattice, decoder_or_factory)
    n = lattice.n_data
    cap = (
        config.max_weight
        if config.max_weight is not None
        else default_max_weight(n, max(ps), config.tail_epsilon)
    )
    cap = min(cap, n)
    profile = WeightProfile(
        d=lattice.d,
        n=n,
        error_model=model.name,
        decoder=probe.name,
        metadata={"target_rse": target_rse, "max_weight": cap},
    )
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    weight_seeds = root.spawn(cap + 1)
    shots_total = 0

    # Exact strata first: tiny, and they anchor the low-p extrapolation.
    # They count toward (and must fit inside) the total-shot cap; a
    # weight that does not fit stays a sampled stratum instead.
    for w in range(min(config.exhaustive_up_to, cap) + 1):
        count = count_weight_configurations(model, n, w)
        if count > config.exhaustive_limit:
            break
        if (
            config.max_total_shots is not None
            and shots_total + count > config.max_total_shots
        ):
            break
        stratum = exhaustive_stratum(lattice, probe, model, w, config.batch_size)
        profile.strata[w] = stratum
        shots_total += stratum.trials

    sampled = [w for w in range(cap + 1) if w not in profile.strata]
    for w in sampled:
        profile.strata[w] = WeightStratum(weight=w, trials=0, failures=0)

    history: List[dict] = []
    converged = not sampled
    worst = 0.0 if converged else float("inf")
    round_budget = config.initial_trials * max(1, len(sampled))
    rounds = 0
    while sampled and rounds < config.max_rounds:
        if config.max_total_shots is not None:
            remaining = config.max_total_shots - shots_total
            if remaining <= 0:
                break
            budget = min(round_budget, remaining)
        else:
            budget = round_budget
        if rounds == 0:
            # Uniform bootstrap: every stratum gets an initial look,
            # splitting exactly `budget` shots so the cap is never
            # overshot (lowest weights absorb any remainder).
            per, extra = divmod(budget, len(sampled))
            alloc = {
                w: per + (1 if j < extra else 0)
                for j, w in enumerate(sampled)
                if per + (1 if j < extra else 0) > 0
            }
        else:
            alloc = _neyman_allocation(
                profile, sampled, stop_ps, budget, config.min_batch
            )
        if not alloc:
            break
        items = sorted(alloc.items())
        payloads = [
            (
                i,
                factory,
                model,
                lattice.d,
                w,
                trials,
                weight_seeds[w].spawn(1)[0],
                config.batch_size,
            )
            for i, (w, trials) in enumerate(items)
        ]
        if workers > 1:
            from ..perf.parallel import run_weight_batches

            counts = run_weight_batches(payloads, workers=workers)
        else:
            counts = [
                decode_weight_batch(
                    lattice,
                    probe,
                    model,
                    w,
                    trials,
                    np.random.default_rng(payload[6]),
                    config.batch_size,
                )
                for payload, (w, trials) in zip(payloads, items)
            ]
        for (w, trials), failures in zip(items, counts):
            profile.strata[w].merge_counts(trials, failures)
            shots_total += trials
        rounds += 1
        worst = max(
            profile.relative_std_error(p, smoothed=True) for p in stop_ps
        )
        history.append(
            {
                "round": rounds,
                "round_shots": sum(alloc.values()),
                "shots_total": shots_total,
                "worst_rse": worst,
            }
        )
        if worst <= target_rse:
            converged = True
            break
        round_budget = int(math.ceil(round_budget * config.growth))
    return AdaptiveResult(
        profile=profile,
        physical_rates=ps,
        target_rse=target_rse,
        rounds=rounds,
        shots_total=shots_total,
        converged=converged,
        worst_rse=worst,
        history=history,
    )


def run_threshold_sweep_adaptive(
    decoder_factory: DecoderFactory,
    model: ErrorModel,
    distances: Sequence[int],
    physical_rates: Sequence[float],
    target_rse: float = 0.1,
    seed: Optional[int] = None,
    workers: int = 1,
    config: Optional[AdaptiveConfig] = None,
    stopping_rates: Optional[Sequence[float]] = None,
) -> AdaptiveSweep:
    """Adaptive replacement for the fixed-trials ``run_threshold_sweep``.

    One weight-resolved estimation per distance serves every column of
    the ``(d, p)`` grid — the sweep decodes a number of shots set by the
    target precision, not by ``len(physical_rates) * trials`` — and the
    same per-distance profiles extrapolate below the grid via
    ``sweep.profiles[d].logical_rate(p)``.

    Each distance consumes its own child of
    ``np.random.SeedSequence(seed)`` (spawned in distance order), and
    each ``(d, w)`` stratum a grandchild, so the sweep is bit-identical
    for any ``workers`` count.
    """
    distances = list(distances)
    sweep = AdaptiveSweep(distances, [float(p) for p in physical_rates])
    d_seeds = np.random.SeedSequence(seed).spawn(len(distances))
    for d_seed, d in zip(d_seeds, distances):
        lattice = SurfaceLattice(d)
        result = run_trials_adaptive(
            lattice,
            decoder_factory,
            model,
            sweep.physical_rates,
            target_rse=target_rse,
            seed=d_seed,
            workers=workers,
            config=config,
            stopping_rates=stopping_rates,
        )
        sweep.profiles[d] = result.profile
        sweep.adaptive_results[d] = result
        sweep.results[d] = [result.cell(p) for p in sweep.physical_rates]
    return sweep
