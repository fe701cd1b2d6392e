"""Workload ``mc_fig10``: the paper's Fig. 10 "final" mesh threshold sweep.

Each run repeats ``run_threshold_sweep`` over d in {3, 5, 7, 9} and the
ten Fig. 10 rates with ``workers=1`` until ``seconds`` have passed.  A
request is one (d, p) cell, i.e. one point of the figure.  No service
code runs.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import stats
from spans import Tracer
from workloads import MC_FIG10 as SPEC
from workloads import Result


class Handles:
    """What set-up built: the sweep's arguments and the warmed modules."""

    def __init__(self, modules: dict, factory, model, rates) -> None:
        self.m = modules
        self.factory = factory
        self.model = model
        self.rates = rates


def setup(seed: int) -> Tuple[Handles, Dict[str, float]]:
    """Import, build one decoder per distance and warm each with a decode."""
    t0 = time.monotonic()
    import repro.montecarlo.trial as trial
    from repro.decoders import geometry, sfq_mesh
    from repro.montecarlo.thresholds import (
        default_rate_grid,
        run_threshold_sweep,
    )
    from repro.noise.models import DephasingChannel
    from repro.surface.lattice import SurfaceLattice

    modules = {
        "trial": trial, "geometry": geometry, "sfq_mesh": sfq_mesh,
        "run_threshold_sweep": run_threshold_sweep,
        "DephasingChannel": DephasingChannel,
        "SurfaceLattice": SurfaceLattice,
    }
    t1 = time.monotonic()
    factory = sfq_mesh.MeshDecoderFactory(sfq_mesh.MeshConfig.final())
    model = DephasingChannel()
    decoders = [factory(SurfaceLattice(d)) for d in SPEC.distances]
    t2 = time.monotonic()
    rng = np.random.default_rng([seed, 0])
    for dec in decoders:
        sample = model.sample(dec.lattice, 0.05, SPEC.warm_shots, rng)
        dec.decode_batch(dec.geometry.syndrome_of_errors(sample.z))
    t3 = time.monotonic()
    handles = Handles(modules, factory, model, default_rate_grid())
    return handles, {"import_s": t1 - t0, "build_s": t2 - t1,
                     "warm_s": t3 - t2}


class Sweeps:
    """Outcome of one measuring pass."""

    def __init__(self) -> None:
        self.walls: List[float] = []      # one per sweep
        self.shots: List[int] = []        # one per sweep
        self.cells: List[Tuple[float, object]] = []  # (seconds, TrialResult)
        self.cpu_s = 0.0
        self.wall_s = 0.0


def sweep_pass(h: Handles, seed: int, seconds: float, first: int,
               tracer: Optional[Tracer] = None) -> Sweeps:
    """Run whole sweeps until ``seconds`` have passed (at least one).

    Cell times come from a clock read around ``run_trials``, the call
    behind each figure point; it costs two clock reads per cell.
    """
    out = Sweeps()
    trial = h.m["trial"]
    original = trial.run_trials

    def timed_run_trials(*args, **kwargs):
        start = time.monotonic()
        result = original(*args, **kwargs)
        out.cells.append((time.monotonic() - start, result))
        return result

    trial.run_trials = timed_run_trials
    try:
        if tracer is not None:
            _instrument(tracer, h)
        cpu0 = time.process_time()
        wall0 = time.monotonic()
        deadline = wall0 + seconds
        index = first
        while True:
            start = time.monotonic()
            scope = (contextlib.nullcontext() if tracer is None else
                     tracer.span("montecarlo.sweep", {"index": index}))
            with scope:
                sweep = _one_sweep(h, seed, index)
            out.walls.append(time.monotonic() - start)
            out.shots.append(sweep.total_trials)
            index += 1
            if time.monotonic() >= deadline:
                break
        out.wall_s = time.monotonic() - wall0
        out.cpu_s = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
        trial.run_trials = original
    return out


def _one_sweep(h: Handles, seed: int, index: int):
    return h.m["run_threshold_sweep"](
        h.factory, h.model, SPEC.distances, h.rates, SPEC.trials,
        seed=seed * 1000 + index, workers=1,
    )


def _instrument(tracer: Tracer, h: Handles) -> None:
    sfq_mesh, geometry = h.m["sfq_mesh"], h.m["geometry"]
    tracer.wrap(type(h.model), "sample", "noise.sample")
    tracer.wrap(geometry.MatchingGeometry, "syndrome_of_errors",
                "geometry.syndrome_of_errors")
    tracer.wrap(geometry.MatchingGeometry, "logical_failure",
                "geometry.logical_failure")
    tracer.wrap(sfq_mesh.SFQMeshDecoder, "decode_batch",
                "decoders.decode_batch",
                lambda a, k, r: {"decoder": a[0].name, "d": a[0].lattice.d})
    tracer.wrap(sfq_mesh.MeshDecoderFactory, "__call__", "decoders.build")
    tracer.wrap_function(h.m["trial"], "run_trials", "montecarlo.run_trials")


# ----------------------------------------------------------------------
# Golden oracles (outside the timed region)
# ----------------------------------------------------------------------
def oracle(h: Handles, seed: int) -> Tuple[int, int]:
    """Fast engine vs the reference automaton on a fixed shot sample.

    Covers every distance at every Fig. 10 rate.  Returns ``(shots
    checked, shots that differ)`` in corrections, cycle counts or
    convergence flags.  Shots whose correction does not reproduce the
    syndrome are part of the mesh model (simultaneous pair pulses, see
    ``repro.decoders.sfq_mesh``), so they are not failures here; the
    fast engine must merely reproduce the reference on them too.
    """
    rng = np.random.default_rng([seed, 1])
    checked = bad = 0
    for d in SPEC.distances:
        dec = h.factory(h.m["SurfaceLattice"](d))
        for p in h.rates:
            sample = h.model.sample(dec.lattice, p, SPEC.oracle_shots, rng)
            syndromes = dec.geometry.syndrome_of_errors(sample.z)
            fast = dec.decode_arrays(syndromes)
            ref = dec.decode_arrays(syndromes, engine="reference")
            differ = (
                np.any(fast.corrections != ref.corrections, axis=1)
                | (fast.cycles != ref.cycles)
                | (fast.converged != ref.converged)
            )
            checked += len(differ)
            bad += int(differ.sum())
    return checked, bad


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(s: Sweeps) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end and reported metrics, plus notes for stdout."""
    rates = [n / w for n, w in zip(s.shots, s.walls)]
    times = [t for t, _ in s.cells]
    q, tail_value, beyond = stats.tail(times)
    answers = [(True, t) for t in times]
    metrics = {
        "shots_per_cpu_s": sum(s.shots) / s.cpu_s,
        "slo_frac": stats.slo_fraction(len(s.cells), answers,
                                       SPEC.cell_slo_ms / 1e3),
        "shots_per_s": stats.median(rates),
        "latency_p50_ms": stats.median(times) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
    }
    notes = {
        "shots_per_cpu_s": f"{sum(s.shots)} shots / process CPU time of "
                           f"{len(rates)} sweeps",
        "slo_frac": f"(d, p) cells done within {SPEC.cell_slo_ms:g} ms",
        "shots_per_s": f"median of {len(rates)} sweeps of "
                       f"{s.shots[0]} shots",
        "latency_p50_ms": f"p50 of {len(times)} (d, p) cells",
        "latency_tail_ms": f"p{q:g} of {len(times)} cells, "
                           f"{beyond} beyond it",
    }
    return metrics, notes


def per_layer(untraced: Sweeps, traced: Sweeps,
              tracer: Tracer) -> Dict[str, float]:
    own = tracer.self_times()
    busy: Dict[str, float] = {}
    for sp in tracer.spans:
        if sp.name == "decoders.decode_batch":
            key = f"decoders.{sp.attrs['decoder']}.d{sp.attrs['d']}.busy_s"
        elif sp.name == "noise.sample":
            key = "noise.sample_s"
        elif sp.name.startswith("geometry."):
            key = "geometry.syndrome_s"
        elif sp.name == "decoders.build":
            key = "decoders.build_s"
        elif sp.name == "montecarlo.run_trials":
            key = "montecarlo.self_s"
        else:
            continue
        busy[key] = busy.get(key, 0.0) + own[sp.sid]
    sweep_wall = sum(sp.duration for sp in tracer.spans
                     if sp.name == "montecarlo.sweep")
    results = [r for _, r in traced.cells]
    cycles = np.concatenate([r.cycles for r in results])
    metrics = dict(busy)
    metrics.update({
        "decoders.sfq_mesh.cycles_per_shot": float(cycles.mean()),
        "decoders.nonconverged": sum(r.nonconverged for r in results),
        "decoders.inconsistent": sum(r.inconsistent for r in results),
        "montecarlo.shots": sum(traced.shots),
        "process.cpu_per_wall": untraced.cpu_s / untraced.wall_s,
        "trace.overhead_pct": 100.0 * (
            stats.median(traced.walls) / stats.median(untraced.walls) - 1.0
        ),
        "trace.coverage_frac": sum(busy.values()) / sweep_wall,
        "trace.samples": len(traced.cells),
    })
    return metrics


def setup_probe(name: str, seed: int) -> Dict[str, float]:
    """One set-up in this process; returns its timings."""
    return setup(seed)[1]


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """One run: set-up, the sweep pass(es), then the golden oracles."""
    h, timings = setup(seed)
    tracer = None
    if not trace:
        passes = [sweep_pass(h, seed, seconds, 0)]
    else:
        untraced = sweep_pass(h, seed, seconds / 2.0, 0)
        tracer = Tracer()
        passes = [untraced, sweep_pass(h, seed, seconds / 2.0,
                                       len(untraced.walls), tracer)]
    checked, differ = oracle(h, seed)
    shots = sum(sum(p.shots) for p in passes)
    inconsistent = sum(r.inconsistent for p in passes for _, r in p.cells)
    checks = {"sweep_shots": shots, "inconsistent": inconsistent,
              "oracle_shots": checked, "oracle_mismatched": differ,
              "mesh_engine": h.m["sfq_mesh"].DEFAULT_ENGINE}
    if trace:
        metrics = per_layer(passes[0], passes[1], tracer)
        notes: Dict[str, str] = {}
    else:
        metrics, notes = end_to_end(passes[0])
    return Result(timings, metrics, notes, attempted=shots + checked,
                  failed=differ, correct=differ == 0,
                  checks=checks, tracer=tracer)
