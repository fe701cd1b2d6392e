"""Record performance baselines for the perf trajectory.

Three suites, each writing one committed JSON baseline:

* ``mesh`` — batched ``decode_arrays`` shots/s at d in {7, 9, 11} for
  all three stepping backends (``reference``, the numpy ``fast`` engine
  and the ``native`` C kernel) -> ``benchmarks/BENCH_mesh_throughput.json``,
  plus a cProfile top-10 of one Fig. 10 d = 9 cell on the default
  engine -> ``benchmarks/PROFILE_mesh_d9.txt``;
* ``decoders`` — the software comparison decoders (union-find, MWPM,
  greedy, lookup): per-shot ``decode()`` loop vs the vectorized
  ``decode_batch`` fast paths, same protocol as the mesh suite ->
  ``benchmarks/BENCH_decoder_throughput.json``;
* ``machine`` — the 64-tile d-heterogeneous machine runtime's
  pooled-vs-dedicated-vs-batched sweep (simulated makespan/stall plus
  host-side simulated-rounds/s), plus the dedicated-wiring Lindley
  fast path vs the event loop ->
  ``benchmarks/BENCH_machine_runtime.json``;
* ``adaptive`` — the weight-stratified adaptive Monte-Carlo engine vs
  the fixed-trials Fig. 10 grid: decoded shots to target RSE, wall
  clock both ways, per-cell Wilson-CI overlap ->
  ``benchmarks/BENCH_adaptive_sampling.json``.  ``--regress-check``
  gates on ``ci_overlap_fraction`` — scale-invariant (~1.0 at any trial
  budget), unlike wall clock or the budget-dependent shot counts;
* ``service`` — the decode-as-a-service layer under open-loop load
  (``bench_service.py``): sustained shots/s and client p50/p99 latency
  for 3 serving scenarios plus one saturating run that must show
  bounded queue depth and rejected-request accounting ->
  ``benchmarks/BENCH_service_throughput.json``.  ``--regress-check``
  warns on ``achieved_shots_per_s`` like the decoder suite;
* ``cluster`` — the replicated cluster tier's resilience drills
  (``bench_cluster.py``): a steady-state run, the primary-kill drill,
  the journaled live-migration drill (recording the migration-window
  p99 vs steady-state ratio, acceptance <= 2) and the cross-process
  supervised SIGKILL drill (real subprocesses, real signals), each
  audited for zero lost / zero duplicate corrections, bit-identity
  against a direct ``decode_batch`` golden run, a bounded p99 tail and
  — where journaled — the durable-WAL audit ->
  ``benchmarks/BENCH_cluster_resilience.json``.  ``--regress-check``
  gates on ``ok_fraction`` — scale-invariant (1.0 at any request
  budget), unlike the machine-dependent latency quantiles;
* ``overload`` — the overload-robustness drills (``bench_overload.py``):
  an adversarial tenant at ~3x capacity throttled at admission while
  well-behaved tenants stay served, a deadline storm with zero dead
  decodes, a fidelity brownout that degrades and recovers, and a
  circuit breaker bounding the retry storm ->
  ``benchmarks/BENCH_overload.json``.  ``--regress-check`` gates on
  ``gate_ok`` — 1.0 iff every acceptance gate of a drill held, at any
  request budget or machine speed.

Future PRs rerun this script and compare against the committed baselines
to track the perf trajectory::

    PYTHONPATH=src python benchmarks/record.py            # refresh all
    PYTHONPATH=src python benchmarks/record.py --suite mesh --check 3
    PYTHONPATH=src python benchmarks/record.py --suite decoders \
        --regress-check   # warn-only drift report vs committed baseline

Timing is best-of-``--reps`` wall clock on the current machine; ratios
between columns of the same run (speedup, policy deltas) are the
machine-portable numbers, absolute rates are indicative only.

``REPRO_BENCH_SMOKE=1`` drops all suites to a seconds-scale budget —
the CI benchmark smoke job runs that and uploads the JSONs as build
artifacts so the trajectory is visible per-PR (the committed baselines
are only refreshed from full local runs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from datetime import date
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_OUT = BENCH_DIR / "BENCH_mesh_throughput.json"
PROFILE_OUT = BENCH_DIR / "PROFILE_mesh_d9.txt"
DECODER_OUT = BENCH_DIR / "BENCH_decoder_throughput.json"
MACHINE_OUT = BENCH_DIR / "BENCH_machine_runtime.json"
ADAPTIVE_OUT = BENCH_DIR / "BENCH_adaptive_sampling.json"
SERVICE_OUT = BENCH_DIR / "BENCH_service_throughput.json"
CLUSTER_OUT = BENCH_DIR / "BENCH_cluster_resilience.json"
OVERLOAD_OUT = BENCH_DIR / "BENCH_overload.json"
DISTANCES = (7, 9, 11)
#: (decoder name, distance) cells of the decoder suite; lookup only
#: exists at d = 3
DECODER_CELLS = (
    ("unionfind", 5), ("unionfind", 9),
    ("mwpm", 5), ("mwpm", 9),
    ("greedy", 5), ("greedy", 9),
    ("lookup", 3),
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _measure(decoder, syndromes, engine: str, reps: int) -> float:
    decoder.decode_arrays(syndromes[:64], engine=engine)  # warmup
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        decoder.decode_arrays(syndromes, engine=engine)
        best = min(best, time.perf_counter() - start)
    return syndromes.shape[0] / best


def run_benchmark(shots: int = 2048, p: float = 0.05, seed: int = 2020,
                  reps: int = 3) -> dict:
    from repro.decoders.sfq_mesh import SFQMeshDecoder
    from repro.noise.models import DephasingChannel
    from repro.surface.lattice import SurfaceLattice

    entries = {}
    for d in DISTANCES:
        lattice = SurfaceLattice(d)
        decoder = SFQMeshDecoder(lattice)
        rng = np.random.default_rng(seed)
        sample = DephasingChannel().sample(lattice, p, shots, rng)
        syndromes = lattice.syndrome_of_z_errors(sample.z)
        before = _measure(decoder, syndromes, "reference", reps)
        after = _measure(decoder, syndromes, "fast", reps)
        native = _measure(decoder, syndromes, "native", reps)
        entries[f"d{d}"] = {
            "before_reference_shots_per_s": round(before, 1),
            "after_fast_shots_per_s": round(after, 1),
            "speedup": round(after / before, 2),
            "native_shots_per_s": round(native, 1),
            "native_speedup": round(native / before, 2),
        }
    return {
        "benchmark": "mesh_decode_arrays_throughput",
        "workload": {
            "shots": shots,
            "p": p,
            "seed": seed,
            "model": "dephasing",
            "reps": reps,
            "timing": "best-of-reps wall clock",
        },
        "recorded": date.today().isoformat(),
        "machine": platform.machine(),
        "entries": entries,
    }


def profile_d9_cell(trials: int = 2000, p: float = 0.05, seed: int = 2020,
                    top: int = 10) -> str:
    """cProfile top-``top`` functions of one Fig. 10 d = 9 cell.

    The cell is ``run_trials`` on the final mesh design with the default
    engine, exactly as a threshold sweep runs it.
    """
    import cProfile
    import io
    import pstats

    from repro.decoders import sfq_mesh
    from repro.montecarlo.trial import run_trials
    from repro.noise.models import DephasingChannel
    from repro.surface.lattice import SurfaceLattice

    lattice = SurfaceLattice(9)
    decoder = sfq_mesh.SFQMeshDecoder(lattice)
    model = DephasingChannel()
    run_trials(lattice, decoder, model, p, 64, np.random.default_rng(0))
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_trials(
        lattice, decoder, model, p, trials, np.random.default_rng(seed)
    )
    profiler.disable()
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text).strip_dirs()
    stats.sort_stats("tottime").print_stats(top)
    body = "\n".join(
        line.rstrip() for line in text.getvalue().splitlines()
        if line.strip() and not line.lstrip().startswith("Ordered by")
    )
    return (
        f"# cProfile top-{top} by own time: one Fig. 10 d=9 cell, "
        f"run_trials(final mesh, dephasing p={p}, {trials} shots, "
        f"seed {seed}), engine {result.engine}, "
        f"{platform.machine()}, recorded {date.today().isoformat()}\n"
        f"{body}\n"
    )


def run_decoder_benchmark(shots: int = 2048, p: float = 0.05,
                          seed: int = 2020, reps: int = 3) -> dict:
    """Per-shot ``decode()`` loop vs vectorized ``decode_batch``.

    Same protocol as the mesh suite (dephasing at p, fixed seed,
    best-of-reps); the reference column times the exact seed-era
    per-shot path (for MWPM: the networkx blossom engine).
    """
    from repro.decoders import make_decoder
    from repro.noise.models import DephasingChannel
    from repro.surface.lattice import SurfaceLattice

    entries = {}
    for name, d in DECODER_CELLS:
        lattice = SurfaceLattice(d)
        decoder = make_decoder(name, lattice)
        reference = (
            make_decoder(name, lattice, engine="reference")
            if name == "mwpm" else decoder
        )
        rng = np.random.default_rng(seed)
        sample = DephasingChannel().sample(lattice, p, shots, rng)
        syndromes = decoder.geometry.syndrome_of_errors(sample.z)
        ref_shots = syndromes[: max(32, shots // 8)]  # per-shot loop is slow
        for s in ref_shots[:8]:
            reference.decode(s)  # warmup
        best_ref = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for s in ref_shots:
                reference.decode(s)
            best_ref = min(best_ref, time.perf_counter() - start)
        before = len(ref_shots) / best_ref
        decoder.decode_batch(syndromes[:64])  # warm geometry caches
        # cold pass: component memos cleared, so this is the first-pass
        # throughput a sweep sees on fresh syndromes
        _clear_decode_memos(decoder)
        start = time.perf_counter()
        decoder.decode_batch(syndromes)
        cold = shots / (time.perf_counter() - start)
        best_fast = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            batch = decoder.decode_batch(syndromes)
            best_fast = min(best_fast, time.perf_counter() - start)
        after = shots / best_fast
        for i, s in enumerate(ref_shots[:16]):  # spot-check equivalence
            single = decoder.decode(s)
            if not np.array_equal(single.correction, batch.corrections[i]):
                raise AssertionError(
                    f"{name} d={d}: decode_batch != decode at shot {i}"
                )
        entries[f"{name}_d{d}"] = {
            "before_pershot_shots_per_s": round(before, 1),
            "cold_batch_shots_per_s": round(cold, 1),
            "after_batch_shots_per_s": round(after, 1),
            "speedup": round(after / before, 2),
        }
    return {
        "benchmark": "software_decoder_batch_throughput",
        "workload": {
            "shots": shots,
            "p": p,
            "seed": seed,
            "model": "dephasing",
            "reps": reps,
            "timing": "best-of-reps wall clock",
            "reference": "per-shot decode() (mwpm: networkx engine)",
            "memoization": "component memos warm across reps; the cold "
            "column is a single pass with cleared memos",
        },
        "recorded": date.today().isoformat(),
        "machine": platform.machine(),
        "entries": entries,
    }


def _clear_decode_memos(decoder) -> None:
    """Empty the cross-call component/key memos of a decoder, if any."""
    for attr in ("_match_memo", "_peel_memo", "_decode_cache"):
        memo = getattr(decoder, attr, None)
        if memo is not None:
            memo.clear()


def regression_report(record: dict, baseline_path: Path,
                      key: str = "after_batch_shots_per_s",
                      tolerance: float = 0.8) -> int:
    """Warn-only drift check of shots/s against the committed baseline.

    Returns the number of regressed entries but never fails the build:
    absolute rates are machine-dependent, so CI surfaces the warning and
    a human decides whether the trajectory actually regressed.
    """
    if not baseline_path.exists():
        print(f"regress-check: no baseline at {baseline_path}; skipping")
        return 0
    baseline = json.loads(baseline_path.read_text())
    regressed = 0
    for name, entry in record["entries"].items():
        base = baseline.get("entries", {}).get(name, {}).get(key)
        now = entry.get(key)
        if base is None or now is None or base <= 0:
            continue
        ratio = now / base
        if ratio < tolerance:
            regressed += 1
            print(
                f"WARNING regress-check: {name} {key} {now:.1f} is "
                f"{ratio:.2f}x of baseline {base:.1f} (< {tolerance:.2f}x)"
            )
    if regressed == 0:
        print(
            f"regress-check: all entries within {tolerance:.2f}x of "
            f"{baseline_path.name} (warn-only)"
        )
    else:
        print(
            f"regress-check: {regressed} entries regressed (warn-only, "
            "not failing the build)"
        )
    return regressed


def run_machine_benchmark(
    n_tiles: int = 64,
    n_gates: int = 400,
    t_period: int = 10,
    seed: int = 2020,
    reps: int = 3,
) -> dict:
    """The 64-tile d-heterogeneous pooled-vs-dedicated machine sweep."""
    from repro.runtime import MachineRuntime, make_tile_fleet
    from repro.runtime.machine import pool_size_from_budget

    fleet = make_tile_fleet(
        n_tiles, distances=(3, 5, 7, 9), n_gates=n_gates, t_period=t_period
    )
    m_budget = pool_size_from_budget(9)
    pools = sorted({m_budget, max(1, n_tiles // 4)})
    entries = {}
    for policy in ("dedicated", "pooled", "batched"):
        for m in pools:
            runtime = MachineRuntime(
                fleet, n_decoders=m, policy=policy, seed=seed
            )
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                result = runtime.run()
                best = min(best, time.perf_counter() - start)
            row = result.summary_row()
            row["sim_rounds_per_s"] = round(result.total_rounds / best, 1)
            entries[f"{policy}_M{m}"] = row
    # Dedicated wiring with a private decoder per tile: the Lindley fast
    # path vs the event loop on identical seeds (results bit-identical;
    # regression-tested in tests/test_lindley.py).
    import dataclasses

    event_rt = MachineRuntime(
        fleet, n_decoders=n_tiles, policy="dedicated", seed=seed,
        engine="event",
    )
    fast_rt = MachineRuntime(
        fleet, n_decoders=n_tiles, policy="dedicated", seed=seed,
        engine="fast",
    )
    event_res, fast_res = event_rt.run(), fast_rt.run()
    identical = all(
        dataclasses.asdict(a) == dataclasses.asdict(b)
        for a, b in zip(event_res.tiles, fast_res.tiles)
    ) and event_res.decoder_busy_ns == fast_res.decoder_busy_ns
    best_event = best_fast = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        event_rt.run()
        best_event = min(best_event, time.perf_counter() - start)
        start = time.perf_counter()
        fast_rt.run()
        best_fast = min(best_fast, time.perf_counter() - start)
    entries[f"dedicated_fastpath_M{n_tiles}"] = {
        "bit_identical_to_event_loop": identical,
        "event_loop_sim_rounds_per_s": round(
            event_res.total_rounds / best_event, 1
        ),
        "fastpath_sim_rounds_per_s": round(
            fast_res.total_rounds / best_fast, 1
        ),
        "speedup": round(best_event / best_fast, 2),
    }
    return {
        "benchmark": "machine_runtime_policy_sweep",
        "workload": {
            "tiles": n_tiles,
            "distances": [3, 5, 7, 9],
            "n_gates": n_gates,
            "t_period": t_period,
            "seed": seed,
            "reps": reps,
            "pool_sizes": pools,
            "budget_pool_d9": m_budget,
            "timing": "best-of-reps wall clock",
        },
        "recorded": date.today().isoformat(),
        "machine": platform.machine(),
        "entries": entries,
    }


def run_adaptive_benchmark(
    trials: int = 2048,
    seed: int = 2020,
    target_rse: float = 0.1,
) -> dict:
    """Fixed-trials Fig. 10 grid vs the adaptive rare-event engine.

    Both sweeps use the default rate grid and the final mesh design; the
    adaptive run is hard-capped at a fifth of the fixed per-distance
    decode budget, so ``shots_reduction_factor`` is >= 5 by construction
    and the interesting questions are (a) does every cell still overlap
    the fixed sweep's Wilson CI and (b) how many shots did the target
    RSE actually need.  Decoded-shot counts are seed-deterministic, so
    they are comparable across machines; the wall clocks are not.
    """
    from repro.decoders.sfq_mesh import MeshDecoderFactory
    from repro.montecarlo import (
        AdaptiveConfig,
        default_rate_grid,
        run_threshold_sweep,
        run_threshold_sweep_adaptive,
    )
    from repro.montecarlo.stats import intervals_overlap
    from repro.noise.models import DephasingChannel

    distances = (3, 5) if SMOKE else (3, 5, 7, 9)
    rates = default_rate_grid()
    factory = MeshDecoderFactory()
    model = DephasingChannel()
    start = time.perf_counter()
    fixed = run_threshold_sweep(
        factory, model, distances, rates, trials, seed=seed
    )
    fixed_wall = time.perf_counter() - start
    cap = trials * len(rates) // 5
    start = time.perf_counter()
    adaptive = run_threshold_sweep_adaptive(
        factory, model, distances, rates, target_rse=target_rse, seed=seed,
        config=AdaptiveConfig(max_total_shots=cap),
    )
    adaptive_wall = time.perf_counter() - start
    entries = {}
    for d in distances:
        result = adaptive.adaptive_results[d]
        overlap = sum(
            int(
                intervals_overlap(
                    fixed.results[d][i].estimate.interval,
                    adaptive.results[d][i].estimate.interval,
                )
            )
            for i in range(len(rates))
        )
        shots_to_target = next(
            (
                h["shots_total"]
                for h in result.history
                if h["worst_rse"] <= target_rse
            ),
            None,
        )
        fixed_shots = trials * len(rates)
        entries[f"d{d}"] = {
            "fixed_shots": fixed_shots,
            "adaptive_shots": result.shots_total,
            "shots_reduction_factor": round(
                fixed_shots / result.shots_total, 2
            ),
            "shots_to_target_rse": shots_to_target,
            "worst_rse": round(result.worst_rse, 4),
            "converged": result.converged,
            "rounds": result.rounds,
            "ci_overlap_cells": overlap,
            "cells": len(rates),
            # scale-invariant health metric: the smoke budget differs
            # from the committed full-run baseline, but overlap should
            # be ~1.0 at any budget — so --regress-check gates on this
            "ci_overlap_fraction": round(overlap / len(rates), 3),
        }
    return {
        "benchmark": "adaptive_vs_fixed_threshold_sweep",
        "workload": {
            "trials_per_cell_fixed": trials,
            "rate_grid": "default_rate_grid (1-12%, 10 points)",
            "distances": list(distances),
            "seed": seed,
            "target_rse": target_rse,
            "adaptive_cap": "fixed per-distance budget // 5",
            "model": "dephasing",
            "timing": "single-pass wall clock (shots are the portable "
            "metric; they are seed-deterministic)",
        },
        "recorded": date.today().isoformat(),
        "machine": platform.machine(),
        "fixed_wall_s": round(fixed_wall, 2),
        "adaptive_wall_s": round(adaptive_wall, 2),
        "wall_speedup": round(fixed_wall / adaptive_wall, 2),
        "entries": entries,
    }


def run_service_benchmark(requests: int = 600, seed: int = 2020) -> dict:
    """Open-loop serving scenarios (see ``bench_service.py``)."""
    import dataclasses

    from bench_service import default_scenarios, run_scenario

    entries = {}
    for scenario in default_scenarios(requests):
        scenario = dataclasses.replace(scenario, seed=seed)
        entries[scenario.name] = run_scenario(scenario)
    saturating = [
        name for name, e in entries.items() if e["rho"] > 1.0
    ]
    return {
        "benchmark": "decode_service_open_loop",
        "workload": {
            "requests": requests,
            "seed": seed,
            "model": "dephasing",
            "arrival": "open-loop Poisson / bursty traces, rates "
            "expressed as rho x measured shard capacity",
            "saturating_scenarios": saturating,
            "timing": "single-pass wall clock (latency quantiles are "
            "client-observed; rho shapes are the portable numbers)",
        },
        "recorded": date.today().isoformat(),
        "machine": platform.machine(),
        "entries": entries,
    }


def run_cluster_benchmark(requests: int = 400, seed: int = 2020) -> dict:
    """Cluster resilience drills (see ``bench_cluster.py``)."""
    import dataclasses

    from bench_cluster import default_scenarios, run_cluster_scenario

    entries = {}
    for scenario in default_scenarios(requests):
        scenario = dataclasses.replace(scenario, seed=seed)
        entries[scenario.name] = run_cluster_scenario(scenario)
    return {
        "benchmark": "cluster_resilience_drills",
        "workload": {
            "requests": requests,
            "seed": seed,
            "model": "dephasing",
            "arrival": "open-loop Poisson trace, rho x measured "
            "per-replica shard capacity",
            "invariants": "zero lost + zero duplicate corrections, "
            "bit-identity vs direct decode_batch, bounded p99; "
            "migration drills: window p99 <= 2x steady p99; journaled "
            "drills: WAL audit ok",
            "timing": "single-pass wall clock (ok_fraction / golden / "
            "lost are the portable numbers; latencies are indicative)",
        },
        "recorded": date.today().isoformat(),
        "machine": platform.machine(),
        "entries": entries,
    }


def run_overload_benchmark(requests: int = 300, seed: int = 2020) -> dict:
    """Overload-robustness drills (see ``bench_overload.py``)."""
    from bench_overload import default_drills

    return {
        "benchmark": "overload_robustness_drills",
        "workload": {
            "requests": requests,
            "seed": seed,
            "model": "dephasing",
            "arrival": "open-loop Poisson traces, rho x the throttled "
            "shard's known capacity (max_batch / throttle)",
            "invariants": "good tenants served >= 0.99 with p99 <= 2x "
            "the hostile-free baseline while the hostile tenant bounces "
            "at admission; deadline storms decode nothing dead; "
            "brownouts downgrade, stay bit-identical to the active "
            "tier, and recover; a shared breaker bounds mean_attempts "
            "<= 2 during fleet saturation",
            "timing": "single-pass wall clock (gate_ok and the served "
            "fractions are the portable numbers)",
        },
        "recorded": date.today().isoformat(),
        "machine": platform.machine(),
        "entries": default_drills(requests, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record perf baselines (mesh throughput, machine runtime)."
    )
    parser.add_argument(
        "--suite",
        choices=("mesh", "decoders", "machine", "adaptive", "service",
                 "cluster", "overload", "all"),
        default="all",
    )
    parser.add_argument("--shots", type=int, default=256 if SMOKE else 2048)
    parser.add_argument("--p", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--reps", type=int, default=1 if SMOKE else 3)
    parser.add_argument("--tiles", type=int, default=16 if SMOKE else 64)
    parser.add_argument("--gates", type=int, default=120 if SMOKE else 400)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--decoder-out", type=Path, default=DECODER_OUT)
    parser.add_argument("--machine-out", type=Path, default=MACHINE_OUT)
    parser.add_argument("--adaptive-out", type=Path, default=ADAPTIVE_OUT)
    parser.add_argument("--service-out", type=Path, default=SERVICE_OUT)
    parser.add_argument("--cluster-out", type=Path, default=CLUSTER_OUT)
    parser.add_argument("--overload-out", type=Path, default=OVERLOAD_OUT)
    parser.add_argument(
        "--requests", type=int, default=150 if SMOKE else 600,
        help="requests per serving scenario (service suite)",
    )
    parser.add_argument(
        "--cluster-requests", type=int, default=120 if SMOKE else 400,
        help="requests per resilience drill (cluster suite)",
    )
    parser.add_argument(
        "--overload-requests", type=int, default=100 if SMOKE else 300,
        help="requests per overload drill (overload suite)",
    )
    parser.add_argument(
        "--target-rse", type=float, default=0.1,
        help="stopping precision for the adaptive suite (default 0.1)",
    )
    parser.add_argument(
        "--check", type=float, metavar="MIN_SPEEDUP",
        help="exit nonzero unless every d >= 9 mesh speedup meets this "
        "bar (the PR acceptance gate); skips writing the files",
    )
    parser.add_argument(
        "--regress-check", action="store_true",
        help="after measuring, warn (never fail) when decoder shots/s "
        "drops below 0.8x of the committed baseline; report-only — the "
        "baseline file is left untouched",
    )
    args = parser.parse_args(argv)
    if args.check is not None and args.suite not in ("mesh", "all"):
        parser.error("--check gates the mesh suite; use --suite mesh or all")
    if SMOKE:
        print("REPRO_BENCH_SMOKE=1: reduced budget (artifact-only numbers)")

    if args.suite in ("mesh", "all"):
        record = run_benchmark(args.shots, args.p, args.seed, args.reps)
        for name, entry in record["entries"].items():
            print(
                f"{name}: reference "
                f"{entry['before_reference_shots_per_s']:>8.1f} shots/s -> "
                f"fast {entry['after_fast_shots_per_s']:>8.1f} shots/s "
                f"({entry['speedup']:.2f}x) -> "
                f"native {entry['native_shots_per_s']:>8.1f} shots/s "
                f"({entry['native_speedup']:.2f}x)"
            )
        if args.check is not None:
            failing = {
                name: e["speedup"]
                for name, e in record["entries"].items()
                if int(name[1:]) >= 9 and e["speedup"] < args.check
            }
            if failing:
                print(f"FAIL: below {args.check}x at {failing}")
                return 1
            print(f"OK: all d >= 9 speedups >= {args.check}x")
            return 0
        args.out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.out}")
        PROFILE_OUT.write_text(profile_d9_cell())
        print(f"wrote {PROFILE_OUT}")

    if args.suite in ("decoders", "all") and args.check is None:
        record = run_decoder_benchmark(
            args.shots, args.p, args.seed, args.reps
        )
        for name, entry in record["entries"].items():
            print(
                f"{name:>14}: per-shot "
                f"{entry['before_pershot_shots_per_s']:>9.1f} shots/s -> "
                f"batch {entry['after_batch_shots_per_s']:>9.1f} shots/s "
                f"({entry['speedup']:.2f}x)"
            )
        if args.regress_check:
            # report-only: leave the committed baseline untouched, like
            # --check does for the mesh suite
            regression_report(record, args.decoder_out)
        else:
            args.decoder_out.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {args.decoder_out}")

    if args.suite in ("machine", "all") and args.check is None:
        record = run_machine_benchmark(
            args.tiles, args.gates, seed=args.seed, reps=args.reps
        )
        for name, entry in record["entries"].items():
            if "makespan_ns" in entry:
                print(
                    f"{name:>16}: makespan "
                    f"{entry['makespan_ns'] / 1e3:>8.1f} us  "
                    f"stall {entry['total_stall_ns'] / 1e3:>8.1f} us  "
                    f"{entry['sim_rounds_per_s']:>10.1f} sim rounds/s"
                )
            else:
                print(
                    f"{name:>16}: event "
                    f"{entry['event_loop_sim_rounds_per_s']:>10.1f} -> fast "
                    f"{entry['fastpath_sim_rounds_per_s']:>10.1f} "
                    f"sim rounds/s ({entry['speedup']:.1f}x, bit-identical="
                    f"{entry['bit_identical_to_event_loop']})"
                )
        args.machine_out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.machine_out}")

    if args.suite in ("adaptive", "all") and args.check is None:
        record = run_adaptive_benchmark(
            args.shots, args.seed, target_rse=args.target_rse
        )
        for name, entry in record["entries"].items():
            to_target = entry["shots_to_target_rse"]
            print(
                f"{name:>4}: fixed {entry['fixed_shots']:>7d} shots -> "
                f"adaptive {entry['adaptive_shots']:>7d} "
                f"({entry['shots_reduction_factor']:.1f}x fewer), "
                f"CI overlap {entry['ci_overlap_cells']}/{entry['cells']}, "
                f"to-target {to_target if to_target else 'n/a (capped)'}"
            )
        print(
            f"wall: fixed {record['fixed_wall_s']:.2f} s vs adaptive "
            f"{record['adaptive_wall_s']:.2f} s "
            f"({record['wall_speedup']:.1f}x)"
        )
        if args.regress_check:
            regression_report(
                record, args.adaptive_out, key="ci_overlap_fraction"
            )
        else:
            args.adaptive_out.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {args.adaptive_out}")

    if args.suite in ("service", "all") and args.check is None:
        record = run_service_benchmark(args.requests, seed=args.seed)
        for name, entry in record["entries"].items():
            print(
                f"{name:>28}: rho {entry['rho']:>4.1f}  sustained "
                f"{entry['achieved_shots_per_s']:>9.1f} shots/s  "
                f"p50 {entry['latency_p50_us'] / 1e3:>7.2f} ms  "
                f"p99 {entry['latency_p99_us'] / 1e3:>7.2f} ms  "
                f"rejected {entry['rejected']:>4d} "
                f"(bounded={entry['backpressure_bounded']})"
            )
        saturating = [
            e for e in record["entries"].values() if e["rho"] > 1.0
        ]
        for entry in saturating:
            if entry["rejected"] == 0 or not entry["backpressure_bounded"]:
                print(
                    "WARNING: saturating scenario did not demonstrate "
                    "backpressure (expected rejections + bounded queue)"
                )
        if args.regress_check:
            regression_report(
                record, args.service_out, key="achieved_shots_per_s"
            )
        else:
            args.service_out.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {args.service_out}")

    if args.suite in ("cluster", "all") and args.check is None:
        record = run_cluster_benchmark(args.cluster_requests, seed=args.seed)
        for name, entry in record["entries"].items():
            events = ", ".join(e[1] for e in entry["events"]) or "none"
            print(
                f"{name:>28}: ok {entry['ok']}/{entry['n_requests']}  "
                f"lost {entry['lost']}  dup {entry['duplicate_frames']}  "
                f"failovers {entry['failovers']}  "
                f"p99 {entry['latency_p99_us'] / 1e3:>7.2f} ms  "
                f"golden={entry['golden_match']}  faults: {events}"
            )
            if entry["lost"] > 0 or entry["golden_match"] is False:
                print(
                    f"WARNING: {name} violated the resilience contract "
                    "(lost corrections or golden mismatch)"
                )
            if entry["p99_within_bound"] is False:
                print(
                    f"WARNING: {name} p99 exceeded its "
                    f"{entry['p99_bound_ms']:.0f} ms bound"
                )
            ratio = entry.get("migration_p99_ratio")
            if ratio is not None:
                print(
                    f"{'':>30}migration window p99 ratio "
                    f"{ratio:.2f} (acceptance <= 2)"
                )
                if ratio > 2.0:
                    print(
                        f"WARNING: {name} migration-window p99 is "
                        f"{ratio:.2f}x steady state (> 2x acceptance)"
                    )
            audit = entry.get("journal_audit")
            if audit is not None and not audit["ok"]:
                print(f"WARNING: {name} journal audit failed: {audit}")
        if args.regress_check:
            regression_report(record, args.cluster_out, key="ok_fraction")
        else:
            args.cluster_out.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {args.cluster_out}")

    if args.suite in ("overload", "all") and args.check is None:
        record = run_overload_benchmark(
            args.overload_requests, seed=args.seed
        )
        for name, entry in record["entries"].items():
            status = "OK" if entry["gate_ok"] else (
                "FAIL (" + "; ".join(entry["violations"]) + ")"
            )
            print(f"{name:>28}: {status}")
            if not entry["gate_ok"]:
                print(
                    f"WARNING: {name} violated its overload acceptance "
                    "gates"
                )
        if args.regress_check:
            regression_report(record, args.overload_out, key="gate_ok")
        else:
            args.overload_out.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {args.overload_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
