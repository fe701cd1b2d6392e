"""The benchmark's fixed parameters and its metric catalogue.

Every rate, size and latency limit a workload uses is a constant here,
so two commits measured with the same benchmark see the same offered
load.  Nothing is derived from a capacity probe at run time: a probe
would hand a faster decoder proportionally more work and hide its gain.
README.md says why each workload exists and which layers it skips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

WORKLOADS = ("mc_fig10", "serve_rounds", "serve_bulk")

#: set-ups per run (one in the measuring process, the rest in fresh
#: interpreters); setup_s is their median
SETUP_REPEATS = 5

#: client connections per serving workload (the machine has 2 cores)
N_CLIENTS = 2


@dataclass(frozen=True)
class McSpec:
    """Fig. 10 "final" SFQ-mesh threshold sweep (dephasing noise)."""

    distances: Tuple[int, ...] = (3, 5, 7, 9)
    #: shots per (d, p) cell; 40 cells make one sweep
    trials: int = 500
    #: a Fig. 10 point (one cell) slower than this misses the SLO
    cell_slo_ms: float = 1000.0
    #: golden oracle: shots per distance and Fig. 10 rate re-decoded by
    #: the reference automaton
    oracle_shots: int = 64
    #: warm-up decode size per distance during set-up
    warm_shots: int = 64


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop serving workload."""

    shards: Tuple[str, ...]
    shots_per_request: int
    #: physical error rate of the dephasing channel behind every syndrome
    p: float
    #: a request answered later than this after its due time misses
    slo_ms: float
    #: through ClusterFrontend over the default DecodeCluster (else one
    #: DecodeService)
    cluster: bool
    #: Poisson arrivals at this rate ...
    rate_rps: Optional[float] = None
    #: ... or bursts of this many requests every burst_gap_s
    burst_size: Optional[int] = None
    burst_gap_s: Optional[float] = None


MC_FIG10 = McSpec()

SERVE: Dict[str, ServeSpec] = {
    "serve_rounds": ServeSpec(
        shards=("unionfind:d5:z", "greedy:d3:z"),
        shots_per_request=64, p=0.02, slo_ms=20.0, cluster=True,
        rate_rps=200.0,
    ),
    "serve_bulk": ServeSpec(
        shards=("mwpm:d9:z", "unionfind:d9:z"),
        shots_per_request=64, p=0.02, slo_ms=250.0, cluster=False,
        burst_size=16, burst_gap_s=0.2,
    ),
}

#: end-to-end metrics (name -> unit), reported with tracing off and
#: gated by BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "shots_per_cpu_s": "1/s",
    "slo_frac": "frac",
}

#: printed by every untraced run but not gated: wall-clock figures whose
#: run-to-run spread on a shared VM exceeds any usable bound (README.md)
REPORTED = {
    "shots_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def _per_layer() -> Dict[str, str]:
    units = {
        "setup.import_s": "s",
        "setup.build_s": "s",
        "setup.warm_s": "s",
        "noise.sample_s": "s",
        "geometry.syndrome_s": "s",
    }
    for d in MC_FIG10.distances:
        units[f"decoders.sfq_mesh.d{d}.busy_s"] = "s"
    units["decoders.sfq_mesh.cycles_per_shot"] = "cycles"
    units["decoders.nonconverged"] = "count"
    units["decoders.inconsistent"] = "count"
    units["decoders.build_s"] = "s"
    for spec in SERVE.values():
        for wire in spec.shards:
            kind, dist, _ = wire.split(":")
            units[f"decoders.{kind}.{dist}.busy_s"] = "s"
    units.update({
        "decoders.decode_p50_ms": "ms",
        "decoders.decode_tail_ms": "ms",
        "montecarlo.self_s": "s",
        "montecarlo.shots": "count",
        "loadgen.late_p50_ms": "ms",
        "loadgen.late_tail_ms": "ms",
        "protocol.codec_us_per_req": "us",
        "protocol.bytes_per_req": "bytes",
        "protocol.transit_us_per_req": "us",
        "router.self_p50_us": "us",
        "router.attempts_per_req": "count",
        "router.failovers": "count",
        "batcher.queue_p50_ms": "ms",
        "batcher.queue_tail_ms": "ms",
        "batcher.batch_shots_mean": "count",
        "batcher.batches": "count",
        "pool.hop_p50_us": "us",
        "pool.return_p50_us": "us",
        "pool.builds": "count",
        "server.other_p50_ms": "ms",
        "server.rejected": "count",
        "server.decoded_dead": "count",
        "process.cpu_per_wall": "s/s",
        "trace.overhead_pct": "%",
        "trace.coverage_frac": "frac",
        "trace.samples": "count",
    })
    return units


#: per-layer metrics (name -> unit), reported by the traced run; a
#: layer a workload bypasses reports 0
PER_LAYER = _per_layer()


@dataclass
class Result:
    """What one measuring run hands back to ``run.py``."""

    #: set-up phases of this process (import_s, build_s, warm_s)
    timings: Dict[str, float]
    #: end-to-end and reported metrics (untraced run) or per-layer
    #: metrics (traced run)
    metrics: Dict[str, float]
    #: how each metric was formed (printed, not in the JSON)
    notes: Dict[str, str]
    attempted: int
    failed: int
    #: every golden oracle and invariant held
    correct: bool
    #: oracle and invariant counts, printed for the reader
    checks: Dict[str, object]
    tracer: Optional[object] = None
