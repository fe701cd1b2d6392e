"""Workloads ``serve_rounds`` and ``serve_bulk``: open-loop decode serving.

One scheduler coroutine sends every request at its due time over at
most two in-process client connections and never waits for replies, so
a slow server faces the same offered load as a fast one.  Latency runs
from a request's due time to its reply, which charges a stall to every
request queued behind it.  ``serve_rounds`` sends a Poisson stream of
lone requests through ``ClusterFrontend`` over the default
``DecodeCluster``; ``serve_bulk`` sends synchronized T-gate bursts
straight to one ``DecodeService``.
"""

from __future__ import annotations

import asyncio
import bisect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import stats
from spans import Tracer
from workloads import N_CLIENTS, SERVE, Result, ServeSpec

#: the first request is due this long after the scheduler starts
LEAD_S = 0.05

#: a request still unanswered this long after the last due time is lost
DRAIN_S = 30.0

CODEC_SPANS = ("protocol.encode_frame", "protocol.decode_frame",
               "protocol.pack_bitmap", "protocol.unpack_bitmap")


@dataclass
class Request:
    index: int
    shard: object           # repro.service.ShardKey
    syndromes: np.ndarray
    due_s: float            # offset from the start of the pass
    unit: int               # burst (serve_bulk) or request (serve_rounds)


@dataclass
class Reply:
    due: float
    sent: float
    done: float
    outcome: Optional[object]   # DecodeOutcome; None if the link failed


class Pass:
    """Replies of one measuring pass, indexed like its requests."""

    def __init__(self, requests: List[Request]) -> None:
        self.requests = requests
        self.replies: List[Optional[Reply]] = [None] * len(requests)
        self.good: List[bool] = [False] * len(requests)
        self.cpu_s = 0.0
        self.wall_s = 0.0


class Handles:
    def __init__(self, spec: ServeSpec, modules: dict) -> None:
        self.spec = spec
        self.m = modules
        self.clients: list = []
        self.services: list = []
        self.cluster = None
        self.frontend = None


# ----------------------------------------------------------------------
# Set-up and teardown
# ----------------------------------------------------------------------
async def setup(name: str, seed: int) -> Tuple[Handles, Dict[str, float]]:
    """Import, build the serving stack, then warm every shard on every
    replica (and on every client connection) with one decode each."""
    spec = SERVE[name]
    t0 = time.monotonic()
    from repro.decoders import DECODER_REGISTRY
    from repro.decoders.geometry import MatchingGeometry
    from repro.noise.models import DephasingChannel
    from repro.service import (
        ClusterFrontend,
        DecodeClient,
        DecodeCluster,
        DecoderPool,
        DecodeService,
        MicroBatcher,
        ShardKey,
        bursty_trace,
        default_decoder_factory,
        poisson_trace,
        protocol,
    )
    from repro.surface.lattice import SurfaceLattice

    h = Handles(spec, {
        "DECODER_REGISTRY": DECODER_REGISTRY,
        "MatchingGeometry": MatchingGeometry,
        "DephasingChannel": DephasingChannel,
        "DecodeClient": DecodeClient, "DecodeCluster": DecodeCluster,
        "DecoderPool": DecoderPool, "MicroBatcher": MicroBatcher,
        "ShardKey": ShardKey, "bursty_trace": bursty_trace,
        "poisson_trace": poisson_trace, "protocol": protocol,
        "default_decoder_factory": default_decoder_factory,
        "SurfaceLattice": SurfaceLattice,
    })
    t1 = time.monotonic()
    if spec.cluster:
        h.cluster = DecodeCluster()
        h.frontend = ClusterFrontend(h.cluster)
        await h.cluster.start()
        h.services = [r.service for r in h.cluster.replicas]
        warm = [await r.ensure_client() for r in h.cluster.replicas]
        h.clients = [h.frontend.connect_client() for _ in range(N_CLIENTS)]
    else:
        service = DecodeService()
        h.services = [service]
        h.clients = [DecodeClient.connect_inprocess(service)
                     for _ in range(N_CLIENTS)]
        warm = []
    t2 = time.monotonic()
    rng = np.random.default_rng([seed, 99])
    for client in warm + h.clients:
        for wire in spec.shards:
            shard = ShardKey.parse(wire)
            syndromes = _syndromes(h, shard, spec.shots_per_request, rng)
            outcome = await client.decode(shard, syndromes)
            if not outcome.ok:
                raise RuntimeError(f"warm-up decode on {wire} failed: "
                                   f"{outcome.reason} {outcome.error}")
    t3 = time.monotonic()
    return h, {"import_s": t1 - t0, "build_s": t2 - t1, "warm_s": t3 - t2}


async def close(h: Handles) -> None:
    for client in h.clients:
        await client.close()
    if h.frontend is not None:
        await h.frontend.close()
        await h.cluster.close()
    else:
        for service in h.services:
            await service.close()


def setup_probe(name: str, seed: int) -> Dict[str, float]:
    """One set-up (and teardown) in this process; returns its timings."""
    async def probe():
        h, timings = await setup(name, seed)
        await close(h)
        return timings
    return asyncio.run(probe())


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _syndromes(h: Handles, shard, shots: int,
               rng: np.random.Generator) -> np.ndarray:
    lattice = h.m["SurfaceLattice"](shard.distance)
    geometry = h.m["MatchingGeometry"](lattice, shard.error_type)
    sample = h.m["DephasingChannel"]().sample(lattice, h.spec.p, shots, rng)
    errors = sample.z if shard.error_type == "z" else sample.x
    return geometry.syndrome_of_errors(errors)


def make_requests(h: Handles, seed: int, stream: int,
                  seconds: float) -> List[Request]:
    """The pass's schedule and syndromes, a pure function of the seed."""
    spec = h.spec
    trace_seed = int(np.random.SeedSequence([seed, stream])
                     .generate_state(1)[0])
    if spec.rate_rps is not None:
        n = max(1, round(spec.rate_rps * seconds))
        times = h.m["poisson_trace"](spec.rate_rps, n, seed=trace_seed).times_s
        units = list(range(n))
    else:
        n_bursts = max(1, round(seconds / spec.burst_gap_s))
        times = h.m["bursty_trace"](
            n_bursts, spec.burst_size, spec.burst_gap_s, seed=trace_seed
        ).times_s
        units = [i // spec.burst_size for i in range(len(times))]
    shards = [h.m["ShardKey"].parse(w) for w in spec.shards]
    rng = np.random.default_rng([seed, stream, 1])
    k = spec.shots_per_request
    pools = {}
    for j, shard in enumerate(shards):
        count = len(range(j, len(times), len(shards)))
        pools[j] = _syndromes(h, shard, count * k, rng)
    requests = []
    for i, (due, unit) in enumerate(zip(times, units)):
        j = i % len(shards)
        row = (i // len(shards)) * k
        requests.append(Request(i, shards[j], pools[j][row:row + k],
                                float(due), unit))
    return requests


# ----------------------------------------------------------------------
# The open-loop scheduler
# ----------------------------------------------------------------------
async def replay(h: Handles, requests: List[Request],
                 tracer: Optional[Tracer] = None) -> Pass:
    """Send each request at its due time; collect every reply."""
    loop = asyncio.get_running_loop()
    out = Pass(requests)
    per_unit = len(h.spec.shards)

    async def one(req: Request, due: float, client) -> None:
        sent = time.monotonic()
        if tracer is not None:
            tracer.rid.set(req.index)
        try:
            outcome = await client.decode(req.shard, req.syndromes)
        except ConnectionError:
            outcome = None
        out.replies[req.index] = Reply(due, sent, time.monotonic(), outcome)

    cpu0 = time.process_time()
    wall0 = time.monotonic()
    start = loop.time() + LEAD_S
    tasks = []
    for req in requests:
        due = start + req.due_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        # consecutive requests alternate shards; pairs alternate clients
        client = h.clients[(req.index // per_unit) % len(h.clients)]
        tasks.append(loop.create_task(one(req, due, client)))
    _, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
    for task in pending:
        task.cancel()        # lost: its reply slot stays None
    for result in await asyncio.gather(*tasks, return_exceptions=True):
        if isinstance(result, Exception):
            raise result
    out.wall_s = time.monotonic() - wall0
    out.cpu_s = time.process_time() - cpu0
    return out


# ----------------------------------------------------------------------
# Golden oracle (outside the timed region)
# ----------------------------------------------------------------------
def check_golden(h: Handles, p: Pass) -> None:
    """Mark each OK reply that is bit-identical to a direct
    ``decode_batch`` on a fresh decoder of its shard."""
    k = h.spec.shots_per_request
    for wire in h.spec.shards:
        idx = [r.index for r in p.requests if r.shard.wire() == wire]
        decoder = h.m["default_decoder_factory"](h.m["ShardKey"].parse(wire))
        ref = decoder.decode_batch(
            np.concatenate([p.requests[i].syndromes for i in idx])
        )
        for j, i in enumerate(idx):
            reply = p.replies[i]
            if reply is None or reply.outcome is None or not reply.outcome.ok:
                continue
            rows = slice(j * k, (j + 1) * k)
            p.good[i] = bool(
                np.array_equal(reply.outcome.corrections,
                               ref.corrections[rows])
                and np.array_equal(reply.outcome.converged,
                                   ref.converged[rows])
            )


def invariants(h: Handles) -> Dict[str, int]:
    """Counters the program keeps that must hold exact values."""
    shard_stats = [s for service in h.services
                   for s in service.telemetry.shards().values()]
    return {
        "decoded_dead": sum(s.decoded_dead for s in shard_stats),
        "rejected": sum(sum(s.shed_by_cause.values()) for s in shard_stats),
        "builds": sum(service.pool.builds for service in h.services),
        "expected_builds": len(h.spec.shards) * len(h.services),
    }


def tally(p: Pass) -> Dict[str, int]:
    """Fates of one pass's requests."""
    lost = sum(1 for r in p.replies if r is None)
    ok = sum(1 for r in p.replies
             if r is not None and r.outcome is not None and r.outcome.ok)
    good = sum(p.good)
    return {"sent": len(p.requests), "lost": lost, "ok": ok, "good": good,
            "mismatched": ok - good,
            "refused_or_failed": len(p.requests) - lost - ok}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latencies(p: Pass) -> List[float]:
    return [r.done - r.due for r, g in zip(p.replies, p.good) if g]


def end_to_end(spec: ServeSpec,
               p: Pass) -> Tuple[Dict[str, float], Dict[str, str]]:
    lat = latencies(p)
    q, tail_value, beyond = stats.tail(lat)
    answers = [(g, r.done - r.due)
               for r, g in zip(p.replies, p.good) if r is not None]
    units: Dict[int, list] = defaultdict(list)
    for req, reply, good in zip(p.requests, p.replies, p.good):
        units[req.unit].append((req, reply, good))
    drain = []
    for members in units.values():
        if all(good for _, _, good in members):
            shots = sum(req.syndromes.shape[0] for req, _, _ in members)
            last = max(reply.done for _, reply, _ in members)
            drain.append(shots / (last - members[0][1].due))
    unit = "request" if spec.rate_rps is not None else "burst"
    good_shots = sum(req.syndromes.shape[0]
                     for req, good in zip(p.requests, p.good) if good)
    metrics = {
        "shots_per_cpu_s": good_shots / p.cpu_s,
        "slo_frac": stats.slo_fraction(len(p.requests), answers,
                                       spec.slo_ms / 1e3),
        "shots_per_s": stats.median(drain),
        "latency_p50_ms": stats.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
    }
    notes = {
        "shots_per_cpu_s": f"{good_shots} correctly decoded shots / "
                           f"process CPU time of the pass",
        "slo_frac": f"of {len(p.requests)} sent, correct within "
                    f"{spec.slo_ms:g} ms of due",
        "shots_per_s": f"median over {len(drain)} {unit}s of shots / "
                       f"(last reply - due time)",
        "latency_p50_ms": f"p50 of {len(lat)} correct replies, from due "
                          f"time",
        "latency_tail_ms": f"p{q:g} of {len(lat)} replies, {beyond} beyond "
                           f"it",
    }
    return metrics, notes


def per_layer(h: Handles, untraced: Pass, traced: Pass,
              tracer: Tracer) -> Dict[str, float]:
    """Layer metrics from the traced pass, and a per-request latency
    budget whose stages sum to each request's latency."""
    own = tracer.self_times()
    codec: Dict[int, float] = defaultdict(float)
    transit: Dict[int, float] = defaultdict(float)
    wire_bytes: Dict[int, int] = defaultdict(int)
    router: Dict[int, Tuple[float, int]] = {}
    submit: Dict[int, object] = {}
    batches: Dict[Tuple[int, str], list] = defaultdict(list)
    decodes: Dict[Tuple[int, str, int], list] = defaultdict(list)
    busy: Dict[str, float] = defaultdict(float)
    for sp in tracer.spans:
        if sp.name in CODEC_SPANS:
            if sp.rid is not None:
                codec[sp.rid] += sp.duration
                if sp.name == "protocol.encode_frame":
                    wire_bytes[sp.rid] += sp.attrs["bytes"]
                transit[sp.rid] += sp.attrs.get("transit", 0.0)
        elif sp.name == "router.decode" and sp.rid is not None:
            router[sp.rid] = (own[sp.sid], sp.attrs["attempts"])
        elif sp.name == "batcher.submit" and sp.rid is not None:
            submit[sp.rid] = sp
        elif sp.name == "pool.decode_async":
            batches[(sp.attrs["pool"], sp.attrs["shard"])].append(sp)
        elif sp.name == "pool.decode":
            decodes[(sp.attrs["pool"], sp.attrs["shard"],
                     sp.attrs["arr"])].append(sp)
        elif sp.name == "decoders.decode_batch":
            busy[f"decoders.{sp.attrs['decoder']}.d{sp.attrs['d']}"
                 f".busy_s"] += own[sp.sid]

    # executor hop, decode time and return hop of every batch
    hop_decode: Dict[int, Tuple[float, float, float]] = {}
    starts: Dict[Tuple[int, str], List[float]] = {}
    for key, spans in batches.items():
        spans.sort(key=lambda s: s.start)
        starts[key] = [s.start for s in spans]
        for da in spans:
            inner = next(
                pd for pd in decodes[key + (da.attrs["arr"],)]
                if da.start <= pd.start and pd.end <= da.end
            )
            hop_decode[da.sid] = (inner.start - da.start, inner.duration,
                                  da.end - inner.end)

    rows = []
    for req, reply, good in zip(traced.requests, traced.replies, traced.good):
        if not good:
            continue
        rid, outcome = req.index, reply.outcome
        queue = outcome.queued_us / 1e6
        hop = decode = 0.0
        sub = submit.get(rid)
        if sub is not None:
            # the request's batch is the first one its shard dispatched
            # after the request had waited queued_us since submission
            key = (sub.attrs["pool"], sub.attrs["shard"])
            at = bisect.bisect_left(starts[key], sub.start + queue - 1e-7)
            hop, decode, _ = hop_decode[batches[key][at].sid]
        late = reply.sent - reply.due
        route = router.get(rid, (0.0, 0))[0]
        latency = reply.done - reply.due
        other = latency - (late + codec[rid] + transit[rid] + route + queue
                           + hop + decode)
        rows.append((latency, late, codec[rid], transit[rid], route, queue,
                     other, outcome.decode_us / 1e6, wire_bytes[rid],
                     router.get(rid, (0.0, 0))[1]))
    cols = list(zip(*rows))
    (lat, late, cod, tran, route, queue, other, dec_us, nbytes,
     attempts) = cols
    hops = [hd[0] for hd in hop_decode.values()]
    inv = invariants(h)
    metrics: Dict[str, float] = dict(busy)
    metrics.update({
        "decoders.decode_p50_ms": stats.median(dec_us) * 1e3,
        "decoders.decode_tail_ms": stats.tail(dec_us)[1] * 1e3,
        "loadgen.late_p50_ms": stats.median(late) * 1e3,
        "loadgen.late_tail_ms": stats.tail(late)[1] * 1e3,
        "protocol.codec_us_per_req": sum(cod) / len(cod) * 1e6,
        "protocol.bytes_per_req": sum(nbytes) / len(nbytes),
        "protocol.transit_us_per_req": sum(tran) / len(tran) * 1e6,
        "batcher.queue_p50_ms": stats.median(queue) * 1e3,
        "batcher.queue_tail_ms": stats.tail(queue)[1] * 1e3,
        "batcher.batch_shots_mean": (
            sum(s.attrs["shots"] for b in batches.values() for s in b)
            / len(hops)
        ),
        "batcher.batches": len(hops),
        "pool.hop_p50_us": stats.median(hops) * 1e6,
        "pool.return_p50_us": stats.median(
            hd[2] for hd in hop_decode.values()) * 1e6,
        "pool.builds": inv["builds"],
        "server.other_p50_ms": stats.median(other) * 1e3,
        "server.rejected": inv["rejected"],
        "server.decoded_dead": inv["decoded_dead"],
        "process.cpu_per_wall": untraced.cpu_s / untraced.wall_s,
        "trace.overhead_pct": 100.0 * (
            stats.median(lat) / stats.median(latencies(untraced)) - 1.0
        ),
        "trace.coverage_frac": 1.0 - sum(other) / sum(lat),
        "trace.samples": len(rows),
    })
    if h.cluster is not None:
        metrics.update({
            "router.self_p50_us": stats.median(route) * 1e6,
            "router.attempts_per_req": sum(attempts) / len(attempts),
            "router.failovers": h.cluster.telemetry.failovers,
        })
    return metrics


def instrument(tracer: Tracer, h: Handles) -> None:
    """Wrap each serving layer's public entry points for the traced pass."""
    m = h.m
    protocol = m["protocol"]
    tracer.replace_function(protocol, "encode_frame", tracer.frame_encoder)
    tracer.replace_function(protocol, "decode_frame", tracer.frame_decoder)
    tracer.wrap_function(protocol, "pack_bitmap", "protocol.pack_bitmap")
    tracer.replace_function(protocol, "unpack_bitmap", tracer.bitmap_decoder)
    tracer.wrap(m["DecodeClient"], "decode", "client.decode")
    tracer.wrap(
        m["DecodeCluster"], "decode", "router.decode",
        lambda a, k, r: {"attempts": r.metadata.get("attempts", 0)},
    )
    tracer.wrap(m["MicroBatcher"], "submit", "batcher.submit",
                lambda a, k, r: {"pool": id(a[0].pool), "shard": a[1].wire()})

    def batch_tag(a, k, r):
        return {"pool": id(a[0]), "shard": a[1].wire(), "arr": id(a[2]),
                "shots": int(a[2].shape[0])}

    tracer.wrap(m["DecoderPool"], "decode_async", "pool.decode_async",
                batch_tag)
    tracer.wrap(m["DecoderPool"], "decode", "pool.decode", batch_tag)
    for cls in m["DECODER_REGISTRY"].values():
        if "decode_batch" in cls.__dict__:
            tracer.wrap(cls, "decode_batch", "decoders.decode_batch",
                        lambda a, k, r: {"decoder": a[0].name,
                                         "d": a[0].lattice.d})


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
async def _run(name: str, seed: int, seconds: float, trace: bool):
    """Set up, run the pass(es), read the invariants, tear down."""
    h, timings = await setup(name, seed)
    passes: List[Pass] = []
    tracer: Optional[Tracer] = None
    try:
        if not trace:
            passes.append(await replay(h, make_requests(h, seed, 1, seconds)))
        else:
            half = seconds / 2.0
            passes.append(await replay(h, make_requests(h, seed, 1, half)))
            traced_requests = make_requests(h, seed, 2, half)
            tracer = Tracer()
            instrument(tracer, h)
            try:
                passes.append(await replay(h, traced_requests, tracer))
            finally:
                tracer.restore()
        inv = invariants(h)
    finally:
        await close(h)
    return h, timings, passes, tracer, inv


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """One run: set-up, the pass(es), then the golden oracle."""
    h, timings, passes, tracer, inv = asyncio.run(
        _run(name, seed, seconds, trace))
    fates: Dict[str, int] = defaultdict(int)
    for p in passes:
        check_golden(h, p)
        for key, value in tally(p).items():
            fates[key] += value
    correct = (fates["mismatched"] == 0 and fates["lost"] == 0
               and inv["decoded_dead"] == 0
               and inv["builds"] == inv["expected_builds"])
    if trace:
        metrics = per_layer(h, passes[0], passes[1], tracer)
        notes: Dict[str, str] = {}
    else:
        metrics, notes = end_to_end(h.spec, passes[0])
    return Result(timings, metrics, notes, attempted=fates["sent"],
                  failed=fates["sent"] - fates["good"], correct=correct,
                  checks={**fates, **inv}, tracer=tracer)
