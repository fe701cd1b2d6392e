"""Overload-robustness drills (``record.py --suite overload``).

Four drills prove the service degrades *gracefully* — fairly, on time,
and without silent fidelity loss — when offered load exceeds capacity:

* ``adversarial_tenant_3x`` — two well-behaved tenants at a combined
  0.5x capacity share the shard with a hostile tenant offering ~2.5x
  capacity on its own (total ~3x).  The hostile tenant is metered by
  its token-bucket quota, so its excess bounces at *admission*;
  acceptance: every good tenant's ``served_fraction >= 0.99``, good
  p99 <= 2x the same tenants' hostile-free baseline, the hostile
  tenant is throttled (quota rejects, low served fraction), and
  ``decoded_dead == 0``.
* ``deadline_storm`` — a 2x-capacity trace where every request carries
  a deadline shorter than the growing backlog.  Late arrivals are shed
  as explicit ``deadline`` negative acks; acceptance: requests both
  served and expired, and the shard's ``decoded_dead`` counter stays 0
  (no dead work ever reached a decoder).
* ``brownout_and_recover`` — per-tier decode costs (mwpm 16x the cost
  of greedy) and a 2x-mwpm-capacity trace force the brownout
  controller down the mwpm -> unionfind -> greedy ladder; a light
  phase plus idle ticks walk it back up.  Acceptance: >= 1 downgrade,
  >= 1 upgrade, full recovery to level 0, and every delivered reply
  bit-identical to the reference decoder of the tier that served it.
* ``breaker_fleet_saturation`` — a 3x-capacity retry storm with and
  without a shared client circuit breaker.  Acceptance: with the
  breaker, ``mean_attempts <= 2`` (the breaker converts the storm into
  fast local failures) while the control run without it amplifies.

All rates are expressed as ``rho`` x the throttled shard's *known*
capacity (``max_batch / throttle_s``), so the drill shapes are
machine-portable.  Every entry carries a scale-invariant ``gate_ok``
(1.0 iff all of its acceptance gates held) — ``--regress-check`` keys
on it — plus the human-readable ``violations`` list.

Standalone run (exits nonzero on any gate violation)::

    PYTHONPATH=src python benchmarks/bench_overload.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.service import (
    AdmissionPolicy,
    BatchPolicy,
    BreakerPolicy,
    BrownoutPolicy,
    CircuitBreaker,
    DecodeClient,
    DecodeService,
    DecoderPool,
    RetryPolicy,
    ShardKey,
    TenantLoad,
    TenantQuota,
    ThrottledFactory,
    default_decoder_factory,
    poisson_trace,
    run_load,
    run_multitenant_load,
)
from repro.service.loadgen import make_request_syndromes

#: known per-batch service time of the throttled shard: capacity is
#: exactly ``max_batch / THROTTLE_S`` shots/s on any machine
THROTTLE_S = 2e-3
MAX_BATCH = 64
CAPACITY = MAX_BATCH / THROTTLE_S            # 32_000 shots/s
SHARD = ShardKey("greedy", 3, "z")

#: per-tier decode costs for the brownout drill: mwpm is 16x greedy,
#: so rho is 2.0 against mwpm but only 0.125 against greedy — exactly
#: the situation a fidelity brownout is for
TIER_DELAYS = {"mwpm": 4e-3, "unionfind": 1e-3, "greedy": 2.5e-4}
BROWNOUT_SHARD = ShardKey("mwpm", 3, "z")
MWPM_CAPACITY = MAX_BATCH / TIER_DELAYS["mwpm"]   # 16_000 shots/s


def _audit_payload(shard: ShardKey, shots: int = 64,
                   seed: int = 4242) -> np.ndarray:
    trace = poisson_trace(1.0, 1, seed=seed, shots_per_request=shots)
    return make_request_syndromes(shard, trace, p=0.04, seed=seed)[0]


async def golden_audit(service, shard: ShardKey,
                       seed: int = 4242) -> dict:
    """Decode a fresh deterministic payload and hold the reply to the
    fidelity contract: bit-identity with a reference decoder of the
    tier that *actually served it* (which a brownout may have changed).
    Retries briefly so a just-stormed queue can drain first."""
    payload = _audit_payload(shard, seed=seed)
    client = DecodeClient.connect_inprocess(service)
    outcome = None
    try:
        for _ in range(100):
            outcome = await client.decode(shard, payload)
            if outcome.ok:
                break
            await asyncio.sleep(0.05)
    finally:
        await client.close()
    if outcome is None or not outcome.ok:
        return {"served": False, "tier": None, "match": False}
    tier = outcome.tier or shard.decoder
    reference = default_decoder_factory(
        ShardKey(tier, shard.distance, shard.error_type)
    ).decode_batch(payload)
    return {
        "served": True,
        "tier": tier,
        "match": bool(np.array_equal(reference.corrections,
                                     outcome.corrections)),
    }


def _finish(record: dict, violations: List[str]) -> dict:
    record["violations"] = violations
    record["gate_ok"] = 1.0 if not violations else 0.0
    return record


def _decoded_dead(service) -> int:
    return sum(
        stats.decoded_dead
        for stats in service.telemetry.shards().values()
    )


# ----------------------------------------------------------------------
# Drill 1: adversarial tenant at ~3x capacity
# ----------------------------------------------------------------------
def run_adversarial_tenant_drill(requests: int = 300,
                                 seed: int = 2020) -> dict:
    good_spr, hostile_spr = 64, 256
    good_rate = 0.25 * CAPACITY / good_spr        # rho 0.25 each
    hostile_rate = 2.5 * CAPACITY / hostile_spr   # rho 2.5 alone
    hostile_requests = max(int(requests * hostile_rate / good_rate), 1)
    policy = BatchPolicy(
        max_batch=MAX_BATCH, max_wait_us=500.0,
        max_queue_shots=2048, max_tenant_queue_fraction=0.5,
    )
    quota = TenantQuota(
        rate_shots_per_s=0.05 * CAPACITY,         # ~2% of its offer
        burst_shots=float(hostile_spr),
    )

    def good_loads(salt: int) -> List[TenantLoad]:
        return [
            TenantLoad(
                tenant=name,
                trace=poisson_trace(good_rate, requests,
                                    seed=seed + salt + i,
                                    shots_per_request=good_spr),
            )
            for i, name in enumerate(("alice", "bob"))
        ]

    async def replay(loads, admission):
        service = DecodeService(
            pool=DecoderPool(factory=ThrottledFactory(THROTTLE_S)),
            policy=policy,
            admission=admission,
        )
        try:
            reports = await run_multitenant_load(
                service, SHARD, loads, p=0.04, seed=seed
            )
            audit = await golden_audit(service, SHARD, seed=seed)
            return reports, audit, _decoded_dead(service)
        finally:
            await service.close()

    # hostile-free baseline: the steady-state tail the gate compares to
    baseline, _, _ = asyncio.run(replay(good_loads(0), None))
    base_p99 = max(r.latency_p99_us for r in baseline.values())

    loads = good_loads(0) + [
        TenantLoad(
            tenant="mallory",
            trace=poisson_trace(hostile_rate, hostile_requests,
                                seed=seed + 99,
                                shots_per_request=hostile_spr),
        )
    ]
    reports, audit, dead = asyncio.run(replay(
        loads, AdmissionPolicy(quotas={"mallory": quota})
    ))

    good = {n: reports[n] for n in ("alice", "bob")}
    hostile = reports["mallory"]
    good_served = min(r.served_fraction for r in good.values())
    good_p99 = max(r.latency_p99_us for r in good.values())
    p99_ratio = good_p99 / base_p99 if base_p99 > 0 else None

    violations: List[str] = []
    if good_served < 0.99:
        violations.append(
            f"good tenant served_fraction {good_served:.4f} < 0.99"
        )
    if p99_ratio is not None and p99_ratio > 2.0:
        violations.append(
            f"good p99 {p99_ratio:.2f}x hostile-free baseline (> 2x)"
        )
    if not hostile.rejected_by_cause.get("quota"):
        violations.append("hostile tenant saw no quota rejections")
    if hostile.served_fraction > 0.5:
        violations.append(
            f"hostile served_fraction {hostile.served_fraction:.3f} > 0.5"
        )
    if dead:
        violations.append(f"decoded {dead} shots past their deadline")
    if not (audit["served"] and audit["match"]):
        violations.append(f"golden audit failed: {audit}")

    return _finish({
        "drill": "adversarial_tenant_3x",
        "capacity_shots_per_s": CAPACITY,
        "offered_rho_good": 0.5,
        "offered_rho_hostile": 2.5,
        "good_served_fraction": round(good_served, 4),
        "good_p99_us": round(good_p99, 1),
        "baseline_p99_us": round(base_p99, 1),
        "good_p99_vs_baseline": (
            round(p99_ratio, 3) if p99_ratio is not None else None
        ),
        "hostile_served_fraction": round(hostile.served_fraction, 4),
        "hostile_rejected_by_cause": hostile.rejected_by_cause,
        "decoded_dead": dead,
        "golden_audit": audit,
        "tenants": {n: r.as_dict() for n, r in reports.items()},
    }, violations)


# ----------------------------------------------------------------------
# Drill 2: deadline storm at 2x capacity
# ----------------------------------------------------------------------
def run_deadline_storm_drill(requests: int = 300,
                             seed: int = 2020) -> dict:
    spr = 64
    rate = 2.0 * CAPACITY / spr
    trace = poisson_trace(rate, requests, seed=seed,
                          shots_per_request=spr)

    async def replay():
        service = DecodeService(
            pool=DecoderPool(factory=ThrottledFactory(THROTTLE_S)),
            policy=BatchPolicy(max_batch=MAX_BATCH, max_wait_us=500.0,
                               max_queue_shots=100_000),
        )
        try:
            report = await run_load(
                service, SHARD, trace, p=0.04, seed=seed,
                deadline_us=60_000.0,
            )
            audit = await golden_audit(service, SHARD, seed=seed)
            return report, audit, _decoded_dead(service)
        finally:
            await service.close()

    report, audit, dead = asyncio.run(replay())

    violations: List[str] = []
    if report.ok == 0:
        violations.append("no requests served before their deadline")
    if report.expired == 0:
        violations.append(
            "storm expired nothing: deadline shedding not exercised"
        )
    if report.errors:
        violations.append(f"{report.errors} hard errors")
    if dead:
        violations.append(f"decoded {dead} shots past their deadline")
    if not (audit["served"] and audit["match"]):
        violations.append(f"golden audit failed: {audit}")

    return _finish({
        "drill": "deadline_storm",
        "capacity_shots_per_s": CAPACITY,
        "offered_rho": 2.0,
        "deadline_us": 60_000.0,
        "served": report.ok,
        "expired": report.expired,
        "rejected_by_cause": report.rejected_by_cause,
        "decoded_dead": dead,
        "golden_audit": audit,
        "report": report.as_dict(),
    }, violations)


# ----------------------------------------------------------------------
# Drill 3: brownout under pressure, recovery after
# ----------------------------------------------------------------------
def run_brownout_drill(requests: int = 300, seed: int = 2020) -> dict:
    spr = 64
    hot_rate = 2.0 * MWPM_CAPACITY / spr
    cool_rate = 0.2 * MWPM_CAPACITY / spr

    async def replay():
        service = DecodeService(
            pool=DecoderPool(factory=ThrottledFactory(TIER_DELAYS)),
            policy=BatchPolicy(max_batch=MAX_BATCH, max_wait_us=500.0,
                               max_queue_shots=1024),
            brownout=BrownoutPolicy(dwell_down=2, dwell_up=2,
                                    interval_s=0.02),
        )
        client = DecodeClient.connect_inprocess(service)

        async def phase(rate: float, n: int, salt: int):
            trace = poisson_trace(rate, n, seed=seed + salt,
                                  shots_per_request=spr)
            payloads = make_request_syndromes(
                BROWNOUT_SHARD, trace, p=0.04, seed=seed + salt
            )
            loop = asyncio.get_running_loop()
            base = loop.time()

            async def fire(i: int):
                delay = base + float(trace.times_s[i]) - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                return await client.decode(BROWNOUT_SHARD, payloads[i])

            outcomes = await asyncio.gather(
                *(fire(i) for i in range(trace.n_requests))
            )
            return list(zip(payloads, outcomes))

        try:
            pairs = await phase(hot_rate, requests, salt=1)
            hot_snap = service.brownout.snapshot()
            pairs += await phase(cool_rate, max(requests // 6, 10),
                                 salt=2)
            # idle ticks finish the recovery: shed delta 0, f low
            for _ in range(200):
                if service.brownout.browned_out == 0:
                    break
                await asyncio.sleep(0.05)
            final_snap = service.brownout.snapshot()
            return pairs, hot_snap, final_snap, _decoded_dead(service)
        finally:
            await client.close()
            await service.close()

    pairs, hot_snap, final_snap, dead = asyncio.run(replay())

    served_by_tier: dict = {}
    golden = True
    by_tier: dict = {}
    for payload, outcome in pairs:
        if not outcome.ok:
            continue
        tier = outcome.tier or BROWNOUT_SHARD.decoder
        served_by_tier[tier] = served_by_tier.get(tier, 0) + 1
        by_tier.setdefault(tier, []).append((payload, outcome.corrections))
    for tier, tier_pairs in by_tier.items():
        reference = default_decoder_factory(
            ShardKey(tier, BROWNOUT_SHARD.distance,
                     BROWNOUT_SHARD.error_type)
        ).decode_batch(
            np.concatenate([p for p, _ in tier_pairs], axis=0)
        ).corrections
        got = np.concatenate([c for _, c in tier_pairs], axis=0)
        if not np.array_equal(reference, got):
            golden = False

    violations: List[str] = []
    if final_snap["downgrades"] < 1:
        violations.append("overload never triggered a brownout")
    if final_snap["upgrades"] < 1:
        violations.append("brownout never upgraded back")
    if final_snap["browned_out"] != 0:
        violations.append(
            f"brownout did not recover: {final_snap['levels']}"
        )
    if len(served_by_tier) < 2:
        violations.append(
            f"only {sorted(served_by_tier)} served: no degraded replies"
        )
    if not golden:
        violations.append("a reply was not bit-identical to its tier")
    if dead:
        violations.append(f"decoded {dead} shots past their deadline")

    return _finish({
        "drill": "brownout_and_recover",
        "mwpm_capacity_shots_per_s": MWPM_CAPACITY,
        "offered_rho_hot": 2.0,
        "offered_rho_cool": 0.2,
        "tier_delays_s": TIER_DELAYS,
        "served_by_tier": dict(sorted(served_by_tier.items())),
        "served": sum(served_by_tier.values()),
        "n_requests": len(pairs),
        "brownout_at_peak": hot_snap,
        "brownout_final": final_snap,
        "golden_per_tier": golden,
        "decoded_dead": dead,
    }, violations)


# ----------------------------------------------------------------------
# Drill 4: circuit breaker bounds the retry storm
# ----------------------------------------------------------------------
def run_breaker_drill(requests: int = 300, seed: int = 2020) -> dict:
    spr = 64
    rate = 3.0 * CAPACITY / spr
    retry = RetryPolicy(max_attempts=5, base_us=200.0, jitter=0.1,
                        budget_us=50_000.0)

    async def replay(breaker):
        service = DecodeService(
            pool=DecoderPool(factory=ThrottledFactory(THROTTLE_S)),
            policy=BatchPolicy(max_batch=MAX_BATCH, max_wait_us=500.0,
                               max_queue_shots=256),
        )
        try:
            trace = poisson_trace(rate, requests, seed=seed,
                                  shots_per_request=spr)
            report = await run_load(
                service, SHARD, trace, p=0.04, seed=seed,
                retry=retry, breaker=breaker,
            )
            audit = await golden_audit(service, SHARD, seed=seed)
            return report, audit
        finally:
            await service.close()

    breaker = CircuitBreaker(BreakerPolicy(
        failure_threshold=5, cooldown_s=0.05,
    ))
    guarded, audit = asyncio.run(replay(breaker))
    control, _ = asyncio.run(replay(None))
    snap = breaker.snapshot()

    violations: List[str] = []
    if guarded.mean_attempts > 2.0:
        violations.append(
            f"mean_attempts {guarded.mean_attempts:.2f} > 2 with breaker"
        )
    if snap["opens"] < 1:
        violations.append("breaker never opened during saturation")
    if guarded.ok == 0:
        violations.append("breaker starved the run: nothing served")
    if not (audit["served"] and audit["match"]):
        violations.append(f"golden audit failed: {audit}")

    return _finish({
        "drill": "breaker_fleet_saturation",
        "capacity_shots_per_s": CAPACITY,
        "offered_rho": 3.0,
        "mean_attempts_with_breaker": round(guarded.mean_attempts, 3),
        "mean_attempts_without_breaker": round(control.mean_attempts, 3),
        "served_with_breaker": guarded.ok,
        "served_without_breaker": control.ok,
        "fast_fails": snap["fast_fails"],
        "breaker": snap,
        "rejected_by_cause": guarded.rejected_by_cause,
        "golden_audit": audit,
    }, violations)


def default_drills(requests: int = 300, seed: int = 2020) -> dict:
    return {
        "adversarial_tenant_3x":
            run_adversarial_tenant_drill(requests, seed),
        "deadline_storm": run_deadline_storm_drill(requests, seed),
        "brownout_and_recover": run_brownout_drill(requests, seed),
        "breaker_fleet_saturation": run_breaker_drill(requests, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Overload-robustness drills (standalone runner)."
    )
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the records as JSON to this path")
    args = parser.parse_args(argv)
    records = default_drills(args.requests, args.seed)
    failures = 0
    for name, record in records.items():
        status = "OK" if record["gate_ok"] else (
            "FAIL (" + "; ".join(record["violations"]) + ")"
        )
        print(f"{name:>26}: {status}")
        failures += 0 if record["gate_ok"] else 1
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=2) + "\n")
        print(f"wrote {args.out}")
    else:
        print(json.dumps(records, indent=2))
    return int(failures > 0)


if __name__ == "__main__":
    raise SystemExit(main())
