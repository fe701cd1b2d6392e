"""Live service telemetry: throughput, queue depth, latency quantiles.

Latencies land in a fixed log-spaced histogram (5% relative resolution
over 100 ns .. 100 s) so p50/p95/p99 come from a cumulative walk with
within-bucket interpolation — O(1) memory per shard no matter how many
requests flow through, which is what a stats endpoint polled under load
needs.  Every counter is owned by the single event loop thread, so no
locking is required.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, Optional

import numpy as np

from ..runtime.backlog import BacklogParameters


class LatencyHistogram:
    """Log-bucketed latency histogram with interpolated quantiles."""

    #: bucket upper bounds: 100 ns growing by 5% per bucket up to ~100 s
    _BOUNDS_NS = 100.0 * np.power(1.05, np.arange(426))

    def __init__(self) -> None:
        self._counts = np.zeros(len(self._BOUNDS_NS) + 1, dtype=np.int64)
        self.count = 0
        self.sum_ns = 0.0
        self.max_ns = 0.0

    def observe(self, latency_ns: float) -> None:
        idx = int(np.searchsorted(self._BOUNDS_NS, latency_ns, side="left"))
        self._counts[idx] += 1
        self.count += 1
        self.sum_ns += latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns

    @property
    def mean_ns(self) -> float:
        return self.sum_ns / self.count if self.count else 0.0

    def quantile_ns(self, q: float) -> float:
        """Interpolated ``q``-quantile (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for idx, n in enumerate(self._counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = self._BOUNDS_NS[idx - 1] if idx > 0 else 0.0
                hi = (
                    self._BOUNDS_NS[idx]
                    if idx < len(self._BOUNDS_NS)
                    else self.max_ns
                )
                frac = (target - cumulative) / n
                return min(lo + frac * (hi - lo), self.max_ns)
            cumulative += n
        return self.max_ns

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_us": round(self.mean_ns / 1e3, 3),
            "p50_us": round(self.quantile_ns(0.50) / 1e3, 3),
            "p95_us": round(self.quantile_ns(0.95) / 1e3, 3),
            "p99_us": round(self.quantile_ns(0.99) / 1e3, 3),
            "max_us": round(self.max_ns / 1e3, 3),
        }


class _RateEwma:
    """Exponentially-weighted rate estimate (events/s) from interval obs."""

    def __init__(self, alpha: float = 0.2) -> None:
        self._alpha = alpha
        self.rate_per_s: Optional[float] = None

    def observe(self, events: float, seconds: float) -> None:
        if seconds <= 0.0 or events <= 0.0:
            return
        rate = events / seconds
        if self.rate_per_s is None:
            self.rate_per_s = rate
        else:
            self.rate_per_s += self._alpha * (rate - self.rate_per_s)


#: every way the service sheds work, keyed exactly like the wire
#: ``reject`` reasons (``deadline`` covers both in-queue expiry and
#: expired-at-admission requests)
SHED_CAUSES = ("quota", "deadline", "backpressure", "too_large",
               "draining", "migrated")


def _by_cause(shed: Dict[str, int]) -> Dict[str, int]:
    """A shed ledger in ``SHED_CAUSES`` order, unseen causes omitted."""
    return {cause: shed[cause] for cause in SHED_CAUSES if cause in shed}


class ShardTelemetry:
    """Counters/gauges/histograms for one geometry shard."""

    def __init__(self, shard_wire: str) -> None:
        self.shard = shard_wire
        self.started_at = time.monotonic()
        self.requests = 0
        self.shots_received = 0
        self.shots_decoded = 0
        #: in-queue expiries — a subset of ``shed_by_cause["deadline"]``,
        #: which also counts requests already expired at admission
        self.shots_expired = 0
        self.shots_failed = 0
        #: every shed shot broken down by cause (see ``SHED_CAUSES``) —
        #: the one shed ledger; ``migrated`` counts shots extracted
        #: queued-but-undecoded by a live migration
        self.shed_by_cause: Counter = Counter()
        #: decoded shots by the tier that actually ran (brownout makes
        #: the requested and active decoder differ; the accuracy cost
        #: must be visible, never silent)
        self.decoded_by_tier: Dict[str, int] = {}
        #: shots that entered ``decode_batch`` after their deadline —
        #: the "never decoded dead" invariant's proof counter, asserted
        #: zero by the overload drills
        self.decoded_dead = 0
        self.batches = 0
        self.queue_depth = 0          # shots currently queued (gauge)
        self.max_queue_depth = 0
        self.latency = LatencyHistogram()   # enqueue -> reply ready
        self.decode = LatencyHistogram()    # decode_batch call alone
        self.service_rate = _RateEwma()     # decoded shots/s while busy
        self.arrival_rate = _RateEwma()     # offered shots/s
        self._last_arrival: Optional[float] = None

    # -- event hooks (called by the batcher) ---------------------------
    def on_enqueue(self, shots: int) -> None:
        now = time.monotonic()
        self.requests += 1
        self.shots_received += shots
        self.queue_depth += shots
        if self.queue_depth > self.max_queue_depth:
            self.max_queue_depth = self.queue_depth
        if self._last_arrival is not None:
            self.arrival_rate.observe(shots, now - self._last_arrival)
        self._last_arrival = now

    def on_reject(self, shots: int, cause: str = "backpressure") -> None:
        self.requests += 1
        self.shed_by_cause[cause] += shots

    def on_expire(self, shots: int) -> None:
        self.shots_expired += shots
        self.shed_by_cause["deadline"] += shots
        self.queue_depth = max(0, self.queue_depth - shots)

    def on_error(self, shots: int) -> None:
        self.shots_failed += shots
        self.queue_depth = max(0, self.queue_depth - shots)

    def on_migrate(self, shots: int) -> None:
        self.shed_by_cause["migrated"] += shots
        self.queue_depth = max(0, self.queue_depth - shots)

    def on_decoded_dead(self, shots: int) -> None:
        self.decoded_dead += shots

    def on_batch(self, shots: int, decode_s: float,
                 tier: Optional[str] = None) -> None:
        self.batches += 1
        self.shots_decoded += shots
        if tier is not None:
            self.decoded_by_tier[tier] = (
                self.decoded_by_tier.get(tier, 0) + shots
            )
        self.queue_depth = max(0, self.queue_depth - shots)
        self.decode.observe(decode_s * 1e9)
        self.service_rate.observe(shots, decode_s)

    def on_reply(self, latency_s: float) -> None:
        self.latency.observe(latency_s * 1e9)

    # -- derived -------------------------------------------------------
    @property
    def f_ratio(self) -> Optional[float]:
        """Offered/served rate ratio — the paper's divergence condition.

        The serving analogue of section III's ``f = r_gen / r_proc``
        (see :class:`repro.runtime.backlog.BacklogParameters`): a shard
        sustained above 1.0 would grow its queue without bound, which is
        exactly what the bounded queue + reject-with-retry-after policy
        converts into explicit backpressure.
        """
        arrival = self.arrival_rate.rate_per_s
        service = self.service_rate.rate_per_s
        if not arrival or not service:
            return None
        return BacklogParameters(
            syndrome_cycle_ns=1e9 / arrival, decode_time_ns=1e9 / service
        ).f_ratio

    def snapshot(self) -> dict:
        elapsed = max(time.monotonic() - self.started_at, 1e-9)
        f = self.f_ratio
        migrated = self.shed_by_cause["migrated"]
        return {
            "shard": self.shard,
            "requests": self.requests,
            "shots_received": self.shots_received,
            "shots_decoded": self.shots_decoded,
            # rejected at admission = everything shed minus in-queue
            # expiries and migration extractions
            "shots_rejected": (
                sum(self.shed_by_cause.values())
                - self.shots_expired - migrated
            ),
            "shots_expired": self.shots_expired,
            "shots_failed": self.shots_failed,
            "shots_migrated": migrated,
            "shed_by_cause": _by_cause(self.shed_by_cause),
            "decoded_by_tier": dict(sorted(self.decoded_by_tier.items())),
            "decoded_dead": self.decoded_dead,
            "batches": self.batches,
            "mean_batch_shots": round(
                self.shots_decoded / self.batches, 2
            ) if self.batches else 0.0,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "throughput_shots_per_s": round(self.shots_decoded / elapsed, 1),
            "service_rate_shots_per_s": round(
                self.service_rate.rate_per_s or 0.0, 1
            ),
            "f_ratio": round(f, 4) if f is not None else None,
            "latency": self.latency.snapshot(),
            "decode": self.decode.snapshot(),
        }


class TenantTelemetry:
    """Per-tenant accounting (service-wide, across shards)."""

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.requests = 0
        self.shots_received = 0
        self.shots_decoded = 0
        self.shed_by_cause: Counter = Counter()

    def on_enqueue(self, shots: int) -> None:
        self.requests += 1
        self.shots_received += shots

    def on_decoded(self, shots: int) -> None:
        self.shots_decoded += shots

    def on_shed(self, shots: int, cause: str) -> None:
        self.requests += 1
        self.shed_by_cause[cause] += shots

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "shots_received": self.shots_received,
            "shots_decoded": self.shots_decoded,
            "shed_by_cause": _by_cause(self.shed_by_cause),
        }


class ServiceTelemetry:
    """All shards plus service-wide totals (the stats endpoint payload)."""

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        self.connections = 0
        self.protocol_errors = 0
        self._shards: Dict[str, ShardTelemetry] = {}
        self._tenants: Dict[str, TenantTelemetry] = {}

    def shard(self, shard_wire: str) -> ShardTelemetry:
        try:
            return self._shards[shard_wire]
        except KeyError:
            stats = self._shards[shard_wire] = ShardTelemetry(shard_wire)
            return stats

    def shards(self) -> Dict[str, ShardTelemetry]:
        """Live per-shard telemetry (read-only view for controllers)."""
        return self._shards

    def tenant(self, tenant: str) -> TenantTelemetry:
        try:
            return self._tenants[tenant]
        except KeyError:
            stats = self._tenants[tenant] = TenantTelemetry(tenant)
            return stats

    def snapshot(self) -> dict:
        shards = {k: s.snapshot() for k, s in sorted(self._shards.items())}
        shed_by_cause: Counter = Counter()
        for s in shards.values():
            shed_by_cause.update(s["shed_by_cause"])
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "connections": self.connections,
            "protocol_errors": self.protocol_errors,
            "totals": {
                "requests": sum(s["requests"] for s in shards.values()),
                "shots_decoded": sum(
                    s["shots_decoded"] for s in shards.values()
                ),
                "shots_rejected": sum(
                    s["shots_rejected"] for s in shards.values()
                ),
                "shots_expired": sum(
                    s["shots_expired"] for s in shards.values()
                ),
                "decoded_dead": sum(
                    s["decoded_dead"] for s in shards.values()
                ),
                "shed_by_cause": _by_cause(shed_by_cause),
            },
            "tenants": {
                k: t.snapshot() for k, t in sorted(self._tenants.items())
            },
            "shards": shards,
        }
