"""Fidelity brownout: trade decode accuracy for latency under overload.

NISQ+'s central bet (Holmes et al., ISCA 2020) is that an *approximate*
decoder inside the real-time budget beats an exact decoder outside it.
This controller applies the same trade dynamically at the serving
layer: when a shard is in sustained overload (``f_ratio`` at or above
``f_high``, or shots being shed), it downgrades the shard's *active
decode tier* along ``tiers`` — by default mwpm -> unionfind -> greedy,
each step cheaper and less accurate — **before** resorting to load
shedding.  When the shard cools (``f_ratio`` at or below ``f_low`` and
nothing shed), it upgrades back one step at a time.

Both directions are gated by dwell counts (``dwell_down`` consecutive
hot ticks to downgrade, ``dwell_up`` cool ticks to upgrade), so a noisy
``f_ratio`` cannot make the tier flap — the same hysteresis shape the
cluster's heartbeat recovery uses (``RECOVERY_PINGS``).

Every reply carries the tier that actually decoded it, the per-tier
shot counts land in telemetry (the accuracy cost is *visible*, never
silent), and golden drills pin each reply bit-identical to the active
tier's reference ``decode_batch`` — approximate, but deterministically
so.

The controller is deliberately passive: :meth:`tick` is driven by the
service's background task (or directly by tests and drills), and reads
the shard telemetry it was given — no task or clock of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .protocol import ShardKey
from .telemetry import ServiceTelemetry


@dataclass(frozen=True)
class BrownoutPolicy:
    """Degradation ladder + hysteresis of the brownout controller."""

    #: decode tiers from most to least accurate; a shard whose
    #: requested decoder is not on the ladder is never degraded
    tiers: Tuple[str, ...] = ("mwpm", "unionfind", "greedy")
    #: sustained f_ratio at or above this (or any shedding) is "hot"
    f_high: float = 1.0
    #: f_ratio at or below this with zero shedding is "cool"
    f_low: float = 0.7
    #: consecutive hot ticks before degrading one tier
    dwell_down: int = 2
    #: consecutive cool ticks before restoring one tier
    dwell_up: int = 4
    #: cadence of the service's automatic tick task (<= 0 disables it;
    #: ticks can still be driven manually)
    interval_s: float = 0.05

    def __post_init__(self) -> None:
        if len(self.tiers) < 2:
            raise ValueError("tiers needs at least two rungs")
        if len(set(self.tiers)) != len(self.tiers):
            raise ValueError("tiers must be distinct")
        if self.f_low > self.f_high:
            raise ValueError("f_low must be <= f_high")
        if self.dwell_down < 1 or self.dwell_up < 1:
            raise ValueError("dwell counts must be >= 1")


class BrownoutController:
    """Per-shard degradation level driven by f_ratio/shed telemetry."""

    def __init__(self, policy: Optional[BrownoutPolicy] = None,
                 telemetry: Optional[ServiceTelemetry] = None) -> None:
        self.policy = policy or BrownoutPolicy()
        self.telemetry = telemetry
        self._levels: Dict[str, int] = {}      # requested wire -> level
        self._hot: Dict[str, int] = {}
        self._cool: Dict[str, int] = {}
        self._last_shed: Dict[str, int] = {}
        self._last_arrivals: Dict[str, int] = {}
        self.downgrades = 0
        self.upgrades = 0

    # -- mapping -------------------------------------------------------
    def level(self, shard: ShardKey) -> int:
        return self._levels.get(shard.wire(), 0)

    def active_shard(self, shard: ShardKey) -> ShardKey:
        """The shard key actually decoded for a requested one."""
        try:
            rung = self.policy.tiers.index(shard.decoder)
        except ValueError:
            return shard               # not on the ladder: never degraded
        level = self._levels.get(shard.wire(), 0)
        if level <= 0:
            return shard
        rung = min(rung + level, len(self.policy.tiers) - 1)
        if self.policy.tiers[rung] == shard.decoder:
            return shard
        return ShardKey(self.policy.tiers[rung], shard.distance,
                        shard.error_type)

    @property
    def browned_out(self) -> int:
        """How many shards are currently running below requested tier."""
        return sum(1 for level in self._levels.values() if level > 0)

    # -- feedback loop -------------------------------------------------
    def tick(self) -> None:
        """One control step over every shard the telemetry knows."""
        if self.telemetry is None:
            return
        for wire, stats in list(self.telemetry.shards().items()):
            shard = ShardKey.parse(wire)
            if shard.decoder not in self.policy.tiers:
                continue
            # migration extractions are re-dispatched, not shed load
            shed = (sum(stats.shed_by_cause.values())
                    - stats.shed_by_cause["migrated"])
            shed_delta = shed - self._last_shed.get(wire, 0)
            self._last_shed[wire] = shed
            arrivals_delta = (
                stats.shots_received - self._last_arrivals.get(wire, 0)
            )
            self._last_arrivals[wire] = stats.shots_received
            f = stats.f_ratio
            # a tick with no new arrivals carries a *stale* f_ratio
            # (the EWMA freezes at its last value): an idle shard is
            # cool by definition, never hot — otherwise a load spike's
            # parting f could pin the tier down forever
            idle = arrivals_delta == 0
            hot = shed_delta > 0 or (
                not idle and f is not None and f >= self.policy.f_high
            )
            cool = shed_delta == 0 and (
                idle or f is None or f <= self.policy.f_low
            )
            self.observe(shard, hot=hot, cool=cool)

    def observe(self, shard: ShardKey, *, hot: bool, cool: bool) -> None:
        """Feed one hot/cool observation for a shard (tick's backend)."""
        wire = shard.wire()
        max_level = self._max_level(shard)
        if max_level == 0:
            return
        if hot:
            self._hot[wire] = self._hot.get(wire, 0) + 1
            self._cool[wire] = 0
        elif cool:
            self._cool[wire] = self._cool.get(wire, 0) + 1
            self._hot[wire] = 0
        else:                           # ambiguous: reset both streaks
            self._hot[wire] = 0
            self._cool[wire] = 0
        level = self._levels.get(wire, 0)
        if self._hot.get(wire, 0) >= self.policy.dwell_down:
            self._hot[wire] = 0
            if level < max_level:
                self._levels[wire] = level + 1
                self.downgrades += 1
        elif self._cool.get(wire, 0) >= self.policy.dwell_up:
            self._cool[wire] = 0
            if level > 0:
                self._levels[wire] = level - 1
                self.upgrades += 1

    def _max_level(self, shard: ShardKey) -> int:
        try:
            rung = self.policy.tiers.index(shard.decoder)
        except ValueError:
            return 0
        return len(self.policy.tiers) - 1 - rung

    def snapshot(self) -> dict:
        return {
            "browned_out": self.browned_out,
            "downgrades": self.downgrades,
            "upgrades": self.upgrades,
            "levels": {
                wire: level
                for wire, level in sorted(self._levels.items())
                if level > 0
            },
        }
