"""Order statistics and accounting shared by every workload.

Pure functions over plain numbers, so ``test_perfbench.py`` can pin
their rules without running a workload.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Optional, Sequence, Tuple

#: percentiles a tail metric may report, highest first
TAIL_LADDER = (99.0, 90.0, 50.0)

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n``
    samples expected above it, or ``None`` when even p50 has fewer."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= MIN_BEYOND * 100.0:
            return q
    return None


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond it)`` under the ladder rule."""
    q = tail_percentile(len(values))
    if q is None:
        raise ValueError(
            f"{len(values)} samples support no percentile with "
            f">= {MIN_BEYOND} samples beyond it"
        )
    value = percentile(values, q)
    return q, value, sum(1 for v in values if v > value)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (each clipped to the window; overlaps count once)."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals
        if e > start and s < end
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)


def slo_fraction(sent: int, answers: Iterable[Tuple[bool, float]],
                 limit_s: float) -> float:
    """Share of ``sent`` requests answered correctly within ``limit_s``.

    ``answers`` holds one ``(ok_and_correct, latency_s)`` pair per
    request that got any reply.  A refused, failed or golden-mismatched
    reply is a miss, and so is every sent request with no reply at all:
    the denominator is what was sent, not what came back.
    """
    if sent < 1:
        raise ValueError("slo_fraction needs at least one sent request")
    hits = sum(1 for good, latency in answers if good and latency <= limit_s)
    return hits / sent
