"""Tests of the benchmark's own helpers and of its failure exit.

Run with ``python -m pytest perfbench/test_perfbench.py -q`` from the
repository root (the tier-1 suite collects ``tests/`` only).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import stats
from spans import Tracer
from workloads import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Percentiles under the >= 10-beyond rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, q", [
    (5000, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0),
    (20, 50.0), (19, None),
])
def test_tail_percentile_needs_ten_beyond(n, q):
    assert stats.tail_percentile(n) == q


def test_tail_reports_value_and_count_beyond():
    values = list(range(1, 1001))          # 1..1000
    q, value, beyond = stats.tail(values)
    assert q == 99.0
    assert value == pytest.approx(990.01)
    assert beyond == 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 19)


def test_percentile_interpolates():
    assert stats.percentile([4, 1, 3, 2, 5], 50) == 3
    assert stats.percentile([0, 10], 25) == pytest.approx(2.5)
    assert stats.percentile([7], 99) == 7


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    # overlapping children count once; parts outside the span are clipped
    children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-5.0, -1.0)]
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(5.0)


def test_self_time_without_children_is_duration():
    assert stats.self_time(2.0, 3.5, []) == pytest.approx(1.5)


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    assert Layer().outer() == 42
    tracer.restore()
    assert Layer.__dict__["outer"] is original
    inner, outer = tracer.spans       # recorded as each call returns
    assert inner.parent == outer.sid and outer.parent is None
    own = tracer.self_times()
    assert own[outer.sid] == pytest.approx(outer.duration - inner.duration)
    assert own[inner.sid] == pytest.approx(inner.duration)


def test_request_id_crosses_a_transport_to_the_serving_task():
    tracer = Tracer()
    encode = tracer.frame_encoder(lambda msg: json.dumps(msg).encode())
    decode = tracer.frame_decoder(lambda frame: json.loads(frame))
    unpack = tracer.bitmap_decoder(lambda obj: obj["b64"])

    async def scenario():
        async def client():
            tracer.rid.set(7)
            return encode({"id": 1, "syndromes": {"b64": "AA=="}})

        async def server(message):
            unpack(message["syndromes"])
            return tracer.rid.get()

        loop = asyncio.get_running_loop()
        frame = await loop.create_task(client())
        message = decode(frame)           # read by an unrelated task
        return await loop.create_task(server(message))

    assert asyncio.run(scenario()) == 7
    assert [(s.name, s.rid) for s in tracer.spans] == [
        ("protocol.encode_frame", 7), ("protocol.decode_frame", 7),
        ("protocol.unpack_bitmap", 7),
    ]


# ----------------------------------------------------------------------
# slo_frac accounting
# ----------------------------------------------------------------------
def test_slo_fraction_counts_every_failure_as_miss():
    answers = [
        (True, 0.010),     # correct and in time: the only hit
        (True, 0.030),     # correct but late
        (False, 0.001),    # refused, failed or golden mismatch
    ]
    # five sent: the two with no reply at all are misses too
    assert stats.slo_fraction(5, answers, 0.020) == pytest.approx(0.2)


def test_slo_fraction_limit_is_inclusive():
    assert stats.slo_fraction(1, [(True, 0.02)], 0.02) == 1.0


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


# ----------------------------------------------------------------------
# Failure exits
# ----------------------------------------------------------------------
def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_fig10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_corrupted_reply_fails_the_run(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.pool import DecoderPool

    decode = DecoderPool.decode
    calls = []

    def corrupting(self, shard, syndromes):
        result = decode(self, shard, syndromes)
        calls.append(shard)
        if len(calls) == 20:      # past the warm-up decodes
            result.corrections[0, 0] ^= 1
        return result

    monkeypatch.setattr(DecoderPool, "decode", corrupting)
    code = run.main(["--workload", "serve_rounds", "--seed", "3",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert len(calls) > 20
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
