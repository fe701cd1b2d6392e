"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_fig10 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` splits the time into an untraced half and a traced half
and reports the per-layer metrics (spans go to
``.perfbench/trace-<workload>-seed<seed>.jsonl``).  Every metric is
printed by name with its unit, then a fingerprint of the machine and
the checks, and last one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every golden oracle and invariant held, 1 when
one failed (the result line is still printed), and 2 when the program
cannot be set up at all (no result line).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import stats
from workloads import (
    END_TO_END,
    PER_LAYER,
    REPORTED,
    SETUP_REPEATS,
    WORKLOADS,
    Result,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

#: a set-up that takes longer than this is a failure, not a sample
PROBE_TIMEOUT_S = 120


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up (and tear down) once, print the "
                         "phase timings as JSON; used for setup_s samples")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def workload_module(name: str):
    if name == "mc_fig10":
        import mc
        return mc
    import serve
    return serve


def probe_setup(args: argparse.Namespace) -> Dict[str, float]:
    """One set-up in a fresh interpreter, so imports are paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}):\n"
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Run fingerprint
# ----------------------------------------------------------------------
def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def openblas() -> Dict[str, object]:
    """Version and live thread count of the OpenBLAS numpy loaded."""
    import numpy
    found: Dict[str, object] = {
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__),
                                  os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)   # already loaded by numpy: same handle
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                found["openblas"] = config().decode().strip()
                found["blas_threads"] = threads()
                return found
    found["openblas"] = "not found"
    found["blas_threads"] = "unknown"
    return found


def fingerprint() -> Dict[str, object]:
    import numpy
    from repro.decoders import sfq_mesh
    return {
        "git_commit": git_commit(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **openblas(),
        "mesh_engine": sfq_mesh.DEFAULT_ENGINE,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def setup_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Medians over the set-ups: setup_s and its three phases."""
    phases = {f"setup.{k}": stats.median(s[k] for s in samples)
              for k in ("import_s", "build_s", "warm_s")}
    phases["setup_s"] = stats.median(sum(s.values()) for s in samples)
    return phases


def report(args: argparse.Namespace, result: Result,
           setups: List[Dict[str, float]]) -> dict:
    """Print every metric with its unit; return the result object."""
    catalogue = PER_LAYER if args.trace else END_TO_END
    values = dict(result.metrics)
    values.update(setup_metrics(setups))
    notes = dict(result.notes)
    notes["setup_s"] = f"median of {len(setups)} set-ups, first repro " \
                       f"import to every shard warm"
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    for key, value in result.checks.items():
        print(f"check {key} = {value}")
    metrics = {}
    for name, unit in catalogue.items():
        # a layer the workload bypasses reports 0; an end-to-end
        # metric is never missing
        value = float(values.get(name, 0.0) if args.trace else values[name])
        metrics[name] = {"value": value, "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    if not args.trace:
        for name, unit in REPORTED.items():
            print(f"reported {name} = {values[name]:.6g} {unit}  "
                  f"({notes[name]}; not gated)")
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = workload_module(args.workload)
    if args.setup_probe:
        print(json.dumps(module.setup_probe(args.workload, args.seed)))
        return 0
    try:
        setups = [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = module.measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    setups.append(result.timings)
    if result.tracer is not None:
        result.tracer.dump(
            TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        )
    line = report(args, result, setups)
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
