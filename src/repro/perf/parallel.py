"""Deterministic multi-process orchestration of Monte-Carlo sweeps.

Every experiment in the repository reduces to a grid of independent
Monte-Carlo cells — one ``run_trials`` call per ``(distance, rate)``
point of a threshold sweep, or one decode chunk per slice of a big trial
budget.  This module fans those cells out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping results
**bit-identical regardless of worker count**:

* the root :class:`numpy.random.SeedSequence` spawns one child per cell
  in a fixed grid order, so a cell's random stream depends only on its
  position, never on which worker runs it or when;
* cell boundaries (grid order, chunk size) are fixed up front, so the
  partition of the trial budget does not depend on ``workers``.

``workers <= 1`` runs the exact same per-cell code serially in-process,
which is what the determinism regression tests compare against.

Factories shipped to workers must be picklable — module-level functions,
``functools.partial`` of them, or dataclasses such as
:class:`repro.decoders.sfq_mesh.MeshDecoderFactory`.  Lambdas are
detected up front and fall back to serial execution with the same
per-cell seeding (results stay identical, only the parallelism is lost).
"""

from __future__ import annotations

import functools
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..decoders.base import Decoder
from ..noise.models import ErrorModel
from ..surface.lattice import SurfaceLattice

DecoderFactory = Callable[[SurfaceLattice], Decoder]


def spawn_cell_seeds(
    seed: Optional[int], n_cells: int
) -> List[np.random.SeedSequence]:
    """One independent child seed per grid cell, in fixed grid order."""
    root = np.random.SeedSequence(seed)
    return root.spawn(n_cells)


@functools.lru_cache(maxsize=None)
def _shared_lattice(d: int) -> SurfaceLattice:
    """One lattice per distance per process.

    Lattices are immutable, so the cells of a sweep can share one and
    build its incidence matrices and logical masks once, not per cell.
    """
    return SurfaceLattice(d)


def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _resolve_workers(workers: Optional[int], payload) -> int:
    """Clamp the worker request against payload picklability."""
    workers = int(workers or 1)
    if workers <= 1:
        return 1
    if not _is_picklable(payload):
        warnings.warn(
            "sweep payload is not picklable (lambda/closure factory?); "
            "falling back to workers=1 — pass a module-level callable or "
            "repro.decoders.sfq_mesh.MeshDecoderFactory to parallelize",
            RuntimeWarning,
            stacklevel=3,
        )
        return 1
    return workers


# ----------------------------------------------------------------------
# Threshold-sweep cells: one (distance, rate) point each
# ----------------------------------------------------------------------
def _run_sweep_cell(payload) -> Tuple[int, object]:
    """Worker entry point: run one (d, p) cell of a threshold sweep."""
    from ..montecarlo.trial import run_trials

    (cell_index, factory, model, d, p, trials, seedseq, batch_size) = payload
    lattice = _shared_lattice(d)
    decoder = factory(lattice)
    rng = np.random.default_rng(seedseq)
    result = run_trials(
        lattice, decoder, model, p, trials, rng, batch_size=batch_size
    )
    return cell_index, result


def run_sweep_cells(
    decoder_factory: DecoderFactory,
    model: ErrorModel,
    distances: Sequence[int],
    physical_rates: Sequence[float],
    trials: int,
    seed: Optional[int] = None,
    workers: int = 1,
    batch_size: int = 2048,
) -> List[List[object]]:
    """Run the full ``(d, p)`` grid; returns ``results[i_d][i_p]``.

    The cell at grid position ``(i_d, i_p)`` always consumes the child
    seed at flat index ``i_d * len(physical_rates) + i_p``, so the
    returned :class:`~repro.montecarlo.trial.TrialResult` grid is
    bit-identical for any ``workers`` value.
    """
    distances = list(distances)
    physical_rates = list(physical_rates)
    cells = [(d, p) for d in distances for p in physical_rates]
    seeds = spawn_cell_seeds(seed, len(cells))
    payloads = [
        (i, decoder_factory, model, d, p, trials, seeds[i], batch_size)
        for i, (d, p) in enumerate(cells)
    ]
    flat: List[object] = [None] * len(cells)
    workers = _resolve_workers(workers, payloads[0] if payloads else None)
    if workers <= 1 or len(cells) <= 1:
        for payload in payloads:
            i, result = _run_sweep_cell(payload)
            flat[i] = result
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, result in pool.map(_run_sweep_cell, payloads):
                flat[i] = result
    n_p = len(physical_rates)
    return [flat[i * n_p : (i + 1) * n_p] for i in range(len(distances))]


# ----------------------------------------------------------------------
# Trial chunks: one slice of a single cell's trial budget each
# ----------------------------------------------------------------------
def _run_trial_chunk(payload) -> Tuple[int, object]:
    """Worker entry point: run one fixed-size chunk of a trial budget."""
    from ..montecarlo.trial import run_trials

    (chunk_index, factory, model, d, p, chunk_trials, seedseq, batch) = payload
    lattice = _shared_lattice(d)
    decoder = factory(lattice)
    rng = np.random.default_rng(seedseq)
    result = run_trials(
        lattice, decoder, model, p, chunk_trials, rng, batch_size=batch
    )
    return chunk_index, result


def run_trials_chunked(
    decoder_factory: DecoderFactory,
    model: ErrorModel,
    d: int,
    p: float,
    trials: int,
    seed: Optional[int] = None,
    workers: int = 1,
    chunk_size: int = 2048,
):
    """Split one cell's ``trials`` budget into fixed chunks and merge.

    Chunk boundaries depend only on ``trials`` and ``chunk_size``; chunk
    ``i`` consumes child seed ``i`` — so the merged
    :class:`~repro.montecarlo.trial.TrialResult` is identical for any
    ``workers`` value.
    """
    from ..montecarlo.trial import TrialResult

    sizes = []
    remaining = trials
    while remaining > 0:
        take = min(chunk_size, remaining)
        sizes.append(take)
        remaining -= take
    seeds = spawn_cell_seeds(seed, len(sizes))
    payloads = [
        (i, decoder_factory, model, d, p, sizes[i], seeds[i], chunk_size)
        for i in range(len(sizes))
    ]
    flat: List[object] = [None] * len(sizes)
    workers = _resolve_workers(workers, payloads[0] if payloads else None)
    if workers <= 1 or len(sizes) <= 1:
        for payload in payloads:
            i, result = _run_trial_chunk(payload)
            flat[i] = result
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, result in pool.map(_run_trial_chunk, payloads):
                flat[i] = result
    if not flat:
        lattice = SurfaceLattice(d)
        decoder = decoder_factory(lattice)
        return TrialResult(
            d=d, p=p, trials=0, failures=0,
            error_model=model.name, decoder=decoder.name,
        )
    return _merge_trial_results(flat)


def _merge_trial_results(chunks):
    """Combine per-chunk TrialResults into one aggregate record."""
    from ..montecarlo.trial import TrialResult

    first = chunks[0]
    cycles_parts = [c.cycles for c in chunks if c.cycles is not None]
    metadata = dict(first.metadata)
    if any("both_orientations" in c.metadata for c in chunks):
        metadata["both_orientations"] = any(
            c.metadata.get("both_orientations", False) for c in chunks
        )
    return TrialResult(
        d=first.d,
        p=first.p,
        trials=sum(c.trials for c in chunks),
        failures=sum(c.failures for c in chunks),
        error_model=first.error_model,
        decoder=first.decoder,
        cycles=np.concatenate(cycles_parts) if cycles_parts else None,
        inconsistent=sum(c.inconsistent for c in chunks),
        nonconverged=sum(c.nonconverged for c in chunks),
        metadata=metadata,
        engine=first.engine,
    )


# ----------------------------------------------------------------------
# Weight-stratum batches: one exact-weight sampling slice each
# (fan-out unit of repro.montecarlo.adaptive)
# ----------------------------------------------------------------------
def _run_weight_batch(payload) -> Tuple[int, int]:
    """Worker entry point: decode one weight-stratum sampling batch."""
    from ..montecarlo.importance import decode_weight_batch

    (index, factory, model, d, w, trials, seedseq, batch_size) = payload
    lattice = SurfaceLattice(d)
    decoder = factory(lattice)
    rng = np.random.default_rng(seedseq)
    failures = decode_weight_batch(
        lattice, decoder, model, w, trials, rng, batch_size
    )
    return index, failures


def run_weight_batches(payloads: Sequence, workers: int = 1) -> List[int]:
    """Run weight-stratum batches; failure counts in payload order.

    Each payload carries its own pre-spawned ``SeedSequence``, so the
    counts depend only on the payload list, never on scheduling — the
    adaptive controller's decisions (which feed on these counts) are
    therefore bit-identical for any ``workers`` value.
    """
    payloads = list(payloads)
    flat: List[int] = [0] * len(payloads)
    workers = _resolve_workers(workers, payloads[0] if payloads else None)
    if workers <= 1 or len(payloads) <= 1:
        for payload in payloads:
            i, failures = _run_weight_batch(payload)
            flat[i] = failures
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, failures in pool.map(_run_weight_batch, payloads):
                flat[i] = failures
    return flat


# ----------------------------------------------------------------------
# Persistent worker pool (used by the decode service's sharded pool)
# ----------------------------------------------------------------------
def make_worker_executor(workers: int) -> ProcessPoolExecutor:
    """A long-lived process pool for online (non-batch) fan-out.

    The sweep helpers above create one pool per call because a sweep is
    a closed batch; the decode service instead keeps a pool alive across
    requests so worker-side decoder caches amortize (see
    :mod:`repro.service.pool`).  Callers own shutdown.
    """
    workers = int(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1 for a process pool")
    return ProcessPoolExecutor(max_workers=workers)


# ----------------------------------------------------------------------
# Generic deterministic fan-out (used by experiment runners)
# ----------------------------------------------------------------------
def parallel_map(
    fn: Callable,
    payloads: Sequence,
    workers: int = 1,
) -> List[object]:
    """Order-preserving map over ``payloads``, optionally multi-process.

    ``fn`` must be a module-level function when ``workers > 1``.  Results
    are returned in payload order, so any deterministic per-payload
    seeding scheme is preserved regardless of worker count.
    """
    payloads = list(payloads)
    if not payloads:
        return []
    workers = _resolve_workers(workers, (fn, payloads[0]))
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))
