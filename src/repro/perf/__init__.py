"""Performance subsystem: allocation-free decoding and parallel sweeps.

This package hosts the hot-path machinery that the ROADMAP's "as fast as
the hardware allows" axis depends on:

* :mod:`repro.perf.buffers` — a scratch-buffer pool sized once per
  ``(batch, rows, cols)`` shape plus the adaptive batch-compaction policy;
* :mod:`repro.perf.native` — builds, caches and loads the C stepping
  kernel (``mesh_kernel.c``), the default backend of
  :meth:`repro.decoders.sfq_mesh.SFQMeshDecoder.decode_arrays`;
* :mod:`repro.perf.mesh_engine` — the in-place, bit-packed numpy
  stepping engine, used when no C compiler is available;
* :mod:`repro.perf.parallel` — deterministic multi-process orchestration
  of Monte-Carlo sweeps (``run_threshold_sweep`` grid cells and
  ``run_trials`` chunks fan out over a ``ProcessPoolExecutor``).

Both engines are drop-in replacements for the reference automaton
(:class:`repro.decoders.sfq_mesh._MeshState`) and is covered by golden
equivalence tests: corrections, cycle counts and convergence flags match
the reference bit-for-bit on every :class:`~repro.decoders.sfq_mesh.MeshConfig`
ablation variant.
"""

from .buffers import CompactionPolicy, ScratchPool
from .mesh_engine import FastMeshEngine
from .parallel import (
    run_sweep_cells,
    run_trials_chunked,
    spawn_cell_seeds,
)

__all__ = [
    "CompactionPolicy",
    "ScratchPool",
    "FastMeshEngine",
    "run_sweep_cells",
    "run_trials_chunked",
    "spawn_cell_seeds",
]
