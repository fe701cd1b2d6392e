"""Build, cache and load the native SFQ-mesh kernel (``mesh_kernel.c``).

The kernel is compiled on first use with the system C compiler
(``cc -O2 -shared -fPIC``) and loaded through :mod:`ctypes`; numpy
buffers are passed by address, so no Python headers or extra packages
are needed.  The shared object is cached under ``_build/`` next to this
file (or, where that is not writable, in the system temp directory),
named by a hash of the kernel source, the compiler version and the
platform, so each machine compiles a given kernel once.  It is written
to a temporary file and published with :func:`os.replace`, so parallel
worker processes may race to build it safely.

When no compiler is found or the build fails, :func:`load_kernel`
returns ``None`` and :func:`build_error` holds the reason; the mesh
decoder's default engine then falls back to the numpy engine with one
:class:`RuntimeWarning` that carries the compiler's error.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from ..decoders.sfq_mesh import RESET_HOLD

SOURCE = Path(__file__).with_name("mesh_kernel.c")
CACHE_DIR = Path(__file__).with_name("_build")

# mesh_kernel.c constants: per-cell mask bits and MeshConfig flag bits.
_VIRTUAL, _BOUNDARY, _BNORTH, _BSOUTH = 1, 2, 4, 8
_F_RESET, _F_BOUNDARY, _F_EQUIDISTANT = 1, 2, 4

_lib: Optional[ctypes.CDLL] = None
_error: Optional[str] = None
_tried = False


def build_error() -> Optional[str]:
    """Why the kernel could not be built or loaded (``None`` if it was)."""
    return _error


def load_kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, building it on the first call.

    Returns ``None`` when it cannot be built or loaded; :func:`build_error`
    then says why.
    """
    global _lib, _error, _tried
    if not _tried:
        _tried = True
        try:
            _lib = _bind(ctypes.CDLL(str(_build())))
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            _error = str(exc)
    return _lib


def _build() -> Path:
    """Path of the cached shared object, compiling it if needed."""
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError("no C compiler: 'cc' is not on PATH")
    version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, timeout=60
    ).stdout
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), version.encode(),
                 f"{sys.platform}-{platform.machine()}".encode()):
        key.update(part)
        key.update(b"\0")
    name = f"mesh_kernel-{key.hexdigest()[:16]}.so"
    for directory in (CACHE_DIR, Path(tempfile.gettempdir()) / "repro-native"):
        target = directory / name
        if target.is_file():
            return target
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        except OSError:
            continue  # not writable: try the next cache location
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(SOURCE)],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"'{cc} -O2 -shared -fPIC {SOURCE.name}' failed "
                    f"(exit {proc.returncode}): {proc.stderr.strip()}"
                )
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return target
    raise RuntimeError(f"no writable cache directory for {name}")


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    p, i32, i64 = ctypes.c_void_p, ctypes.c_int, ctypes.c_int64
    lib.mesh_decode.argtypes = [
        p, i64, i32,  # syndromes, shots, syndrome bits
        p, p, i32,  # ancilla cells, data cells, data qubits
        p, i32, i32, i32,  # cell mask, rows, cols, flags
        i64, i32, i32, i64,  # watchdog limit, strikes, reset hold, hard cap
        p, p, p,  # out: corrections, cycles, converged
    ]
    lib.mesh_decode.restype = i32
    return lib


class NativeMeshEngine:
    """The C kernel bound to one :class:`SFQMeshDecoder`'s geometry.

    Same ``decode`` contract as :class:`repro.perf.mesh_engine.FastMeshEngine`;
    the kernel keeps no state between calls.
    """

    def __init__(self, decoder, lib: ctypes.CDLL) -> None:
        self.lib = lib
        self.dec = decoder
        rows, cols = decoder._rows, decoder._cols
        stride = cols + 2  # planes carry a one-cell zero border

        def cells(r, c):
            return np.ascontiguousarray((r + 1) * stride + c + 1, np.int32)

        self.anc_cell = cells(decoder._anc_rows, decoder._anc_cols)
        self.data_cell = cells(decoder._data_rows, decoder._data_cols)
        mask = np.zeros((rows + 2, cols + 2), dtype=np.uint8)
        mask[1:-1, 1:-1] = (
            decoder._virtual * _VIRTUAL
            | decoder._boundary * _BOUNDARY
            | decoder._bnorth * _BNORTH
            | decoder._bsouth * _BSOUTH
        )
        self.mask = mask
        cfg = decoder.config
        self.flags = (
            _F_RESET * cfg.enable_reset
            | _F_BOUNDARY * cfg.enable_boundary
            | _F_EQUIDISTANT * cfg.enable_equidistant
        )

    def decode(self, syndromes, out_corr, out_cycles, out_conv) -> None:
        """Decode ``syndromes`` into preallocated C-contiguous outputs."""
        syn = np.ascontiguousarray(syndromes, dtype=np.uint8)
        n = syn.shape[0]
        if syn.ndim != 2 or syn.shape[1] != len(self.anc_cell):
            raise ValueError(f"expected (batch, {len(self.anc_cell)}) syndromes")
        for out, shape, dtype in (
            (out_corr, (n, len(self.data_cell)), np.uint8),
            (out_cycles, (n,), np.int64),
            (out_conv, (n,), np.bool_),
        ):
            if (out.shape != shape or out.dtype != dtype
                    or not out.flags.c_contiguous):
                raise ValueError(
                    f"native engine output must be a C-contiguous {dtype.__name__}"
                    f" array of shape {shape}"
                )
        dec = self.dec
        status = self.lib.mesh_decode(
            syn.ctypes.data, n, syn.shape[1],
            self.anc_cell.ctypes.data, self.data_cell.ctypes.data,
            len(self.data_cell),
            self.mask.ctypes.data, dec._rows, dec._cols, self.flags,
            dec._watchdog_limit, dec.config.max_watchdog_strikes,
            RESET_HOLD, dec._hard_cap,
            out_corr.ctypes.data, out_cycles.ctypes.data,
            out_conv.ctypes.data,
        )
        if status != 0:
            raise MemoryError("native mesh kernel could not allocate scratch")
