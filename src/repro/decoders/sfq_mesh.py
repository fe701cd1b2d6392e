"""Cycle-accurate model of the NISQ+ SFQ mesh decoder (paper sections V-C, VI).

The hardware is a rectilinear mesh of identical decoder modules, one per
physical qubit, plus boundary modules beyond the two boundaries on which
error chains may terminate.  Modules exchange four signal classes, all of
which are *streams* regenerated every clock cycle (SFQ gates are clocked;
latched module state re-emits its pulse train each cycle):

* ``grow`` — emitted by hot-syndrome modules in all four directions and
  relayed in a straight line, one module per cycle;
* ``pair_request`` — emitted wherever two grow streams cross (an
  *intermediate* module, subject to the effective-corner rule below),
  traveling back toward the grow sources; consumed by the first hot
  module on the line;
* ``pair_grant`` — emitted by a hot module that accepted a request.  A hot
  module locks onto the *first* request direction to arrive (simultaneous
  arrivals arbitrated by a rotating priority) and keeps granting in that
  single direction until the global reset, which realizes the paper's
  "gives grant to only one of them";
* ``pair`` — fired (once per module per reset epoch) where two pair-grant
  streams meet; the pulses travel outward to the two hot endpoints,
  toggling the error output of every traversed module.

A hot module consuming a ``pair`` pulse clears its syndrome latch and
raises the global reset, which blocks module inputs for five cycles (the
module circuit depth) and clears all state *except* in-flight pair pulses
and the error-output latches — exactly the carve-out of section VI-B.

Because the grant streams of the two endpoints start flowing at the same
time (request arrival times are symmetric) their fronts meet at the
midpoint of a straight chain, or at the L-corner, so the fired pair marks
precisely the connecting chain.  The race between competing pairings makes
closer pairs complete first — the hardware's greedy matching.

The error output is modeled as a toggle (XOR) so that chains from
successive pairings compose the way the Pauli corrections they represent
do.  Remaining simultaneity artifacts (two pair pulses reaching one hot in
the same cycle) are kept: real asynchronous hardware races the same way,
and their rate is negligible below threshold.

The simulation is a synchronous cellular automaton batched over Monte
Carlo shots (state arrays are ``(batch, rows, cols)``), making the
lifetime simulations of Fig. 10 and Table IV tractable in pure numpy.

Design-variant flags reproduce the paper's incremental ablation (Fig. 10
top row): ``baseline``, ``+reset``, ``+reset+boundary``, and the final
design with the request/grant equidistant mechanism.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..surface.lattice import SurfaceLattice
from .base import BatchDecodeResult, DecodeResult, Decoder

# Directions of travel.
N, E, S, W = 0, 1, 2, 3
_OPP = (S, W, N, E)

#: Cycles the global reset blocks module inputs (module circuit depth).
RESET_HOLD = 5

#: Paper full-circuit latency per mesh cycle, picoseconds (Table III).
PAPER_CYCLE_TIME_PS = 162.72

#: Batched stepping backend used when none is requested explicitly.
#: ``"native"`` is the C kernel (:mod:`repro.perf.native`), built on the
#: first default decode; if it cannot be built this becomes ``"fast"``,
#: the numpy engine in :mod:`repro.perf.mesh_engine`, with one
#: RuntimeWarning.  ``"reference"`` is :class:`_MeshState`, the readable
#: automaton both engines are golden-tested against.
DEFAULT_ENGINE = "native"

ENGINES = ("native", "fast", "reference")


@dataclass(frozen=True)
class MeshConfig:
    """Feature flags and timing for a mesh-decoder variant."""

    enable_reset: bool = True
    enable_boundary: bool = True
    enable_equidistant: bool = True
    cycle_time_ps: float = PAPER_CYCLE_TIME_PS
    #: cycles without progress before the watchdog forces a reset
    watchdog_factor: int = 4
    #: watchdog firings without progress before giving up
    max_watchdog_strikes: int = 3

    @classmethod
    def baseline(cls) -> "MeshConfig":
        """Fig. 10 'Baseline design': no reset, boundary or equidistant."""
        return cls(
            enable_reset=False, enable_boundary=False, enable_equidistant=False
        )

    @classmethod
    def with_reset(cls) -> "MeshConfig":
        """Fig. 10 'Adding resets'."""
        return cls(
            enable_reset=True, enable_boundary=False, enable_equidistant=False
        )

    @classmethod
    def with_reset_and_boundary(cls) -> "MeshConfig":
        """Fig. 10 'Adding resets and boundaries'."""
        return cls(
            enable_reset=True, enable_boundary=True, enable_equidistant=False
        )

    @classmethod
    def final(cls) -> "MeshConfig":
        """Fig. 10 'Final design': reset + boundary + equidistant."""
        return cls()

    def label(self) -> str:
        if self.enable_equidistant and self.enable_boundary and self.enable_reset:
            return "final"
        if self.enable_boundary and self.enable_reset:
            return "reset+boundary"
        if self.enable_reset:
            return "reset"
        return "baseline"

    def with_cycle_time(self, ps: float) -> "MeshConfig":
        return replace(self, cycle_time_ps=ps)


@dataclass
class MeshBatchResult:
    """Array-level output of a batched mesh decode (fast Monte-Carlo path)."""

    corrections: np.ndarray  # (batch, n_data) uint8
    cycles: np.ndarray  # (batch,) int64
    converged: np.ndarray  # (batch,) bool
    #: stepping backend that produced the batch (one of :data:`ENGINES`)
    engine: Optional[str] = None

    def time_ns(self, cycle_time_ps: float) -> np.ndarray:
        return self.cycles * (cycle_time_ps / 1000.0)


def _shift_in(a: np.ndarray, d: int) -> np.ndarray:
    """Value arriving at each cell from a pulse traveling direction ``d``."""
    out = np.zeros_like(a)
    if d == N:
        out[:, :-1, :] = a[:, 1:, :]
    elif d == S:
        out[:, 1:, :] = a[:, :-1, :]
    elif d == E:
        out[:, :, 1:] = a[:, :, :-1]
    else:  # W
        out[:, :, :-1] = a[:, :, 1:]
    return out


class SFQMeshDecoder(Decoder):
    """Batched cycle-accurate simulation of the SFQ decoder mesh."""

    name = "sfq_mesh"

    def __init__(
        self,
        lattice: SurfaceLattice,
        error_type: str = "z",
        config: Optional[MeshConfig] = None,
    ) -> None:
        super().__init__(lattice, error_type)
        self.config = config or MeshConfig.final()
        size = lattice.size
        self._rows = size + 2  # rows 0 and size+1 are boundary-module rows
        self._cols = size
        # Canonical hot positions: ancillas at (r odd, c even) -> array row r+1.
        anc = [self.geometry.to_canonical(c) for c in self._native_ancillas()]
        self._anc_rows = np.array([r + 1 for r, _ in anc], dtype=int)
        self._anc_cols = np.array([c for _, c in anc], dtype=int)
        # Canonical data positions (r + c even); index i maps to
        # lattice.data_qubits[i] by construction.
        data_cells = [self.geometry.to_canonical(q) for q in lattice.data_qubits]
        self._data_rows = np.array([r + 1 for r, _ in data_cells], dtype=int)
        self._data_cols = np.array([c for _, c in data_cells], dtype=int)
        # Boundary-module masks (even columns of the virtual rows).
        self._boundary = np.zeros((self._rows, self._cols), dtype=bool)
        self._bnorth = np.zeros_like(self._boundary)
        self._bsouth = np.zeros_like(self._boundary)
        if self.config.enable_boundary:
            even_cols = np.arange(0, self._cols, 2)
            self._bnorth[0, even_cols] = True
            self._bsouth[self._rows - 1, even_cols] = True
            self._boundary = self._bnorth | self._bsouth
        # Virtual rows host boundary modules only: they never relay signals
        # or act as intermediates.
        self._virtual = np.zeros((self._rows, self._cols), dtype=bool)
        self._virtual[0, :] = True
        self._virtual[self._rows - 1, :] = True
        self._watchdog_limit = self.config.watchdog_factor * (
            self._rows + self._cols
        ) + 24
        self._hard_cap = (len(anc) + 2) * (self._watchdog_limit + RESET_HOLD + 4)
        #: lazily built engine instances by name (reused across calls)
        self._engines: dict = {}

    def _native_ancillas(self):
        if self.error_type == "z":
            return self.lattice.x_ancillas
        return self.lattice.z_ancillas

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def decode(self, syndrome: np.ndarray) -> DecodeResult:
        syndrome = self._check_syndrome(syndrome)
        batch = self.decode_arrays(syndrome[None, :])
        return DecodeResult(
            correction=batch.corrections[0],
            cycles=int(batch.cycles[0]),
            converged=bool(batch.converged[0]),
        )

    def decode_batch(self, syndromes: np.ndarray) -> BatchDecodeResult:
        """Structured batch result backed by :meth:`decode_arrays`."""
        batch = self.decode_arrays(np.asarray(syndromes))
        return BatchDecodeResult(
            corrections=batch.corrections,
            converged=batch.converged,
            cycles=batch.cycles,
            metadata={"engine": batch.engine},
        )

    def decode_arrays(
        self, syndromes: np.ndarray, engine: Optional[str] = None
    ) -> MeshBatchResult:
        """Decode a ``(batch, n_syndromes)`` array of syndromes.

        ``engine`` selects the stepping backend: ``"native"`` (the C
        kernel), ``"fast"`` (the preallocated numpy engine, reused across
        calls) or ``"reference"`` (the readable automaton in
        :class:`_MeshState`).  All produce identical corrections, cycle
        counts and convergence flags; ``None`` uses
        :data:`DEFAULT_ENGINE`.  The result names the engine that ran.
        """
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        if syndromes.ndim != 2 or syndromes.shape[1] != self.geometry.n_syndromes:
            raise ValueError(
                f"expected (batch, {self.geometry.n_syndromes}) syndromes, "
                f"got shape {syndromes.shape}"
            )
        engine = engine or _default_engine()
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        total = syndromes.shape[0]
        out_corr = np.zeros((total, self.lattice.n_data), dtype=np.uint8)
        out_cycles = np.zeros(total, dtype=np.int64)
        out_conv = np.ones(total, dtype=bool)
        if engine == "reference":
            _MeshState(self, syndromes).run(out_corr, out_cycles, out_conv)
        else:
            self._engine(engine, total).decode(
                syndromes, out_corr, out_cycles, out_conv
            )
        return MeshBatchResult(out_corr, out_cycles, out_conv, engine)

    def _engine(self, name: str, batch: int):
        """Cached native or numpy engine bound to this decoder."""
        engine = self._engines.get(name)
        if engine is None:
            if name == "native":
                from ..perf import native

                lib = native.load_kernel()
                if lib is None:
                    raise RuntimeError(
                        f"native mesh kernel unavailable: {native.build_error()}"
                    )
                engine = native.NativeMeshEngine(self, lib)
            else:
                from ..perf.mesh_engine import FastMeshEngine

                engine = FastMeshEngine(self, capacity=batch)
            self._engines[name] = engine
        return engine

    def cycles_to_ns(self, cycles: np.ndarray) -> np.ndarray:
        """Convert mesh cycles to nanoseconds at the configured clock."""
        return np.asarray(cycles, dtype=float) * (self.config.cycle_time_ps / 1000.0)


def _default_engine() -> str:
    """Resolve :data:`DEFAULT_ENGINE`, falling back to ``"fast"`` for good
    (with one RuntimeWarning) the first time the native kernel fails to
    build or load."""
    global DEFAULT_ENGINE
    if DEFAULT_ENGINE == "native":
        from ..perf import native

        if native.load_kernel() is None:
            DEFAULT_ENGINE = "fast"
            warnings.warn(
                "native mesh kernel unavailable, using the numpy 'fast' "
                f"engine instead: {native.build_error()}",
                RuntimeWarning,
                stacklevel=3,
            )
    return DEFAULT_ENGINE


@dataclass(frozen=True)
class MeshDecoderFactory:
    """Picklable decoder factory for multi-process sweep orchestration.

    ``run_threshold_sweep(..., workers=N)`` ships factories to worker
    processes, which rules out lambdas/closures; this frozen dataclass
    carries the same information and builds the decoder on the far side.
    """

    config: Optional[MeshConfig] = None
    error_type: str = "z"

    def __call__(self, lattice: SurfaceLattice) -> "SFQMeshDecoder":
        return SFQMeshDecoder(lattice, self.error_type, self.config)


class _MeshState:
    """Mutable batched automaton state (separate from the decoder facade)."""

    def __init__(self, dec: SFQMeshDecoder, syndromes: np.ndarray) -> None:
        self.dec = dec
        rows, cols = dec._rows, dec._cols
        b = syndromes.shape[0]
        self.index = np.arange(b)  # original shot index (for compaction)
        shape = (b, rows, cols)
        self.hot = np.zeros(shape, dtype=bool)
        self.hot[:, dec._anc_rows, dec._anc_cols] = syndromes.astype(bool)
        self.grow = np.zeros((4,) + shape, dtype=bool)
        # Grant-direction lock per module: -1 = unlocked, else the emission
        # direction of the grant stream ("gives grant to only one").
        self.glock = np.full(shape, -1, dtype=np.int8)
        # One-shot latches: pair already fired here this epoch.
        self.fired = np.zeros(shape, dtype=bool)
        self.bfired = np.zeros(shape, dtype=bool)
        self.chain = np.zeros(shape, dtype=bool)
        self.req = np.zeros((4,) + shape, dtype=bool)
        self.grant = np.zeros((4,) + shape, dtype=bool)
        self.pair = np.zeros((4,) + shape, dtype=bool)
        self.block = np.zeros(b, dtype=np.int32)
        self.rot = np.zeros(b, dtype=np.int32)
        self.cycles = np.zeros(b, dtype=np.int64)
        self.since_progress = np.zeros(b, dtype=np.int64)
        self.strikes = np.zeros(b, dtype=np.int32)
        self.gave_up = np.zeros(b, dtype=bool)
        self.active = self.hot.any(axis=(1, 2))

    # ------------------------------------------------------------------
    def run(self, out_corr, out_cycles, out_conv) -> None:
        dec = self.dec
        self._finalize(out_corr, out_cycles, out_conv, ~self.active)
        guard = 0
        while self.active.any():
            guard += 1
            if guard > dec._hard_cap:  # pragma: no cover - safety net
                self.gave_up |= self.active
                self._finalize(out_corr, out_cycles, out_conv, self.active.copy())
                break
            newly_done = self._step()
            if newly_done.any():
                self._finalize(out_corr, out_cycles, out_conv, newly_done)
            self._maybe_compact()

    def _finalize(self, out_corr, out_cycles, out_conv, mask) -> None:
        if not mask.any():
            return
        dec = self.dec
        shots = np.flatnonzero(mask)
        orig = self.index[shots]
        corr = self.chain[shots][:, dec._data_rows, dec._data_cols]
        out_corr[orig] = corr.astype(np.uint8)
        out_cycles[orig] = self.cycles[shots]
        out_conv[orig] = ~self.gave_up[shots]
        self.active[shots] = False

    def _maybe_compact(self) -> None:
        n_active = int(self.active.sum())
        if n_active == 0 or n_active > 0.25 * len(self.active):
            return
        keep = np.flatnonzero(self.active)
        self.index = self.index[keep]
        for name in ("hot", "glock", "fired", "bfired", "chain"):
            setattr(self, name, getattr(self, name)[keep])
        for name in ("grow", "req", "grant", "pair"):
            setattr(self, name, getattr(self, name)[:, keep])
        for name in (
            "block", "rot", "cycles", "since_progress", "strikes",
            "gave_up", "active",
        ):
            setattr(self, name, getattr(self, name)[keep])

    # ------------------------------------------------------------------
    def _choose_two_dirs(self, candidates):
        """Pick <=2 source directions by fixed priority (N, then W/E/S).

        ``candidates`` is a 4-list of boolean arrays of "received-from"
        directions; returns a 4-list of emission masks in travel-direction
        indexing (a request/pair back toward source direction d travels d).
        """
        has_n = candidates[0]
        to_w = has_n & candidates[3]
        to_e = has_n & ~candidates[3] & candidates[1]
        to_s = has_n & ~candidates[3] & ~candidates[1] & candidates[2]
        ew = ~has_n & candidates[1] & candidates[3]  # head-on East/West
        return [has_n, to_e | ew, to_s, to_w | ew]

    def _step(self) -> np.ndarray:
        """Advance one mesh cycle; return mask of newly finished shots."""
        dec = self.dec
        cfg = dec.config
        act = self.active
        self.cycles[act] += 1
        blocked = self.block > 0
        um = act & ~blocked  # shots whose modules accept inputs
        umc = um[:, None, None]
        actc = act[:, None, None]
        boundary = dec._boundary[None, :, :]
        virtual = dec._virtual[None, :, :]

        grow_in = [_shift_in(self.grow[d], d) for d in range(4)]
        req_in = [_shift_in(self.req[d], d) for d in range(4)]
        grant_in = [_shift_in(self.grant[d], d) for d in range(4)]
        pair_in = [_shift_in(self.pair[d], d) for d in range(4)]

        new_req = [np.zeros_like(self.hot) for _ in range(4)]
        new_grant = [np.zeros_like(self.hot) for _ in range(4)]
        new_pair = [np.zeros_like(self.hot) for _ in range(4)]
        reset_now = np.zeros(len(act), dtype=bool)
        progress = np.zeros(len(act), dtype=bool)

        # ---- pair pulses (immune to block and reset) ------------------
        if any(p.any() for p in pair_in):
            # Error outputs toggle (XOR): chains from successive pairings
            # compose like the Pauli corrections they encode.
            visit_parity = pair_in[0] ^ pair_in[1] ^ pair_in[2] ^ pair_in[3]
            self.chain ^= visit_parity & actc
            hotlike = self.hot | boundary
            endpoint = np.zeros_like(self.hot)
            for d in range(4):
                consumed = pair_in[d] & hotlike
                endpoint |= consumed & self.hot
                new_pair[d] |= pair_in[d] & ~hotlike & ~virtual & actc
            if endpoint.any():
                self.hot &= ~endpoint
                fired_shots = endpoint.any(axis=(1, 2)) & act
                reset_now |= fired_shots
                progress |= fired_shots

        # ---- grow streams ---------------------------------------------
        for d in range(4):
            self.grow[d] |= (grow_in[d] | self.hot) & umc & ~virtual

        # ---- pair-request emission at grow crossings ---------------------
        # Received-from masks: a stream traveling S arrives from the North.
        rf = (grow_in[S], grow_in[W], grow_in[N], grow_in[E])  # from N,E,S,W
        eff = (rf[0] & (rf[1] | rf[2] | rf[3])) | (rf[1] & rf[3])
        crossing = eff & ~self.hot & ~virtual & umc
        if crossing.any():
            emit = self._choose_two_dirs([r & crossing for r in rf])
            if cfg.enable_equidistant:
                for d in range(4):
                    new_req[d] |= emit[d]
            else:
                # Ablation: pair directly at grow crossings, once per epoch.
                fire = crossing & ~self.fired
                if fire.any():
                    emit = self._choose_two_dirs([r & fire for r in rf])
                    for d in range(4):
                        new_pair[d] |= emit[d]
                    self.chain ^= fire
                    self.fired |= fire

        # ---- boundary behaviour ------------------------------------------
        if cfg.enable_boundary:
            at_n = grow_in[N] & dec._bnorth[None] & umc
            at_s = grow_in[S] & dec._bsouth[None] & umc
            if at_n.any() or at_s.any():
                if cfg.enable_equidistant:
                    # Boundary modules answer grow streams with request
                    # streams back into the mesh.
                    new_req[S] |= at_n
                    new_req[N] |= at_s
                else:
                    fire_n = at_n & ~self.bfired
                    fire_s = at_s & ~self.bfired
                    new_pair[S] |= fire_n
                    new_pair[N] |= fire_s
                    self.bfired |= fire_n | fire_s

        # ---- pair-request propagation and grant locking -------------------
        if any(r.any() for r in req_in):
            any_req = req_in[0] | req_in[1] | req_in[2] | req_in[3]
            lockable = any_req & self.hot & (self.glock < 0) & umc
            if lockable.any():
                # Lock onto the first-arriving request direction;
                # simultaneous arrivals arbitrated by rotating priority.
                ranks = (np.arange(4)[None, :] - self.rot[:, None]) % 4
                scores = np.empty((4,) + self.hot.shape, dtype=np.int8)
                for d in range(4):
                    scores[d] = np.where(
                        req_in[d], ranks[:, d][:, None, None], 9
                    ).astype(np.int8)
                chosen = np.argmin(scores, axis=0).astype(np.int8)
                for d in range(4):
                    sel = lockable & (chosen == d)
                    # Request traveling d is granted back along _OPP[d].
                    self.glock[sel] = _OPP[d]
            passable = ~self.hot & ~virtual
            for d in range(4):
                new_req[d] |= req_in[d] & passable & umc

        # ---- grant streams -------------------------------------------------
        emit_grant = self.hot & (self.glock >= 0) & umc
        if emit_grant.any():
            for d in range(4):
                new_grant[d] |= emit_grant & (self.glock == d)
        if any(g.any() for g in grant_in):
            # Pair fires where two grant streams meet (effective rule),
            # once per module per epoch.  The firing module *consumes* both
            # grant streams (no onward relay), so exactly one module fires
            # per meeting of two grant fronts.
            gf = (grant_in[S], grant_in[W], grant_in[N], grant_in[E])
            geff = (gf[0] & (gf[1] | gf[2] | gf[3])) | (gf[1] & gf[3])
            fire = geff & ~self.hot & ~virtual & ~self.fired & umc
            if fire.any():
                emit = self._choose_two_dirs([g & fire for g in gf])
                for d in range(4):
                    new_pair[d] |= emit[d]
                self.chain ^= fire
                self.fired |= fire
            for d in range(4):
                bmatch = grant_in[d] & boundary & ~self.bfired & umc
                if bmatch.any():
                    # An engaged boundary answers a grant with a pair pulse.
                    new_pair[_OPP[d]] |= bmatch
                    self.bfired |= bmatch
                new_grant[d] |= (
                    grant_in[d] & ~self.hot & ~virtual & ~self.fired & umc
                )

        # ---- watchdog ----------------------------------------------------
        self.since_progress[act] += 1
        self.since_progress[progress] = 0
        self.strikes[progress] = 0
        hot_any = self.hot.any(axis=(1, 2))
        wd_fire = act & (self.since_progress > dec._watchdog_limit) & hot_any
        if wd_fire.any():
            self.strikes[wd_fire] += 1
            self.rot[wd_fire] += 1
            self.since_progress[wd_fire] = 0
            self.gave_up |= wd_fire & (self.strikes >= cfg.max_watchdog_strikes)

        # ---- global reset -------------------------------------------------
        rs = wd_fire.copy()
        if cfg.enable_reset:
            rs |= reset_now
        if rs.any():
            keep = ~rs[:, None, None]
            for d in range(4):
                self.grow[d] &= keep
                new_req[d] &= keep
                new_grant[d] &= keep
                if not cfg.enable_equidistant:
                    # The pair-sparing carve-out (section VI-B) is part of
                    # the final datapath; earlier design iterations lose
                    # in-flight pair pulses on reset.
                    new_pair[d] &= keep
            self.fired &= keep
            self.bfired &= keep
            self.glock[rs] = -1
            self.block[rs] = RESET_HOLD

        self.block[blocked] -= 1

        for d in range(4):
            self.req[d] = new_req[d]
            self.grant[d] = new_grant[d]
            self.pair[d] = new_pair[d]

        hot_any = self.hot.any(axis=(1, 2))
        alive = np.zeros(len(act), dtype=bool)
        for d in range(4):
            if new_pair[d].any():
                alive |= new_pair[d].any(axis=(1, 2))
        # A shot finishes when no hot modules remain and every in-flight
        # pair pulse has delivered its chain — or when the watchdog gave up.
        return act & (self.gave_up | (~hot_any & ~alive))
