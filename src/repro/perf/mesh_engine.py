"""In-place, bit-packed stepping engine for the SFQ mesh automaton.

This is the numpy backend of the mesh decoder: the default engine when
the native C kernel (:mod:`repro.perf.native`) cannot be built.  It
reproduces :class:`repro.decoders.sfq_mesh._MeshState` bit-for-bit
(corrections, cycle counts, convergence flags — enforced by golden
equivalence tests across all four :class:`MeshConfig` ablation variants)
while eliminating the reference implementation's per-cycle costs:

* **Packed signal planes.**  The four signal classes (grow, request,
  grant, pair) of one travel direction share a single ``uint8`` plane,
  one bit per class.  A cycle therefore needs 4 fused shift kernels
  instead of the reference's 16 directional boolean copies, and the
  in-shift planes are OR/XOR-combined across classes without unpacking.
* **Zero per-cycle allocations.**  Every intermediate lives in a
  :class:`~repro.perf.buffers.ScratchPool` sized once per
  ``(batch, rows, cols)`` shape; all kernels run through ``out=`` ufunc
  calls.  The reference allocates ~30 arrays per cycle.
* **Early-exit class gating.**  Presence flags computed from the packed
  planes skip the request/grant/pair blocks (and the grant-lock scan)
  outright during the many cycles in which those streams are silent.
* **Adaptive compaction.**  Finished shots are packed out of the live
  window under a :class:`~repro.perf.buffers.CompactionPolicy` keyed to
  the current live size rather than the reference's fixed 25%-of-original
  threshold.

Bit layout of a signal plane (per travel direction)::

    bit 0 (1)  grow
    bit 1 (2)  pair_request
    bit 2 (4)  pair_grant
    bit 3 (8)  pair

Module-state masks (``hot``, ``fired``, ``bfired``, ``chain``) are kept
as 0/1 ``uint8`` planes with derived 0x00/0xFF masks refreshed only when
the underlying state changes (pair delivery, pair firing, resets).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..decoders.sfq_mesh import _OPP, RESET_HOLD
from .buffers import CompactionPolicy, ScratchPool

# Travel directions (match repro.decoders.sfq_mesh).
N, E, S, W = 0, 1, 2, 3

# Signal-class bits within a packed plane.
GROW = np.uint8(1)
REQ = np.uint8(2)
GRANT = np.uint8(4)
PAIR = np.uint8(8)


def shift_into(dst: np.ndarray, src: np.ndarray, d: int) -> None:
    """In-place equivalent of ``sfq_mesh._shift_in`` on packed planes.

    Writes the value arriving at each cell from a pulse traveling
    direction ``d``; every element of ``dst`` is overwritten (interior
    copy plus a zeroed inflow border), so ``dst`` needs no prior clear.
    """
    if d == N:
        dst[:, :-1, :] = src[:, 1:, :]
        dst[:, -1, :] = 0
    elif d == S:
        dst[:, 1:, :] = src[:, :-1, :]
        dst[:, 0, :] = 0
    elif d == E:
        dst[:, :, 1:] = src[:, :, :-1]
        dst[:, :, 0] = 0
    else:  # W
        dst[:, :, :-1] = src[:, :, 1:]
        dst[:, :, -1] = 0


class FastMeshEngine:
    """Reusable allocation-free decoder engine bound to one mesh decoder.

    One engine owns a scratch pool sized for a maximum batch (grown on
    demand) and can decode any number of successive syndrome batches; the
    Monte-Carlo harness reuses a single engine across all chunks of a
    trial run, so buffer setup costs are paid once per shape.
    """

    def __init__(
        self,
        decoder,
        capacity: int = 1024,
        policy: Optional[CompactionPolicy] = None,
    ) -> None:
        self.dec = decoder
        self.policy = policy or CompactionPolicy()
        self.n = 0
        self.dead = 0
        self._alloc(max(1, capacity))

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def _alloc(self, capacity: int) -> None:
        dec = self.dec
        rows, cols = dec._rows, dec._cols
        pool = ScratchPool(capacity, rows, cols)
        self.pool = pool
        self.capacity = capacity
        # Packed signal planes: current, next, shifted-in.
        self.sig = pool.plane("sig", lanes=4)
        self.nsig = pool.plane("nsig", lanes=4)
        self.inp = pool.plane("inp", lanes=4)
        # Class extraction and _choose_two_dirs scratch.
        self.cls_a = pool.plane("cls_a", lanes=4)
        self.cls_b = pool.plane("cls_b", lanes=4)
        self.cls_c = pool.plane("cls_c", lanes=4)
        self.t0 = pool.plane("t0")
        self.t1 = pool.plane("t1")
        self.t2 = pool.plane("t2")
        self.b0 = pool.plane("b0", dtype=bool)
        self.b1 = pool.plane("b1", dtype=bool)
        self.b2 = pool.plane("b2", dtype=bool)
        self.umnv = pool.plane("umnv")
        # Module state (0/1 planes) and derived 0x00/0xFF masks.
        self.hot01 = pool.plane("hot01")
        self.chain01 = pool.plane("chain01")
        self.fired01 = pool.plane("fired01")
        self.bfired01 = pool.plane("bfired01")
        self.hot_ff = pool.plane("hot_ff")
        self.not_hot_ff = pool.plane("not_hot_ff")
        self.hotlike_ff = pool.plane("hotlike_ff")
        self.not_hotlike_ff = pool.plane("not_hotlike_ff")
        self.not_fired_ff = pool.plane("not_fired_ff")
        self.not_bfired_ff = pool.plane("not_bfired_ff")
        self.glock = pool.plane("glock", dtype=np.int8)
        # Per-shot state.
        self.index = pool.shots("index", np.int64)
        self.block = pool.shots("block", np.int32)
        self.rot = pool.shots("rot", np.int32)
        self.cycles = pool.shots("cycles", np.int64)
        self.since = pool.shots("since", np.int64)
        self.strikes = pool.shots("strikes", np.int32)
        self.gave_up = pool.shots("gave_up", bool)
        self.active = pool.shots("active", bool)
        # Per-shot scratch.
        self.um = pool.shots("um", bool)
        self.blocked = pool.shots("blocked", bool)
        self.reset_now = pool.shots("reset_now", bool)
        self.progress = pool.shots("progress", bool)
        self.hot_any = pool.shots("hot_any", bool)
        self.s0 = pool.shots("s0", bool)
        self.s1 = pool.shots("s1", bool)
        self.rs = pool.shots("rs", bool)
        self.um_ff = pool.shots("um_ff", np.uint8)
        self.act_ff = pool.shots("act_ff", np.uint8)
        self.keep_u8 = pool.shots("keep_u8", np.uint8)
        self._iota = np.arange(capacity, dtype=np.int64)
        self._dirs4 = np.arange(4, dtype=np.int32)
        # Static geometry masks (rows, cols).
        virtual = dec._virtual
        self.nonvirt_ff = np.where(virtual, 0, 255).astype(np.uint8)
        self.boundary01 = dec._boundary.astype(np.uint8)
        self.boundary_ff = self.boundary01 * np.uint8(255)
        self.bnorth_ff = np.where(dec._bnorth, 255, 0).astype(np.uint8)
        self.bsouth_ff = np.where(dec._bsouth, 255, 0).astype(np.uint8)

    def _ensure_capacity(self, batch: int) -> None:
        if batch > self.capacity:
            self._alloc(batch)

    # ------------------------------------------------------------------
    # Derived-mask refresh (runs only when hot/fired/bfired change)
    # ------------------------------------------------------------------
    def _refresh_hot(self, n: int) -> None:
        np.multiply(self.hot01[:n], np.uint8(255), out=self.hot_ff[:n])
        np.invert(self.hot_ff[:n], out=self.not_hot_ff[:n])
        np.bitwise_or(self.hot01[:n], self.boundary01, out=self.t2[:n])
        np.multiply(self.t2[:n], np.uint8(255), out=self.hotlike_ff[:n])
        np.invert(self.hotlike_ff[:n], out=self.not_hotlike_ff[:n])

    def _refresh_fired(self, n: int) -> None:
        np.multiply(self.fired01[:n], np.uint8(255), out=self.not_fired_ff[:n])
        np.invert(self.not_fired_ff[:n], out=self.not_fired_ff[:n])

    def _refresh_bfired(self, n: int) -> None:
        np.multiply(self.bfired01[:n], np.uint8(255), out=self.not_bfired_ff[:n])
        np.invert(self.not_bfired_ff[:n], out=self.not_bfired_ff[:n])

    # ------------------------------------------------------------------
    # Batch lifecycle
    # ------------------------------------------------------------------
    def load(self, syndromes: np.ndarray) -> None:
        dec = self.dec
        b = syndromes.shape[0]
        self._ensure_capacity(b)
        self.n = b
        self.dead = 0
        self.sig[:, :b].fill(0)
        self.hot01[:b].fill(0)
        self.hot01[:b, dec._anc_rows, dec._anc_cols] = syndromes
        self.chain01[:b].fill(0)
        self.fired01[:b].fill(0)
        self.bfired01[:b].fill(0)
        self.glock[:b].fill(-1)
        for arr in (self.block, self.rot, self.strikes):
            arr[:b].fill(0)
        for arr in (self.cycles, self.since):
            arr[:b].fill(0)
        self.gave_up[:b].fill(False)
        np.any(self.hot01[:b], axis=(1, 2), out=self.active[:b])
        self.index[:b] = self._iota[:b]
        self._refresh_hot(b)
        self._refresh_fired(b)
        self._refresh_bfired(b)
        self._has_grow = False
        self._has_req = False
        self._has_grant = False
        self._has_pair = False
        self._maybe_locked = False

    def decode(self, syndromes, out_corr, out_cycles, out_conv) -> None:
        """Decode a batch into preallocated output arrays.

        Mirrors ``_MeshState.run`` exactly, including the hard-cap
        safety net and the order of finalize/compact operations.
        """
        self.load(syndromes)
        dec = self.dec
        n = self.n
        np.logical_not(self.active[:n], out=self.s1[:n])
        self._finalize(self.s1[:n], out_corr, out_cycles, out_conv)
        guard = 0
        while self.active[: self.n].any():
            guard += 1
            if guard > dec._hard_cap:  # pragma: no cover - safety net
                act = self.active[: self.n]
                self.gave_up[: self.n] |= act
                self._finalize(act.copy(), out_corr, out_cycles, out_conv)
                break
            newly_done = self._step()
            if newly_done.any():
                self._finalize(newly_done, out_corr, out_cycles, out_conv)
            self._maybe_compact()

    def _finalize(self, mask, out_corr, out_cycles, out_conv) -> None:
        if not mask.any():
            return
        dec = self.dec
        shots = np.flatnonzero(mask)
        orig = self.index[shots]
        corr = self.chain01[shots][:, dec._data_rows, dec._data_cols]
        out_corr[orig] = corr
        out_cycles[orig] = self.cycles[shots]
        out_conv[orig] = ~self.gave_up[shots]
        self.active[shots] = False
        self.dead += len(shots)

    def _maybe_compact(self) -> None:
        n = self.n
        if not self.policy.should_compact(n - self.dead, self.dead):
            return
        keep = np.flatnonzero(self.active[:n])
        k = len(keep)
        if k == 0 or k == n:
            self.dead = n - k
            return
        for arr in (
            self.index, self.block, self.rot, self.cycles, self.since,
            self.strikes, self.gave_up, self.active,
        ):
            arr[:k] = arr[keep]
        for plane in (
            self.hot01, self.chain01, self.fired01, self.bfired01,
            self.glock,
        ):
            plane[:k] = plane[keep]
        self.sig[:, :k] = self.sig[:, keep]
        self.n = k
        self.dead = 0
        self._refresh_hot(k)
        self._refresh_fired(k)
        self._refresh_bfired(k)

    # ------------------------------------------------------------------
    # The per-cycle kernel
    # ------------------------------------------------------------------
    def _choose_two_dirs(self, rf, gate, bit) -> np.ndarray:
        """Packed-plane port of ``_MeshState._choose_two_dirs``.

        ``rf`` are the four received-from planes (N, E, S, W order of
        arrival side), ``gate`` restricts candidates, ``bit`` is the
        signal-class bit carried by the planes.  Returns the 4-lane
        emission planes (travel-direction indexing) in ``self.cls_c``.
        """
        n = self.n
        c = self.cls_b
        o = self.cls_c
        t1 = self.t1[:n]
        for i in range(4):
            np.bitwise_and(rf[i], gate, out=c[i, :n])
        # ew = ~from_n & from_e & from_w (head-on East/West)
        np.bitwise_xor(c[0, :n], bit, out=t1)
        t1 &= c[1, :n]
        t1 &= c[3, :n]
        np.copyto(o[0, :n], c[0, :n])  # has_n -> emit N
        np.bitwise_and(c[0, :n], c[3, :n], out=o[3, :n])  # to_w
        o[3, :n] |= t1
        np.bitwise_xor(c[3, :n], bit, out=c[3, :n])  # now ~from_w
        np.bitwise_and(c[0, :n], c[3, :n], out=o[1, :n])
        o[1, :n] &= c[1, :n]  # to_e
        o[1, :n] |= t1
        np.bitwise_xor(c[1, :n], bit, out=c[1, :n])  # now ~from_e
        np.bitwise_and(c[0, :n], c[3, :n], out=o[2, :n])
        o[2, :n] &= c[1, :n]
        o[2, :n] &= c[2, :n]  # to_s
        return o

    def _arbitrate_locks(self, lockable: np.ndarray, n: int) -> None:
        """Lock hot modules onto their first-arriving request direction.

        Simultaneous arrivals are arbitrated by the per-shot rotating
        priority, exactly as the reference's rank/argmin construction.
        Arbitration is restricted to the (typically few) shots that have
        a lockable module this cycle, so the temporaries here are small
        — this is the one step path that trades tiny subset allocations
        for skipping full-batch argmin work.
        """
        np.any(lockable, axis=(1, 2), out=self.s1[:n])
        idx = np.flatnonzero(self.s1[:n])
        ranks = (self._dirs4[None, :] - self.rot[:n][idx][:, None]) % 4
        ranks8 = ranks.astype(np.int8)
        lock_sub = lockable[idx]
        scores = np.empty((4,) + lock_sub.shape, dtype=np.int8)
        for d in range(4):
            req_d = (self.inp[d, :n][idx] & REQ) != 0
            scores[d] = np.where(req_d, ranks8[:, d, None, None], 9)
        chosen = np.argmin(scores, axis=0)
        gsub = self.glock[:n][idx]
        for d in range(4):
            # Request traveling d is granted back along _OPP[d].
            np.copyto(gsub, np.int8(_OPP[d]), where=lock_sub & (chosen == d))
        self.glock[:n][idx] = gsub
        self._maybe_locked = True

    def _step(self) -> np.ndarray:
        """Advance one mesh cycle; return mask of newly finished shots.

        Operation order mirrors ``_MeshState._step`` exactly; comments
        reference the corresponding blocks.
        """
        dec = self.dec
        cfg = dec.config
        n = self.n
        act = self.active[:n]
        np.add(self.cycles[:n], 1, out=self.cycles[:n], where=act)
        blocked = self.blocked[:n]
        np.greater(self.block[:n], 0, out=blocked)
        um = self.um[:n]
        np.logical_not(blocked, out=um)
        np.logical_and(um, act, out=um)
        np.multiply(um, np.uint8(255), out=self.um_ff[:n])
        np.multiply(act, np.uint8(255), out=self.act_ff[:n])
        umc = self.um_ff[:n, None, None]
        actc = self.act_ff[:n, None, None]
        umb = um[:, None, None]
        um_any = bool(um.any())
        # Fused dynamic+static mask: accept-inputs AND non-virtual.
        umnv = self.umnv[:n]
        np.bitwise_and(self.nonvirt_ff, umc, out=umnv)
        t0, t1, t2 = self.t0[:n], self.t1[:n], self.t2[:n]
        sig, nsig, inp = self.sig, self.nsig, self.inp
        nonvirt = self.nonvirt_ff
        self.reset_now[:n].fill(False)
        self.progress[:n].fill(False)

        for d in range(4):
            shift_into(inp[d, :n], sig[d, :n], d)
            # grow persists across cycles (reference: self.grow[d] |= ...)
            np.bitwise_and(sig[d, :n], GROW, out=nsig[d, :n])

        # ---- pair pulses (immune to block and reset) ------------------
        if self._has_pair:
            # Error outputs toggle (XOR), reference "visit_parity".
            np.bitwise_xor(inp[0, :n], inp[1, :n], out=t0)
            t0 ^= inp[2, :n]
            t0 ^= inp[3, :n]
            np.bitwise_and(t0, PAIR, out=t0)
            np.right_shift(t0, 3, out=t0)
            np.bitwise_and(t0, actc, out=t0)
            np.bitwise_xor(self.chain01[:n], t0, out=self.chain01[:n])
            # Fused relay mask: ~hotlike & ~virtual & act.
            relay = self.cls_b[0, :n]
            np.bitwise_and(self.not_hotlike_ff[:n], nonvirt, out=relay)
            relay &= actc
            ep = t1
            ep.fill(0)
            for d in range(4):
                np.bitwise_and(inp[d, :n], PAIR, out=t2)
                # relay: pair_in & ~hotlike & ~virtual & act
                np.bitwise_and(t2, relay, out=t0)
                nsig[d, :n] |= t0
                # consumption at hot endpoints
                t2 &= self.hot_ff[:n]
                ep |= t2
            if ep.any():
                np.any(ep, axis=(1, 2), out=self.s0[:n])
                np.logical_and(self.s0[:n], act, out=self.s0[:n])
                self.reset_now[:n] |= self.s0[:n]
                self.progress[:n] |= self.s0[:n]
                np.right_shift(ep, 3, out=ep)
                np.bitwise_xor(ep, np.uint8(1), out=ep)
                self.hot01[:n] &= ep
                self._refresh_hot(n)

        # ---- grow streams ---------------------------------------------
        if um_any:
            gi = self.cls_a
            for d in range(4):
                np.bitwise_and(inp[d, :n], GROW, out=gi[d, :n])
                np.bitwise_or(gi[d, :n], self.hot01[:n], out=t0)
                t0 &= umnv
                nsig[d, :n] |= t0

        if um_any and self._has_grow:
            # Received-from masks: a stream traveling S arrives from N.
            rf = (gi[S, :n], gi[W, :n], gi[N, :n], gi[E, :n])

            # ---- pair-request emission at grow crossings --------------
            np.bitwise_or(rf[1], rf[2], out=t0)
            t0 |= rf[3]
            t0 &= rf[0]
            np.bitwise_and(rf[1], rf[3], out=t1)
            t0 |= t1
            t0 &= self.not_hot_ff[:n]
            t0 &= umnv  # crossing
            if t0.any():
                if cfg.enable_equidistant:
                    emit = self._choose_two_dirs(rf, t0, GROW)
                    for d in range(4):
                        np.left_shift(emit[d, :n], 1, out=t1)  # -> REQ
                        nsig[d, :n] |= t1
                else:
                    # Ablation: pair directly at crossings, once per epoch.
                    t0 &= self.not_fired_ff[:n]  # fire
                    if t0.any():
                        emit = self._choose_two_dirs(rf, t0, GROW)
                        for d in range(4):
                            np.left_shift(emit[d, :n], 3, out=t1)  # -> PAIR
                            nsig[d, :n] |= t1
                        np.bitwise_xor(
                            self.chain01[:n], t0, out=self.chain01[:n]
                        )
                        self.fired01[:n] |= t0
                        self._refresh_fired(n)

            # ---- boundary behaviour -----------------------------------
            # Boundary modules live only on the two virtual rows, so all
            # boundary math runs on single-row views of the planes.
            if cfg.enable_boundary:
                last = dec._rows - 1
                at_n = self.t0[:n, 0]  # (shots, cols) scratch views
                at_s = self.t1[:n, 0]
                t2r = self.t2[:n, 0]
                umr = self.um_ff[:n, None]
                np.bitwise_and(gi[N, :n, 0, :], self.bnorth_ff[0], out=at_n)
                at_n &= umr
                np.bitwise_and(gi[S, :n, last, :], self.bsouth_ff[last], out=at_s)
                at_s &= umr
                if at_n.any() or at_s.any():
                    if cfg.enable_equidistant:
                        # Boundaries answer grow with requests inward.
                        np.left_shift(at_n, 1, out=t2r)
                        nsig[S, :n, 0, :] |= t2r
                        np.left_shift(at_s, 1, out=t2r)
                        nsig[N, :n, last, :] |= t2r
                    else:
                        at_n &= self.not_bfired_ff[:n, 0, :]  # fire_n
                        at_s &= self.not_bfired_ff[:n, last, :]  # fire_s
                        np.left_shift(at_n, 3, out=t2r)
                        nsig[S, :n, 0, :] |= t2r
                        np.left_shift(at_s, 3, out=t2r)
                        nsig[N, :n, last, :] |= t2r
                        self.bfired01[:n, 0, :] |= at_n
                        self.bfired01[:n, last, :] |= at_s
                        self._refresh_bfired(n)

        # ---- pair-request propagation and grant locking ----------------
        if um_any and self._has_req:
            np.bitwise_or(inp[0, :n], inp[1, :n], out=t0)
            t0 |= inp[2, :n]
            t0 |= inp[3, :n]
            t0 &= REQ  # any_req
            b0, b1 = self.b0[:n], self.b1[:n]
            np.not_equal(t0, 0, out=b0)
            np.logical_and(b0, self.hot01[:n], out=b0)
            np.less(self.glock[:n], 0, out=b1)
            np.logical_and(b0, b1, out=b0)
            np.logical_and(b0, umb, out=b0)  # lockable
            if b0.any():
                self._arbitrate_locks(b0, n)
            for d in range(4):
                np.bitwise_and(inp[d, :n], REQ, out=t1)
                t1 &= self.not_hot_ff[:n]
                t1 &= umnv
                nsig[d, :n] |= t1

        # ---- grant streams ---------------------------------------------
        if um_any and self._maybe_locked:
            b0, b1 = self.b0[:n], self.b1[:n]
            np.greater_equal(self.glock[:n], 0, out=b0)
            np.logical_and(b0, self.hot01[:n], out=b0)
            if b0.any():
                np.logical_and(b0, umb, out=b1)  # emit_grant
                if b1.any():
                    b2 = self.b2[:n]
                    for d in range(4):
                        np.equal(self.glock[:n], d, out=b2)
                        np.logical_and(b2, b1, out=b2)
                        np.left_shift(b2.view(np.uint8), 2, out=t1)  # GRANT
                        nsig[d, :n] |= t1
            else:
                # No hot module holds a lock: stay silent until relocked.
                self._maybe_locked = False
        if um_any and self._has_grant:
            gg = self.cls_a
            for d in range(4):
                np.bitwise_and(inp[d, :n], GRANT, out=gg[d, :n])
            gf = (gg[S, :n], gg[W, :n], gg[N, :n], gg[E, :n])
            # Pair fires where two grant streams meet, once per epoch.
            np.bitwise_or(gf[1], gf[2], out=t0)
            t0 |= gf[3]
            t0 &= gf[0]
            np.bitwise_and(gf[1], gf[3], out=t1)
            t0 |= t1
            t0 &= self.not_hot_ff[:n]
            t0 &= self.not_fired_ff[:n]
            t0 &= umnv  # fire
            if t0.any():
                emit = self._choose_two_dirs(gf, t0, GRANT)
                for d in range(4):
                    np.left_shift(emit[d, :n], 1, out=t1)  # GRANT -> PAIR
                    nsig[d, :n] |= t1
                np.right_shift(t0, 2, out=t0)
                np.bitwise_xor(self.chain01[:n], t0, out=self.chain01[:n])
                self.fired01[:n] |= t0
                self._refresh_fired(n)
            step = dec._rows - 1  # slice picking the two virtual rows
            for d in range(4):
                # An engaged boundary answers a grant with a pair pulse;
                # boundary modules only exist on the two virtual rows.
                bm = self.t1[:n, :2]
                t2b = self.t2[:n, :2]
                np.bitwise_and(
                    gg[d, :n, ::step, :], self.boundary_ff[::step], out=bm
                )
                bm &= self.not_bfired_ff[:n, ::step, :]
                bm &= self.um_ff[:n, None, None]
                if bm.any():
                    np.left_shift(bm, 1, out=t2b)
                    nsig[_OPP[d], :n, ::step, :] |= t2b
                    np.right_shift(bm, 2, out=bm)
                    self.bfired01[:n, ::step, :] |= bm
                    self._refresh_bfired(n)
                np.bitwise_and(gg[d, :n], self.not_hot_ff[:n], out=t1)
                t1 &= self.not_fired_ff[:n]
                t1 &= umnv
                nsig[d, :n] |= t1

        # ---- watchdog ---------------------------------------------------
        np.add(self.since[:n], 1, out=self.since[:n], where=act)
        np.copyto(self.since[:n], 0, where=self.progress[:n])
        np.copyto(self.strikes[:n], 0, where=self.progress[:n])
        np.any(self.hot01[:n], axis=(1, 2), out=self.hot_any[:n])
        wd = self.s0[:n]
        np.greater(self.since[:n], dec._watchdog_limit, out=wd)
        np.logical_and(wd, act, out=wd)
        np.logical_and(wd, self.hot_any[:n], out=wd)
        if wd.any():
            np.add(self.strikes[:n], 1, out=self.strikes[:n], where=wd)
            np.add(self.rot[:n], 1, out=self.rot[:n], where=wd)
            np.copyto(self.since[:n], 0, where=wd)
            np.greater_equal(
                self.strikes[:n], cfg.max_watchdog_strikes, out=self.s1[:n]
            )
            np.logical_and(self.s1[:n], wd, out=self.s1[:n])
            self.gave_up[:n] |= self.s1[:n]

        # ---- global reset -----------------------------------------------
        rs = self.rs[:n]
        np.copyto(rs, wd)
        if cfg.enable_reset:
            rs |= self.reset_now[:n]
        if rs.any():
            # In-flight pair pulses survive reset only in the final
            # datapath (section VI-B carve-out).
            keep_bits = PAIR if cfg.enable_equidistant else np.uint8(0)
            kb = self.keep_u8[:n]
            kb.fill(255)
            np.copyto(kb, keep_bits, where=rs)
            kcol = kb[:, None, None]
            for d in range(4):
                nsig[d, :n] &= kcol
            rsc = rs[:, None, None]
            np.copyto(self.fired01[:n], 0, where=rsc)
            np.copyto(self.bfired01[:n], 0, where=rsc)
            self._refresh_fired(n)
            self._refresh_bfired(n)
            np.copyto(self.glock[:n], np.int8(-1), where=rsc)
            np.copyto(self.block[:n], RESET_HOLD, where=rs)
        np.subtract(self.block[:n], 1, out=self.block[:n], where=blocked)

        # ---- plane swap and finish detection ----------------------------
        self.sig, self.nsig = nsig, sig
        sig = self.sig
        # One reduction per plane yields the union of live signal bits,
        # driving the next cycle's class gating.
        bits = 0
        for d in range(4):
            bits |= int(np.bitwise_or.reduce(sig[d, :n], axis=None))
        self._has_grow = bool(bits & GROW)
        self._has_req = bool(bits & REQ)
        self._has_grant = bool(bits & GRANT)
        self._has_pair = bool(bits & PAIR)
        # A shot finishes when no hot modules remain and every in-flight
        # pair pulse has delivered its chain — or the watchdog gave up.
        done = self.s1[:n]
        np.logical_not(self.hot_any[:n], out=done)
        np.logical_and(done, act, out=done)
        if (bits & PAIR) and done.any():
            # Only shots that just went cold can be blocked by in-flight
            # pairs; scan the PAIR bits of that (small) subset alone.
            idx = np.flatnonzero(done)
            sub = sig[0, :n][idx]
            sub = sub | sig[1, :n][idx]
            sub |= sig[2, :n][idx]
            sub |= sig[3, :n][idx]
            done[idx] = ~(sub & PAIR).any(axis=(1, 2))
        np.logical_and(self.gave_up[:n], act, out=self.s0[:n])
        done |= self.s0[:n]
        return done
