/*
 * Native stepping kernel for the SFQ mesh automaton.
 *
 * Reproduces repro.decoders.sfq_mesh._MeshState bit for bit: the same
 * corrections, cycle counts and convergence flags on all four MeshConfig
 * variants.  Shots are independent (the batch-level hard cap equals a
 * per-shot cap on cycles), so the kernel steps one shot at a time to its
 * own finish, one fused pass over the mesh per cycle.
 *
 * Layout: one 32-bit signal word per cell, one byte per travel direction
 * (byte d = direction d), and in each byte the four signal classes as
 * bits, as in repro.perf.mesh_engine:
 *
 *     bit 0 (1)  grow
 *     bit 1 (2)  pair_request
 *     bit 2 (4)  pair_grant
 *     bit 3 (8)  pair
 *
 * A pulse traveling d keeps its byte as it moves, so the word of signals
 * arriving at a cell is four masked neighbour loads, and relaying a class
 * onward is one AND.  Every per-cell plane has a one-cell border of
 * zeros, so those loads need no bounds checks.
 *
 * Built and loaded by repro.perf.native; no Python headers are needed.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { N = 0, E = 1, S = 2, W = 3 };

/* A signal class in every direction byte. */
#define GROW 0x01010101u
#define REQ 0x02020202u
#define GRANT 0x04040404u
#define PAIR 0x08080808u

/* The byte of travel direction d. */
#define DIR(d) (0xFFu << (8 * (d)))

/* Static per-cell flags (the ``cellmask`` argument). */
#define VIRTUAL 1
#define BOUNDARY 2
#define BNORTH 4
#define BSOUTH 8

/* ``flags`` bits: the MeshConfig feature switches. */
#define F_RESET 1
#define F_BOUNDARY 2
#define F_EQUIDISTANT 4

static const int OPP[4] = {S, W, N, E};

/* 4-bit travel-direction pattern of one signal class (``class_bit`` is
 * the class's bit within a byte). */
static inline unsigned arrivals(uint32_t in, int class_bit) {
    uint32_t x = (in >> class_bit) & GROW;
    return (x | x >> 7 | x >> 14 | x >> 21) & 0xFu;
}

/* One bit per direction in ``dirs`` -> that class bit in each byte. */
static inline uint32_t spread(unsigned dirs, uint32_t cls) {
    uint32_t w = (dirs & 1u) | (dirs & 2u) << 7 | (dirs & 4u) << 14 |
                 (dirs & 8u) << 21;
    return w * (cls & 0xFFu);
}

/*
 * _MeshState's crossing rule and _choose_two_dirs as one table: for the
 * travel directions of the arriving streams (bit d), the directions to
 * emit in, or 0 where the streams do not form an effective crossing.
 * A stream traveling S arrives from the North.
 */
static unsigned char CROSS[16];

static void init_cross(void) {
    for (unsigned t = 0; t < 16; t++) {
        unsigned c0 = t >> S & 1, c1 = t >> W & 1; /* from N, from E */
        unsigned c2 = t >> N & 1, c3 = t >> E & 1; /* from S, from W */
        unsigned eff = (c0 && (c1 || c2 || c3)) || (c1 && c3);
        unsigned ew = !c0 && c1 && c3; /* head-on East/West */
        unsigned to_e = (c0 && !c3 && c1) || ew;
        unsigned to_s = c0 && !c3 && !c1 && c2;
        unsigned to_w = (c0 && c3) || ew;
        CROSS[t] = eff ? (unsigned char)(c0 << N | to_e << E | to_s << S |
                                         to_w << W)
                       : 0;
    }
}

/*
 * Decode ``n_shots`` syndromes.
 *
 * syn          (n_shots, n_syn) uint8, C-contiguous; nonzero = hot
 * anc_cell     padded cell index of each syndrome bit
 * data_cell    padded cell index of each data qubit (correction order)
 * cellmask     per padded cell: VIRTUAL | BOUNDARY | BNORTH | BSOUTH
 * rows, cols   unpadded mesh shape
 * flags        F_RESET | F_BOUNDARY | F_EQUIDISTANT
 * out_corr     (n_shots, n_data) uint8
 * out_cycles   (n_shots,) int64
 * out_conv     (n_shots,) uint8 (0 where the watchdog gave up)
 *
 * Returns 0, or -1 if scratch memory could not be allocated.
 */
int mesh_decode(const uint8_t *syn, int64_t n_shots, int n_syn,
                const int32_t *anc_cell, const int32_t *data_cell, int n_data,
                const uint8_t *cellmask, int rows, int cols, int flags,
                int64_t watchdog_limit, int max_strikes, int reset_hold,
                int64_t hard_cap, uint8_t *out_corr, int64_t *out_cycles,
                uint8_t *out_conv) {
    const int stride = cols + 2;
    const size_t cells = (size_t)(rows + 2) * stride;
    const int equidistant = (flags & F_EQUIDISTANT) != 0;
    const int boundary_on = (flags & F_BOUNDARY) != 0;
    const int reset_on = (flags & F_RESET) != 0;
    /* In-flight pair pulses survive a reset only in the final datapath
     * (section VI-B carve-out). */
    const uint32_t keep = equidistant ? PAIR : 0;

    /* Two signal-word planes, then hot, chain, fired, bfired, glock. */
    uint32_t *words = (uint32_t *)calloc(2 * cells, sizeof(uint32_t));
    uint8_t *bytes = (uint8_t *)calloc(5 * cells, 1);
    if (words == NULL || bytes == NULL) {
        free(words);
        free(bytes);
        return -1;
    }
    uint8_t *hot = bytes;
    uint8_t *chain = hot + cells;
    uint8_t *fired = chain + cells;
    uint8_t *bfired = fired + cells;
    int8_t *glock = (int8_t *)(bfired + cells);
    init_cross();

    for (int64_t shot = 0; shot < n_shots; shot++) {
        const uint8_t *s = syn + shot * n_syn;
        uint8_t *corr = out_corr + shot * n_data;
        int n_hot = 0;
        memset(words, 0, 2 * cells * sizeof(uint32_t));
        memset(bytes, 0, 4 * cells);
        memset(glock, -1, cells);
        for (int i = 0; i < n_syn; i++) {
            if (s[i]) {
                hot[anc_cell[i]] = 1;
                n_hot++;
            }
        }
        int64_t cycles = 0, since = 0;
        int block = 0, rot = 0, strikes = 0, gave_up = 0;
        uint32_t *sig = words, *nsig = words + cells;
        int live = n_hot > 0;

        while (live) {
            if (cycles >= hard_cap) { /* safety net, as _MeshState.run */
                gave_up = 1;
                break;
            }
            cycles++;
            const int blocked = block > 0;
            const int um = !blocked; /* modules accept inputs */
            int endpoint = 0;        /* a hot consumed a pair pulse */
            uint32_t emitted = 0;
            const int lock_base = rot & 3;

            for (int r = 1; r <= rows; r++) {
                size_t idx = (size_t)r * stride + 1;
                for (int c = 0; c < cols; c++, idx++) {
                    const uint32_t in = (sig[idx + stride] & DIR(N)) |
                                        (sig[idx - 1] & DIR(E)) |
                                        (sig[idx - stride] & DIR(S)) |
                                        (sig[idx + 1] & DIR(W));
                    uint32_t out = sig[idx] & GROW; /* grow persists */
                    int h = hot[idx];
                    if (!in && !h) { /* quiet cell */
                        nsig[idx] = out;
                        continue;
                    }
                    const uint8_t m = cellmask[idx];
                    const int virt = m & VIRTUAL;

                    /* ---- pair pulses (immune to block and reset) ---- */
                    if (in & PAIR) {
                        uint32_t p = in & PAIR;
                        p ^= p >> 16;
                        p ^= p >> 8;
                        chain[idx] ^= (uint8_t)(p >> 3 & 1); /* XOR toggle */
                        if (h) { /* endpoint: latch clears, reset raised */
                            h = 0;
                            hot[idx] = 0;
                            n_hot--;
                            endpoint = 1;
                        } else if (!(m & (BOUNDARY | VIRTUAL))) {
                            out |= in & PAIR;
                        }
                    }
                    if (um) {
                        /* ---- grow streams ---- */
                        if (!virt) out |= (in & GROW) | (h ? GROW : 0);
                        /* ---- pair-request emission at grow crossings ---- */
                        unsigned e = CROSS[arrivals(in, 0)];
                        if (e && !h && !virt) {
                            if (equidistant) {
                                out |= spread(e, REQ);
                            } else if (!fired[idx]) {
                                /* Ablation: pair at crossings, once per epoch. */
                                out |= spread(e, PAIR);
                                chain[idx] ^= 1;
                                fired[idx] = 1;
                            }
                        }
                        /* ---- boundary behaviour ---- */
                        if (boundary_on) {
                            const int at_n = (m & BNORTH) && (in & GROW & DIR(N));
                            const int at_s = (m & BSOUTH) && (in & GROW & DIR(S));
                            if (equidistant) {
                                if (at_n) out |= REQ & DIR(S);
                                if (at_s) out |= REQ & DIR(N);
                            } else if ((at_n || at_s) && !bfired[idx]) {
                                if (at_n) out |= PAIR & DIR(S);
                                if (at_s) out |= PAIR & DIR(N);
                                bfired[idx] = 1;
                            }
                        }
                        /* ---- request propagation and grant locking ---- */
                        if (in & REQ) {
                            if (h && glock[idx] < 0) {
                                /* First-arriving direction; simultaneous
                                 * arrivals by rotating priority. */
                                const unsigned t = arrivals(in, 1);
                                int best = 0, best_rank = 9;
                                for (int d = 0; d < 4; d++) {
                                    const int rank = (d - lock_base) & 3;
                                    if ((t >> d & 1) && rank < best_rank) {
                                        best = d;
                                        best_rank = rank;
                                    }
                                }
                                glock[idx] = (int8_t)OPP[best];
                            }
                            if (!h && !virt) out |= in & REQ;
                        }
                        /* ---- grant streams ---- */
                        if (h && glock[idx] >= 0) out |= GRANT & DIR(glock[idx]);
                        if (in & GRANT) {
                            /* Pair fires where two grant streams meet, once
                             * per module per epoch, consuming both. */
                            unsigned g = CROSS[arrivals(in, 2)];
                            if (g && !h && !virt && !fired[idx]) {
                                out |= spread(g, PAIR);
                                chain[idx] ^= 1;
                                fired[idx] = 1;
                            }
                            if ((m & BOUNDARY) && !bfired[idx]) {
                                /* An engaged boundary answers the first grant
                                 * (in N, E, S, W order) with a pair pulse. */
                                const unsigned t = arrivals(in, 2);
                                int d = 0;
                                while (!(t >> d & 1)) d++;
                                out |= PAIR & DIR(OPP[d]);
                                bfired[idx] = 1;
                            }
                            if (!h && !virt && !fired[idx]) out |= in & GRANT;
                        }
                    }
                    nsig[idx] = out;
                    emitted |= out;
                }
            }

            /* ---- watchdog ---- */
            since++;
            if (endpoint) {
                since = 0;
                strikes = 0;
            }
            int reset = 0;
            if (since > watchdog_limit && n_hot > 0) {
                strikes++;
                rot++;
                since = 0;
                if (strikes >= max_strikes) gave_up = 1;
                reset = 1;
            }
            /* ---- global reset ---- */
            if (reset_on && endpoint) reset = 1;
            if (reset) {
                for (size_t i = 0; i < cells; i++) nsig[i] &= keep;
                emitted &= keep;
                memset(fired, 0, cells);
                memset(bfired, 0, cells);
                memset(glock, -1, cells);
                block = reset_hold;
            }
            if (blocked) block--;

            uint32_t *tmp = sig;
            sig = nsig;
            nsig = tmp;
            /* Finished when no hot module remains and every in-flight pair
             * pulse has delivered its chain, or when the watchdog gave up. */
            if (gave_up || (n_hot == 0 && !(emitted & PAIR))) live = 0;
        }

        for (int i = 0; i < n_data; i++) corr[i] = chain[data_cell[i]];
        out_cycles[shot] = cycles;
        out_conv[shot] = (uint8_t)!gave_up;
    }
    free(words);
    free(bytes);
    return 0;
}
