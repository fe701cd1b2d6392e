"""Exact minimum-weight perfect matching decoder.

The classical baseline of the paper (Fowler et al. [20], [21]): build a
complete graph on hot syndromes, give every syndrome a private virtual
boundary node, connect boundary nodes to each other at zero weight, and
solve minimum-weight perfect matching.

Two engines share the decoder:

* ``engine="reference"`` — the original networkx blossom path
  (``max_weight_matching`` on negated weights), kept as the golden
  reference; its per-shot graph build now reads the distances cached on
  :class:`~repro.decoders.geometry.MatchingGeometry` instead of
  recomputing them per call.
* ``engine="fast"`` (default) — matching on the reduced hot set, split
  for the whole batch at once.  A pair ``(i, j)`` with
  ``d_ij >= bd_i + bd_j`` can always be replaced by two boundary matches
  at no extra cost, so the optimal matching decomposes over connected
  components of the "useful pair" graph.  ``decode_batch`` builds that
  graph over (shot, hot) nodes and labels it with one
  :func:`scipy.sparse.csgraph.connected_components` call.  The two
  common sizes are resolved in numpy: a singleton matches its nearest
  boundary, and a 2-node component matches its one useful pair (which
  is always optimal).  Only components of three or more hots reach
  Python, where each is solved exactly — a bitmask dynamic program for
  small instances, LAP branch and bound above that, the blossom
  reference if the bound's node budget runs out — and memoized on its
  hot indices.  Corrections are XORed in from the precomputed path
  tables in one scatter.  ``decode`` runs the same split on one row.
  The fast engine is weight-optimal like the reference (golden-tested)
  but may select a different equal-weight matching on ties; within an
  engine, ``decode_batch`` is bit-identical to ``decode``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from .base import BatchDecodeResult, DecodeResult, Decoder, remember
from .geometry import NORTH, SOUTH, Coord, PairTarget

#: components up to this size are solved by the O(2^n n) bitmask DP
_DP_MAX = 8

#: LAP branch-and-bound node budget before falling back to blossom
_BNB_NODE_CAP = 600

_ENGINES = ("fast", "reference")

#: one component solution: (hot-hot pairs, boundary-matched hots), all
#: as global syndrome indices
_Solution = Tuple[List[Tuple[int, int]], List[int]]


class MWPMDecoder(Decoder):
    """Blossom-exact minimum-weight matching (fast or reference engine)."""

    name = "mwpm"

    def __init__(self, lattice, error_type: str = "z",
                 engine: str = "fast") -> None:
        super().__init__(lattice, error_type)
        if engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; known: {', '.join(_ENGINES)}"
            )
        self.engine = engine
        #: per-component matching memo (hot components recur across shots)
        self._match_memo: Dict[Tuple[int, ...], _Solution] = {}

    def decode(self, syndrome: np.ndarray) -> DecodeResult:
        syndrome = self._check_syndrome(syndrome)
        if self.engine == "reference":
            hots = self.geometry.syndrome_coords(syndrome)
            pairs = mwpm_pairs(self.geometry, hots)
            correction = self.geometry.correction_from_pairs(pairs)
            return DecodeResult(correction=correction, pairs=pairs)
        match = _match_batch(self.geometry, syndrome[None, :],
                             self._match_memo)
        return DecodeResult(
            correction=_corrections(self.geometry, 1, match)[0],
            pairs=_pairs_from_indices(
                self.geometry,
                zip(match.pair_i.tolist(), match.pair_j.tolist()),
                match.bd_i.tolist(),
            ),
        )

    def decode_batch(self, syndromes: np.ndarray) -> BatchDecodeResult:
        """One component split over the whole batch (see module doc)."""
        if self.engine == "reference":
            return super().decode_batch(syndromes)
        syndromes = self._check_syndrome_batch(syndromes)
        batch = syndromes.shape[0]
        match = _match_batch(self.geometry, syndromes, self._match_memo)
        return BatchDecodeResult(
            corrections=_corrections(self.geometry, batch, match),
            converged=np.ones(batch, dtype=bool),
        )


# ----------------------------------------------------------------------
# Fast engine: batched component split + exact small-instance solvers
# ----------------------------------------------------------------------
class _Matching(NamedTuple):
    """A batch's matching as flat arrays of global syndrome indices."""

    pair_shot: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    bd_shot: np.ndarray
    bd_i: np.ndarray


def _match_batch(
    geometry, syndromes: np.ndarray, memo: Dict[Tuple[int, ...], _Solution]
) -> _Matching:
    """Exact minimum-weight matching of every shot of a syndrome batch.

    Nodes are the (shot, hot) positions of ``syndromes``; an edge joins
    two hots of one shot when their pair is useful
    (``d_ij < bd_i + bd_j``).  Any other pair is never needed by some
    optimal matching, so each connected component solves independently.
    Components of three or more hots are solved by
    :func:`_solve_component` with members in ascending hot order.
    """
    shots, hots = np.nonzero(syndromes)
    n = len(hots)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _Matching(empty, empty, empty, empty, empty)
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    _, near = geometry.nearest_boundary_arrays
    # every within-shot node pair a < b: node k pairs with the nodes
    # after it up to the end of its shot (nonzero is row-major)
    shot_end = np.cumsum(np.bincount(shots))[shots]
    later = shot_end - np.arange(n) - 1
    a = np.repeat(np.arange(n), later)
    b = (
        np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
        + a + 1
    )
    ga, gb = hots[a], hots[b]
    useful = geometry.distance_matrix[ga, gb] < near[ga] + near[gb]
    a, b = a[useful], b[useful]
    graph = sp.coo_matrix(
        (np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n)
    )
    _, labels = connected_components(graph, directed=False)
    node_size = np.bincount(labels)[labels]

    single = node_size == 1
    bd_shot, bd_i = [shots[single]], [hots[single]]
    two = node_size[a] == 2  # a 2-node component has exactly one edge
    pair_shot, pair_i, pair_j = [shots[a[two]]], [hots[a[two]]], [hots[b[two]]]

    big = np.flatnonzero(node_size >= 3)
    if len(big):
        big = big[np.argsort(labels[big], kind="stable")]
        cuts = np.flatnonzero(np.diff(labels[big])) + 1
        big_hots = hots[big].tolist()
        big_shots = shots[big].tolist()
        big_pairs: List[Tuple[int, int, int]] = []
        big_bds: List[Tuple[int, int]] = []
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(big)]):
            prs, bds = _solve_component(
                geometry, tuple(big_hots[lo:hi]), memo
            )
            shot = big_shots[lo]
            big_pairs.extend((shot, i, j) for i, j in prs)
            big_bds.extend((shot, i) for i in bds)
        ps, pis, pjs = np.array(big_pairs, dtype=np.int64).reshape(-1, 3).T
        bs, bis = np.array(big_bds, dtype=np.int64).reshape(-1, 2).T
        pair_shot.append(ps)
        pair_i.append(pis)
        pair_j.append(pjs)
        bd_shot.append(bs)
        bd_i.append(bis)
    return _Matching(
        np.concatenate(pair_shot), np.concatenate(pair_i),
        np.concatenate(pair_j), np.concatenate(bd_shot), np.concatenate(bd_i),
    )


def _solve_component(
    geometry, key: Tuple[int, ...], memo: Dict[Tuple[int, ...], _Solution]
) -> _Solution:
    """Exact matching of one component, memoized on its hot indices.

    ``key`` holds the component's global hot indices in ascending order
    — local hot clusters recur constantly across shots.
    """
    cached = memo.get(key)
    if cached is not None:
        return cached
    idx = np.array(key)
    sub_d = geometry.distance_matrix[idx][:, idx]
    sub_b = geometry.nearest_boundary_arrays[1][idx]
    if len(key) <= _DP_MAX:
        prs, bds = _dp_match(sub_d.tolist(), sub_b.tolist())
    else:
        prs, bds = _bnb_match(sub_d, sub_b)
        if prs is None:  # node budget blown: exact blossom
            prs, bds = _blossom_match(geometry, key)
    cached = ([(key[i], key[j]) for i, j in prs], [key[i] for i in bds])
    remember(memo, key, cached)
    return cached


def _corrections(geometry, batch: int, match: _Matching) -> np.ndarray:
    """``(batch, n_data)`` corrections of a batch matching."""
    n_data = geometry.lattice.n_data
    tables = geometry.correction_tables
    if tables is not None:
        pair_table, boundary_table = tables
        # XOR whole 64-bit words: ``ufunc.at`` costs per element, so
        # rows padded to a multiple of 8 bytes scatter ~8x faster
        words = -(-n_data // 8)
        rows = np.zeros(
            (len(match.pair_i) + len(match.bd_i), 8 * words), dtype=np.uint8
        )
        rows[:, :n_data] = np.concatenate([
            pair_table[match.pair_i, match.pair_j],
            boundary_table[match.bd_i],
        ])
        acc = np.zeros((batch, words), dtype=np.uint64)
        np.bitwise_xor.at(
            acc,
            np.concatenate([match.pair_shot, match.bd_shot]),
            rows.view(np.uint64),
        )
        return np.ascontiguousarray(acc.view(np.uint8)[:, :n_data])
    corrections = np.zeros((batch, n_data), dtype=np.uint8)
    # no tables (large d): walk each shot's paths
    per_shot: Dict[int, Tuple[list, list]] = {}
    for shot, i, j in zip(match.pair_shot.tolist(), match.pair_i.tolist(),
                          match.pair_j.tolist()):
        per_shot.setdefault(shot, ([], []))[0].append((i, j))
    for shot, i in zip(match.bd_shot.tolist(), match.bd_i.tolist()):
        per_shot.setdefault(shot, ([], []))[1].append(i)
    for shot, (pair_idx, bd_idx) in per_shot.items():
        corrections[shot] = geometry.correction_from_pairs(
            _pairs_from_indices(geometry, pair_idx, bd_idx)
        )
    return corrections


def _greedy_ub(
    dist: np.ndarray, bd: np.ndarray
) -> Tuple[int, List[Tuple[int, int]], List[int]]:
    """Greedy feasible matching: a tight upper bound seeding the B&B."""
    n = len(bd)
    dist, bd = dist.tolist(), bd.tolist()
    options = [(bd[i], i, -1) for i in range(n)]
    options.extend(
        (dist[i][j], i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if dist[i][j] < bd[i] + bd[j]
    )
    options.sort()
    matched = [False] * n
    weight = 0
    pairs: List[Tuple[int, int]] = []
    singles: List[int] = []
    for w, i, j in options:
        if matched[i]:
            continue
        if j < 0:
            matched[i] = True
            singles.append(i)
            weight += w
        elif not matched[j]:
            matched[i] = matched[j] = True
            pairs.append((i, j))
            weight += w
    return weight, pairs, singles


def _bnb_match(dist: np.ndarray, bd: np.ndarray):
    """Exact matching via LAP-bounded branch and bound (scipy solver).

    The symmetric assignment problem with ``C[i][j] = d_ij`` and
    ``C[i][i] = 2 b_i`` lower-bounds twice the matching weight, and an
    involution solution *is* an optimal matching.  Branch on the first
    non-involution element: force the pair (shrink the instance) or
    forbid it (raise the entry).  All weights are integers, so bound
    comparisons are exact.  Returns ``(None, None)`` if the node budget
    is exhausted (caller falls back to blossom).
    """
    from scipy.optimize import linear_sum_assignment

    n = len(bd)
    base_c = dist.astype(np.int64).copy()
    np.fill_diagonal(base_c, 2 * bd.astype(np.int64))
    big = int(base_c.max()) * (n + 2)
    ub_w, ub_pairs, ub_singles = _greedy_ub(dist, bd)
    best = [2 * ub_w, ub_pairs, ub_singles]
    nodes = [0]

    def solve(c: np.ndarray, alive: List[int], base2: int, forced) -> None:
        if nodes[0] >= _BNB_NODE_CAP:
            return
        nodes[0] += 1
        if not alive:
            if base2 < best[0]:
                best[0] = base2
                best[1] = list(forced)
                best[2] = []
            return
        sub = c[alive][:, alive]
        rows, cols = linear_sum_assignment(sub)
        val = base2 + int(sub[rows, cols].sum())
        if val >= best[0]:
            return
        perm = cols.tolist()
        bad = -1
        for k, pk in enumerate(perm):
            if perm[pk] != k:
                bad = k
                break
        if bad < 0:  # involution: an optimal matching of this subproblem
            best[0] = val
            pairs = list(forced)
            singles = []
            for k, pk in enumerate(perm):
                if pk == k:
                    singles.append(alive[k])
                elif k < pk:
                    pairs.append((alive[k], alive[pk]))
            best[1] = pairs
            best[2] = singles
            return
        i, j = alive[bad], alive[perm[bad]]
        # branch 1: force the pair (i, j)
        rest = [a for a in alive if a != i and a != j]
        solve(c, rest, base2 + 2 * int(dist[i, j]), forced + [(i, j)])
        # branch 2: forbid the pair (i, j)
        c2 = c.copy()
        c2[i, j] = c2[j, i] = big
        solve(c2, alive, base2, forced)

    solve(base_c, list(range(n)), 0, [])
    if nodes[0] >= _BNB_NODE_CAP:
        return None, None
    return best[1], best[2]


def _dp_match(
    dist: List[List[int]], bd: List[int]
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Exact bitmask DP over one component (component-local indices).

    Deterministic tie-break: the first minimal option found with
    boundary-before-pairs, partners in ascending index order.
    """
    n = len(bd)
    full = (1 << n) - 1
    inf = float("inf")
    f = [inf] * (full + 1)
    f[0] = 0.0
    choice = [0] * (full + 1)
    for mask in range(full):
        c = f[mask]
        if c == inf:
            continue
        i = 0
        while (mask >> i) & 1:
            i += 1
        m2 = mask | (1 << i)
        nc = c + bd[i]
        if nc < f[m2]:
            f[m2] = nc
            choice[m2] = (i << 8) | 0xFF
        row = dist[i]
        for j in range(i + 1, n):
            if (mask >> j) & 1:
                continue
            m3 = m2 | (1 << j)
            nc = c + row[j]
            if nc < f[m3]:
                f[m3] = nc
                choice[m3] = (i << 8) | j
    pairs: List[Tuple[int, int]] = []
    bds: List[int] = []
    mask = full
    while mask:
        ch = choice[mask]
        i, j = ch >> 8, ch & 0xFF
        if j == 0xFF:
            bds.append(i)
            mask ^= 1 << i
        else:
            pairs.append((i, j))
            mask ^= (1 << i) | (1 << j)
    return pairs, bds


def _blossom_match(
    geometry, key: Tuple[int, ...]
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Networkx blossom on one oversized component (exact fallback)."""
    coords = geometry.ancilla_coord_tuples
    member_coords = [coords[k] for k in key]
    back = {c: i for i, c in enumerate(member_coords)}
    pairs: List[Tuple[int, int]] = []
    bds: List[int] = []
    for a, b in mwpm_pairs(geometry, member_coords):
        if isinstance(b, str):
            bds.append(back[a])
        else:
            pairs.append((back[a], back[b]))
    return pairs, bds


def _pairs_from_indices(
    geometry, pair_idx, bd_idx
) -> List[Tuple[Coord, PairTarget]]:
    coords = geometry.ancilla_coord_tuples
    is_south, _ = geometry.nearest_boundary_arrays
    sides = (NORTH, SOUTH)
    pairs: List[Tuple[Coord, PairTarget]] = [
        (coords[i], coords[j]) for i, j in pair_idx
    ]
    pairs.extend((coords[i], sides[int(is_south[i])]) for i in bd_idx)
    return pairs


# ----------------------------------------------------------------------
# Reference engine (networkx blossom)
# ----------------------------------------------------------------------
def mwpm_pairs(
    geometry, hots: Sequence[Coord]
) -> List[Tuple[Coord, PairTarget]]:
    """Minimum-weight perfect matching over syndromes + boundary twins.

    Distances come from the arrays cached on the geometry when every hot
    is a known ancilla coordinate (the decoding case), falling back to
    per-pair arithmetic for arbitrary coordinates.
    """
    if not hots:
        return []
    index = geometry.ancilla_index
    idx = [index.get(a) for a in hots]
    if all(i is not None for i in idx):
        dist_m = geometry.distance_matrix
        is_south, near = geometry.nearest_boundary_arrays
        sides = (NORTH, SOUTH)
        nearest = [(sides[int(is_south[i])], int(near[i])) for i in idx]

        def pair_dist(i: int, j: int) -> int:
            return int(dist_m[idx[i], idx[j]])
    else:  # arbitrary coordinates (direct library use)
        nearest = [geometry.nearest_boundary(a) for a in hots]

        def pair_dist(i: int, j: int) -> int:
            return geometry.graph_distance(hots[i], hots[j])

    graph = nx.Graph()
    # Node labels: ("s", i) for syndromes, ("b", i) for boundary twins.
    max_dist = 2 * geometry.size + 2  # upper bound on any single distance
    big = max_dist * (len(hots) + 1)  # forces maximum cardinality greedily
    boundary_side: Dict[int, str] = {}
    for i, a in enumerate(hots):
        side, dist = nearest[i]
        boundary_side[i] = side
        graph.add_edge(("s", i), ("b", i), weight=big - dist)
        for j in range(i + 1, len(hots)):
            graph.add_edge(("s", i), ("s", j), weight=big - pair_dist(i, j))
    for i in range(len(hots)):
        for j in range(i + 1, len(hots)):
            graph.add_edge(("b", i), ("b", j), weight=big)

    matching = nx.max_weight_matching(graph, maxcardinality=True)

    pairs: List[Tuple[Coord, PairTarget]] = []
    for u, v in matching:
        kind_u, i = u
        kind_v, j = v
        if kind_u == "b" and kind_v == "b":
            continue  # two unused boundary twins matched to each other
        if kind_u == "s" and kind_v == "s":
            pairs.append((hots[i], hots[j]))
        else:
            s_idx = i if kind_u == "s" else j
            pairs.append((hots[s_idx], boundary_side[s_idx]))
    return pairs


def matching_weight(geometry, pairs: List[Tuple[Coord, Union[Coord, str]]]) -> int:
    """Total decoding-graph weight of a matching (used by tests)."""
    return sum(geometry.pair_distance(a, b) for a, b in pairs)
