"""Union-Find decoder (Delfosse & Nickerson, paper refs [9], [10]).

One of the baselines in the paper's Fig. 11 comparison: almost-linear-time
decoding by growing clusters around hot syndromes until every cluster has
even parity or touches a boundary, then peeling the grown support
(treated as an erasure) to extract a correction.

Vertices of the decoding graph are ancilla coordinates plus per-column
virtual boundary vertices ``("north", c)`` / ``("south", c)``; edges are
data qubits (see :meth:`MatchingGeometry.graph_edges`).

Two implementations share the vertex/edge numbering:

* :meth:`UnionFindDecoder.decode` — the readable per-shot reference over
  dict-of-tuples state (kept as the golden path);
* :meth:`UnionFindDecoder.decode_batch` — an integer-indexed, array-backed
  DSU whose growth loop only visits the frontier (edges incident to
  clusters that contain a hot syndrome) instead of scanning every edge of
  the lattice each round.  All reference orderings (edge-dict insertion
  order, the erasure's string sort, the boundary-first root order) are
  precomputed as integer rank arrays, so its corrections are bit-identical
  to ``decode`` (property-tested in ``tests/test_batch_decode.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

import numpy as np

from .base import BatchDecodeResult, DecodeResult, Decoder, remember
from .geometry import NORTH, SOUTH, Coord

Vertex = Hashable


class _DisjointSets:
    """Union-find with parity and boundary bookkeeping at cluster roots."""

    def __init__(self, vertices, hot: Set[Vertex]) -> None:
        self.parent: Dict[Vertex, Vertex] = {v: v for v in vertices}
        self.size: Dict[Vertex, int] = {v: 1 for v in vertices}
        self.parity: Dict[Vertex, int] = {
            v: 1 if v in hot else 0 for v in vertices
        }
        self.boundary: Dict[Vertex, bool] = {
            v: isinstance(v, tuple) and v[0] in (NORTH, SOUTH) for v in vertices
        }

    def find(self, v: Vertex) -> Vertex:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:  # path compression
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: Vertex, b: Vertex) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.parity[ra] = (self.parity[ra] + self.parity[rb]) % 2
        self.boundary[ra] = self.boundary[ra] or self.boundary[rb]

    def is_odd(self, v: Vertex) -> bool:
        root = self.find(v)
        return self.parity[root] == 1 and not self.boundary[root]


class UnionFindDecoder(Decoder):
    """Cluster-growth + peeling decoder."""

    name = "unionfind"

    def __init__(self, lattice, error_type: str = "z") -> None:
        super().__init__(lattice, error_type)
        self._edges = self.geometry.graph_edges()
        self._vertices: List[Vertex] = sorted(
            {v for edge in self._edges for v in edge}, key=str
        )
        self._incident: Dict[Vertex, List[Tuple[Tuple, Vertex]]] = {
            v: [] for v in self._vertices
        }
        for (u, v), _data in sorted(self._edges.items(), key=str):
            self._incident[u].append(((u, v), v))
            self._incident[v].append(((u, v), u))
        self._build_fast_arrays()

    def _build_fast_arrays(self) -> None:
        """Integer mirror of the decoding graph for the batched path."""
        vid = {v: i for i, v in enumerate(self._vertices)}
        n_v = len(self._vertices)
        edge_list = list(self._edges)  # graph_edges() insertion order
        data_index = self.lattice.data_index
        from_canonical = self.geometry.from_canonical
        self._edge_u = [vid[u] for u, _ in edge_list]
        self._edge_v = [vid[v] for _, v in edge_list]
        self._edge_data = [
            data_index[from_canonical(self._edges[e])] for e in edge_list
        ]
        # rank of each edge in the erasure's sorted(key=str) order
        by_str = sorted(range(len(edge_list)), key=lambda k: str(edge_list[k]))
        self._edge_str_rank = [0] * len(edge_list)
        for rank, k in enumerate(by_str):
            self._edge_str_rank[k] = rank
        self._vert_boundary = [
            isinstance(v, tuple) and v[0] in (NORTH, SOUTH)
            for v in self._vertices
        ]
        # root visit order of the peel: boundary vertices first, then str
        root_order = sorted(
            range(n_v),
            key=lambda k: (not self._vert_boundary[k], str(self._vertices[k])),
        )
        self._root_rank = [0] * n_v
        for rank, k in enumerate(root_order):
            self._root_rank[k] = rank
        self._inc_edges: List[List[int]] = [[] for _ in range(n_v)]
        for e, (u, v) in enumerate(edge_list):
            self._inc_edges[vid[u]].append(e)
            self._inc_edges[vid[v]].append(e)
        # syndrome index -> vertex id (canonical ancilla coordinate)
        self._syn_vertex = [
            vid[c] for c in self.geometry.ancilla_coord_tuples
        ]
        # reusable peel scratch (reset via touched-vertex lists per shot)
        self._adj_stride = max(len(lst) for lst in self._inc_edges)
        self._peel_deg = [0] * n_v
        self._peel_adj = [0] * (self._adj_stride * n_v)
        self._peel_visited = [False] * n_v
        self._peel_live = [False] * n_v
        self._peel_parent = [0] * n_v
        # numpy mirrors for the batch-vectorized round-2 growth
        n_e = len(edge_list)
        self._edge_u_np = np.array(self._edge_u, dtype=np.int64)
        self._edge_v_np = np.array(self._edge_v, dtype=np.int64)
        self._syn_vertex_np = np.array(self._syn_vertex, dtype=np.int64)
        self._edge_str_rank_np = np.array(self._edge_str_rank, dtype=np.int64)
        self._inc_pad = np.full(
            (len(self._syn_vertex), self._adj_stride), n_e, dtype=np.int64
        )
        for i, v in enumerate(self._syn_vertex):
            self._inc_pad[i, : len(self._inc_edges[v])] = self._inc_edges[v]
        self._bverts_np = np.array(
            [i for i, b in enumerate(self._vert_boundary) if b], dtype=np.int64
        )
        #: per-component peel memo: (edge ids, hot ids) -> data-qubit flips
        self._peel_memo: Dict[Tuple, List[int]] = {}

    # ------------------------------------------------------------------
    def decode(self, syndrome: np.ndarray) -> DecodeResult:
        syndrome = self._check_syndrome(syndrome)
        hots = set(self.geometry.syndrome_coords(syndrome))
        if not hots:
            return DecodeResult(
                correction=np.zeros(self.lattice.n_data, dtype=np.uint8)
            )
        growth, rounds = self._grow_clusters(hots)
        erasure = {e for e, g in growth.items() if g >= 2}
        data_coords = self._peel(erasure, set(hots))
        correction = self.geometry.correction_from_data_coords(data_coords)
        return DecodeResult(
            correction=correction, metadata={"growth_rounds": rounds}
        )

    def decode_batch(self, syndromes: np.ndarray) -> BatchDecodeResult:
        """Vectorized growth + memoized per-component peel.

        Round 1 never merges (every edge starts at zero half-edges and
        gains at most one per round), so after round 2 every cluster is
        exactly a connected component of the hot-incident edge set.  That
        state is computed for the *whole batch* with one sparse
        ``connected_components`` call over (shot, vertex) nodes; the
        large majority of shots are already neutral there (every cluster
        even or boundary-touching) and skip straight to peeling.  Shots
        with clusters still odd fall back to the per-shot array DSU
        (:meth:`_grow_fast`).  Peeling runs per connected component and
        is memoized on (component edges, component hots) — identical
        local clusters recur constantly across Monte-Carlo shots.
        """
        syndromes = self._check_syndrome_batch(syndromes)
        batch = syndromes.shape[0]
        n_data = self.lattice.n_data
        corrections = np.zeros((batch, n_data), dtype=np.uint8)
        rounds_out = np.zeros(batch, dtype=np.int64)
        srows, scols = np.nonzero(syndromes)
        if len(srows) == 0:
            return BatchDecodeResult(
                corrections=corrections,
                converged=np.ones(batch, dtype=bool),
                metadata={"growth_rounds": rounds_out},
            )
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        n_v = len(self._vertices)
        n_e = len(self._edge_u)
        stride = self._adj_stride
        hot_vert = self._syn_vertex_np[scols]
        # touched edges (deduplicated per shot): the round-2 erasure
        flat_edges = self._inc_pad[scols].ravel()
        shot_rep = np.repeat(srows, stride)
        valid = flat_edges < n_e
        keys = np.unique(shot_rep[valid] * n_e + flat_edges[valid])
        t_shot = keys // n_e
        t_edge = keys % n_e
        node_u = t_shot * n_v + self._edge_u_np[t_edge]
        node_v = t_shot * n_v + self._edge_v_np[t_edge]
        graph = sp.coo_matrix(
            (np.ones(len(node_u), dtype=np.int8), (node_u, node_v)),
            shape=(batch * n_v, batch * n_v),
        )
        n_comp, labels = connected_components(graph, directed=False)
        hot_labels = labels[srows * n_v + hot_vert]
        parity = np.bincount(hot_labels, minlength=n_comp)
        bound = np.zeros(n_comp, dtype=bool)
        bound_nodes = (
            np.arange(batch)[:, None] * n_v + self._bverts_np[None, :]
        ).ravel()
        bound[labels[bound_nodes]] = True
        odd = ((parity & 1) == 1) & ~bound
        shot_odd = np.zeros(batch, dtype=bool)
        np.logical_or.at(shot_odd, srows, odd[hot_labels])

        flip_shots: List[int] = []
        flip_qs: List[int] = []

        # --- shots neutral after round 2: memoized component peel ------
        done_edge = ~shot_odd[t_shot]
        if done_edge.any():
            de = t_edge[done_edge]
            dl = labels[node_u[done_edge]]
            ds = t_shot[done_edge]
            order = np.lexsort((self._edge_str_rank_np[de], dl))
            de_o = de[order].tolist()
            dl_o = dl[order]
            ds_o = ds[order].tolist()
            seg = np.flatnonzero(np.diff(dl_o)) + 1
            e_bounds = [0] + seg.tolist() + [len(de_o)]
            # hots per component, aligned to the same label grouping
            hmask = ~shot_odd[srows]
            h_lab = hot_labels[hmask]
            h_vert = hot_vert[hmask]
            horder = np.lexsort((h_vert, h_lab))
            h_lab_o = h_lab[horder].tolist()
            h_vert_o = h_vert[horder].tolist()
            hstarts = (
                [0]
                + (np.flatnonzero(np.diff(h_lab[horder])) + 1).tolist()
                + [len(h_lab_o)]
            )
            hseg = {
                h_lab_o[hstarts[k]]: (hstarts[k], hstarts[k + 1])
                for k in range(len(hstarts) - 1)
            }
            memo = self._peel_memo
            comp_labels = dl_o[[b for b in e_bounds[:-1]]].tolist()
            for ci in range(len(e_bounds) - 1):
                lo, hi = e_bounds[ci], e_bounds[ci + 1]
                edges = de_o[lo:hi]
                hlo, hhi = hseg.get(comp_labels[ci], (0, 0))
                hots = h_vert_o[hlo:hhi]
                key = (tuple(edges), tuple(hots))
                flips = memo.get(key)
                if flips is None:
                    flips = self._peel_fast(list(edges), set(hots))
                    remember(memo, key, flips)
                if flips:
                    shot = ds_o[lo]
                    flip_qs.extend(flips)
                    flip_shots.extend([shot] * len(flips))
            rounds_out[np.unique(srows)] = 2

        # --- shots with odd clusters left: per-shot array DSU ----------
        if shot_odd.any():
            bounds = np.searchsorted(srows, np.arange(batch + 1))
            sc = scols.tolist()
            syn_vertex = self._syn_vertex
            for shot in np.flatnonzero(shot_odd).tolist():
                lo, hi = bounds[shot], bounds[shot + 1]
                hot_v = [syn_vertex[i] for i in sc[lo:hi]]
                erasure, rounds_out[shot] = self._grow_fast(hot_v)
                flips = self._peel_fast(erasure, set(hot_v))
                flip_qs.extend(flips)
                flip_shots.extend([shot] * len(flips))
        if flip_qs:
            # each flipped data qubit is unique within its shot (every
            # erasure edge is used at most once as a parent edge)
            corrections[flip_shots, flip_qs] = 1
        return BatchDecodeResult(
            corrections=corrections,
            converged=np.ones(batch, dtype=bool),
            metadata={"growth_rounds": rounds_out},
        )

    # ------------------------------------------------------------------
    # Fast path: integer DSU + frontier growth
    # ------------------------------------------------------------------
    def _grow_fast(self, hot_v: List[int]) -> Tuple[List[int], int]:
        """Grow odd clusters; returns (fully grown edge ids, rounds).

        Identical round structure to :meth:`_grow_clusters`: every edge
        incident to an odd cluster gains one half-edge per round, and
        edges reaching two half-edges merge their endpoints.  Instead of
        scanning every lattice edge per round, each cluster root carries
        the concatenated incident-edge list of its member vertices
        (merged small-into-large on union), so a round only visits the
        odd clusters' own frontiers; a per-round stamp keeps an edge
        shared by two odd clusters from double-incrementing, matching the
        reference's single scan.
        """
        n_v = len(self._vertices)
        parent = list(range(n_v))
        size = [1] * n_v
        boundary = self._vert_boundary[:]
        parity = [0] * n_v
        for h in hot_v:
            parity[h] = 1
        edge_u, edge_v = self._edge_u, self._edge_v
        inc = self._inc_edges
        # growth and last-touched-round packed into one slot per edge:
        # state = (stamp << 2) | growth
        state = [0] * len(edge_u)
        # cluster members as an intrusive linked list per root: walking
        # ``chain`` from the root enumerates member vertices, whose static
        # incident-edge lists form the cluster frontier.  Union is O(1)
        # (splice chains), replacing per-union edge-list copies.
        chain = [-1] * n_v
        tail = list(range(n_v))

        def find(v: int) -> int:
            root = v
            while parent[root] != root:
                root = parent[root]
            while parent[v] != root:
                parent[v], v = root, parent[v]
            return root

        erasure: List[int] = []
        rounds = 0
        max_rounds = 4 * self.geometry.size + 8  # grid diameter bound
        while True:
            odd: List[int] = []
            for h in hot_v:
                r = find(h)
                if parity[r] == 1 and not boundary[r] and r not in odd:
                    odd.append(r)
            if not odd:
                break
            rounds += 1
            if rounds > max_rounds:  # pragma: no cover - safety net
                raise RuntimeError("union-find growth failed to terminate")
            marker = rounds << 2
            to_merge = []
            touched = []
            for r in odd:
                v = r
                while v >= 0:
                    for e in inc[v]:
                        s = state[e]
                        g = s & 3
                        if g >= 2 or s >> 2 == rounds:
                            continue
                        state[e] = marker | (g + 1)
                        if g == 1:
                            to_merge.append(e)
                        else:
                            touched.append(e)
                    v = chain[v]
            if not to_merge and touched:
                # No merges: the partition (hence the odd set and each
                # odd cluster's frontier) is unchanged, so the next round
                # rescans exactly `touched` and promotes all of it to two
                # half-edges.  Skip that duplicate scan.
                rounds += 1
                if rounds > max_rounds:  # pragma: no cover - safety net
                    raise RuntimeError(
                        "union-find growth failed to terminate"
                    )
                for e in touched:
                    state[e] = (rounds << 2) | 2
                to_merge = touched
            for e in to_merge:
                ra, rb = find(edge_u[e]), find(edge_v[e])
                if ra == rb:
                    continue
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]
                parity[ra] ^= parity[rb]
                boundary[ra] = boundary[ra] or boundary[rb]
                chain[tail[ra]] = rb
                tail[ra] = tail[rb]
            erasure.extend(to_merge)
        return erasure, rounds

    def _peel_fast(self, erasure: List[int], hot_set: Set[int]) -> List[int]:
        """Integer peel; returns data-qubit indices to flip.

        Mirrors :meth:`_peel` exactly: the erasure is visited in the
        reference's string-sorted edge order, spanning-tree roots in
        boundary-first order, and children in adjacency insertion order.
        """
        edge_u, edge_v = self._edge_u, self._edge_v
        erasure.sort(key=self._edge_str_rank.__getitem__)
        # adjacency in flat scratch arrays (stride = max vertex degree);
        # neighbour entries packed as (vertex << 16) | edge, so this hot
        # path allocates no per-entry tuples or dicts
        stride = self._adj_stride
        deg = self._peel_deg
        adj = self._peel_adj
        touched: List[int] = []
        for e in erasure:
            u, v = edge_u[e], edge_v[e]
            if deg[u] == 0:
                touched.append(u)
            adj[stride * u + deg[u]] = (v << 16) | e
            deg[u] += 1
            if deg[v] == 0:
                touched.append(v)
            adj[stride * v + deg[v]] = (u << 16) | e
            deg[v] += 1
        visited = self._peel_visited
        live_hot = self._peel_live
        parent_edge = self._peel_parent
        flips: List[int] = []
        boundary = self._vert_boundary
        edge_data = self._edge_data
        # reference root order: adjacency keys in first-touch order,
        # resorted by (boundary-first, str) rank — ranks are unique, so
        # sorting `touched` gives the identical sequence
        ordered_roots = sorted(touched, key=self._root_rank.__getitem__)
        for root in ordered_roots:
            if visited[root]:
                continue
            order: List[int] = [root]
            visited[root] = True
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    base = stride * u
                    for k in range(deg[u]):
                        packed = adj[base + k]
                        v = packed >> 16
                        if visited[v]:
                            continue
                        visited[v] = True
                        parent_edge[v] = (u << 16) | (packed & 0xFFFF)
                        order.append(v)
                        nxt.append(v)
                frontier = nxt
            for v in order:
                live_hot[v] = v in hot_set
            for v in reversed(order[1:]):
                if live_hot[v]:
                    packed = parent_edge[v]
                    parent = packed >> 16
                    flips.append(edge_data[packed & 0xFFFF])
                    if not boundary[parent]:
                        live_hot[parent] = not live_hot[parent]
        for v in touched:  # reset scratch for the next shot
            deg[v] = 0
            visited[v] = False
        return flips

    # ------------------------------------------------------------------
    # Reference path
    # ------------------------------------------------------------------
    def _grow_clusters(self, hots: Set[Coord]) -> Tuple[Dict[Tuple, int], int]:
        """Grow odd clusters by half-edges until all are neutralized."""
        dsu = _DisjointSets(self._vertices, hots)
        growth: Dict[Tuple, int] = {e: 0 for e in self._edges}
        rounds = 0
        max_rounds = 4 * self.geometry.size + 8  # grid diameter bound
        while any(dsu.is_odd(h) for h in hots):
            rounds += 1
            if rounds > max_rounds:  # pragma: no cover - safety net
                raise RuntimeError("union-find growth failed to terminate")
            to_merge = []
            for edge, g in growth.items():
                if g >= 2:
                    continue
                u, v = edge
                if dsu.is_odd(u) or dsu.is_odd(v):
                    growth[edge] = g + 1
                    if growth[edge] >= 2:
                        to_merge.append(edge)
            for u, v in to_merge:
                dsu.union(u, v)
        return growth, rounds

    def _peel(self, erasure: Set[Tuple], hots: Set[Coord]) -> List[Coord]:
        """Peel the erasure forest; return canonical data coords to flip."""
        adjacency: Dict[Vertex, List[Tuple[Vertex, Tuple]]] = {}
        for edge in sorted(erasure, key=str):
            u, v = edge
            adjacency.setdefault(u, []).append((v, edge))
            adjacency.setdefault(v, []).append((u, edge))

        visited: Set[Vertex] = set()
        flips: List[Coord] = []
        # Roots: prefer boundary vertices so dangling hots peel onto them.
        ordered_roots = sorted(
            adjacency, key=lambda v: (not self._is_boundary(v), str(v))
        )
        for root in ordered_roots:
            if root in visited:
                continue
            order, parent_edge = self._spanning_tree(root, adjacency, visited)
            live_hot = {v: v in hots for v in order}
            for v in reversed(order[1:]):
                if live_hot.get(v):
                    parent, edge = parent_edge[v]
                    flips.append(self._edges[edge])
                    if not self._is_boundary(parent):
                        live_hot[parent] = not live_hot.get(parent, False)
        return flips

    def _spanning_tree(self, root, adjacency, visited):
        order: List[Vertex] = [root]
        parent_edge: Dict[Vertex, Tuple[Vertex, Tuple]] = {}
        visited.add(root)
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v, edge in adjacency[u]:
                    if v in visited:
                        continue
                    visited.add(v)
                    parent_edge[v] = (u, edge)
                    order.append(v)
                    nxt.append(v)
            frontier = nxt
        return order, parent_edge

    @staticmethod
    def _is_boundary(v: Vertex) -> bool:
        return isinstance(v, tuple) and v[0] in (NORTH, SOUTH)
