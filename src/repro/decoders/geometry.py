"""Shared matching geometry for surface-code decoders.

Decoding (paper section V-A) is a matching problem on the *decoding graph*:
vertices are the ancillas of one type, edges are the data qubits joining
them, plus virtual boundary vertices on the two sides where error chains of
that type may terminate.

Everything here works in a *canonical orientation*: syndromes live on
X-type ancilla positions ``(r odd, c even)``, chains terminate on the
North/South boundaries.  Decoding X errors (Z-ancilla syndromes) transposes
coordinates into this frame and transposes corrections back, which is the
"decoder operated symmetrically for both X and Z" of the paper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..surface.lattice import Coord, SurfaceLattice, is_data

#: Virtual boundary identifiers (canonical frame).
NORTH = "north"
SOUTH = "south"

#: Cap on the precomputed pair-correction table (bytes); above this the
#: batched decoders fall back to per-pair path walking.
_CORRECTION_TABLE_MAX_BYTES = 64 * 1024 * 1024
BoundarySide = str
PairTarget = Union[Coord, BoundarySide]


@dataclass(frozen=True)
class MatchingGeometry:
    """Distance/path helper for one error type on one lattice.

    Parameters
    ----------
    lattice:
        The surface-code lattice.
    error_type:
        ``"z"`` decodes Z errors from X-ancilla syndromes (canonical frame);
        ``"x"`` decodes X errors from Z-ancilla syndromes via transposition.
    """

    lattice: SurfaceLattice
    error_type: str = "z"

    def __post_init__(self) -> None:
        if self.error_type not in ("z", "x"):
            raise ValueError(f"error_type must be 'z' or 'x', got {self.error_type!r}")

    # ------------------------------------------------------------------
    # Frame conversion
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.lattice.size

    @property
    def n_syndromes(self) -> int:
        if self.error_type == "z":
            return self.lattice.n_x_ancillas
        return self.lattice.n_z_ancillas

    def to_canonical(self, coord: Coord) -> Coord:
        """Map an original-lattice coordinate into the canonical frame."""
        if self.error_type == "z":
            return coord
        return (coord[1], coord[0])

    def from_canonical(self, coord: Coord) -> Coord:
        # Transposition is an involution.
        return self.to_canonical(coord)

    def syndrome_coords(self, syndrome: np.ndarray) -> List[Coord]:
        """Hot-syndrome coordinates *in the canonical frame*."""
        if self.error_type == "z":
            coords = self.lattice.x_syndrome_coords(syndrome)
        else:
            coords = self.lattice.z_syndrome_coords(syndrome)
        return [self.to_canonical(c) for c in coords]

    def syndrome_of_errors(self, errors: np.ndarray) -> np.ndarray:
        """Syndrome bits of an error vector or ``(batch, n_data)`` array.

        A gather-XOR over the cached :attr:`check_support` table (row
        weights are <= 4), returned as uint8.  It matches the GF(2)
        incidence product bit for bit and, unlike a BLAS matmul, leaves
        no BLAS worker threads spinning after each call.
        """
        errors = np.asarray(errors)
        support = self.check_support
        padded = np.zeros(errors.shape[:-1] + (errors.shape[-1] + 1,), np.uint8)
        padded[..., :-1] = errors
        out = padded[..., support[:, 0]]
        for k in range(1, support.shape[1]):
            out ^= padded[..., support[:, k]]
        return out & 1

    def logical_failure(self, residual: np.ndarray) -> np.ndarray:
        if self.error_type == "z":
            return self.lattice.logical_z_failure(residual)
        return self.lattice.logical_x_failure(residual)

    # ------------------------------------------------------------------
    # Distances (decoding-graph edges; module hops are 2x these)
    # ------------------------------------------------------------------
    @staticmethod
    def graph_distance(a: Coord, b: Coord) -> int:
        """Manhattan distance between ancillas in decoding-graph edges."""
        return (abs(a[0] - b[0]) + abs(a[1] - b[1])) // 2

    def boundary_graph_distance(self, a: Coord, side: BoundarySide) -> int:
        r = a[0]
        if side == NORTH:
            return (r + 1) // 2
        if side == SOUTH:
            return (self.size - r) // 2
        raise ValueError(f"unknown boundary side {side!r}")

    def nearest_boundary(self, a: Coord) -> Tuple[BoundarySide, int]:
        north = self.boundary_graph_distance(a, NORTH)
        south = self.boundary_graph_distance(a, SOUTH)
        if north <= south:
            return NORTH, north
        return SOUTH, south

    def pair_distance(self, a: Coord, b: PairTarget) -> int:
        if isinstance(b, str):
            return self.boundary_graph_distance(a, b)
        return self.graph_distance(a, b)

    # ------------------------------------------------------------------
    # Cached integer arrays (shared by every batched decode fast path)
    # ------------------------------------------------------------------
    @functools.cached_property
    def check_support(self) -> np.ndarray:
        """``(n_syndromes, max_row_weight)`` data-qubit indices per check.

        Rows of the relevant incidence matrix as index lists, padded with
        ``n_data``: :meth:`syndrome_of_errors` appends a zero column at
        that index, so padding slots contribute nothing.
        """
        h = self.lattice.h_x if self.error_type == "z" else self.lattice.h_z
        checks, qubits = np.nonzero(h)  # row-major: grouped by check
        weight = np.bincount(checks, minlength=h.shape[0])
        slot = np.arange(len(checks)) - np.repeat(np.cumsum(weight) - weight, weight)
        support = np.full((h.shape[0], weight.max()), h.shape[1])
        support[checks, slot] = qubits
        return support

    @functools.cached_property
    def ancilla_coords(self) -> np.ndarray:
        """``(n_syndromes, 2)`` canonical ancilla coords in syndrome order."""
        coords = (
            self.lattice.x_ancillas
            if self.error_type == "z"
            else self.lattice.z_ancillas
        )
        return np.array([self.to_canonical(c) for c in coords], dtype=np.int64)

    @functools.cached_property
    def ancilla_coord_tuples(self) -> Tuple[Coord, ...]:
        """Canonical ancilla coordinates as plain tuples, syndrome order."""
        return tuple(tuple(c) for c in self.ancilla_coords.tolist())

    @functools.cached_property
    def ancilla_index(self) -> Dict[Coord, int]:
        """Canonical ancilla coordinate -> syndrome index."""
        return {c: i for i, c in enumerate(self.ancilla_coord_tuples)}

    @functools.cached_property
    def distance_matrix(self) -> np.ndarray:
        """``(n, n)`` pairwise graph distances between ancillas.

        Cached once per geometry; the per-shot matching decoders index
        the reduced hot-set out of this instead of recomputing Manhattan
        distances per shot (the old per-``decode()`` hot loop).
        """
        coords = self.ancilla_coords
        delta = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        return delta // 2

    @functools.cached_property
    def boundary_distance_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(north, south)`` graph distances to each boundary, per ancilla."""
        rows = self.ancilla_coords[:, 0]
        return (rows + 1) // 2, (self.size - rows) // 2

    @functools.cached_property
    def nearest_boundary_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-ancilla ``(side_is_south, distance)`` of the nearest boundary.

        ``side_is_south`` is 0 where north is nearest (ties go north,
        matching :meth:`nearest_boundary`).
        """
        north, south = self.boundary_distance_arrays
        is_south = (south < north).astype(np.int64)
        return is_south, np.where(is_south == 1, south, north)

    @functools.cached_property
    def correction_tables(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Precomputed path corrections ``(pair_table, boundary_table)``.

        ``pair_table[i, j]`` is the data-qubit correction of matching
        ancillas ``i`` and ``j``; ``boundary_table[i]`` matches ancilla
        ``i`` to its nearest boundary.  XORing rows composes exactly like
        :meth:`correction_from_pairs`.  ``None`` for lattices where the
        table would exceed the memory cap (fast paths then fall back to
        per-pair path walking).
        """
        n = self.n_syndromes
        n_data = self.lattice.n_data
        if n * n * n_data > _CORRECTION_TABLE_MAX_BYTES:
            return None
        sides = [NORTH, SOUTH]
        is_south, _ = self.nearest_boundary_arrays
        coords = [tuple(c) for c in self.ancilla_coords.tolist()]
        pair_table = np.zeros((n, n, n_data), dtype=np.uint8)
        for i in range(n):
            for j in range(i + 1, n):
                corr = self.correction_from_pairs([(coords[i], coords[j])])
                pair_table[i, j] = corr
                pair_table[j, i] = corr
        boundary_table = np.stack([
            self.correction_from_pairs([(coords[i], sides[int(is_south[i])])])
            for i in range(n)
        ])
        return pair_table, boundary_table

    # ------------------------------------------------------------------
    # Correction paths
    # ------------------------------------------------------------------
    @staticmethod
    def effective_corner(a: Coord, b: Coord) -> Coord:
        """The L-path corner the hardware selects (DESIGN.md section 6).

        The effective intermediate module is the corner receiving a grow
        from the North, i.e. the corner in the *southern* hot's row and the
        *northern* hot's column.  Straight lines have no corner; either
        endpoint works (we return the corner formula which degenerates
        correctly).
        """
        if a[0] <= b[0]:
            north, south = a, b
        else:
            north, south = b, a
        return (south[0], north[1])

    def path_module_coords(self, a: Coord, b: Coord) -> List[Coord]:
        """All module coordinates on the L-path from ``a`` to ``b``.

        Includes both endpoints and the corner; cells alternate
        ancilla/data along each leg.
        """
        corner = self.effective_corner(a, b)
        return _merge_paths(_straight(a, corner), _straight(corner, b))

    def boundary_path_module_coords(
        self, a: Coord, side: BoundarySide
    ) -> List[Coord]:
        """Module coordinates from ``a`` to just inside the boundary."""
        r, c = a
        if side == NORTH:
            return [(rr, c) for rr in range(r, -1, -1)]
        if side == SOUTH:
            return [(rr, c) for rr in range(r, self.size)]
        raise ValueError(f"unknown boundary side {side!r}")

    def pair_path(self, a: Coord, b: PairTarget) -> List[Coord]:
        if isinstance(b, str):
            return self.boundary_path_module_coords(a, b)
        return self.path_module_coords(a, b)

    # ------------------------------------------------------------------
    # Corrections
    # ------------------------------------------------------------------
    def correction_from_pairs(
        self, pairs: Iterable[Tuple[Coord, PairTarget]]
    ) -> np.ndarray:
        """Data-qubit correction vector implied by matched pairs.

        Pairs are given in canonical coordinates; the returned vector is
        indexed by the original lattice's data-qubit order and flips every
        data qubit on each connecting path (XOR composition, so chain
        overlaps cancel as in real Pauli corrections).
        """
        correction = np.zeros(self.lattice.n_data, dtype=np.uint8)
        index = self.lattice.data_index
        for a, b in pairs:
            for cell in self.pair_path(a, b):
                if is_data(cell):
                    correction[index[self.from_canonical(cell)]] ^= 1
        return correction

    def correction_from_data_coords(self, coords: Sequence[Coord]) -> np.ndarray:
        """Correction vector from canonical data coordinates directly."""
        correction = np.zeros(self.lattice.n_data, dtype=np.uint8)
        index = self.lattice.data_index
        for cell in coords:
            correction[index[self.from_canonical(cell)]] ^= 1
        return correction

    # ------------------------------------------------------------------
    # Decoding-graph adjacency (used by the union-find decoder)
    # ------------------------------------------------------------------
    def graph_nodes(self) -> List[Coord]:
        """Canonical ancilla coordinates (graph vertices)."""
        coords = (
            self.lattice.x_ancillas
            if self.error_type == "z"
            else self.lattice.z_ancillas
        )
        return [self.to_canonical(c) for c in coords]

    def graph_edges(self) -> Dict[Tuple, Coord]:
        """Map (vertex, vertex) -> canonical data coordinate.

        Vertices are ancilla coords or boundary tuples ``("north", col)`` /
        ``("south", col)``; every data qubit appears in exactly one edge.
        """
        edges: Dict[Tuple, Coord] = {}
        size = self.size
        for r, c in self.graph_nodes():
            # vertical neighbours via data (r +/- 1, c)
            if r - 1 == 0:
                edges[((NORTH, c), (r, c))] = (0, c)
            else:
                edges[(((r - 2), c), (r, c))] = (r - 1, c)
            if r + 1 == size - 1:
                edges[((r, c), (SOUTH, c))] = (size - 1, c)
            # horizontal neighbour via data (r, c + 1)
            if c + 2 < size:
                edges[((r, c), (r, c + 2))] = (r, c + 1)
        return edges


def _straight(a: Coord, b: Coord) -> List[Coord]:
    """Module cells on the straight segment from ``a`` to ``b`` inclusive."""
    if a[0] == b[0]:
        step = 1 if b[1] >= a[1] else -1
        return [(a[0], c) for c in range(a[1], b[1] + step, step)]
    if a[1] == b[1]:
        step = 1 if b[0] >= a[0] else -1
        return [(r, a[1]) for r in range(a[0], b[0] + step, step)]
    raise ValueError(f"{a} and {b} are not collinear")


def _merge_paths(first: List[Coord], second: List[Coord]) -> List[Coord]:
    """Concatenate two segments sharing the corner cell exactly once."""
    if first and second and first[-1] == second[0]:
        return first + second[1:]
    return first + second
