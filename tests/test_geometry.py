"""Matching-geometry tests: distances, paths, corrections, transposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoders.geometry import NORTH, SOUTH, MatchingGeometry
from repro.surface.lattice import SurfaceLattice, is_data


@pytest.fixture(scope="module")
def geo5():
    return MatchingGeometry(SurfaceLattice(5), "z")


class TestDistances:
    def test_graph_distance_examples(self, geo5):
        assert geo5.graph_distance((1, 0), (3, 0)) == 1
        assert geo5.graph_distance((1, 0), (1, 2)) == 1
        assert geo5.graph_distance((1, 0), (5, 4)) == 4

    def test_boundary_distances(self, geo5):
        assert geo5.boundary_graph_distance((1, 0), NORTH) == 1
        assert geo5.boundary_graph_distance((1, 0), SOUTH) == 4
        assert geo5.boundary_graph_distance((7, 2), SOUTH) == 1

    def test_nearest_boundary(self, geo5):
        side, dist = geo5.nearest_boundary((1, 0))
        assert side == NORTH and dist == 1
        side, dist = geo5.nearest_boundary((7, 0))
        assert side == SOUTH and dist == 1

    def test_invalid_side(self, geo5):
        with pytest.raises(ValueError):
            geo5.boundary_graph_distance((1, 0), "east")


class TestPaths:
    def test_straight_vertical_path(self, geo5):
        path = geo5.path_module_coords((1, 2), (5, 2))
        assert path[0] == (1, 2) and path[-1] == (5, 2)
        assert len(path) == 5

    def test_l_path_has_one_corner(self, geo5):
        path = geo5.path_module_coords((1, 0), (5, 4))
        corner = geo5.effective_corner((1, 0), (5, 4))
        assert corner == (5, 0)
        assert corner in path
        # Manhattan length: |dr| + |dc| + 1 cells
        assert len(path) == 4 + 4 + 1

    def test_effective_corner_orientation(self, geo5):
        # corner sits in the southern hot's row, northern hot's column
        assert geo5.effective_corner((1, 4), (5, 0)) == (5, 4)
        assert geo5.effective_corner((5, 0), (1, 4)) == (5, 4)

    def test_boundary_path(self, geo5):
        path = geo5.boundary_path_module_coords((3, 2), NORTH)
        assert path == [(3, 2), (2, 2), (1, 2), (0, 2)]

    def test_path_cells_alternate_roles(self, geo5):
        path = geo5.path_module_coords((1, 0), (3, 2))
        roles = [is_data(c) for c in path]
        assert roles == [False, True, False, True, False]


class TestCorrections:
    def test_pair_correction_flips_exactly_endpoints(self, geo5):
        lattice = geo5.lattice
        pairs = [((1, 0), (3, 2))]
        correction = geo5.correction_from_pairs(pairs)
        syndrome = lattice.syndrome_of_z_errors(correction)
        hot = set(lattice.x_syndrome_coords(syndrome))
        assert hot == {(1, 0), (3, 2)}

    def test_boundary_correction_flips_one_endpoint(self, geo5):
        lattice = geo5.lattice
        correction = geo5.correction_from_pairs([((3, 2), NORTH)])
        syndrome = lattice.syndrome_of_z_errors(correction)
        assert set(lattice.x_syndrome_coords(syndrome)) == {(3, 2)}

    def test_overlapping_chains_cancel(self, geo5):
        pairs = [((1, 0), (5, 0)), ((1, 0), (5, 0))]
        correction = geo5.correction_from_pairs(pairs)
        assert not correction.any()

    @given(st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_random_matching_reproduces_syndrome(self, seed):
        """Any pairing of hot syndromes yields a syndrome-exact correction."""
        rng = np.random.default_rng(seed)
        lattice = SurfaceLattice(5)
        geo = MatchingGeometry(lattice, "z")
        hots = [
            geo.to_canonical(a)
            for a in lattice.x_ancillas
            if rng.random() < 0.4
        ]
        pairs = []
        unmatched = list(hots)
        while len(unmatched) >= 2:
            a = unmatched.pop(rng.integers(len(unmatched)))
            b = unmatched.pop(rng.integers(len(unmatched)))
            pairs.append((a, b))
        for a in unmatched:
            pairs.append((a, geo.nearest_boundary(a)[0]))
        correction = geo.correction_from_pairs(pairs)
        produced = lattice.syndrome_of_z_errors(correction)
        expected = lattice.x_syndrome_vector_from_coords(hots)
        assert np.array_equal(produced, expected)


class TestTransposedFrame:
    def test_x_frame_syndromes(self):
        lattice = SurfaceLattice(5)
        geo = MatchingGeometry(lattice, "x")
        err = lattice.data_vector_from_coords([(2, 2)])
        syndrome = lattice.syndrome_of_x_errors(err)
        hots = geo.syndrome_coords(syndrome)
        # Z-ancillas (2,1) and (2,3) transpose to canonical (1,2), (3,2).
        assert set(hots) == {(1, 2), (3, 2)}

    def test_x_frame_corrections_flip_z_syndromes(self):
        lattice = SurfaceLattice(5)
        geo = MatchingGeometry(lattice, "x")
        correction = geo.correction_from_pairs([((1, 2), (3, 2))])
        produced = lattice.syndrome_of_x_errors(correction)
        hot = lattice.z_syndrome_coords(produced)
        assert set(hot) == {(2, 1), (2, 3)}

    def test_invalid_error_type(self):
        with pytest.raises(ValueError):
            MatchingGeometry(SurfaceLattice(3), "y")


class TestGraphEdges:
    def test_every_data_qubit_is_one_edge(self):
        lattice = SurfaceLattice(5)
        geo = MatchingGeometry(lattice, "z")
        edges = geo.graph_edges()
        data_coords = sorted(edges.values())
        assert len(data_coords) == lattice.n_data
        assert len(set(data_coords)) == lattice.n_data

    def test_boundary_edges_touch_virtual_nodes(self):
        geo = MatchingGeometry(SurfaceLattice(3), "z")
        sides = {v[0] for edge in geo.graph_edges() for v in edge
                 if isinstance(v[0], str)}
        assert sides == {NORTH, SOUTH}


class TestSyndromeOfErrors:
    """The gather-XOR syndrome equals the GF(2) incidence product."""

    @pytest.mark.parametrize("d", [3, 5, 9])
    @pytest.mark.parametrize("error_type", ["z", "x"])
    def test_syndrome_matches_incidence_product(self, d, error_type):
        lattice = SurfaceLattice(d)
        geo = MatchingGeometry(lattice, error_type)
        h = lattice.h_x if error_type == "z" else lattice.h_z
        rng = np.random.default_rng(d)
        errors = rng.random((64, lattice.n_data)) < 0.15
        for batch in (errors, errors.astype(np.uint8)):
            for e in (batch, batch[5]):  # 2-D and 1-D
                expected = (e.astype(np.int64) @ h.T) % 2
                got = geo.syndrome_of_errors(e)
                assert got.dtype == np.uint8
                assert got.shape == expected.shape
                assert np.array_equal(got, expected)

