"""CSR adjacency construction and round trips."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRAdjacency, build_csr
from repro.graph.graph import Graph, from_edge_list


class TestBuildCSR:
    def test_row_contents_by_dst(self, ring12):
        csr = build_csr(ring12, by="dst")
        for v in range(12):
            assert sorted(csr.row(v).tolist()) == sorted(
                ring12.neighbors(v).tolist())

    def test_row_contents_by_src(self, molecule):
        csr = build_csr(molecule, by="src")
        for v in range(molecule.num_nodes):
            assert sorted(csr.row(v).tolist()) == sorted(
                molecule.neighbors(v).tolist())

    def test_nnz_is_directed_count(self, molecule):
        csr = build_csr(molecule)
        s, _ = molecule.directed_edges()
        assert csr.nnz == len(s)

    def test_degrees_match(self, er50):
        csr = build_csr(er50)
        assert np.array_equal(csr.degrees(), er50.degrees())

    def test_edge_ids_index_edge_records(self, molecule):
        csr = build_csr(molecule)
        for v in range(molecule.num_nodes):
            for neighbour, eid in zip(csr.row(v), csr.row_edges(v)):
                s, d = molecule.src[eid], molecule.dst[eid]
                assert {int(s), int(d)} == {v, int(neighbour)} or (
                    s == d == v)

    def test_invalid_by(self, ring12):
        with pytest.raises(GraphError):
            build_csr(ring12, by="nope")

    def test_self_loop_appears_once(self):
        g = Graph(2, [0], [0])
        csr = build_csr(g)
        assert csr.nnz == 1
        assert csr.row(0).tolist() == [0]


class TestValidation:
    def test_offsets_length(self):
        with pytest.raises(GraphError):
            CSRAdjacency(3, np.array([0, 1]), np.array([0]), np.array([0]))

    def test_offsets_monotone(self):
        with pytest.raises(GraphError):
            CSRAdjacency(2, np.array([0, 2, 1]), np.array([0]),
                         np.array([0]))

    def test_offsets_end_at_nnz(self):
        with pytest.raises(GraphError):
            CSRAdjacency(1, np.array([0, 5]), np.array([0]), np.array([0]))


class TestRoundTrip:
    def test_csr_to_edges(self, ring12):
        csr = build_csr(ring12, by="dst")
        # Expand the CSR back to (row, col) coordinates.
        rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.offsets))
        cols = csr.indices
        assert len(rows) == csr.nnz
        pairs = set(zip(rows.tolist(), cols.tolist()))
        s, d = ring12.directed_edges()
        assert pairs == set(zip(d.tolist(), s.tolist()))
