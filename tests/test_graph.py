"""Graph type, BFS distances and component decomposition."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgl import DisconnectedGraphError, Graph, connected_components, shortest_path_distances

from conftest import complete_graph, cycle_graph, path_graph, random_connected_graph
from oracles import floyd_warshall


class TestGraph:
    def test_canonicalizes_and_dedupes_edges(self):
        g = Graph.from_edges(4, [(1, 0), (0, 1), (2, 3), (3, 2), (2, 3)])
        assert g.num_edges == 2
        assert g.edges == frozenset({(0, 1), (2, 3)})

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_vertices(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_edge_array_sorted(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 2)])
        assert g.edge_array().tolist() == [[0, 1], [0, 2], [2, 3]]

    def test_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees().tolist() == [3, 1, 1, 1]


class TestShortestPaths:
    def test_path_graph_distances(self):
        s = shortest_path_distances(path_graph(4))
        expected = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
        assert s.d.tolist() == expected

    def test_complete_graph_all_ones(self):
        s = shortest_path_distances(complete_graph(5))
        off = ~np.eye(5, dtype=bool)
        assert np.all(s.d[off] == 1)

    def test_six_cycle_max_distance(self):
        s = shortest_path_distances(cycle_graph(6))
        assert s.d.max() == 3
        assert s.d[0, 3] == 3

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(2, 30))
            g = random_connected_graph(n, rng)
            s = shortest_path_distances(g)
            expected = floyd_warshall(n, sorted(g.edges))
            assert np.array_equal(s.d.astype(float), expected), f"trial {trial}"

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 40)), rng)
            s = shortest_path_distances(g)
            assert np.array_equal(s.d, s.d.T)
            assert np.all(np.diag(s.d) == 0)
            off = ~np.eye(s.n, dtype=bool)
            assert s.d[off].min() >= 1

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            shortest_path_distances(g)


class TestComponents:
    def test_connected_graph_single_component(self):
        comps = connected_components(cycle_graph(5))
        assert len(comps) == 1
        assert comps[0].original_vertices.tolist() == [0, 1, 2, 3, 4]

    def test_two_components_ordered_by_smallest_vertex(self):
        g = Graph.from_edges(5, [(3, 4), (0, 1), (1, 2)])
        comps = connected_components(g)
        assert [c.original_vertices.tolist() for c in comps] == [[0, 1, 2], [3, 4]]
        assert comps[0].graph.num_edges == 2
        assert comps[1].graph.num_edges == 1

    def test_isolated_vertices_are_components(self):
        g = Graph.from_edges(3, [])
        comps = connected_components(g)
        assert len(comps) == 3
        assert all(c.graph.num_vertices == 1 for c in comps)

    def test_component_edges_relabelled(self):
        g = Graph.from_edges(6, [(4, 5), (3, 5)])
        comps = connected_components(g)
        tail = comps[-1]
        assert tail.original_vertices.tolist() == [3, 4, 5]
        assert tail.graph.edges == frozenset({(0, 2), (1, 2)})


# Property tests: networkx as an independent oracle for components and
# hop distances.


@st.composite
def any_graph(draw):
    """1-40 vertices with any edge set: a sparse draw, or the complement
    of one for dense graphs; isolated vertices and several components
    included."""
    n = draw(st.integers(1, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else set()
    if draw(st.booleans()):
        edges = set(pairs) - edges
    return Graph.from_edges(n, edges)


def _to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from(g.edges)
    return nxg


@settings(max_examples=200, deadline=None)
@given(g=any_graph())
def test_components_match_networkx(g):
    nxg = _to_networkx(g)
    expected = sorted((sorted(c) for c in nx.connected_components(nxg)), key=min)
    comps = connected_components(g)
    assert [c.original_vertices.tolist() for c in comps] == expected
    for comp, members in zip(comps, expected):
        local = {v: i for i, v in enumerate(members)}
        relabelled = {tuple(sorted((local[u], local[v]))) for u, v in nxg.subgraph(members).edges}
        assert comp.graph.num_vertices == len(members)
        assert comp.graph.edges == relabelled


@settings(max_examples=200, deadline=None)
@given(g=any_graph())
def test_distances_match_networkx(g):
    nxg = _to_networkx(g)
    if not nx.is_connected(nxg):
        with pytest.raises(DisconnectedGraphError, match="unreachable from vertex"):
            shortest_path_distances(g)
        return
    expected = np.zeros((g.num_vertices, g.num_vertices), dtype=np.int64)
    for src, lengths in nx.all_pairs_shortest_path_length(nxg):
        for dst, hops in lengths.items():
            expected[src, dst] = hops
    assert np.array_equal(shortest_path_distances(g).d, expected)
