"""Undirected graph container and graph-theoretic distances."""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError

__all__ = [
    "Graph",
    "DistanceMatrix",
    "Component",
    "shortest_path_distances",
    "connected_components",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph over vertices ``0 .. num_vertices - 1``.

    Edges are stored as canonical ``(min, max)`` pairs with no self-loops
    and no duplicates. A graph is topology only; per-vertex data lives
    with the dataset that holds it.
    """

    num_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("graph must have at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.num_vertices}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not in canonical (min,max) order")

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from an arbitrary edge iterable.

        Edges are canonicalized to ``(min, max)`` and deduplicated, so both
        orientations of the same undirected edge collapse to one entry.
        Self-loops are rejected.
        """
        canonical = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canonical.add((u, v) if u < v else (v, u))
        return cls(num_vertices, frozenset(canonical))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        """Edges as a sorted ``(m, 2)`` int array (deterministic order)."""
        if not self.edges:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(sorted(self.edges), dtype=np.int64)

    def degrees(self) -> np.ndarray:
        """Undirected degree of every vertex as an ``(n,)`` int array."""
        ends = np.fromiter(itertools.chain.from_iterable(self.edges), np.int64, 2 * len(self.edges))
        return np.bincount(ends, minlength=self.num_vertices)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs shortest-path hop counts of a connected graph.

    Symmetric with zero diagonal; every off-diagonal entry is at least 1.
    """

    n: int
    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=np.int64)
        if d.shape != (self.n, self.n):
            raise ValueError(f"distance matrix must be ({self.n},{self.n}), got {d.shape}")
        if np.any(np.diag(d) != 0):
            raise ValueError("distance matrix diagonal must be zero")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        off = d[~np.eye(self.n, dtype=bool)]
        if off.size and off.min() < 1:
            raise ValueError("off-diagonal distances must be >= 1")
        object.__setattr__(self, "d", d)


@dataclass(frozen=True, eq=False)
class Component:
    """A connected component together with its original vertex indices.

    ``graph`` uses local indices ``0 .. k - 1``; ``original_vertices[i]``
    is the index of local vertex ``i`` in the parent graph.
    """

    graph: Graph
    original_vertices: np.ndarray


def _hop_matrix(g: Graph) -> np.ndarray:
    """Hop counts from every source at once: ``(n, n)``, -1 where no path.

    A level-synchronous breadth-first search over flat ``source * n +
    vertex`` pair indices: each level steps every frontier pair along the
    arcs out of its vertex, marks the pairs not reached before, and takes
    them as the next frontier. Steps total O(n * m), plus one O(n^2) scan
    per level.
    """
    n = g.num_vertices
    e = g.edge_array()
    tail = np.concatenate([e[:, 0], e[:, 1]])
    order = np.argsort(tail, kind="stable")
    step = (np.concatenate([e[:, 1], e[:, 0]]) - tail)[order]  # flat-index step of each arc
    deg = g.degrees()
    first = np.cumsum(deg) - deg  # arcs out of u: first[u] .. first[u] + deg[u] - 1
    d = np.full(n * n, -1, dtype=np.int64)
    frontier = np.arange(n) * (n + 1)
    d[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        v = frontier % n
        k = deg[v]
        end = np.cumsum(k)
        arcs = np.arange(end[-1]) + np.repeat(first[v] - end + k, k)
        reached = np.repeat(frontier, k) + step[arcs]
        d[reached[d[reached] < 0]] = level
        frontier = np.flatnonzero(d == level)
    return d.reshape(n, n)


def shortest_path_distances(g: Graph) -> DistanceMatrix:
    """All-pairs hop distances by breadth-first search from every source.

    Parameters
    ----------
    g : Graph
        Must be connected.

    Returns
    -------
    DistanceMatrix
        ``d[i, j]`` is the minimum number of edges on any path between
        vertices ``i`` and ``j``.

    Raises
    ------
    DisconnectedGraphError
        If some vertex pair has no connecting path.
    """
    d = _hop_matrix(g)
    if d.min() < 0:
        src, v = np.argwhere(d < 0)[0]
        raise DisconnectedGraphError(f"vertex {v} unreachable from vertex {src}")
    return DistanceMatrix(g.num_vertices, d)


def connected_components(g: Graph) -> list[Component]:
    """Split a graph into its maximal connected subgraphs.

    Components are returned in ascending order of their smallest original
    vertex; within a component, vertices keep their ascending original
    order. The union of all ``original_vertices`` arrays is a bijection
    onto ``0 .. n - 1``.
    """
    # Each vertex is labelled by the smallest vertex it reaches.
    label = np.argmax(_hop_matrix(g) >= 0, axis=1)
    e = g.edge_array()
    components: list[Component] = []
    for root in np.unique(label):
        members = np.flatnonzero(label == root)
        local = np.searchsorted(members, e[label[e[:, 0]] == root])
        components.append(Component(Graph.from_edges(len(members), local.tolist()), members))
    return components
