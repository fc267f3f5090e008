"""Seeded synthetic corpora in the TU text format.

No real benchmark corpus is on disk, so each workload runs on a corpus
generated here from the benchmark seed and written as TU files; the CLI
then parses them with ``load_tudataset`` like any user-supplied dataset.

Graph sizes are stratified: each corpus of ``count`` graphs spreads its
sizes evenly over the size range and the seed only shuffles and wires
them. Layout cost grows steeply with size, so drawing sizes at random
would make the per-seed mean cost, and with it every throughput figure,
swing far more than the code under test does.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Vertex labels of the molecule corpora: 7 atom types, as in MUTAG.
_CARBON, _NITROGEN, _OXYGEN, _CHLORINE = 0, 1, 2, 3
_PENDANTS = (_OXYGEN, _CHLORINE, 4, 5, 6)


def _stratified_sizes(count: int, lo: int, hi: int, rng: np.random.Generator) -> list[int]:
    sizes = np.round(np.linspace(lo, hi, count)).astype(int)
    return [int(s) for s in rng.permutation(sizes)]


def _ring_system(
    target: int, five_rings: bool, rng: np.random.Generator
) -> tuple[list[tuple[int, int]], list[int]]:
    """Rings joined by short chains, then pendant atoms up to ``target``
    vertices. With ``five_rings`` the first ring is a 5-ring holding a
    nitrogen and later rings are 5- or 6-rings; without, all rings are
    carbon 6-rings. Returns (edges, vertex labels)."""
    edges: list[tuple[int, int]] = []
    labels: list[int] = []

    def add(label: int) -> int:
        labels.append(label)
        return len(labels) - 1

    ring_budget = max(6, (target * 2) // 3)
    attach = None
    while attach is None or len(labels) + 6 <= ring_budget:
        if attach is not None:
            for _ in range(int(rng.integers(0, 3))):
                v = add(_CARBON)
                edges.append((attach, v))
                attach = v
        if five_rings and (attach is None or rng.random() < 0.5):
            ring = [add(_NITROGEN)] + [add(_CARBON) for _ in range(4)]
        else:
            ring = [add(_CARBON) for _ in range(6)]
        size = len(ring)
        edges.extend((ring[i], ring[(i + 1) % size]) for i in range(size))
        if attach is not None:
            edges.append((attach, ring[0]))
        attach = ring[int(rng.integers(1, size))]
    while len(labels) < target:
        host = int(rng.integers(0, len(labels)))
        v = add(int(rng.choice(_PENDANTS)))
        edges.append((host, v))
    return edges, labels


def molecules(seed: int, count: int, lo: int = 12, hi: int = 28, salt_every: int = 10):
    """MUTAG-like molecules of ``lo``..``hi`` vertices: ring systems with
    pendant atoms. Every ``salt_every``-th molecule also carries a
    two-atom counter-ion, a second component, as salts do. Half the
    molecules (label 1) hold a nitrogen 5-ring; the rest (label 0) are
    carbon 6-rings only, so the labels are learnable from the vertex
    labels and the ring shapes.

    Returns a list of (num_vertices, edges, vertex_labels, graph_label).
    """
    rng = np.random.default_rng((seed, 1))
    graph_labels = rng.permutation(np.arange(count) % 2)
    corpus = []
    for i, target in enumerate(_stratified_sizes(count, lo, hi, rng)):
        salt = i % salt_every == salt_every - 1
        label = int(graph_labels[i])
        edges, labels = _ring_system(target - 2 if salt else target, bool(label), rng)
        if salt:
            a = len(labels)
            labels.extend([_CHLORINE, _OXYGEN])
            edges.append((a, a + 1))
        corpus.append((len(labels), edges, labels, label))
    return corpus


def ego_networks(seed: int, count: int, lo: int = 12, hi: int = 30, p: float = 0.5, cliques: int = 2):
    """IMDB-like ego graphs: a hub joined to ``lo``..``hi`` alters with a
    share ``p`` of the alter pairs linked, plus ``cliques`` complete
    graphs of ``lo // 2``..``lo`` vertices. No vertex labels.

    Returns a list of (num_vertices, edges, None, graph_label).
    """
    rng = np.random.default_rng((seed, 2))
    corpus = []
    for alters in _stratified_sizes(count, lo, hi, rng):
        n = alters + 1
        edges = [(0, v) for v in range(1, n)]
        # Exactly round(p * pairs) alter edges, placed at random: the
        # edge count, like the size, does not swing with the seed.
        iu, ju = np.triu_indices(alters, k=1)
        keep = np.sort(rng.choice(iu.size, size=round(p * iu.size), replace=False))
        edges.extend((int(i) + 1, int(j) + 1) for i, j in zip(iu[keep], ju[keep]))
        corpus.append((n, edges, None, int(rng.integers(0, 2))))
    for n in np.linspace(lo // 2, lo, cliques).astype(int):
        iu, ju = np.triu_indices(int(n), k=1)
        corpus.append((int(n), list(zip(iu.tolist(), ju.tolist())), None, 1))
    return corpus


def write_tu(directory: Path, name: str, corpus) -> Path:
    """Write a corpus as ``directory/name/name_*.txt`` (1-based ids, each
    undirected edge listed in both directions, as TU files do)."""
    d = Path(directory) / name
    d.mkdir(parents=True, exist_ok=True)
    edge_lines, indicator, node_labels, graph_labels = [], [], [], []
    offset = 0
    for gi, (n, edges, labels, graph_label) in enumerate(corpus):
        for u, v in edges:
            edge_lines.append(f"{u + 1 + offset}, {v + 1 + offset}")
            edge_lines.append(f"{v + 1 + offset}, {u + 1 + offset}")
        indicator.extend([str(gi + 1)] * n)
        if labels is not None:
            node_labels.extend(str(x) for x in labels)
        graph_labels.append(str(graph_label))
        offset += n
    (d / f"{name}_A.txt").write_text("\n".join(edge_lines) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (d / f"{name}_graph_labels.txt").write_text("\n".join(graph_labels) + "\n")
    if node_labels:
        (d / f"{name}_node_labels.txt").write_text("\n".join(node_labels) + "\n")
    return d


def spec_of(corpus) -> dict:
    """The corpus facts recorded next to the results."""
    sizes = [n for n, *_ in corpus]
    edges = [len(e) for _, e, *_ in corpus]
    return {
        "graphs": len(corpus),
        "vertices": sum(sizes),
        "size_min": min(sizes),
        "size_max": max(sizes),
        "edges": sum(edges),
        "positive_labels": sum(1 for *_, y in corpus if y == 1),
    }
