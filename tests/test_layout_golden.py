"""Golden layouts: the cells and diagnostics of fixed inputs never move.

Each case hashes the cells and ``diagnostics.to_dict()`` of one
``layout_graph`` call. The digests were recorded from the loss code that
predates the pair kernel, so a refactor of the descent that changes any
float on the way (summation order, gradient form, accepted steps) shows
up here as a changed digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from gpgl import Graph, LayoutParams, layout_graph

from conftest import complete_graph, cycle_graph, random_connected_graph


def _random(n: int, seed: int) -> Graph:
    return random_connected_graph(n, np.random.default_rng(seed))


def _two_components() -> Graph:
    # A 6-cycle with a chord next to a 4-vertex path.
    c = cycle_graph(6)
    edges = list(c.edges) + [(0, 3)] + [(6, 7), (7, 8), (8, 9)]
    return Graph.from_edges(10, edges)


CASES = {
    "K9": lambda: complete_graph(9),
    "random5": lambda: _random(5, 101),
    "random9": lambda: _random(9, 102),
    "random14": lambda: _random(14, 103),
    "random19": lambda: _random(19, 104),
    "random25": lambda: _random(25, 105),
    "two_components": _two_components,
}

LAYOUT_SEEDS = (0, 7)

GOLDEN = {
    "K9/0": "64fedcb3e3035b6cba9da81e0d94761a44c37576cfd60649a1bd21357b966ced",
    "K9/7": "b7ec59804934aac99d5111f2489e5771a8c17318aff9e5552e71c34a5f96f278",
    "random14/0": "e970a89ab50469826ad2822ddd945801fd82773167d179e1be82f98b332b84d9",
    "random14/7": "73752cc201ee84f6682b23f87a314fcda957f7655cfa51fc03fa3763b2d88920",
    "random19/0": "0407599fab20866f2c5a3837c0be99ec4b449f1afb1cb5721160ec0050fe9098",
    "random19/7": "a2a618fbe26a7dbe3919af5775b67b9ddbcd828fbb83a95b7f8233213a25391d",
    "random25/0": "16c64c86b99cc186e12773f1f0a8a8fd03fb9cacfbb5876c92ed66c89f813c5c",
    "random25/7": "1875f18497ba5244ab8a683f9da8d9e97ca65c3cfbd9d3b5409885a241e88385",
    "random5/0": "4745ad1b9323008704f3b7574aa73b17cd7760b4031aa7f33380ef7bb1dc3946",
    "random5/7": "cb35892a02b5372980a9c6a7eceb7be9f3a5ebea23541e5213a93ee02d8d357b",
    "random9/0": "92f7c3597cb7c6ca9d01ad097f7361b675bf7adacdf9c8cab27faf9ef8f3c09d",
    "random9/7": "1adb10425d7e6062d168b91ca44e5cb5899bcd9616ffbc9c64ea839ec0b8b9a2",
    "two_components/0": "4f4bd437e4f65b16425b697a39e904c3809a5896298755f0fb1d86b42adf3a48",
    "two_components/7": "0578837af9ff837db985c7463079be12f6a01b9d3547c90a710ea0952f3f58b0",
}


def layout_digest(g: Graph, seed: int) -> str:
    grid, diag = layout_graph(g, LayoutParams(seed=seed))
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(grid.cells, dtype="<i8").tobytes())
    h.update(json.dumps(diag.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", LAYOUT_SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_layout_matches_golden(name: str, seed: int):
    assert layout_digest(CASES[name](), seed) == GOLDEN[f"{name}/{seed}"]
