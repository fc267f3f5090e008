"""Golden layouts: the cells and diagnostics of fixed inputs never move.

Each case hashes the cells and ``diagnostics.to_dict()`` of one
``layout_graph`` call. The digests were re-recorded once when the
descent took its windowed progress stop and the pair kernel began to sum
over unordered pairs with ``np.hypot`` distances; a refactor of the
descent that changes any float on the way (summation order, gradient
form, accepted steps, stop rule) shows up here as a changed digest.
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
    "K9/0": "5d492ea8fe152f3201257b1ed7b944684f63a9061a8db80c2432778cab40d96a",
    "K9/7": "c10d727849dd29c6a5aa18c327fec8773666fe9a91895ec820c5e72dc292e92b",
    "random14/0": "aec5d9bbe86567387caffe9ac428fb3a23d74beee6d5560ecadd57a8e1c3cddf",
    "random14/7": "eb43d88291dd54197d4541c1c5a5e13a6d4a09e2847ab3ebfc37f0d4ceaef049",
    "random19/0": "359ea6b08c229bf257ce6e542386652f39e8d56435a435f2c275016a17d6cd62",
    "random19/7": "7891336c852cc1933ac29696d48fd4fa616c0a7ac53b51e1538befa8ec08e857",
    "random25/0": "197ea1a68ff73440988381a5c049ecc3e0a82f2825bfcb574627dccaeca7131e",
    "random25/7": "72f498ab99f015e39baa97d9b0ff5b9f046941e2fecb895691b5d5e774b1b52b",
    "random5/0": "dc6ffdf883583da662fcbd4ede442ee7151aada45ea42ce9c2564b428abe8220",
    "random5/7": "a22d00ea7180fc5c4d47d9c3007e9e0101a142ba0deee79fcce0d9f5db51454e",
    "random9/0": "47360f82fa01df39b80e99ac43714380aff36b74012a04911908b9de510fdb25",
    "random9/7": "e2fecd430a636f02ffdb0a994ae81db5a5473f99f9ea4c8c8e4506dccdae3a73",
    "two_components/0": "d9de5a3d85a391959ef1d71579d8379e8f43fe87b1ed35ff3124a9cc13d3e775",
    "two_components/7": "912822dfe6ecf6d992aa390a16450fa568751f58836eaa1c58103eb1502cd281",
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
