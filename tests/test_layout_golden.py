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
    "K9/0": "7550fa03f00a528d4b5517364a6537b5268bdb1490dfd23220baa7cb38896349",
    "K9/7": "4fed23cd81d384cb7141d1e00f8b9ea785bae2e486225b664cae69fd644022e0",
    "random14/0": "fd3466f556bf71167f7f0cba343635d4072d6042b73322b6622ffed0c2de8083",
    "random14/7": "faf333906fb7d5add031e05fed7d1f2878727fa989aaf7645e4bc56810f78202",
    "random19/0": "7552041cd8ad6fd3a42ade302d9f71e413d66e0d821371dcb88b5c8872afa069",
    "random19/7": "7f2f2d661344d01f0be9d7883e636685aae77f5613318f74cd25da479eafa14a",
    "random25/0": "fd6a0c4b248678982dcece7e61b81f246153c365d10f0d5366b1cb7a5b965d52",
    "random25/7": "800d188da91867d832513f3005b32fa4d3e0c3cc8367bbd60a193a78774c0b8b",
    "random5/0": "354ce2f82419a3f483ffcf6597538149b0efb9127a8f03015b514a8bc7092e94",
    "random5/7": "fc8e0aff6e24efa667e1b3d5dc110b58c450fc73521bc4845643851657ad4e08",
    "random9/0": "a6b8a188a812135953345feb4193bd2b98e26cd565eb52ec6695e088086f982e",
    "random9/7": "d623c84d8020b731887451318b7082ad02241a8d7a328573ab738b9ee6f014f5",
    "two_components/0": "efcdc66d5b7bb9e60f79cd36717c81621a35ae1a3665af0f193950fdf5fbe730",
    "two_components/7": "1ac60cd7a1b1fb175cd4ec65ba992a12f14a769f85a69e6191e204cee1ce681f",
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
