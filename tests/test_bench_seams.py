"""The benchmark under ``perfbench/`` imports package names and wraps
package functions where their callers look them up. This guard imports
it and enters and leaves its instrumentation, and runs its stage-by-stage
recomposition of ``layout_graph``, so a rename, a deletion or a drift in
the layout stages that breaks the benchmark fails here in seconds.
Nothing under ``perfbench/`` is changed."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np

import gpgl.cli  # noqa: F401  (loads every module the seams live in)
from conftest import complete_graph, cycle_graph, path_graph, random_connected_graph
from gpgl.graph import Graph
from gpgl.layout import LayoutParams, layout_graph

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_attributes() -> dict[tuple[str, str], object]:
    """Every module attribute and class attribute of the loaded package."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name != "gpgl" and not name.startswith("gpgl."):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    snap[(name, f"{attr}.{member}")] = inner
    return snap


def test_instrument_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module("measure")  # imports spans, workloads, corpora
    spans = importlib.import_module("spans")

    before = _package_attributes()
    with spans.instrument(spans.Tracer(), []):
        during = _package_attributes()
        wrapped = {key for key, value in during.items() if value is not before.get(key)}
        for key in wrapped:
            assert getattr(during[key], "__wrapped__", None) is before[key], key
    assert {
        ("gpgl.cli", "augment"),
        ("gpgl.augment", "layout_graph"),
        ("gpgl.layout", "shortest_path_distances"),
        ("gpgl.nn.train", "evaluate"),
        ("gpgl.nn.train", "Adam.step"),
    } <= wrapped

    after = _package_attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_recompose_matches_layout_graph(monkeypatch):
    """The traced run re-lays each graph through the public stage
    functions and its own copy of the phase scan; any drift between that
    copy and ``layout_graph`` shows up as a mismatch."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")

    two_components = Graph.from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
    cases = [
        (path_graph(5), LayoutParams(max_iters=60, seed=0)),
        (cycle_graph(6), LayoutParams(max_iters=60, seed=1)),
        (random_connected_graph(9, np.random.default_rng(3)), LayoutParams(max_iters=60)),
        # Two components and an isolated vertex, packed side by side.
        (two_components, LayoutParams(max_iters=60, seed=2)),
        # No separation penalty: vertices collide, so the scan's choice of
        # (fewest lost vertices, then smallest area) decides the cells.
        (complete_graph(8), LayoutParams(max_iters=60, lam=0.0)),
        # The rescale zooms the stress layout by about 2.1 before the
        # penalized stage, and the cells differ from those without it.
        (cycle_graph(6), LayoutParams(max_iters=60, seed=1, alpha=2.0, enable_rescale=True)),
    ]
    calls = []
    for g, p in cases:
        grid, _ = layout_graph(g, p)
        calls.append((g, p, grid.cells))
    assert spans.recompose(spans.Tracer(), calls) == 0
