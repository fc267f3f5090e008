"""The benchmark under ``perfbench/`` imports package names and wraps
package functions where their callers look them up. This guard imports
it and enters and leaves its instrumentation, so a rename or deletion
that breaks the benchmark fails here in seconds. Nothing under
``perfbench/`` is changed."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import gpgl.cli  # noqa: F401  (loads every module the seams live in)

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
