"""Span recorder for the traced run, and the seams it wraps.

Spans are recorded from the benchmark's own files: ``instrument``
replaces each public function where its caller looks the name up (a
module attribute or a class attribute) with a wrapper that opens a span
around the call, and puts every original back on exit. Nothing in the
package is edited. Spans stay in memory until the run ends.

``layout_graph`` has no public seams between its stages, so the traced
run times the stages by re-running each recorded layout through the
public stage functions (``recompose``) and checks that the cells match.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from gpgl.graph import connected_components, shortest_path_distances
from gpgl.layout import Layout, circular_init, minimize, rescale_layout, round_layout


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    """Nested spans plus named counters; spans of one command share its root."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def self_time(self, idx: int) -> float:
        """A span's duration minus its direct children's."""
        span = self.spans[idx]
        children = sum(s.end - s.start for s in self.spans if s.parent == idx)
        return (span.end - span.start) - children


def _wrap(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, *args, **kwargs)
        return out

    return traced


def _conv_fwd_after(tracer: Tracer):
    def after(out, x, w, b):
        n, h, wd, cin = x.shape
        k, cout = w.shape[0], w.shape[3]
        tracer.counts["conv_flop"] += 2.0 * n * h * wd * k * k * cin * cout
        cols = out[1]
        tracer.counts["im2col_peak_bytes"] = max(
            tracer.counts["im2col_peak_bytes"], cols.nbytes
        )

    return after


def _conv_bwd_after(tracer: Tracer):
    # dw = cols.T @ dmat and dcols = dmat @ w.T: two GEMMs of the
    # forward's size.
    def after(out, dout, cols, w, x_shape):
        tracer.counts["conv_flop"] += 4.0 * cols.shape[0] * cols.shape[1] * w.shape[3]

    return after


def _augment_after(tracer: Tracer):
    def after(result, g, p, k, graph_id=0):
        for i, lay in enumerate(result.layouts):
            tracer.counts["augment.layouts"] += not lay.failed
            tracer.counts["augment.failed"] += lay.failed
            tracer.counts["augment.retries"] += lay.failed or lay.seed != p.seed + i

    return after


def _file_bytes_after(tracer: Tracer):
    def after(out, path, *args, **kwargs):
        tracer.counts["tensor_io.bytes"] += os.path.getsize(path)

    return after


def _layout_after(tracer: Tracer, calls: list):
    def after(result, g, p):
        grid, diag = result
        calls.append((g, p, grid.cells))
        tracer.counts["layout.kk_iterations"] += diag.kk_iterations
        tracer.counts["layout.gpgl_iterations"] += diag.gpgl_iterations
        tracer.counts["layout.lost_vertices"] += diag.lost_vertices

    return after


def _count_after(tracer: Tracer, key: str):
    def after(*_args, **_kwargs):
        tracer.counts[key] += 1

    return after


@contextlib.contextmanager
def instrument(tracer: Tracer, layout_calls: list):
    """Wrap every seam for the duration of the block.

    ``layout_calls`` collects ``(graph, params, cells)`` for each
    ``layout_graph`` call so the caller can recompose the layouts.
    """
    seams = [
        # (module or "module:Class", attribute, span name, after-hook)
        ("gpgl.cli", "load_tudataset", "datasets.load", None),
        ("gpgl.cli", "featurize", "datasets.featurize", None),
        ("gpgl.cli", "augment", "augment.augment", _augment_after(tracer)),
        ("gpgl.augment", "layout_graph", "layout.call", _layout_after(tracer, layout_calls)),
        ("gpgl.layout", "shortest_path_distances", "graph.apsp", _count_after(tracer, "graph.apsp_calls")),
        ("gpgl.datasets", "build_grid_tensor", "grid.build", _count_after(tracer, "grid.tensors")),
        ("gpgl.datasets", "write_container", "tensor_io.write", _file_bytes_after(tracer)),
        ("gpgl.datasets", "write_manifest", "tensor_io.write", _file_bytes_after(tracer)),
        ("gpgl.nn.train", "read_container", "tensor_io.read", _file_bytes_after(tracer)),
        ("gpgl.nn.train", "read_manifest", "tensor_io.read", _file_bytes_after(tracer)),
        ("gpgl.nn.ops", "conv2d_forward", "nn.ops.conv_fwd", _conv_fwd_after(tracer)),
        ("gpgl.nn.ops", "conv2d_backward", "nn.ops.conv_bwd", _conv_bwd_after(tracer)),
        ("gpgl.nn.ops", "maxout_forward", "nn.ops.maxout", None),
        ("gpgl.nn.ops", "maxout_backward", "nn.ops.maxout", None),
        ("gpgl.nn.ops", "maxpool2_forward", "nn.ops.pool", None),
        ("gpgl.nn.ops", "maxpool2_backward", "nn.ops.pool", None),
        ("gpgl.nn.ops", "global_pool_forward", "nn.ops.pool", None),
        ("gpgl.nn.ops", "global_pool_backward", "nn.ops.pool", None),
        ("gpgl.nn.ops", "dense_forward", "nn.ops.dense", None),
        ("gpgl.nn.ops", "dense_backward", "nn.ops.dense", None),
        ("gpgl.nn.network:MsmCnn", "loss_and_grad", "nn.network.loss_and_grad", None),
        ("gpgl.nn.train:Adam", "step", "nn.train.adam", _count_after(tracer, "nn.train.steps")),
        ("gpgl.nn.train", "evaluate", "nn.train.evaluate", None),
    ]
    originals = []
    try:
        for target, attr, name, after in seams:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, after))
        yield
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


# Grid phases tried per axis when rounding, as layout_graph does.
_PHASE_STEPS = 8


def _round_best_phase(coords):
    """The best-phase rounding of ``layout_graph``, from the public
    ``round_layout``: first phase with (fewest collisions, smallest box)."""
    base = coords - coords.min(axis=0)
    best, best_key = None, None
    for ty in np.arange(_PHASE_STEPS) / _PHASE_STEPS:
        for tx in np.arange(_PHASE_STEPS) / _PHASE_STEPS:
            grid = round_layout(Layout(base + np.array([tx, ty])))
            rows, cols = grid.extent()
            key = (coords.shape[0] - len(grid.occupied_cells()), rows * cols)
            if best_key is None or key < best_key:
                best, best_key = grid, key
    return best.cells


def _stages(tracer: Tracer, g, p):
    """One connected graph through the public stage functions."""
    if g.num_vertices == 1:
        return np.zeros((1, 2), dtype=np.int64)
    with tracer.span("layout.apsp"):
        s = shortest_path_distances(g)
    with tracer.span("layout.init"):
        init = circular_init(g.num_vertices, p.seed)
    with tracer.span("layout.stress"):
        stress = minimize(init, s, replace(p, lam=0.0))
    if p.enable_rescale:
        stress = rescale_layout(stress, p)
    with tracer.span("layout.penalized"):
        final = minimize(stress, s, p)
    with tracer.span("layout.round"):
        return _round_best_phase(final.coords)


def recompose(tracer: Tracer, layout_calls: list) -> int:
    """Re-run every recorded ``layout_graph`` call stage by stage, each
    component packed left to right as ``layout_graph`` packs them, and
    return how many results differ from the recorded cells."""
    mismatches = 0
    for g, p, cells in layout_calls:
        with tracer.span("recompose"):
            comps = connected_components(g)
            if len(comps) == 1:
                got = _stages(tracer, g, p)
            else:
                got = np.zeros((g.num_vertices, 2), dtype=np.int64)
                col_offset = 0
                for comp in comps:
                    placed = _stages(tracer, comp.graph, p).copy()
                    width = int(placed[:, 1].max()) + 1
                    placed[:, 1] += col_offset
                    got[comp.original_vertices] = placed
                    col_offset += width + 1
        mismatches += not np.array_equal(got, cells)
    return mismatches
