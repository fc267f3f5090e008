"""GPGL: regularised Kamada-Kawai grid layouts of graphs, tensor export
and a from-scratch multi-scale maxout CNN for graph classification.

The package root re-exports the graph and layout core; everything else
imports from its module (``gpgl.datasets``, ``gpgl.grid``, ``gpgl.nn.train``
and so on)."""

from __future__ import annotations

from .errors import CoincidentVerticesError, DisconnectedGraphError
from .graph import Graph, connected_components, shortest_path_distances
from .layout import (
    Layout,
    LayoutParams,
    gpgl_loss_and_grad,
    kk_loss,
    layout_graph,
    separation_penalty,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "LayoutParams",
    "layout_graph",
    "Layout",
    "kk_loss",
    "separation_penalty",
    "gpgl_loss_and_grad",
    "shortest_path_distances",
    "connected_components",
    "CoincidentVerticesError",
    "DisconnectedGraphError",
    "__version__",
]
