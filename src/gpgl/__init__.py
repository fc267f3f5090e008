"""GPGL: regularised Kamada-Kawai grid layouts of graphs, tensor export
and a from-scratch multi-scale maxout CNN for graph classification."""

from __future__ import annotations

from .augment import AugmentedLayout, AugmentedSet, augment
from .datasets import (
    DatasetStats,
    GraphDataset,
    dataset_stats,
    export_tensors,
    featurize,
    load_tudataset,
)
from .errors import (
    CoincidentVerticesError,
    DatasetParseError,
    DisconnectedGraphError,
    GpglError,
    MissingNodeLabelsError,
    NonFiniteLossError,
    WindowOverflowError,
)
from .graph import Graph, connected_components, shortest_path_distances
from .grid import build_grid_tensor
from .layout import (
    GridLayout,
    Layout,
    LayoutDiagnostics,
    LayoutParams,
    circular_init,
    gpgl_loss_and_grad,
    kk_loss,
    layout_graph,
    minimize,
    rescale_layout,
    round_layout,
    separation_penalty,
)
from .nn import MsmCnn, NetworkConfig, majority_vote, train
from .render import render_graph_svg, render_svg
from .tensor_io import ManifestEntry, read_container, write_container

__version__ = "0.1.0"

__all__ = [
    "AugmentedLayout",
    "AugmentedSet",
    "augment",
    "DatasetStats",
    "GraphDataset",
    "dataset_stats",
    "export_tensors",
    "featurize",
    "load_tudataset",
    "CoincidentVerticesError",
    "DatasetParseError",
    "DisconnectedGraphError",
    "GpglError",
    "MissingNodeLabelsError",
    "NonFiniteLossError",
    "WindowOverflowError",
    "Graph",
    "connected_components",
    "shortest_path_distances",
    "build_grid_tensor",
    "GridLayout",
    "Layout",
    "LayoutDiagnostics",
    "LayoutParams",
    "circular_init",
    "gpgl_loss_and_grad",
    "kk_loss",
    "layout_graph",
    "minimize",
    "rescale_layout",
    "round_layout",
    "separation_penalty",
    "MsmCnn",
    "NetworkConfig",
    "majority_vote",
    "train",
    "render_graph_svg",
    "render_svg",
    "ManifestEntry",
    "read_container",
    "write_container",
    "__version__",
]
