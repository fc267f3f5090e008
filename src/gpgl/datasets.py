"""Benchmark dataset loading, featurisation and export.

Reads the plain-text benchmark format in which a dataset directory
``DS/`` holds ``DS_A.txt`` (one ``u, v`` edge per line, vertices numbered
1..N over the whole corpus), ``DS_graph_indicator.txt`` (graph id per
vertex), ``DS_graph_labels.txt`` (class per graph) and optionally
``DS_node_labels.txt``. Other files, such as ``DS_node_attributes.txt``,
are ignored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .augment import AugmentedLayout, AugmentedSet
from .errors import DatasetParseError, MissingNodeLabelsError, WindowOverflowError
from .graph import Graph
from .grid import DEFAULT_WINDOW, build_grid_tensor, check_window
from .tensor_io import ManifestEntry, manifest_path_for, write_container, write_manifest

__all__ = [
    "GraphDataset",
    "DatasetStats",
    "load_tudataset",
    "featurize",
    "dataset_stats",
    "export_tensors",
    "DEGREE_CAP",
]

# One-hot degree features are clipped to this many bins; degrees at or
# beyond the cap share the top bin.
DEGREE_CAP = 256

_INT64_RANGE = range(-(2**63), 2**63)


@dataclass(frozen=True, eq=False)
class GraphDataset:
    """A labelled graph corpus.

    ``labels`` are remapped to contiguous ``0..class_count-1`` in sorted
    order of the raw label values. ``node_labels`` holds the raw per-vertex
    integer labels when the source provides them. ``features`` holds one
    ``(n, F)`` float array per graph, one row per vertex, once
    ``featurize`` has run.
    """

    name: str
    graphs: tuple[Graph, ...]
    labels: np.ndarray
    class_count: int
    node_labels: tuple[np.ndarray, ...] | None = None
    features: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.graphs) == 0:
            raise ValueError("dataset must contain at least one graph")
        if self.labels.shape != (len(self.graphs),):
            raise ValueError("labels must have one entry per graph")
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError("labels must lie in [0, class_count)")
        for field, per_graph in (("node_labels", self.node_labels), ("features", self.features)):
            if per_graph is None:
                continue
            if len(per_graph) != len(self.graphs):
                raise ValueError(f"{field} must have one entry per graph")
            for g, arr in zip(self.graphs, per_graph):
                if arr.shape[0] != g.num_vertices:
                    raise ValueError(f"{field} must match graph sizes")

    def __len__(self) -> int:
        return len(self.graphs)


@dataclass(frozen=True)
class DatasetStats:
    """Corpus summary statistics.

    ``avg_degree`` is average edges per vertex (mean edge count over mean
    vertex count). ``max_degree`` counts both orientations of each
    undirected edge, i.e. twice the largest vertex degree; that is the
    convention of the published benchmark tables this output is compared
    against. ``feature_dim`` is the width ``featurize`` with mode "auto"
    would produce.
    """

    name: str
    num_graphs: int
    num_classes: int
    avg_nodes: float
    avg_edges: float
    avg_degree: float
    max_degree: int
    feature_dim: int

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_int(text: str, path: Path, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DatasetParseError(
            f"expected an integer, got {text.strip()!r}",
            path=str(path),
            line=line_no,
        ) from None


def _read_ints(path: Path) -> list[int]:
    """One integer per line of ``path``."""
    return [_parse_int(text, path, i + 1) for i, text in enumerate(path.read_text().splitlines())]


def _find_prefix(directory: Path) -> str:
    matches = sorted(directory.glob("*_A.txt"))
    if not matches:
        raise DatasetParseError(
            "no *_A.txt adjacency file found", path=str(directory)
        )
    if len(matches) > 1:
        named = directory / f"{directory.name}_A.txt"
        if named in matches:
            return directory.name
        raise DatasetParseError(
            f"ambiguous dataset prefix: {[m.name for m in matches]}",
            path=str(directory),
        )
    return matches[0].name[: -len("_A.txt")]


def load_tudataset(directory: str | Path) -> GraphDataset:
    """Load a dataset directory in the four-file benchmark text format.

    Vertex and graph numbering in the files is 1-based. Duplicate and
    reversed edge listings collapse to one undirected edge. Malformed
    lines, self-loops and vertex indices outside 1..N raise
    DatasetParseError carrying the file and line number.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetParseError("not a directory", path=str(directory))
    prefix = _find_prefix(directory)

    indicator_path = directory / f"{prefix}_graph_indicator.txt"
    labels_path = directory / f"{prefix}_graph_labels.txt"
    edges_path = directory / f"{prefix}_A.txt"
    for required in (indicator_path, labels_path):
        if not required.is_file():
            raise DatasetParseError("missing required file", path=str(required))

    indicator = _read_ints(indicator_path)
    num_nodes = len(indicator)
    if num_nodes == 0:
        raise DatasetParseError("no vertices", path=str(indicator_path))
    # Every graph has a vertex, so no graph id exceeds the vertex count;
    # checking that first keeps a huge id from sizing the lists below.
    for i, gid in enumerate(indicator):
        if not 1 <= gid <= num_nodes:
            raise DatasetParseError(
                f"graph indicator {gid} out of range 1..{num_nodes}",
                path=str(indicator_path),
                line=i + 1,
            )
    num_graphs = max(indicator)

    # Local vertex numbering: a vertex's index within its graph is its
    # rank among that graph's vertices in file order.
    local_index = np.zeros(num_nodes, dtype=np.int64)
    counts = [0] * (num_graphs + 1)
    for i, gid in enumerate(indicator):
        local_index[i] = counts[gid]
        counts[gid] += 1
    sizes = counts[1:]
    if min(sizes) == 0:
        empty = sizes.index(0) + 1
        raise DatasetParseError(
            f"graph {empty} has no vertices", path=str(indicator_path)
        )

    edge_lists: list[list[tuple[int, int]]] = [[] for _ in range(num_graphs)]
    for i, text in enumerate(edges_path.read_text().splitlines()):
        if not text.strip():
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise DatasetParseError(
                f"expected 'u, v', got {text.strip()!r}",
                path=str(edges_path),
                line=i + 1,
            )
        u = _parse_int(parts[0], edges_path, i + 1)
        v = _parse_int(parts[1], edges_path, i + 1)
        for endpoint in (u, v):
            if not 1 <= endpoint <= num_nodes:
                raise DatasetParseError(
                    f"vertex {endpoint} out of range 1..{num_nodes}",
                    path=str(edges_path),
                    line=i + 1,
                )
        if u == v:
            raise DatasetParseError(
                f"self-loop on vertex {u}", path=str(edges_path), line=i + 1
            )
        gu, gv = indicator[u - 1], indicator[v - 1]
        if gu != gv:
            raise DatasetParseError(
                f"edge ({u}, {v}) crosses graphs {gu} and {gv}",
                path=str(edges_path),
                line=i + 1,
            )
        edge_lists[gu - 1].append((int(local_index[u - 1]), int(local_index[v - 1])))

    raw_labels = _read_ints(labels_path)
    if len(raw_labels) != num_graphs:
        raise DatasetParseError(
            f"{len(raw_labels)} labels for {num_graphs} graphs",
            path=str(labels_path),
        )
    classes = sorted(set(raw_labels))
    class_of = {c: i for i, c in enumerate(classes)}
    labels = np.array([class_of[c] for c in raw_labels], dtype=np.int64)

    node_labels = None
    node_labels_path = directory / f"{prefix}_node_labels.txt"
    if node_labels_path.is_file():
        values = _read_ints(node_labels_path)
        if len(values) != num_nodes:
            raise DatasetParseError(
                f"{len(values)} node labels for {num_nodes} vertices",
                path=str(node_labels_path),
            )
        per_graph: list[list[int]] = [[] for _ in range(num_graphs)]
        for i, (value, gid) in enumerate(zip(values, indicator)):
            if value not in _INT64_RANGE:
                raise DatasetParseError(
                    f"vertex label {value} outside the int64 range",
                    path=str(node_labels_path),
                    line=i + 1,
                )
            per_graph[gid - 1].append(value)
        node_labels = tuple(np.array(vals, dtype=np.int64) for vals in per_graph)

    graphs = tuple(
        Graph.from_edges(sizes[i], edge_lists[i]) for i in range(num_graphs)
    )
    return GraphDataset(
        name=prefix,
        graphs=graphs,
        labels=labels,
        class_count=len(classes),
        node_labels=node_labels,
    )


def _corpus_max_degree(ds: GraphDataset) -> int:
    return max(int(g.degrees().max()) for g in ds.graphs)


def _feature_columns(ds: GraphDataset, mode: str) -> tuple[int, np.ndarray | None]:
    """Resolve ``mode`` to the corpus-wide feature width and, for label
    features, the sorted label vocabulary whose index is each label's
    one-hot column (None for degree features). See ``featurize`` for the
    modes."""
    if mode == "auto":
        mode = "one_hot_label" if ds.node_labels is not None else "one_hot_degree"
    if mode == "one_hot_label":
        if ds.node_labels is None:
            raise MissingNodeLabelsError(
                f"dataset {ds.name!r} has no vertex labels; "
                "use mode 'one_hot_degree'"
            )
        vocab = np.unique(np.concatenate(ds.node_labels))
        return len(vocab), vocab
    if mode == "one_hot_degree":
        return min(_corpus_max_degree(ds) + 1, DEGREE_CAP), None
    raise ValueError(
        f"mode must be 'one_hot_label', 'one_hot_degree' or 'auto', got {mode!r}"
    )


def featurize(ds: GraphDataset, mode: str = "auto") -> GraphDataset:
    """Return ``ds`` with one-hot vertex features in ``ds.features``.

    ``features[i]`` is an ``(n_i, F)`` float64 array, one row per vertex
    of graph ``i``. Modes: "one_hot_label" encodes the vertex label over
    the corpus-wide sorted label vocabulary; "one_hot_degree" encodes
    vertex degree with at most ``DEGREE_CAP`` bins, larger degrees sharing
    the top bin; "auto" picks labels when the dataset has them, degrees
    otherwise. The width ``F`` is fixed across the corpus so every graph
    maps to the same tensor depth.
    """
    dim, vocab = _feature_columns(ds, mode)
    features = []
    for i, g in enumerate(ds.graphs):
        if vocab is not None:
            hot = np.searchsorted(vocab, ds.node_labels[i])
        else:
            hot = np.minimum(g.degrees(), dim - 1)
        feats = np.zeros((g.num_vertices, dim), dtype=np.float64)
        feats[np.arange(g.num_vertices), hot] = 1.0
        features.append(feats)
    return replace(ds, features=tuple(features))


def dataset_stats(ds: GraphDataset) -> DatasetStats:
    """Summarise a corpus; see DatasetStats for the conventions used."""
    sizes = np.array([g.num_vertices for g in ds.graphs], dtype=np.float64)
    edges = np.array([g.num_edges for g in ds.graphs], dtype=np.float64)
    avg_nodes = float(sizes.mean())
    avg_edges = float(edges.mean())
    feature_dim, _ = _feature_columns(ds, "auto")
    return DatasetStats(
        name=ds.name,
        num_graphs=len(ds.graphs),
        num_classes=ds.class_count,
        avg_nodes=avg_nodes,
        avg_edges=avg_edges,
        avg_degree=avg_edges / avg_nodes,
        max_degree=2 * _corpus_max_degree(ds),
        feature_dim=feature_dim,
    )


def export_tensors(
    sets: list[AugmentedSet],
    ds: GraphDataset,
    path: str | Path,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> tuple[list[AugmentedSet], list[ManifestEntry]]:
    """Write the grid tensors of augmented layouts to a container.

    A layout larger than ``window`` is never cropped: its run becomes a
    failed run that keeps its seed and carries the overflow as its error.
    Failed runs are skipped, so the container count is the number of
    runs that fit. Export takes two passes: the first checks every
    layout against the window, the second hands the tensors to one
    ``write_container`` call as ``build_grid_tensor`` builds them, so
    no more than one ``(H, W, F)`` tensor is held at a time. The
    manifest sidecar is written next to the container. Returns the
    sets, overflows marked failed, and the manifest entries. When
    layouts overflowed and none fits, raises the first overflow,
    prefixed ``graph <id>: ``, and writes nothing.
    """
    if not any(s.successful() for s in sets):
        raise ValueError("nothing to export: no successful layouts")
    if ds.features is None:
        raise ValueError(f"dataset {ds.name!r} has no features; run featurize first")
    fitted = []
    placed = []
    first = None
    for s in sets:
        layouts = []
        for lay in s.layouts:
            if not lay.failed:
                try:
                    check_window(lay.grid, window)
                except WindowOverflowError as exc:
                    first = first or WindowOverflowError(f"graph {s.graph_id}: {exc}")
                    lay = AugmentedLayout(lay.seed, None, None, f"{type(exc).__name__}: {exc}")
                else:
                    placed.append((s.graph_id, lay))
            layouts.append(lay)
        fitted.append(replace(s, layouts=tuple(layouts)))
    if not placed:
        raise first
    write_container(
        path,
        (build_grid_tensor(lay.grid, ds.features[gid], window=window) for gid, lay in placed),
        count=len(placed),
    )
    entries = [ManifestEntry(gid, lay.seed, int(ds.labels[gid])) for gid, lay in placed]
    write_manifest(manifest_path_for(path), entries)
    return fitted, entries
