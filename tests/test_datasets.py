"""Tests for the benchmark loader, featurization, stats, and tensor export."""

import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_graph,
    path_graph,
    require_dataset,
    star_graph,
    write_tu_dataset,
)
from gpgl.augment import AugmentedLayout, AugmentedSet, augment
from gpgl.datasets import (
    DEGREE_CAP,
    GraphDataset,
    dataset_stats,
    export_tensors,
    featurize,
    load_tudataset,
)
from gpgl.errors import DatasetParseError, MissingNodeLabelsError, WindowOverflowError
from gpgl.graph import Graph
from gpgl.grid import build_grid_tensor
from gpgl.layout import GridLayout, LayoutParams
from gpgl.tensor_io import (
    ManifestEntry,
    manifest_path_for,
    read_container,
    read_manifest,
    write_container,
    write_manifest,
)


class TestLoadTudataset:
    def test_minimal_fixture_exact_structures(self, tmp_path):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        p3 = path_graph(3)
        d = write_tu_dataset(tmp_path, "MINI", [triangle, p3], [1, 2])
        ds = load_tudataset(d)
        assert ds.name == "MINI"
        assert len(ds) == 2
        assert ds.class_count == 2
        assert list(ds.labels) == [0, 1]
        assert ds.graphs[0].edges == frozenset({(0, 1), (0, 2), (1, 2)})
        assert ds.graphs[1].edges == frozenset({(0, 1), (1, 2)})

    def test_synth_fixture(self, synth_dataset_dir):
        ds = load_tudataset(synth_dataset_dir)
        assert len(ds) == 12
        assert ds.class_count == 2
        # Raw labels 1 / -1 remap to contiguous 0 / 1 by sorted order.
        assert set(ds.labels.tolist()) == {0, 1}
        assert ds.labels[0] == 1  # raw label 1 -> class 1
        assert ds.labels[1] == 0  # raw label -1 -> class 0
        assert ds.node_labels is not None
        assert all(
            lab.shape[0] == g.num_vertices
            for lab, g in zip(ds.node_labels, ds.graphs)
        )

    def test_direction_duplicates_collapse(self, tmp_path):
        graphs = [cycle_graph(5), path_graph(4)]
        labels = [0, 1]
        d_both = write_tu_dataset(tmp_path / "b", "DUP", graphs, labels, both_directions=True)
        d_single = write_tu_dataset(tmp_path / "s", "DUP", graphs, labels, both_directions=False)
        a = load_tudataset(d_both)
        b = load_tudataset(d_single)
        for ga, gb in zip(a.graphs, b.graphs):
            assert ga.edges == gb.edges

    def test_malformed_edge_line_reports_position(self, tmp_path):
        d = write_tu_dataset(tmp_path, "BAD", [path_graph(3)], [0])
        path = d / "BAD_A.txt"
        lines = path.read_text().splitlines()
        lines[1] = "2, x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError) as err:
            load_tudataset(d)
        assert "BAD_A.txt" in str(err.value)
        assert ":2" in str(err.value)

    def test_edge_endpoint_out_of_range(self, tmp_path):
        d = write_tu_dataset(tmp_path, "OOR", [path_graph(3)], [0])
        path = d / "OOR_A.txt"
        line = len(path.read_text().splitlines()) + 1
        path.write_text(path.read_text() + "1, 99\n")
        with pytest.raises(DatasetParseError) as err:
            load_tudataset(d)
        assert str(err.value).startswith("vertex 99 out of range 1..3 (")
        assert str(err.value).endswith(f"OOR_A.txt:{line})")

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_self_loop_reports_line_and_vertex(self, data):
        graphs = [path_graph(3), cycle_graph(4), path_graph(2)]
        with tempfile.TemporaryDirectory() as tmp:
            d = write_tu_dataset(Path(tmp), "LOOP", graphs, [0, 1, 0])
            path = d / "LOOP_A.txt"
            lines = path.read_text().splitlines()
            i = data.draw(st.integers(0, len(lines) - 1), label="line index")
            v = data.draw(st.integers(1, 9), label="vertex")
            lines[i] = f"{v}, {v}"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DatasetParseError) as err:
                load_tudataset(d)
        assert err.value.line == i + 1
        assert f"self-loop on vertex {v} " in str(err.value)
        assert f"LOOP_A.txt:{i + 1}" in str(err.value)

    def test_edge_crossing_graphs(self, tmp_path):
        d = write_tu_dataset(tmp_path, "CROSS", [path_graph(2), path_graph(2)], [0, 1])
        path = d / "CROSS_A.txt"
        path.write_text(path.read_text() + "1, 3\n")
        with pytest.raises(DatasetParseError, match="crosses"):
            load_tudataset(d)

    def test_label_count_mismatch(self, tmp_path):
        d = write_tu_dataset(tmp_path, "MIS", [path_graph(2), path_graph(2)], [0, 1])
        (d / "MIS_graph_labels.txt").write_text("0\n")
        with pytest.raises(DatasetParseError, match="labels"):
            load_tudataset(d)

    def test_missing_adjacency_file(self, tmp_path):
        empty = tmp_path / "EMPTY"
        empty.mkdir()
        with pytest.raises(DatasetParseError, match="_A.txt"):
            load_tudataset(empty)

    def test_node_attributes_file_ignored(self, tmp_path):
        d = write_tu_dataset(tmp_path, "ATTR", [path_graph(2)], [0])
        (d / "ATTR_node_attributes.txt").write_text("not, floats\n")
        ds = load_tudataset(d)
        assert ds.graphs[0].num_vertices == 2


class TestGraphDataset:
    def test_features_size_validated(self):
        graphs = (path_graph(3), path_graph(2))
        labels = np.array([0, 1])
        ds = GraphDataset("OK", graphs, labels, 2, features=(np.eye(3), np.eye(2)))
        assert ds.features[1].shape == (2, 2)
        with pytest.raises(ValueError, match="features must match graph sizes"):
            GraphDataset("BAD", graphs, labels, 2, features=(np.eye(3), np.zeros((3, 2))))
        with pytest.raises(ValueError, match="features must have one entry per graph"):
            GraphDataset("BAD", graphs, labels, 2, features=(np.eye(3),))


class TestFeaturize:
    def test_one_hot_degree_star(self, tmp_path):
        d = write_tu_dataset(tmp_path, "STAR", [star_graph(5)], [0])
        ds = featurize(load_tudataset(d), mode="one_hot_degree")
        feats = ds.features[0]
        # Corpus max degree 5 -> dimension 6; center hot at 5, leaves at 1.
        assert feats.shape == (6, 6)
        assert feats[0, 5] == 1.0
        assert all(feats[v, 1] == 1.0 for v in range(1, 6))

    def test_vectors_exactly_one_hot(self, synth_dataset_dir):
        for mode in ("one_hot_label", "one_hot_degree"):
            ds = featurize(load_tudataset(synth_dataset_dir), mode=mode)
            for feats in ds.features:
                assert np.all(feats.sum(axis=1) == 1.0)
                assert np.all((feats == 0.0) | (feats == 1.0))

    def test_one_hot_label_corpus_vocabulary(self, synth_dataset_dir):
        ds = featurize(load_tudataset(synth_dataset_dir), mode="one_hot_label")
        # The fixture draws node labels from {0, 1, 2}.
        assert all(feats.shape[1] == 3 for feats in ds.features)
        for feats, labels in zip(ds.features, ds.node_labels):
            assert np.array_equal(np.argmax(feats, axis=1), labels)

    def test_auto_prefers_labels(self, synth_dataset_dir):
        ds = featurize(load_tudataset(synth_dataset_dir), mode="auto")
        assert ds.features[0].shape[1] == 3

    def test_auto_falls_back_to_degree(self, tmp_path):
        d = write_tu_dataset(tmp_path, "NOLAB", [star_graph(3)], [0])
        ds = featurize(load_tudataset(d), mode="auto")
        assert ds.features[0].shape[1] == 4

    def test_label_mode_requires_labels(self, tmp_path):
        d = write_tu_dataset(tmp_path, "NOLAB", [star_graph(3)], [0])
        with pytest.raises(MissingNodeLabelsError):
            featurize(load_tudataset(d), mode="one_hot_label")

    def test_degree_cap_overflow_top_bin(self, tmp_path):
        d = write_tu_dataset(tmp_path, "BIGSTAR", [star_graph(300)], [0])
        ds = featurize(load_tudataset(d), mode="one_hot_degree")
        feats = ds.features[0]
        assert feats.shape[1] == DEGREE_CAP
        assert feats[0, DEGREE_CAP - 1] == 1.0  # degree 300 lands in the top bin
        assert feats[1, 1] == 1.0

    def test_bad_mode_rejected(self, synth_dataset_dir):
        with pytest.raises(ValueError, match="mode"):
            featurize(load_tudataset(synth_dataset_dir), mode="bag_of_words")


class TestDatasetStats:
    def test_triangle_corpus(self, tmp_path):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        d = write_tu_dataset(tmp_path, "TRI", [triangle], [0])
        stats = dataset_stats(load_tudataset(d))
        assert stats.num_graphs == 1
        assert stats.num_classes == 1
        assert stats.avg_nodes == pytest.approx(3.0)
        assert stats.avg_edges == pytest.approx(3.0)
        assert stats.avg_degree == pytest.approx(1.0)
        # Degree counts both orientations of each undirected edge, the
        # convention of the benchmark tables this output is checked
        # against; each triangle vertex touches 2 undirected edges.
        assert stats.max_degree == 4

    def test_mixed_corpus_averages(self, tmp_path):
        d = write_tu_dataset(
            tmp_path, "MIX", [path_graph(3), cycle_graph(5)], [0, 1]
        )
        stats = dataset_stats(load_tudataset(d))
        assert stats.avg_nodes == pytest.approx(4.0)
        assert stats.avg_edges == pytest.approx(3.5)
        assert stats.avg_degree == pytest.approx(3.5 / 4.0)
        assert stats.max_degree == 4

    @pytest.mark.parametrize("labelled", [True, False])
    def test_feature_dim_is_featurize_width(self, synth_dataset_dir, tmp_path, labelled):
        if labelled:
            ds = load_tudataset(synth_dataset_dir)
        else:
            graphs = [star_graph(300), path_graph(3)]
            ds = load_tudataset(write_tu_dataset(tmp_path, "NOLAB", graphs, [0, 1]))
        width = featurize(ds).features[0].shape[1]
        assert dataset_stats(ds).feature_dim == width

    def test_feature_dim_ignores_featurized_mode(self, tmp_path):
        """``feature_dim`` is the "auto" width even after ``featurize``
        ran in another mode."""
        graphs = [star_graph(4), path_graph(3)]
        node_labels = [[0, 1, 0, 1, 0], [1, 0, 1]]
        d = write_tu_dataset(tmp_path, "LAB", graphs, [0, 1], node_labels)
        ds = featurize(load_tudataset(d), mode="one_hot_degree")
        assert dataset_stats(ds).feature_dim == 2
        assert ds.features[0].shape[1] == 5

    def test_to_dict_keys(self, synth_dataset_dir):
        doc = dataset_stats(load_tudataset(synth_dataset_dir)).to_dict()
        assert set(doc) == {
            "name",
            "num_graphs",
            "num_classes",
            "avg_nodes",
            "avg_edges",
            "avg_degree",
            "max_degree",
            "feature_dim",
        }


@st.composite
def _export_case(draw):
    """Augmented sets of small paths whose runs fail, overflow a 3x4
    window or fit it, in any order."""
    graphs, features, sets = [], [], []
    for gid in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 4))
        cell = st.tuples(st.integers(0, 4), st.integers(0, 4))
        layouts = []
        for seed in range(draw(st.integers(1, 3))):
            cells = draw(st.none() | st.lists(cell, min_size=n, max_size=n))
            if cells is None:
                layouts.append(AugmentedLayout(seed, None, None, "NonFiniteLossError: drawn"))
            else:
                cells = np.array(cells)
                layouts.append(AugmentedLayout(seed, GridLayout(cells - cells.min(axis=0)), None))
        graphs.append(path_graph(n))
        features.append(np.arange(2.0 * n).reshape(n, 2) + gid)
        sets.append(AugmentedSet(gid, tuple(layouts)))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(graphs), max_size=len(graphs)))
    ds = GraphDataset("drawn", tuple(graphs), np.array(labels), 2, features=tuple(features))
    return sets, ds


class TestExportTensors:
    @settings(max_examples=80, deadline=None)
    @given(case=_export_case())
    def test_streamed_export_equals_stacked_batch(self, case):
        sets, ds = case
        window = (3, 4)
        outcomes, tensors, entries, first = [], [], [], None
        for s in sets:
            for lay in s.layouts:
                if lay.failed:
                    outcomes.append((lay.seed, lay.error))
                    continue
                rows, cols = lay.grid.extent()
                if rows > 3 or cols > 4:
                    overflow = f"layout spans {rows}x{cols}, window is 3x4"
                    first = first or f"graph {s.graph_id}: {overflow}"
                    outcomes.append((lay.seed, f"WindowOverflowError: {overflow}"))
                else:
                    tensors.append(build_grid_tensor(lay.grid, ds.features[s.graph_id], window))
                    entries.append(ManifestEntry(s.graph_id, lay.seed, int(ds.labels[s.graph_id])))
                    outcomes.append((lay.seed, None))
        with tempfile.TemporaryDirectory() as d:
            out = Path(d) / "s.gt"
            if not tensors:
                error, match = (
                    (ValueError, "nothing to export")
                    if first is None
                    else (WindowOverflowError, f"^{re.escape(first)}$")
                )
                with pytest.raises(error, match=match):
                    export_tensors(sets, ds, out, window=window)
                assert list(Path(d).iterdir()) == []
                return
            fitted, got = export_tensors(sets, ds, out, window=window)
            ref = Path(d) / "ref.gt"
            write_container(ref, np.stack(tensors))
            write_manifest(manifest_path_for(ref), entries)
            assert got == entries
            assert out.read_bytes() == ref.read_bytes()
            assert manifest_path_for(out).read_bytes() == manifest_path_for(ref).read_bytes()
            assert [s.graph_id for s in fitted] == [s.graph_id for s in sets]
            assert [(lay.seed, lay.error) for s in fitted for lay in s.layouts] == outcomes

    def test_round_trip(self, synth_dataset_dir, tmp_path):
        ds = featurize(load_tudataset(synth_dataset_dir))
        sets = [
            augment(g, LayoutParams(max_iters=60), 2, graph_id=i)
            for i, g in enumerate(ds.graphs[:4])
        ]
        out = tmp_path / "synth.gt"
        _, entries = export_tensors(sets, ds, out, window=(16, 16))
        tensors, header = read_container(out)
        assert header["count"] == len(entries) == 8
        assert tensors.shape == (8, 16, 16, 3)
        assert read_manifest(f"{out}.manifest.json") == entries
        # Entry labels come from the dataset's remapped graph labels.
        for e in entries:
            assert e.label == int(ds.labels[e.graph_id])

    def test_reexport_bit_identical(self, synth_dataset_dir, tmp_path):
        ds = featurize(load_tudataset(synth_dataset_dir))
        sets = [augment(ds.graphs[0], LayoutParams(max_iters=60), 2, graph_id=0)]
        a, b = tmp_path / "a.gt", tmp_path / "b.gt"
        export_tensors(sets, ds, a, window=(16, 16))
        export_tensors(sets, ds, b, window=(16, 16))
        assert a.read_bytes() == b.read_bytes()

    def test_container_bytes_are_stacked_tensors(self, synth_dataset_dir, tmp_path):
        ds = featurize(load_tudataset(synth_dataset_dir))
        sets = [
            augment(g, LayoutParams(max_iters=60), 2, graph_id=i)
            for i, g in enumerate(ds.graphs[:3])
        ]
        out = tmp_path / "c.gt"
        export_tensors(sets, ds, out, window=(16, 12))
        stacked = np.stack(
            [
                build_grid_tensor(lay.grid, ds.features[s.graph_id], window=(16, 12))
                for s in sets
                for lay in s.successful()
            ]
        )
        n, h, w, f = stacked.shape
        header = {
            "channels": f,
            "count": n,
            "dtype": "f32",
            "height": h,
            "order": "row-major, channel-last",
            "width": w,
        }
        expected = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert out.read_bytes() == expected + b"\n" + stacked.astype("<f4").tobytes()

    def test_peak_memory_is_one_container(self, synth_dataset_dir, tmp_path):
        ds = featurize(load_tudataset(synth_dataset_dir))
        sets = [
            augment(g, LayoutParams(max_iters=60), 2, graph_id=i)
            for i, g in enumerate(ds.graphs)
        ]
        tracemalloc.start()
        try:
            _, entries = export_tensors(sets, ds, tmp_path / "m.gt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        container = len(entries) * 64 * 64 * ds.features[0].shape[1] * 4
        assert peak <= 1.5 * container

    def test_overflow_names_the_graph(self, synth_dataset_dir, tmp_path):
        ds = featurize(load_tudataset(synth_dataset_dir))
        sets = [augment(ds.graphs[2], LayoutParams(max_iters=40), 1, graph_id=2)]
        with pytest.raises(WindowOverflowError, match=r"^graph 2: layout spans \d+x\d+, window is 1x1$"):
            export_tensors(sets, ds, tmp_path / "x.gt", window=(1, 1))
        assert not (tmp_path / "x.gt").exists()

    def test_overflowing_run_fails_alone(self, synth_dataset_dir, tmp_path):
        # Graph 1 is a 6-vertex path; its layout does not fit 4x4, the
        # layouts of graphs 0 and 2 do.
        ds = featurize(load_tudataset(synth_dataset_dir))
        sets = [
            augment(g, LayoutParams(max_iters=40), 1, graph_id=i)
            for i, g in enumerate(ds.graphs[:3])
        ]
        out = tmp_path / "o.gt"
        fitted, entries = export_tensors(sets, ds, out, window=(4, 4))
        (overflow,) = fitted[1].layouts
        assert overflow.failed and overflow.seed == sets[1].layouts[0].seed
        assert re.fullmatch(r"WindowOverflowError: layout spans \d+x\d+, window is 4x4", overflow.error)
        assert fitted[0].layouts == sets[0].layouts and fitted[2].layouts == sets[2].layouts
        assert [e.graph_id for e in entries] == [0, 2]
        assert read_manifest(f"{out}.manifest.json") == entries
        tensors, _ = read_container(out)
        for tensor, i in zip(tensors, (0, 2)):
            expected = build_grid_tensor(sets[i].layouts[0].grid, ds.features[i], window=(4, 4))
            assert np.array_equal(tensor, expected)

    def test_empty_rejected(self, synth_dataset_dir, tmp_path):
        ds = featurize(load_tudataset(synth_dataset_dir))
        with pytest.raises(ValueError, match="nothing to export"):
            export_tensors([], ds, tmp_path / "x.gt")

    def test_requires_features(self, synth_dataset_dir, tmp_path):
        ds = load_tudataset(synth_dataset_dir)
        sets = [augment(ds.graphs[0], LayoutParams(max_iters=40), 1, graph_id=0)]
        with pytest.raises(ValueError, match="features"):
            export_tensors(sets, ds, tmp_path / "x.gt")


@pytest.mark.dataset
class TestRealBenchmarks:
    """Fidelity checks against the published benchmark table.

    These need the TU-format files on disk; see conftest.require_dataset.
    """

    def test_mutag(self):
        ds = load_tudataset(require_dataset("MUTAG"))
        stats = dataset_stats(ds)
        assert stats.num_graphs == 188
        assert stats.num_classes == 2
        assert stats.avg_nodes == pytest.approx(17.93, abs=0.01)
        assert stats.avg_edges == pytest.approx(19.79, abs=0.01)
        assert stats.avg_degree == pytest.approx(1.10, abs=0.01)
        assert stats.max_degree == 8
        assert stats.feature_dim == 7

    def test_proteins(self):
        ds = load_tudataset(require_dataset("PROTEINS"))
        stats = dataset_stats(ds)
        assert stats.num_graphs == 1113
        assert stats.num_classes == 2
        assert stats.avg_nodes == pytest.approx(39.06, abs=0.01)
        assert stats.avg_edges == pytest.approx(72.82, abs=0.01)
        assert stats.avg_degree == pytest.approx(1.86, abs=0.01)
        assert stats.max_degree == 50
        assert stats.feature_dim == 3

    def test_imdb_b(self):
        ds = load_tudataset(require_dataset("IMDB-BINARY"))
        stats = dataset_stats(ds)
        assert stats.num_graphs == 1000
        assert stats.num_classes == 2
        assert stats.avg_nodes == pytest.approx(19.77, abs=0.01)
        assert stats.avg_edges == pytest.approx(96.53, abs=0.01)
        assert stats.avg_degree == pytest.approx(4.88, abs=0.01)
        assert stats.max_degree == 270
        assert stats.feature_dim == 136

    def test_imdb_m(self):
        ds = load_tudataset(require_dataset("IMDB-MULTI"))
        stats = dataset_stats(ds)
        assert stats.num_graphs == 1500
        assert stats.num_classes == 3
        assert stats.avg_nodes == pytest.approx(13.00, abs=0.01)
        assert stats.avg_edges == pytest.approx(65.94, abs=0.01)
        assert stats.avg_degree == pytest.approx(5.07, abs=0.01)
        assert stats.max_degree == 176
        assert stats.feature_dim == 89
