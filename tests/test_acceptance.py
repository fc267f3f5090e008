"""Acceptance suite: one test per shipping criterion.

Each criterion is a single test so a verbose run prints one pass/fail
line per criterion. Tests that need the real benchmark corpora skip
with a pointer when the files are absent (see conftest.require_dataset).
"""

import time

import numpy as np
import pytest

from conftest import complete_graph, random_connected_graph, require_dataset
from oracles import (
    conv2d_loops,
    fd_gradient,
    global_pool_loops,
    kk_loss_loops,
    maxout_loops,
    maxpool2_loops,
    separation_penalty_loops,
)
from test_nn_backward import _network_fd_check
from test_train import blob_corpus, small_config
from gpgl.datasets import dataset_stats, export_tensors, featurize, load_tudataset
from gpgl.augment import augment
from gpgl.graph import shortest_path_distances
from gpgl.grid import build_grid_tensor
from gpgl.layout import (
    Layout,
    LayoutParams,
    gpgl_loss_and_grad,
    kk_loss,
    layout_graph,
    separation_penalty,
)
from gpgl.nn.network import MsmCnn, NetworkConfig
from gpgl.nn.ops import conv2d_forward, global_pool_forward, maxout_forward, maxpool2_forward
from gpgl.nn.train import load_container_training_set, train
from gpgl.tensor_io import write_container


def test_criterion_01_k32_disc():
    """K32 rounds to 32 distinct cells in a radius-4 disc (median of 5 seeds)."""
    g = complete_graph(32)
    radii = []
    for seed in range(5):
        start = time.perf_counter()
        grid, _ = layout_graph(g, LayoutParams(alpha=1.25, lam=1000.0, seed=seed))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"seed {seed} took {elapsed:.1f}s"
        assert len(grid.occupied_cells()) == 32, f"seed {seed} lost vertices"
        cells = grid.cells.astype(float)
        radius = float(np.linalg.norm(cells - cells.mean(axis=0), axis=1).max())
        assert radius <= 5.0, f"seed {seed} radius {radius:.3f} > 5"
        radii.append(radius)
    median = float(np.median(radii))
    assert median <= 4.0, f"median radius {median:.3f} > 4 (radii {radii})"
    print(f"criterion 1: PASS (radii {[round(r, 3) for r in radii]}, median {median:.3f})")


def test_criterion_02_gradient_correctness():
    """Analytic gradients match finite differences (layout and network)."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 13))
        g = random_connected_graph(n, rng)
        s = shortest_path_distances(g)
        p = LayoutParams(
            alpha=float(rng.uniform(0.8, 1.6)), lam=float(rng.uniform(0.0, 1500.0))
        )
        coords = rng.uniform(-2.0, 2.0, size=(n, 2)) * float(rng.uniform(0.8, 2.0))
        lay = Layout(coords)
        _, grad = gpgl_loss_and_grad(lay, s, p)

        def value(c):
            v, _ = gpgl_loss_and_grad(Layout(c), s, p)
            return v

        fd = fd_gradient(value, coords)
        err = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0))
        worst = max(worst, float(err))
    assert worst < 1e-5, f"worst layout-gradient relative error {worst:.2e}"

    config = NetworkConfig(
        conv_channels=(4, 8, 16), fc_sizes=(8,), scales=3, dropout=0.0, seed=2
    )
    model = MsmCnn(in_channels=2, num_classes=2, config=config, dtype=np.float64)
    xrng = np.random.default_rng(3)
    x = xrng.normal(size=(2, 8, 8, 2))
    _network_fd_check(model, x, np.array([0, 1]), coords_per_block=5, rel=1e-3)
    print(f"criterion 2: PASS (worst layout-gradient error {worst:.2e})")


def test_criterion_03_hinge_exactness():
    """Zero penalty exactly when all pairwise distances reach alpha."""
    rng = np.random.default_rng(7)
    active = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        alpha = float(rng.uniform(0.5, 2.0))
        lay = Layout(rng.uniform(0.0, 4.0, size=(n, 2)))
        d = np.linalg.norm(lay.coords[:, None] - lay.coords[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        penalty = separation_penalty(lay, alpha, 1000.0)
        if d.min() >= alpha:
            assert penalty == 0.0
        else:
            assert penalty > 0.0
            active += 1
    assert 0 < active < 1000  # both branches actually exercised
    print(f"criterion 3: PASS (1000 layouts, {active} with an active hinge)")


def test_criterion_04_mutag_vertex_loss():
    """MUTAG, defaults, 1 layout/graph: corpus vertex loss in [0, 3]%."""
    ds = load_tudataset(require_dataset("MUTAG"))
    start = time.perf_counter()
    lost = 0
    total = 0
    for g in ds.graphs:
        _, diag = layout_graph(g, LayoutParams())
        lost += diag.lost_vertices
        total += g.num_vertices
    elapsed = time.perf_counter() - start
    ratio = 100.0 * lost / total
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    assert 0.0 <= ratio <= 3.0, f"vertex loss {ratio:.2f}% outside [0, 3]%"
    print(f"criterion 4: PASS (vertex loss {ratio:.2f}%, {elapsed:.0f}s)")


def test_criterion_05_compactness_trend():
    """Median K9 bounding-box area is non-decreasing in alpha."""
    g = complete_graph(9)
    medians = []
    for alpha in (1.00, 1.25, 1.50):
        areas = []
        for seed in range(20):
            grid, _ = layout_graph(g, LayoutParams(alpha=alpha, lam=1000.0, seed=seed))
            rows, cols = grid.extent()
            areas.append(rows * cols)
        medians.append(float(np.median(areas)))
    assert medians[0] <= medians[1] <= medians[2], f"medians {medians}"
    print(f"criterion 5: PASS (median areas {medians})")


def test_criterion_06_dataset_fidelity():
    """Benchmark statistics match the published table."""
    expected = {
        "MUTAG": (188, 2, 17.93, 19.79, 1.10, 8, 7),
        "IMDB-BINARY": (1000, 2, 19.77, 96.53, 4.88, 270, 136),
        "IMDB-MULTI": (1500, 3, 13.00, 65.94, 5.07, 176, 89),
        "PROTEINS": (1113, 2, 39.06, 72.82, 1.86, 50, 3),
    }
    for name, (graphs, classes, nodes, edges, degree, max_deg, dim) in expected.items():
        stats = dataset_stats(load_tudataset(require_dataset(name)))
        assert stats.num_graphs == graphs, name
        assert stats.num_classes == classes, name
        assert stats.avg_nodes == pytest.approx(nodes, abs=0.01), name
        assert stats.avg_edges == pytest.approx(edges, abs=0.01), name
        assert stats.avg_degree == pytest.approx(degree, abs=0.01), name
        assert stats.max_degree == max_deg, name
        assert stats.feature_dim == dim, name
    print("criterion 6: PASS (all four corpora match the published table)")


def test_criterion_07_mutag_classification(tmp_path):
    """Desk-scale MUTAG run: 5x augmentation, 16/32/64 net, 10-fold, >= 75%."""
    ds = featurize(load_tudataset(require_dataset("MUTAG")))
    start = time.perf_counter()
    sets = [
        augment(g, LayoutParams(), 5, graph_id=i) for i, g in enumerate(ds.graphs)
    ]
    container = tmp_path / "mutag.gt"
    export_tensors(sets, ds, container)
    tensors, labels, graph_ids = load_container_training_set(container)
    config = NetworkConfig(
        conv_channels=(16, 32, 64),
        fc_sizes=(256, 128),
        dropout=0.3,
        learning_rate=1e-4,
        batch_size=10,
        epochs=30,
        patience=5,
        seed=0,
    )
    result = train(tensors, labels, graph_ids, config, n_folds=10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"took {elapsed:.0f}s"
    assert result.graph_accuracy >= 0.75, (
        f"graph accuracy {result.graph_accuracy:.3f} below 0.75"
    )
    print(
        f"criterion 7: PASS (graph accuracy {result.graph_accuracy:.3f}, "
        f"{elapsed:.0f}s)"
    )


def test_criterion_08_determinism(tmp_path):
    """Identical seeds give byte-identical layouts, tensors, and curves."""
    rng = np.random.default_rng(41)
    graphs = [random_connected_graph(int(rng.integers(4, 9)), rng) for _ in range(4)]

    cell_bytes = []
    tensor_bytes = []
    for run in range(2):
        cells = []
        tensors = []
        for g in graphs:
            grid, _ = layout_graph(g, LayoutParams(max_iters=80, seed=5))
            cells.append(grid.cells.tobytes())
            feats = np.eye(g.num_vertices, 4)[:, :4]
            tensors.append(build_grid_tensor(grid, feats, window=(16, 16)))
        cell_bytes.append(b"".join(cells))
        path = tmp_path / f"run{run}.gt"
        write_container(path, np.stack(tensors))
        tensor_bytes.append(path.read_bytes())
    assert cell_bytes[0] == cell_bytes[1]
    assert tensor_bytes[0] == tensor_bytes[1]

    data, labels, gids = blob_corpus(n_graphs=8)
    config = small_config(epochs=4)
    a = train(data, labels, gids, config, n_folds=2)
    b = train(data, labels, gids, config, n_folds=2)
    for fa, fb in zip(a.folds, b.folds):
        assert fa.train_losses == fb.train_losses
        assert fa.val_losses == fb.val_losses
    print("criterion 8: PASS (layouts, tensors and training curves reproduce)")


def test_criterion_09_oracle_equivalence():
    """Every numeric kernel agrees with its independent loop oracle."""
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(n, rng)
        s = shortest_path_distances(g)
        lay = Layout(rng.uniform(-3.0, 3.0, size=(n, 2)))
        alpha = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(1.0, 2000.0))
        assert kk_loss(lay, s) == pytest.approx(
            kk_loss_loops(lay.coords, s.d), rel=1e-12, abs=1e-12
        )
        assert separation_penalty(lay, alpha, lam) == pytest.approx(
            separation_penalty_loops(lay.coords, alpha, lam), rel=1e-12, abs=1e-12
        )

    for _ in range(5):
        x = rng.normal(size=(2, int(rng.integers(3, 7)), int(rng.integers(3, 7)), 3))
        w = rng.normal(size=(3, 3, 3, 2))
        b = rng.normal(size=2)
        out, _ = conv2d_forward(x, w, b)
        assert np.allclose(out, conv2d_loops(x, w, b), atol=1e-6)
        pooled, _ = maxpool2_forward(x)
        assert np.allclose(pooled, maxpool2_loops(x), atol=1e-12)
        for mode in ("max", "mean"):
            got, _ = global_pool_forward(x, mode)
            assert np.allclose(got, global_pool_loops(x, mode), atol=1e-12)
        stack = rng.normal(size=(3,) + x.shape)
        got, _ = maxout_forward(stack)
        assert np.allclose(got, maxout_loops(stack), atol=1e-12)
    print("criterion 9: PASS (loss, conv, pooling and maxout match oracles)")
