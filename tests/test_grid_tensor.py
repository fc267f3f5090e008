"""Tests for grid tensor construction."""

import numpy as np
import pytest

from gpgl.errors import WindowOverflowError
from gpgl.grid import DEFAULT_WINDOW, build_grid_tensor
from gpgl.layout import GridLayout


def _layout(cells):
    return GridLayout(np.asarray(cells, dtype=np.int64))


class TestBuildGridTensor:
    def test_places_features_at_cells(self):
        gl = _layout([[0, 0], [2, 5]])
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        tensor = build_grid_tensor(gl, feats, window=(8, 8))
        assert tensor.shape == (8, 8, 2)
        assert tensor.dtype == np.float32
        assert np.allclose(tensor[0, 0], [1.0, 2.0])
        assert np.allclose(tensor[2, 5], [3.0, 4.0])
        assert np.count_nonzero(tensor.any(axis=2)) == 2

    def test_default_window_shape(self):
        gl = _layout([[0, 0], [5, 5]])
        feats = np.ones((2, 7))
        tensor = build_grid_tensor(gl, feats)
        assert tensor.shape == (64, 64, 7)
        assert DEFAULT_WINDOW == (64, 64)
        assert np.count_nonzero(tensor.any(axis=2)) == len(gl.occupied_cells())

    def test_merge_average(self):
        gl = _layout([[0, 0], [0, 0]])
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        tensor = build_grid_tensor(gl, feats, window=(4, 4))
        assert np.allclose(tensor[0, 0], [0.5, 0.5])

    def test_average_is_exact_mean(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(4, 3))
        gl = _layout([[0, 0], [0, 0], [0, 0], [0, 0]])
        tensor = build_grid_tensor(gl, feats, window=(4, 4))
        assert np.allclose(tensor[0, 0], feats.mean(axis=0), atol=1e-6)

    def test_unoccupied_cells_zero(self):
        gl = _layout([[0, 0], [3, 3]])
        feats = np.ones((2, 2))
        tensor = build_grid_tensor(gl, feats, window=(6, 6))
        mask = np.ones((6, 6), dtype=bool)
        mask[0, 0] = mask[3, 3] = False
        assert np.all(tensor[mask] == 0.0)
        assert np.all(tensor[~mask] == 1.0)

    def test_occupied_at_most_vertex_count(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            cells = rng.integers(0, 5, size=(n, 2))
            cells -= cells.min(axis=0)
            # Positive features, so exactly the occupied cells are nonzero.
            tensor = build_grid_tensor(
                _layout(cells), rng.uniform(0.5, 1.0, size=(n, 4)), window=(8, 8)
            )
            occupied = np.count_nonzero(tensor.any(axis=2))
            assert occupied <= n
            assert occupied == len(_layout(cells).occupied_cells())

    def test_window_overflow(self):
        gl = _layout([[0, 0], [10, 0]])
        with pytest.raises(WindowOverflowError):
            build_grid_tensor(gl, np.ones((2, 1)), window=(10, 10))

    def test_overflow_boundary_fits(self):
        gl = _layout([[0, 0], [9, 9]])
        tensor = build_grid_tensor(gl, np.ones((2, 1)), window=(10, 10))
        assert tensor[9, 9, 0] == 1.0

    def test_rejects_feature_mismatch(self):
        gl = _layout([[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            build_grid_tensor(gl, np.ones((3, 2)), window=(4, 4))

