"""Tests for layout-based augmentation."""

import numpy as np
import pytest

from conftest import cycle_graph, path_graph, random_connected_graph
from gpgl.augment import AugmentedLayout, AugmentedSet, augment
from gpgl.layout import GridLayout, LayoutParams, layout_graph


class TestAugment:
    def test_k_one_matches_gpgl_layout(self):
        g = cycle_graph(5)
        p = LayoutParams(seed=3)
        aug = augment(g, p, 1)
        grid, diag = layout_graph(g, p)
        assert aug.k == 1
        assert np.array_equal(aug.layouts[0].grid.cells, grid.cells)
        assert aug.layouts[0].diagnostics.total_loss == diag.total_loss
        assert aug.layouts[0].seed == 3

    def test_scheduled_seeds(self):
        aug = augment(path_graph(4), LayoutParams(seed=10), 4)
        assert [lay.seed for lay in aug.layouts] == [10, 11, 12, 13]

    def test_deterministic(self):
        g = cycle_graph(6)
        p = LayoutParams(seed=1)
        a = augment(g, p, 3)
        b = augment(g, p, 3)
        for la, lb in zip(a.layouts, b.layouts):
            assert np.array_equal(la.grid.cells, lb.grid.cells)
            assert la.diagnostics.total_loss == lb.diagnostics.total_loss

    def test_seeds_shuffle_produces_variety(self):
        # A mid-size random graph should not collapse to one grid image
        # across several seeds.
        rng = np.random.default_rng(9)
        g = random_connected_graph(12, rng)
        aug = augment(g, LayoutParams(), 6)
        distinct = {lay.grid.cells.tobytes() for lay in aug.layouts}
        assert len(distinct) >= 2

    def test_duplicates_kept(self):
        # A 2-vertex graph has one optimum up to symmetry, so duplicate
        # grids across seeds are expected and must be kept.
        aug = augment(path_graph(2), LayoutParams(), 4)
        assert aug.k == 4
        assert len(aug.successful()) == 4
        seeds = {lay.seed for lay in aug.layouts}
        assert len(seeds) == 4

    def test_diagnostics_finite_and_monotone_contract(self):
        rng = np.random.default_rng(17)
        g = random_connected_graph(8, rng)
        aug = augment(g, LayoutParams(max_iters=80), 3)
        for lay in aug.layouts:
            assert not lay.failed
            assert np.isfinite(lay.diagnostics.total_loss)
            assert lay.diagnostics.kk_iterations >= 1
            assert lay.diagnostics.gpgl_iterations >= 0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError, match="k must be"):
            augment(path_graph(2), LayoutParams(), 0)

    def test_graph_id_recorded(self):
        aug = augment(path_graph(2), LayoutParams(), 1, graph_id=7)
        assert aug.graph_id == 7


class TestAugmentedSetType:
    def _layout(self, seed):
        grid = GridLayout(np.array([[0, 0], [0, 1]]))
        return AugmentedLayout(seed=seed, grid=grid, diagnostics=None)

    def test_distinct_seeds_enforced(self):
        with pytest.raises(ValueError, match="distinct"):
            AugmentedSet(graph_id=0, layouts=(self._layout(0), self._layout(0)))

    def test_failed_flag(self):
        failed = AugmentedLayout(seed=0, grid=None, diagnostics=None, error="boom")
        assert failed.failed
        assert not self._layout(1).failed
