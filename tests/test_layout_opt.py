"""Tests for the layout optimizer: init, rescale, minimize, rounding, pipeline."""

import collections
import dataclasses
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpgl.layout as layout_mod
from conftest import complete_graph, cycle_graph, path_graph, random_connected_graph
from gpgl.errors import CoincidentVerticesError, GpglError
from gpgl.graph import Graph, shortest_path_distances
from gpgl.layout import (
    GridLayout,
    Layout,
    LayoutDiagnostics,
    LayoutParams,
    _round_best_phase,
    circular_init,
    gpgl_loss_and_grad,
    layout_graph,
    minimize,
    rescale_layout,
    round_layout,
)
from oracles import round_best_phase_loops


class TestCircularInit:
    def test_single_vertex_at_origin(self):
        lay = circular_init(1, 0)
        assert lay.coords.shape == (1, 2)
        assert np.all(lay.coords == 0.0)

    def test_radius_and_unit_arc_spacing(self):
        for n in (2, 5, 12, 40):
            coords = circular_init(n, 0).coords
            radii = np.linalg.norm(coords, axis=1)
            assert radii == pytest.approx(n / (2.0 * math.pi), abs=1e-12)
            # Arc between consecutive circle positions is radius * 2pi/n = 1.
            assert radii[0] * 2.0 * math.pi / n == pytest.approx(1.0, abs=1e-12)

    def test_four_points_are_quarter_turns(self):
        r = 4.0 / (2.0 * math.pi)
        expected = {(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)}
        coords = circular_init(4, 3).coords
        for row in coords:
            assert min(math.hypot(row[0] - ex, row[1] - ey) for ex, ey in expected) < 1e-12

    def test_point_multiset_is_seed_invariant(self):
        base = np.sort(circular_init(9, 0).coords, axis=0)
        for seed in (1, 2, 3, 99):
            other = np.sort(circular_init(9, seed).coords, axis=0)
            assert np.allclose(base, other, atol=1e-12)

    def test_seed_permutes_vertex_order(self):
        a = circular_init(10, 0).coords
        b = circular_init(10, 1).coords
        assert not np.allclose(a, b)

    def test_deterministic(self):
        a = circular_init(17, 5).coords
        b = circular_init(17, 5).coords
        assert np.array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            circular_init(0, 0)


class TestRescaleLayout:
    def test_identity_when_already_separated(self):
        lay = Layout(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
        out = rescale_layout(lay, LayoutParams())
        assert np.array_equal(out.coords, lay.coords)

    def test_scale_factor_two_point_five(self):
        # min distance 0.5 with alpha 1.25 -> scale alpha/beta = 2.5.
        lay = Layout(np.array([[0.0, 0.0], [0.5, 0.0]]))
        out = rescale_layout(lay, LayoutParams(alpha=1.25, gamma=0.1))
        assert np.allclose(out.coords, np.array([[0.0, 0.0], [1.25, 0.0]]), atol=1e-12)

    def test_gamma_floor_caps_scale(self):
        # min distance 0.01 is floored to gamma 0.1 -> scale 12.5, not 125.
        lay = Layout(np.array([[0.0, 0.0], [0.01, 0.0]]))
        out = rescale_layout(lay, LayoutParams(alpha=1.25, gamma=0.1))
        assert np.allclose(out.coords, np.array([[0.0, 0.0], [0.125, 0.0]]), atol=1e-12)

    def test_never_shrinks_and_scales_uniformly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            lay = Layout(rng.uniform(-2.0, 2.0, size=(n, 2)))
            out = rescale_layout(lay, LayoutParams())
            before = np.linalg.norm(lay.coords[:, None] - lay.coords[None, :], axis=-1)
            after = np.linalg.norm(out.coords[:, None] - out.coords[None, :], axis=-1)
            off = ~np.eye(n, dtype=bool)
            scale = after[off] / before[off]
            assert scale.min() >= 1.0 - 1e-12
            assert scale.max() - scale.min() < 1e-9
            assert after[off].min() >= before[off].min() - 1e-12


class TestRoundLayout:
    def test_rounds_to_nearest(self):
        grid = round_layout(Layout(np.array([[0.4, 0.6], [0.0, 0.0]])))
        assert np.array_equal(grid.cells, np.array([[0, 1], [0, 0]]))

    def test_ties_round_away_from_zero(self):
        # (-1.5, 2.5) -> (-2, 3); with the origin anchor the shift is (+2, 0).
        grid = round_layout(Layout(np.array([[-1.5, 2.5], [0.0, 0.0]])))
        assert np.array_equal(grid.cells, np.array([[0, 3], [2, 0]]))

    def test_positive_and_negative_halves(self):
        grid = round_layout(Layout(np.array([[0.5, 1.5], [-0.5, -1.5]])))
        assert np.array_equal(grid.cells, np.array([[2, 4], [0, 0]]))

    def test_collision_preserved(self):
        grid = round_layout(Layout(np.array([[0.40, 0.40], [0.45, 0.45]])))
        assert np.array_equal(grid.cells[0], grid.cells[1])
        assert len(grid.occupied_cells()) == 1

    def test_origin_normalized(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            coords = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 9)), 2))
            grid = round_layout(Layout(coords))
            assert np.array_equal(grid.cells.min(axis=0), [0, 0])


@st.composite
def phase_coords(draw):
    """1-16 points mixing arbitrary floats with multiples of 1/16, so some
    phase shifts land exactly on .5 ties; points are drawn from a pool
    with repetition, so coincident vertices occur. The span is small so
    that phases trade collisions against area."""
    coord = st.one_of(
        st.floats(-3.0, 3.0, allow_nan=False),
        st.integers(-48, 48).map(lambda k: k / 16),
    )
    pool = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=16))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    return np.array([pool[i] for i in picks], dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(coords=phase_coords())
def test_round_best_phase_matches_loops(coords):
    grid, lost = _round_best_phase(coords)
    cells, lost_loops = round_best_phase_loops(coords)
    assert np.array_equal(grid.cells, cells)
    assert lost == lost_loops == coords.shape[0] - len(grid.occupied_cells())


class TestMinimize:
    def test_fixed_point_stays_put(self):
        # Two vertices at distance alpha: stress pulls inward, hinge pushes
        # outward harder, so this is the minimizer and must not move.
        p = LayoutParams()
        lay = Layout(np.array([[0.0, 0.0], [p.alpha, 0.0]]))
        s = shortest_path_distances(path_graph(2))
        before, _ = gpgl_loss_and_grad(lay, s, p)
        out = minimize(lay, s, p)
        after, _ = gpgl_loss_and_grad(out, s, p)
        assert abs(after - before) <= 1e-8

    def test_path_three_consecutive_spacing(self):
        # 1D oracle: spacing t has stress 2*(t-1)^2 + end-pair term while
        # the hinge blocks t < alpha, so consecutive gaps settle at 1.25.
        g = path_graph(3)
        s = shortest_path_distances(g)
        p = LayoutParams()
        for seed in range(3):
            c = minimize(circular_init(3, seed), s, p).coords
            d01 = np.linalg.norm(c[1] - c[0])
            d12 = np.linalg.norm(c[2] - c[1])
            d02 = np.linalg.norm(c[2] - c[0])
            assert 1.0 <= d01 <= 1.5
            assert 1.0 <= d12 <= 1.5
            # The end pair stretches toward its hop distance 2.
            assert d02 > max(d01, d12)

    def test_k32_compact_separated_cloud(self):
        g = complete_graph(32)
        s = shortest_path_distances(g)
        c = minimize(circular_init(32, 0), s, LayoutParams()).coords
        dist = np.linalg.norm(c[:, None] - c[None, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 1.0
        radius = np.linalg.norm(c - c.mean(axis=0), axis=1).max()
        assert radius <= 5.0

    def test_loss_never_increases(self):
        rng = np.random.default_rng(31)
        p = LayoutParams(max_iters=60)
        for trial in range(8):
            g = random_connected_graph(int(rng.integers(3, 9)), rng)
            s = shortest_path_distances(g)
            init = circular_init(g.num_vertices, trial)
            before, _ = gpgl_loss_and_grad(init, s, p)
            out = minimize(init, s, p)
            after, _ = gpgl_loss_and_grad(out, s, p)
            assert after <= before + 1e-9

    def test_deterministic(self):
        g = cycle_graph(7)
        s = shortest_path_distances(g)
        p = LayoutParams(seed=4)
        a = minimize(circular_init(7, 4), s, p).coords
        b = minimize(circular_init(7, 4), s, p).coords
        assert np.array_equal(a, b)

    def test_size_mismatch_rejected(self):
        s = shortest_path_distances(path_graph(4))
        with pytest.raises(ValueError):
            minimize(circular_init(3, 0), s, LayoutParams())

    def test_single_vertex_rejected(self):
        s = shortest_path_distances(Graph(1, ()))
        with pytest.raises(ValueError, match="need at least 2 vertices"):
            minimize(circular_init(1, 0), s, LayoutParams())

    @pytest.mark.parametrize("lam", [-1.0, math.inf, math.nan])
    def test_rejects_penalty_weight_that_is_not_finite_and_nonnegative(self, lam):
        # An infinite weight times an all-zero hinge is NaN, not 0.
        with pytest.raises(ValueError, match="lam must be finite"):
            LayoutParams(lam=lam)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["alpha", "gamma", "grad_tol"])
    def test_rejects_parameter_that_is_not_finite(self, name, value):
        # A NaN alpha fails every layout; a NaN grad_tol never stops.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LayoutParams(**{name: value})

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_rejects_negative_seed(self, seed):
        # numpy's own message for a negative seed names no parameter.
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            LayoutParams(seed=seed)


class TestGpglLayout:
    """The per-component pipeline, on connected graphs."""

    def test_single_vertex(self):
        grid, diag = layout_graph(Graph(1, ()), LayoutParams())
        assert np.array_equal(grid.cells, np.array([[0, 0]]))
        assert diag.lost_vertices == 0
        assert diag.stops == {}
        assert diag.total_loss == 0.0

    def test_edge_graph_adjacent_cells(self):
        grid, diag = layout_graph(path_graph(2), LayoutParams())
        assert len(grid.occupied_cells()) == 2
        dr, dc = np.abs(grid.cells[0] - grid.cells[1])
        assert max(dr, dc) == 1
        assert diag.lost_vertices == 0

    def test_path_graph_no_loss(self):
        grid, diag = layout_graph(path_graph(4), LayoutParams())
        assert len(grid.occupied_cells()) == 4
        assert diag.lost_vertices == 0
        assert diag.total_loss == pytest.approx(diag.kk_loss + diag.separation_penalty)

    def test_complete_graph_disc_invariant(self):
        # K_n should land on n distinct cells inside a disc of radius
        # ceil(sqrt(n/pi)) + 1 around the centroid, for every seed.
        for n in (10, 20):
            g = complete_graph(n)
            bound = math.ceil(math.sqrt(n / math.pi)) + 1
            for seed in range(5):
                grid, _ = layout_graph(g, LayoutParams(seed=seed))
                assert len(grid.occupied_cells()) == n
                cells = grid.cells.astype(float)
                radius = np.linalg.norm(cells - cells.mean(axis=0), axis=1).max()
                assert radius <= bound, f"K{n} seed {seed}: radius {radius:.3f}"

    def test_deterministic(self):
        g = cycle_graph(6)
        a, _ = layout_graph(g, LayoutParams(seed=2))
        b, _ = layout_graph(g, LayoutParams(seed=2))
        assert np.array_equal(a.cells, b.cells)


class TestStopReasons:
    """``LayoutDiagnostics.stops`` counts why each descent stopped."""

    def test_record_holds_a_plain_dict_in_reason_order(self):
        stops = collections.Counter({"progress": 3, "max_iters": 1})
        diag = LayoutDiagnostics(1.0, 0.0, 4, 0, 0, stops, 0.5)
        assert type(diag.stops) is dict and list(diag.stops) == ["max_iters", "progress"]
        assert diag.to_dict()["stops"] == {"max_iters": 1, "progress": 3}

    def test_two_vertex_stress_reaches_grad_tol(self):
        # Stress stage, then a penalized stage with lam = 0 that starts at
        # the minimum: both stop on the gradient norm.
        _, diag = layout_graph(path_graph(2), LayoutParams(lam=0.0))
        assert diag.stops == {"grad_tol": 2}

    def test_iteration_cap(self):
        g = random_connected_graph(12, np.random.default_rng(3))
        _, diag = layout_graph(g, LayoutParams(max_iters=5))
        assert set(diag.stops) == {"max_iters"}
        assert diag.kk_iterations + diag.gpgl_iterations == 5 * diag.stops["max_iters"]

    def test_molecule_size_graph_stops_on_progress(self):
        p = LayoutParams()
        for seed in range(3):
            g = random_connected_graph(20, np.random.default_rng(seed))
            _, diag = layout_graph(g, p)
            assert set(diag.stops) == {"progress"}
            per_descent = (diag.kk_iterations + diag.gpgl_iterations) / diag.stops["progress"]
            assert per_descent < p.max_iters / 4


class TestDescentBranches:
    """Backtracking and polish branches that ordinary layouts rarely take."""

    p = LayoutParams(max_iters=30)

    def _start(self):
        s = shortest_path_distances(cycle_graph(6))
        return circular_init(6, 0).coords, s

    def test_blocked_off_the_start_returns_the_start(self, monkeypatch):
        coords0, s = self._start()
        evaluate = layout_mod._PairKernel.evaluate

        def coincident_off_start(kernel, coords, hops, alpha, lam):
            if not np.array_equal(coords, coords0):
                raise CoincidentVerticesError("patched")
            return evaluate(kernel, coords, hops, alpha, lam)

        monkeypatch.setattr(layout_mod._PairKernel, "evaluate", coincident_off_start)
        x, stats = layout_mod._descend(coords0, s.d, self.p.alpha, self.p.lam, self.p)
        assert np.array_equal(x, coords0)
        assert stats.iterations == 0
        assert stats.stops == {"blocked": 1}

    def test_pair_at_the_hinge_kink_is_blocked_at_the_start(self):
        # One edge, its ends exactly alpha apart: stress pulls them
        # together, and any step that way costs more hinge penalty than
        # it saves, so no halving passes the Armijo test.
        p = LayoutParams()
        coords0 = np.array([[0.0, 0.0], [p.alpha, 0.0]])
        s = shortest_path_distances(path_graph(2))
        x, stats = layout_mod._descend(coords0, s.d, p.alpha, p.lam, p)
        assert np.array_equal(x, coords0)
        assert stats.iterations == 0
        assert stats.stops == {"blocked": 1}

    def test_coincident_first_candidate_halves_the_step(self, monkeypatch):
        coords0, s = self._start()
        _, grad = gpgl_loss_and_grad(Layout(coords0), s, self.p)
        evaluate = layout_mod._PairKernel.evaluate
        seen = []

        def first_candidate_coincident(kernel, coords, hops, alpha, lam):
            seen.append(coords.copy())
            if len(seen) == 2:
                raise CoincidentVerticesError("patched")
            return evaluate(kernel, coords, hops, alpha, lam)

        monkeypatch.setattr(layout_mod._PairKernel, "evaluate", first_candidate_coincident)
        _, stats = layout_mod._descend(coords0, s.d, self.p.alpha, self.p.lam, self.p)
        assert np.array_equal(seen[1], coords0 - grad)
        assert np.array_equal(seen[2], coords0 - 0.5 * grad)
        assert stats.iterations == self.p.max_iters
        assert stats.stops == {"max_iters": 1}

    @pytest.mark.parametrize("pattern", ["raise", "alternate"])
    def test_polish_stops_after_patience_stale_rounds(self, monkeypatch, pattern):
        # Every polish round is stale: it raises, or (alternating) it
        # returns a loss no better than the first descent's.
        coords0, s = self._start()
        descend = layout_mod._descend
        expected = descend(coords0, s.d, self.p.alpha, self.p.lam, self.p)
        calls = []

        def stale_rounds(coords, dist, alpha, lam, p):
            calls.append(coords)
            if len(calls) == 1:
                return descend(coords, dist, alpha, lam, p)
            if pattern == "raise" or len(calls) % 2 == 0:
                raise CoincidentVerticesError("patched")
            return coords, layout_mod._StageStats(0, math.inf, math.inf, 0.0, collections.Counter())

        monkeypatch.setattr(layout_mod, "_descend", stale_rounds)
        x, stats = layout_mod._descend_polished(coords0, s.d, self.p.alpha, self.p.lam, self.p)
        assert len(calls) == 1 + layout_mod._POLISH_PATIENCE
        assert np.array_equal(x, expected[0])
        assert stats == expected[1]


class TestLayoutGraph:
    def test_components_packed_with_gap_column(self):
        # Two triangles: the second component starts one empty column
        # after the first component's bounding box.
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        grid, diag = layout_graph(g, LayoutParams())
        assert diag.components == 2
        assert len(grid.occupied_cells()) == 6
        first_cols = grid.cells[:3, 1]
        second_cols = grid.cells[3:, 1]
        gap = int(first_cols.max()) + 1
        assert second_cols.min() == gap + 1
        assert gap not in set(grid.cells[:, 1].tolist())

    def test_isolated_vertices(self):
        g = Graph.from_edges(3, [(0, 1)])
        grid, diag = layout_graph(g, LayoutParams())
        assert diag.components == 2
        assert len(grid.occupied_cells()) == 3

    def test_losses_sum_over_components(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        _, whole = layout_graph(g, LayoutParams())
        part = Graph.from_edges(3, [(0, 1), (1, 2)])
        _, single = layout_graph(part, LayoutParams())
        assert whole.kk_loss == pytest.approx(2 * single.kk_loss, rel=1e-12)
        assert whole.separation_penalty == pytest.approx(
            2 * single.separation_penalty, rel=1e-12
        )

    def test_every_diagnostic_sums_over_components(self):
        # A path, an isolated vertex and a triangle, each also laid out alone.
        g = Graph.from_edges(7, [(0, 1), (1, 2), (4, 5), (5, 6), (4, 6)])
        parts = [path_graph(3), Graph(1, ()), Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])]
        p = LayoutParams(max_iters=80, seed=4)
        _, whole = layout_graph(g, p)
        alone = [layout_graph(part, p)[1] for part in parts]
        for f in dataclasses.fields(LayoutDiagnostics):
            values = [getattr(d, f.name) for d in alone]
            if f.name == "stops":
                reasons = sorted(set().union(*values))
                expected = {r: sum(v.get(r, 0) for v in values) for r in reasons}
            else:
                expected = sum(values)
            assert getattr(whole, f.name) == expected, f.name
        assert whole.components == 3


@st.composite
def small_graph(draw):
    """1-12 vertices with any edge set: isolated vertices and several
    components included."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return Graph.from_edges(n, edges)


@settings(max_examples=30, deadline=None)
@given(g=small_graph(), seed=st.integers(0, 1000))
def test_layout_graph_any_small_graph(g, seed):
    try:
        grid, diag = layout_graph(g, LayoutParams(max_iters=60, seed=seed))
    except GpglError:
        return
    assert grid.cells.shape == (g.num_vertices, 2)
    assert np.array_equal(grid.cells.min(axis=0), [0, 0])
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from(g.edges)
    assert diag.components == nx.number_connected_components(nxg)
    assert diag.lost_vertices == g.num_vertices - len(grid.occupied_cells())
    # Grid stress: per component, colliding vertices at distance 0.
    hops = dict(nx.all_pairs_shortest_path_length(nxg))
    expected = 0.0
    for u in range(g.num_vertices):
        for v in range(u + 1, g.num_vertices):
            if v in hops[u]:
                cell_dist = math.hypot(*(grid.cells[u] - grid.cells[v]))
                expected += (cell_dist / hops[u][v] - 1.0) ** 2
    assert diag.grid_stress == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(g=small_graph(), seed=st.integers(0, 1), lam=st.sampled_from([0.0, LayoutParams().lam]))
def test_layout_graph_raises_no_floating_point_error(g, seed, lam):
    # The pipeline divides by zero, overflows or makes a NaN nowhere, so
    # a kernel form that evaluates a term where it is not used (the
    # hinge over every pair, say) must not either.
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        layout_graph(g, LayoutParams(lam=lam, seed=seed))


class TestGridLayoutType:
    def test_extent(self):
        grid = GridLayout(np.array([[0, 0], [2, 5]]))
        assert grid.extent() == (3, 6)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            GridLayout(np.array([[1, 1], [2, 2]]))

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            GridLayout(np.array([[0.0, 0.0]]))
