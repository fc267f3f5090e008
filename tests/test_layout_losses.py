"""Loss values and gradients against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpgl import (
    CoincidentVerticesError,
    Layout,
    LayoutParams,
    gpgl_loss_and_grad,
    kk_loss,
    separation_penalty,
    shortest_path_distances,
)
from gpgl.graph import DistanceMatrix

from conftest import random_connected_graph
from oracles import fd_gradient, kk_loss_loops, separation_penalty_loops


def random_layout(n: int, rng: np.random.Generator, scale: float = 3.0) -> Layout:
    return Layout(rng.uniform(-scale, scale, (n, 2)))


def all_ones_distances(n: int) -> DistanceMatrix:
    d = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(d, 0)
    return DistanceMatrix(n, d)


class TestKkLoss:
    def test_two_vertices_direct_value(self):
        # d = 2, s = 1: each ordered pair contributes 0.5 (2 - 1)^2 = 0.5.
        lay = Layout(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert kk_loss(lay, all_ones_distances(2)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_exact_embedding(self):
        # Unit-spaced collinear points embed P3 hop distances exactly.
        lay = Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert kk_loss(lay, DistanceMatrix(3, d)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            g = random_connected_graph(n, rng)
            s = shortest_path_distances(g)
            lay = random_layout(n, rng)
            expected = kk_loss_loops(lay.coords, s.d.astype(float))
            assert kk_loss(lay, s) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            g = random_connected_graph(n, rng)
            s = shortest_path_distances(g)
            lay = random_layout(n, rng)
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            moved = Layout(lay.coords @ rot.T + rng.uniform(-5, 5, 2))
            assert abs(kk_loss(moved, s) - kk_loss(lay, s)) < 1e-9


class TestSeparationPenalty:
    def test_inactive_when_separated(self):
        lay = Layout(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
        assert separation_penalty(lay, alpha=1.25, lam=1000.0) == 0.0

    def test_two_vertices_at_half_alpha(self):
        # alpha/d - 1 = 1 for each of the 2 ordered pairs: 1000 * 2 = 2000.
        lay = Layout(np.array([[0.0, 0.0], [0.625, 0.0]]))
        assert separation_penalty(lay, alpha=1.25, lam=1000.0) == pytest.approx(
            2000.0, abs=1e-9
        )

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            lay = random_layout(n, rng, scale=1.0)
            expected = separation_penalty_loops(lay.coords, 1.25, 1000.0)
            got = separation_penalty(lay, alpha=1.25, lam=1000.0)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_hinge_exactness(self):
        # Zero iff the minimum pairwise distance is >= alpha, both ways.
        rng = np.random.default_rng(23)
        alpha = 1.25
        for _ in range(200):
            n = int(rng.integers(2, 9))
            lay = random_layout(n, rng, scale=2.0)
            d = np.linalg.norm(
                lay.coords[:, None] - lay.coords[None, :], axis=2
            )
            np.fill_diagonal(d, np.inf)
            value = separation_penalty(lay, alpha=alpha, lam=1000.0)
            if d.min() >= alpha:
                assert value == 0.0
            else:
                assert value > 0.0

    def test_coincident_vertices_raise(self):
        lay = Layout(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(CoincidentVerticesError):
            separation_penalty(lay, alpha=1.25, lam=1000.0)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            lay = random_layout(6, rng, scale=1.0)
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            moved = Layout(lay.coords @ rot.T + rng.uniform(-3, 3, 2))
            a = separation_penalty(lay, alpha=1.25, lam=1000.0)
            b = separation_penalty(moved, alpha=1.25, lam=1000.0)
            assert abs(a - b) < 1e-9


class TestGradient:
    def test_value_is_sum_of_terms(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(6, rng)
        s = shortest_path_distances(g)
        lay = random_layout(6, rng, scale=1.5)
        p = LayoutParams()
        value, _ = gpgl_loss_and_grad(lay, s, p)
        expected = kk_loss(lay, s) + separation_penalty(lay, p.alpha, p.lam)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_finite_differences_50_instances(self):
        # Relative error < 1e-5 against central differences, h = 1e-5.
        rng = np.random.default_rng(37)
        p = LayoutParams()
        for trial in range(50):
            n = int(rng.integers(3, 13))
            g = random_connected_graph(n, rng)
            s = shortest_path_distances(g)
            lay = random_layout(n, rng, scale=2.0)
            _, grad = gpgl_loss_and_grad(lay, s, p)

            def value_at(coords):
                v, _ = gpgl_loss_and_grad(Layout(coords), s, p)
                return v

            fd = fd_gradient(value_at, lay.coords, h=1e-5)
            denom = np.maximum(np.abs(fd), 1.0)
            rel = np.abs(grad - fd) / denom
            assert rel.max() < 1e-5, f"trial {trial}: rel={rel.max():.2e}"

    def test_lambda_zero_is_pure_kk_gradient(self):
        rng = np.random.default_rng(41)
        g = random_connected_graph(7, rng)
        s = shortest_path_distances(g)
        lay = random_layout(7, rng)
        p0 = LayoutParams(lam=0.0)
        value, grad = gpgl_loss_and_grad(lay, s, p0)
        assert value == pytest.approx(kk_loss(lay, s), rel=1e-12)
        fd = fd_gradient(lambda c: kk_loss_loops(c, s.d.astype(float)), lay.coords)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_gradient_zero_at_smooth_local_minimum(self):
        # Two vertices at distance s = 1 with the hinge inactive: the
        # exact stress minimum, gradient below the default tolerance.
        p = LayoutParams(alpha=0.9)
        lay = Layout(np.array([[0.0, 0.0], [1.0, 0.0]]))
        s = all_ones_distances(2)
        _, grad = gpgl_loss_and_grad(lay, s, p)
        assert np.abs(grad).max() < p.grad_tol


# Property tests: hypothesis-drawn layouts against the loop oracles. The
# drawn layouts include pairs a tiny nonzero distance apart, where the
# hinge term dwarfs every other term.

ALPHA, LAM = 1.25, 1000.0

coordinate = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
near_offset = st.floats(1e-9, 1e-4) | st.floats(-1e-4, -1e-9)


@st.composite
def graph_and_layout(draw, near_coincident: bool):
    n = draw(st.integers(2, 10))
    g = random_connected_graph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    # On a 1e-9 grid; separations far below it are drawn by
    # tiny_separation_layout.
    coords = np.round(
        np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))), 9
    )
    if near_coincident:
        a, b = draw(st.permutations(range(n)))[:2]
        coords[b] = coords[a] + np.array([draw(near_offset), draw(near_offset)])
    return shortest_path_distances(g), coords


def _has_coincident(coords: np.ndarray) -> bool:
    diff = coords[:, None] - coords[None, :]
    return bool(np.any(np.all(diff == 0.0, axis=2) & ~np.eye(len(coords), dtype=bool)))


@settings(max_examples=150, deadline=None)
@given(case=graph_and_layout(near_coincident=False) | graph_and_layout(near_coincident=True))
def test_losses_match_loop_oracles(case):
    s, coords = case
    lay = Layout(coords)
    expected_kk = kk_loss_loops(coords, s.d.astype(float))
    assert kk_loss(lay, s) == pytest.approx(expected_kk, rel=1e-12, abs=1e-12)
    if _has_coincident(coords):
        # Stress accepts coincident vertices; the penalty has no value there.
        with pytest.raises(CoincidentVerticesError):
            separation_penalty(lay, ALPHA, LAM)
        with pytest.raises(CoincidentVerticesError):
            gpgl_loss_and_grad(lay, s, LayoutParams(alpha=ALPHA, lam=LAM))
        return
    expected_sep = separation_penalty_loops(coords, ALPHA, LAM)
    assert separation_penalty(lay, ALPHA, LAM) == pytest.approx(expected_sep, rel=1e-12)
    value, _ = gpgl_loss_and_grad(lay, s, LayoutParams(alpha=ALPHA, lam=LAM))
    assert value == pytest.approx(expected_kk + expected_sep, rel=1e-12, abs=1e-12)


@st.composite
def separated_graph_and_layout(draw):
    # Distinct lattice sites 0.7 apart plus jitter below 0.2: every pair
    # stays at least 0.3 apart, so central differences stay accurate.
    n = draw(st.integers(2, 8))
    sites = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=n, max_size=n, unique=True))
    jitter = st.floats(-0.2, 0.2, allow_nan=False)
    coords = 0.7 * np.array(sites, dtype=float) + np.array(
        draw(st.lists(st.tuples(jitter, jitter), min_size=n, max_size=n))
    )
    g = random_connected_graph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return shortest_path_distances(g), coords, draw(st.sampled_from([0.0, LAM]))


@settings(max_examples=100, deadline=None)
@given(case=separated_graph_and_layout())
def test_gradient_matches_fd_of_loop_oracles(case):
    s, coords, lam = case
    dist = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
    if np.any(np.abs(dist - ALPHA) < 1e-4):
        return  # central differences straddle the hinge kink
    hops = s.d.astype(float)

    def oracle(c):
        return kk_loss_loops(c, hops) + separation_penalty_loops(c, ALPHA, lam)

    _, grad = gpgl_loss_and_grad(Layout(coords), s, LayoutParams(alpha=ALPHA, lam=lam))
    fd = fd_gradient(oracle, coords, h=1e-6)
    assert np.all(np.abs(grad - fd) <= 1e-5 * np.maximum(np.abs(fd), 1.0))


@st.composite
def tiny_separation_layout(draw):
    """Vertex 0 at the origin, vertex 1 between 1e-300 and 1e-150 from it
    (its squared offset underflows), the rest on distinct lattice sites."""
    n = draw(st.integers(2, 8))
    sites = draw(
        st.lists(st.tuples(st.integers(1, 5), st.integers(-5, 5)), min_size=n - 2, max_size=n - 2, unique=True)
    )
    r = draw(st.floats(1e-300, 1e-150))
    theta = draw(st.floats(0.0, 2.0 * np.pi))
    coords = np.array([(0.0, 0.0), (r * np.cos(theta), r * np.sin(theta)), *sites], dtype=float)
    g = random_connected_graph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return shortest_path_distances(g), coords


def test_tiny_separation_is_not_coincidence():
    lay = Layout(np.array([[0.0, 0.0], [0.0, 1.03e-302]]))
    expected = separation_penalty_loops(lay.coords, ALPHA, LAM)
    assert np.isfinite(expected)
    assert separation_penalty(lay, ALPHA, LAM) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(case=tiny_separation_layout())
def test_tiny_separations_match_loop_oracles(case):
    s, coords = case
    lay = Layout(coords)
    expected_kk = kk_loss_loops(coords, s.d.astype(float))
    assert kk_loss(lay, s) == pytest.approx(expected_kk, rel=1e-12, abs=1e-12)
    expected_sep = separation_penalty_loops(coords, ALPHA, LAM)
    assert separation_penalty(lay, ALPHA, LAM) == pytest.approx(expected_sep, rel=1e-12)


# The kernel skips the hinge when the closest pair is at least alpha
# apart, and scans for coincident pairs only when the closest distance
# is not positive. Both shortcuts must give exactly what the full
# computation gives.


@st.composite
def alpha_separated_layout(draw):
    """Distinct lattice sites ``spacing >= ALPHA`` apart; at spacing
    ALPHA the first two sites are neighbours exactly ALPHA apart."""
    n = draw(st.integers(2, 10))
    first = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    step = draw(st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]))
    rest = draw(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=n - 2, max_size=n - 2)
    )
    sites = list(dict.fromkeys([first, (first[0] + step[0], first[1] + step[1]), *rest]))
    spacing = draw(st.just(ALPHA) | st.floats(ALPHA, 4.0))
    coords = spacing * np.array(sites, dtype=float)
    g = random_connected_graph(len(sites), np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return shortest_path_distances(g), coords


@settings(max_examples=150, deadline=None)
@given(case=alpha_separated_layout())
def test_hinge_skip_is_exact_when_separated(case):
    s, coords = case
    offsets = coords[:, None] - coords[None, :]
    dist = np.hypot(offsets[..., 0], offsets[..., 1])[np.triu_indices(len(coords), 1)]
    assume(dist.min() >= ALPHA)
    lay = Layout(coords)
    assert separation_penalty(lay, ALPHA, LAM) == 0.0
    value, grad = gpgl_loss_and_grad(lay, s, LayoutParams(alpha=ALPHA, lam=LAM))
    value0, grad0 = gpgl_loss_and_grad(lay, s, LayoutParams(alpha=ALPHA, lam=0.0))
    assert value == value0
    assert grad.tobytes() == grad0.tobytes()


@st.composite
def layout_with_duplicate_row(draw):
    n = draw(st.integers(2, 10))
    coords = np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n)))
    src, dst = draw(st.permutations(range(n)))[:2]
    coords[dst] = coords[src]
    g = random_connected_graph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return shortest_path_distances(g), coords


@settings(max_examples=150, deadline=None)
@given(case=layout_with_duplicate_row())
def test_coincidence_names_first_pair_in_row_major_order(case):
    s, coords = case
    n = len(coords)
    first = next((i, j) for i in range(n) for j in range(i + 1, n) if np.array_equal(coords[i], coords[j]))
    message = f"vertices {first[0]} and {first[1]} coincide"
    lay = Layout(coords)
    with pytest.raises(CoincidentVerticesError) as err:
        separation_penalty(lay, ALPHA, LAM)
    assert str(err.value) == message
    for lam in (0.0, LAM):
        with pytest.raises(CoincidentVerticesError) as err:
            gpgl_loss_and_grad(lay, s, LayoutParams(alpha=ALPHA, lam=lam))
        assert str(err.value) == message
