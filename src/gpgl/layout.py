"""Grid layout of graphs by regularized stress minimization.

The continuous stage embeds a graph in the plane so that Euclidean
distances track graph hop distances (Kamada-Kawai stress), with a hinge
penalty that pushes every vertex pair at least ``alpha`` apart so that
rounding to integer cells keeps vertices distinct. It runs a stress-only
descent, then a penalty continuation: descents at rising fractions of the
penalty weight ``lam``, each warm-started from the last. The discrete
stage rounds the optimized coordinates to the grid.

One pair kernel (``_PairKernel``, built once per vertex count) holds the
loss and its gradient over the unordered pairs i < j. A candidate's pair
offsets come from one gather of its flattened coordinates; their lengths
are checked for coincident pairs (distance exactly 0) and give the
stress residuals ``d_ij / s_ij - 1`` and the penalty. The hinge is
skipped when the closest pair is at least ``alpha`` apart, where every
hinge term is exactly 0. The descent keeps the accepted candidate's
offsets and residuals and takes the next gradient from them, with one
scatter of each pair's term onto both of its endpoints. Each step is
the same IEEE operations, in the same order, as the plain per-axis
form, so layouts do not depend on these shortcuts.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import CoincidentVerticesError, NonFiniteLossError
from .graph import DistanceMatrix, Graph, connected_components, shortest_path_distances

__all__ = [
    "Layout",
    "GridLayout",
    "LayoutParams",
    "LayoutDiagnostics",
    "circular_init",
    "kk_loss",
    "separation_penalty",
    "gpgl_loss_and_grad",
    "rescale_layout",
    "minimize",
    "round_layout",
    "layout_graph",
]

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 30
# A descent stops once its best loss fell by at most
# _PROGRESS_TOL * max(1, |best|) over the last _PROGRESS_WINDOW
# iterations: near a hinge kink the iterate only dithers, and a tighter
# tolerance (1e-6) did not improve the rounded layouts.
_PROGRESS_WINDOW = 50
_PROGRESS_TOL = 1e-5

# Penalty continuation: the penalized stage descends at lam times each
# factor in turn, each descent warm-started from the previous best.
_PENALTY_STEPS = (1e-3, 1e-2, 1e-1, 1.0)


@dataclass(frozen=True, eq=False)
class Layout:
    """Continuous 2D vertex positions, one row per vertex."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 1:
            raise ValueError(f"coords must be (n, 2) with n >= 1, got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True, eq=False)
class GridLayout:
    """Integer cell per vertex, normalized so each axis starts at 0."""

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.shape[1] != 2 or cells.shape[0] < 1:
            raise ValueError(f"cells must be (n, 2) with n >= 1, got {cells.shape}")
        if not np.issubdtype(cells.dtype, np.integer):
            raise ValueError("cells must be integers")
        cells = cells.astype(np.int64)
        if np.any(cells.min(axis=0) != 0):
            raise ValueError("cells must be origin-normalized (min 0 per axis)")
        object.__setattr__(self, "cells", cells)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    def extent(self) -> tuple[int, int]:
        """Cells spanned along each axis: (rows, cols)."""
        mx = self.cells.max(axis=0)
        return int(mx[0]) + 1, int(mx[1]) + 1

    def occupied_cells(self) -> set[tuple[int, int]]:
        return {(int(r), int(c)) for r, c in self.cells}


@dataclass(frozen=True)
class LayoutParams:
    """Knobs of the layout optimizer.

    Attributes
    ----------
    alpha : float
        Separation threshold in grid-cell units; pairs closer than this
        are penalized.
    lam : float
        Weight of the separation penalty; the final weight of the
        penalty continuation, whose earlier descents run at fractions of
        it.
    gamma : float
        Floor on the distance used to derive the optional rescale factor.
    enable_rescale : bool
        Apply the linear zoom between the stress-only stage and the
        penalized stage. Off by default; the stress-only solutions are
        usually a good enough starting point.
    max_iters : int
        Iteration cap per descent.
    grad_tol : float
        Stop once the gradient max-norm falls below this.
    seed : int
        Drives the random vertex order of the circular initialization.
    """

    alpha: float = 1.25
    lam: float = 1000.0
    gamma: float = 0.1
    enable_rescale: bool = False
    max_iters: int = 2000
    grad_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("alpha", "lam", "gamma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class LayoutDiagnostics:
    """Per-layout record of how the optimization went, each field summed
    over the components.

    ``stops`` counts the stress descent and each descent of the penalty
    continuation by why it stopped (see ``_descend``); reasons that never
    occurred are absent.
    ``grid_stress`` is ``sum_{i<j} (|c_i - c_j| / s_ij - 1)^2`` over the
    rounded cells c, colliding vertices at distance 0.
    """

    kk_loss: float
    separation_penalty: float
    kk_iterations: int
    gpgl_iterations: int
    lost_vertices: int
    stops: dict[str, int]
    grid_stress: float
    components: int = 1

    def __post_init__(self) -> None:
        # A plain dict in reason order, so asdict copies it as it is.
        object.__setattr__(self, "stops", dict(sorted(self.stops.items())))

    @property
    def total_loss(self) -> float:
        return self.kk_loss + self.separation_penalty

    def to_dict(self) -> dict:
        return {**asdict(self), "total_loss": self.total_loss}


def circular_init(n: int, seed: int) -> Layout:
    """Evenly spaced points on a circle, vertex order shuffled by seed.

    The circle radius is ``n / (2 pi)`` so that consecutive points are one
    unit of arc apart. Which vertex lands on which circle position is a
    seed-determined permutation; the point multiset itself is the same for
    every seed. A single vertex is placed at the origin.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Layout(np.zeros((1, 2)))
    radius = n / (2.0 * math.pi)
    angles = 2.0 * math.pi * np.arange(n) / n
    points = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    perm = np.random.default_rng(seed).permutation(n)
    return Layout(points[perm])


@dataclass(frozen=True, eq=False)
class _PairKernel:
    """The layout loss and its gradient over the unordered pairs i < j.

    ``i`` and ``j`` list the pairs in row-major order. ``gather[0]`` and
    ``gather[1]`` are the flat ``(vertex, axis)`` positions of the i and
    j ends, x row then y row: one gather and one subtraction give every
    pair's offset. ``slots``, the same positions flattened, places each
    term of the gradient in its one ``bincount`` scatter.

    ``evaluate`` returns the offsets, distances and residuals
    ``d_ij / s_ij - 1`` for ``gradient`` to reuse. The hinge is skipped
    when the closest pair is at least ``alpha`` apart: the correctly
    rounded ``alpha / d_ij`` is then at most 1, so every hinge term is
    exactly 0.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    gather: np.ndarray
    slots: np.ndarray

    def pair_values(self, matrix: np.ndarray) -> np.ndarray:
        """Entries (i, j) of a symmetric matrix, as floats."""
        return matrix[self.i, self.j].astype(np.float64)

    def distances(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair offsets of i from j as ``(2, P)`` rows (dx, dy), and their
        lengths."""
        ends = coords.ravel()[self.gather]
        d = ends[0] - ends[1]
        return d, np.hypot(d[0], d[1])

    def check_separated(self, dist: np.ndarray) -> float:
        """Return the closest distance; raise on a pair at distance
        exactly 0, naming the first in row-major order."""
        dmin = np.minimum.reduce(dist)
        if not dmin > 0.0 and (dist == 0.0).any():
            k = np.flatnonzero(dist == 0.0)[0]
            raise CoincidentVerticesError(f"vertices {self.i[k]} and {self.j[k]} coincide")
        return dmin

    def stress(self, dist: np.ndarray, hops: np.ndarray) -> tuple[float, np.ndarray]:
        """``sum (d_ij / s_ij - 1)^2`` and the residuals it sums."""
        r = dist / hops - 1.0
        return float(np.add.reduce(r * r)), r

    def penalty(self, dist: np.ndarray, alpha: float, lam: float) -> float:
        return 2.0 * lam * float(np.add.reduce(np.maximum(0.0, alpha / dist - 1.0)))

    def evaluate(
        self, coords: np.ndarray, hops: np.ndarray, alpha: float, lam: float
    ) -> tuple[float, float, float, tuple]:
        """(total, stress, penalty, pairs); ``pairs`` is what ``gradient``
        takes. Raises on coincident pairs."""
        d, dist = self.distances(coords)
        dmin = self.check_separated(dist)
        kk, r = self.stress(dist, hops)
        # A NaN distance fails `dmin >= alpha` too, so it takes the hinge.
        hinge = lam > 0.0 and not dmin >= alpha
        sep = self.penalty(dist, alpha, lam) if hinge else 0.0
        return kk + sep, kk, sep, (d, dist, r, hinge)

    def gradient(self, pairs: tuple, hops: np.ndarray, alpha: float, lam: float) -> np.ndarray:
        """Exact gradient of ``evaluate``'s total at the coordinates that
        gave ``pairs``.

        The pair (i, j) term's gradient is a coefficient times the offset
        of i from j on vertex i, and its negation on vertex j. The hinge
        uses the one-sided zero derivative at ``d_ij >= alpha``.
        """
        d, dist, r, hinge = pairs
        coef = 2.0 * r / (hops * dist)
        if hinge:
            active = dist < alpha
            coef[active] -= 2.0 * lam * alpha / dist[active] ** 3
        f = coef * d
        terms = np.concatenate([f, -f]).ravel()
        return np.bincount(self.slots, terms, minlength=2 * self.n).reshape(self.n, 2)


@functools.lru_cache(maxsize=32)
def _pair_kernel(n: int) -> _PairKernel:
    i, j = np.triu_indices(n, 1)
    gather = np.stack([np.stack([2 * i, 2 * i + 1]), np.stack([2 * j, 2 * j + 1])])
    kernel = _PairKernel(n, i, j, gather, gather.ravel())
    for arr in (kernel.i, kernel.j, kernel.gather, kernel.slots):
        arr.setflags(write=False)
    return kernel


def _checked_kernel(layout: Layout, s: DistanceMatrix | None = None) -> _PairKernel:
    """The pair kernel of ``layout``; raise unless it has as many vertices
    as ``s`` (when given) and at least 2."""
    if s is not None and layout.n != s.n:
        raise ValueError(f"layout has {layout.n} vertices, distances have {s.n}")
    if layout.n < 2:
        raise ValueError("need at least 2 vertices")
    return _pair_kernel(layout.n)


def kk_loss(layout: Layout, s: DistanceMatrix) -> float:
    """Stress of a layout against graph distances.

    Sums ``(d_ij / s_ij - 1)^2`` over unordered vertex pairs i < j (half
    the sum over ordered pairs). Zero exactly when every Euclidean
    distance matches its hop distance.
    """
    kernel = _checked_kernel(layout, s)
    return kernel.stress(kernel.distances(layout.coords)[1], kernel.pair_values(s.d))[0]


def separation_penalty(layout: Layout, alpha: float, lam: float) -> float:
    """Hinge penalty on vertex pairs closer than ``alpha``.

    Sums ``lam * max(0, alpha / d_ij - 1)`` over ordered pairs, that is
    ``2 lam`` times the sum over unordered pairs i < j. Zero if and only
    if every pairwise distance is at least ``alpha``; grows without bound
    as any pair approaches coincidence.
    """
    kernel = _checked_kernel(layout)
    dist = kernel.distances(layout.coords)[1]
    kernel.check_separated(dist)
    return kernel.penalty(dist, alpha, lam)


@dataclass
class _StageStats:
    iterations: int
    loss: float
    kk: float
    sep: float
    # Why each descent of the stage stopped, as counts per reason.
    stops: Counter


def _descend(
    coords0: np.ndarray, s: np.ndarray, alpha: float, lam: float, p: LayoutParams
) -> tuple[np.ndarray, _StageStats]:
    """Full-gradient descent with Armijo backtracking.

    Stops for one of four reasons, recorded in ``stops``: ``grad_tol``
    (the gradient max-norm is at most ``p.grad_tol``), ``progress`` (the
    best loss fell by at most ``_PROGRESS_TOL * max(1, |best|)`` over the
    last ``_PROGRESS_WINDOW`` iterations), ``max_iters``, or ``blocked``
    (no step of ``_MAX_BACKTRACKS`` halvings lowered the loss enough).
    Returns the best iterate seen: a step whose required decrease is below
    the loss's rounding is accepted with the loss bit-identical while the
    coordinates move, and the first iterate at the best loss is kept.
    """
    kernel = _pair_kernel(coords0.shape[0])
    hops = kernel.pair_values(s)
    x = coords0.copy()
    f, kk, sep, pairs = kernel.evaluate(x, hops, alpha, lam)
    grad = kernel.gradient(pairs, hops, alpha, lam)
    if not (math.isfinite(f) and np.all(np.isfinite(grad))):
        raise NonFiniteLossError(f"non-finite loss at initialization: {f}")

    best_x, best = x.copy(), (f, kk, sep)
    # best_losses[k] is the best loss after k iterations.
    best_losses = [f]
    step = 1.0
    reason = "max_iters"

    for _ in range(p.max_iters):
        flat = grad.ravel()
        gmax = float(np.maximum.reduce(np.abs(flat)))
        if gmax <= p.grad_tol:
            reason = "grad_tol"
            break
        gsq = float(np.add.reduce(flat * flat))

        t = step
        for _ in range(_MAX_BACKTRACKS):
            cand = x - t * grad
            try:
                f_c, kk_c, sep_c, pairs_c = kernel.evaluate(cand, hops, alpha, lam)
            except CoincidentVerticesError:
                t *= 0.5
                continue
            if math.isfinite(f_c) and f_c <= f - _ARMIJO_C * t * gsq:
                step = t * 2.0
                break
            t *= 0.5
        else:
            reason = "blocked"
            break

        x, f, kk, sep, pairs = cand, f_c, kk_c, sep_c, pairs_c
        if f < best[0]:
            best_x, best = x.copy(), (f, kk, sep)
        best_losses.append(best[0])
        if len(best_losses) > _PROGRESS_WINDOW and (
            best_losses[-1 - _PROGRESS_WINDOW] - best[0] <= _PROGRESS_TOL * max(1.0, abs(best[0]))
        ):
            reason = "progress"
            break
        grad = kernel.gradient(pairs, hops, alpha, lam)

    return best_x, _StageStats(len(best_losses) - 1, *best, Counter({reason: 1}))


def _descend_continued(
    coords0: np.ndarray, s: np.ndarray, lam: float, p: LayoutParams
) -> tuple[np.ndarray, _StageStats]:
    """One optimization stage: a single descent when ``lam`` is 0, else a
    penalty continuation.

    A hinge at full weight from the start folds the layout: ``alpha``
    exceeds the hop-1 target, so every edge begins inside the hinge. The
    continuation descends at ``lam * step`` for each of
    ``_PENALTY_STEPS``, each descent starting from the previous one's
    best iterate, so the stress term shapes the layout while the hinge is
    weak and the hinge then spreads it. The stats sum iterations and
    stops over the steps and take the loss from the last, which runs at
    ``lam``. If that loss is above the start's, the start is returned
    with its own loss.
    """
    if lam == 0.0:
        return _descend(coords0, s, p.alpha, 0.0, p)
    x, iterations, stops = coords0, 0, Counter()
    for step in _PENALTY_STEPS:
        x, last = _descend(x, s, p.alpha, lam * step, p)
        iterations += last.iterations
        stops += last.stops
    kernel = _pair_kernel(coords0.shape[0])
    start = kernel.evaluate(coords0, kernel.pair_values(s), p.alpha, lam)[:3]
    if last.loss > start[0]:
        return coords0.copy(), _StageStats(iterations, *start, stops)
    return x, _StageStats(iterations, last.loss, last.kk, last.sep, stops)


def gpgl_loss_and_grad(
    layout: Layout, s: DistanceMatrix, p: LayoutParams
) -> tuple[float, np.ndarray]:
    """Combined stress plus separation penalty and its analytic gradient.

    The gradient is the exact derivative of the value actually computed,
    including the ``alpha`` factor from differentiating the hinge; finite
    differences agree to first order everywhere off the hinge kinks.
    """
    kernel = _checked_kernel(layout, s)
    hops = kernel.pair_values(s.d)
    f, _, _, pairs = kernel.evaluate(layout.coords, hops, p.alpha, p.lam)
    return f, kernel.gradient(pairs, hops, p.alpha, p.lam)


def rescale_layout(layout: Layout, p: LayoutParams) -> Layout:
    """Zoom a layout linearly so the closest pair is near ``alpha`` apart.

    The scale factor is ``max(1, alpha / beta)`` with ``beta`` the minimum
    pairwise distance floored at ``gamma``; a layout whose pairs are
    already separated is returned unchanged. Distances are never shrunk.
    """
    dist = _checked_kernel(layout).distances(layout.coords)[1]
    beta = max(p.gamma, float(dist.min()))
    if beta == 0.0:
        return layout
    scale = max(1.0, p.alpha / beta)
    return Layout(layout.coords * scale)


def minimize(layout0: Layout, s: DistanceMatrix, p: LayoutParams) -> Layout:
    """Minimize the combined loss starting from ``layout0``.

    Descends the full gradient with Armijo backtracking until the gradient
    max-norm drops to ``p.grad_tol``, the iteration cap is hit, the best
    loss stops improving over a window of iterations, or no backtracking
    step lowers the loss. With ``p.lam > 0`` this is a penalty
    continuation: one such descent at each fraction of ``p.lam`` in
    ``_PENALTY_STEPS``, the last at ``p.lam`` itself. The returned layout
    never has higher loss than the input: if the continuation ends above
    it, the input is returned. Deterministic for fixed inputs.
    """
    _checked_kernel(layout0, s)
    coords, _ = _descend_continued(layout0.coords, s.d, p.lam, p)
    return Layout(coords)


def _round_cells(coords: np.ndarray) -> np.ndarray:
    """Round ``(..., n, 2)`` coordinates to integer cells, ties away from
    zero, and shift each layout so its minimum cell is 0 on both axes."""
    rounded = np.copysign(np.floor(np.abs(coords) + 0.5), coords).astype(np.int64)
    return rounded - rounded.min(axis=-2, keepdims=True)


def round_layout(layout: Layout) -> GridLayout:
    """Round coordinates to integer cells and shift the origin to zero.

    Ties at exactly .5 round away from zero. Distinct vertices may land on
    the same cell; collisions are preserved here and merged downstream.
    """
    return GridLayout(_round_cells(layout.coords))


# Fractional offsets per axis tried when snapping the frame to the grid,
# as (x, y) shifts in scan order: y-major, x-minor.
_PHASE_STEPS = 8
_PHASE_OFFSETS = np.arange(_PHASE_STEPS) / _PHASE_STEPS
_PHASE_SHIFTS = np.stack(
    np.meshgrid(_PHASE_OFFSETS, _PHASE_OFFSETS), axis=-1
).reshape(-1, 2)


def _round_best_phase(coords: np.ndarray) -> tuple[GridLayout, int]:
    """Round at the best grid phase; return the grid and its lost vertices.

    The loss is translation invariant, so which fractional offset the
    integer grid sits at is a free choice; it decides how many vertices
    collide per cell and how tight the frame is. All 8x8 offsets are
    rounded at once and the first in scan order with (fewest collisions,
    smallest bounding box) is kept; ``lexsort`` is stable, so ties keep
    scan order. This is the one place that counts collisions.
    """
    n = coords.shape[0]
    base = coords - coords.min(axis=0)
    cells = _round_cells(base + _PHASE_SHIFTS[:, None, :])
    extent = cells.max(axis=1) + 1
    area = extent[:, 0] * extent[:, 1]
    # One integer key per cell (row-major within each phase's box); the
    # distinct keys of a phase are its occupied cells.
    keys = np.sort(cells[..., 0] * extent[:, 1:] + cells[..., 1], axis=1)
    lost = n - 1 - np.count_nonzero(np.diff(keys, axis=1), axis=1)
    best = np.lexsort((area, lost))[0]
    return GridLayout(cells[best]), int(lost[best])


def _layout_connected(
    g: Graph, p: LayoutParams
) -> tuple[GridLayout, LayoutDiagnostics]:
    """Layout pipeline for one connected component.

    Runs hop-distance computation, shuffled circular initialization, a
    stress-only descent, the optional rescale, the penalty continuation,
    and rounding at the best grid phase; the two optimization stages are
    ``minimize``'s.
    """
    n = g.num_vertices
    if n == 1:
        diag = LayoutDiagnostics(0.0, 0.0, 0, 0, 0, {}, 0.0)
        return GridLayout(np.zeros((1, 2), dtype=np.int64)), diag

    s = shortest_path_distances(g)
    init = circular_init(n, p.seed)
    kk_coords, kk_stats = _descend_continued(init.coords, s.d, 0.0, p)
    if p.enable_rescale:
        kk_coords = rescale_layout(Layout(kk_coords), p).coords
    coords, gp_stats = _descend_continued(kk_coords, s.d, p.lam, p)

    grid, lost = _round_best_phase(coords)
    kernel = _pair_kernel(n)
    grid_dist = kernel.distances(grid.cells.astype(np.float64))[1]
    diag = LayoutDiagnostics(
        kk_loss=gp_stats.kk,
        separation_penalty=gp_stats.sep,
        kk_iterations=kk_stats.iterations,
        gpgl_iterations=gp_stats.iterations,
        lost_vertices=lost,
        stops=kk_stats.stops + gp_stats.stops,
        grid_stress=kernel.stress(grid_dist, kernel.pair_values(s.d))[0],
    )
    return grid, diag


def layout_graph(g: Graph, p: LayoutParams) -> tuple[GridLayout, LayoutDiagnostics]:
    """Grid-lay any graph, connected or not.

    Each connected component is laid out independently (same parameters
    and seed) and the component layouts are packed left to right,
    separated by one empty column; each diagnostic is summed over the
    components in order. A connected graph is the one-component case.
    """
    cells = np.zeros((g.num_vertices, 2), dtype=np.int64)
    col_offset = 0
    diags = []
    for comp in connected_components(g):
        grid, diag = _layout_connected(comp.graph, p)
        placed = grid.cells.copy()
        placed[:, 1] += col_offset
        cells[comp.original_vertices] = placed
        col_offset += grid.extent()[1] + 1
        diags.append(diag)

    summed = [f.name for f in fields(LayoutDiagnostics) if f.name != "stops"]
    totals = {name: sum(getattr(d, name) for d in diags) for name in summed}
    stops = sum((Counter(d.stops) for d in diags), Counter())
    return GridLayout(cells), LayoutDiagnostics(**totals, stops=stops)
