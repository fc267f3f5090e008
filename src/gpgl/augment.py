"""Layout-based data augmentation.

Each layout seed changes the circular initialisation order, so repeated
runs of the same graph land in different local minima and yield distinct
grid images. A set of k such layouts is the augmented sample for one
graph; duplicates between runs are kept as-is since they simply reweight
a stable minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import GpglError
from .graph import Graph
from .layout import GridLayout, LayoutDiagnostics, LayoutParams, layout_graph

__all__ = ["AugmentedLayout", "AugmentedSet", "augment"]

# Offset applied for the single retry of a failed run. Large and prime so
# retry seeds cannot collide with the k scheduled seeds.
_RETRY_OFFSET = 1_000_003


@dataclass(frozen=True, eq=False)
class AugmentedLayout:
    """One augmentation run: the seed actually used plus its outcome.

    ``grid`` and ``diagnostics`` are None when the run failed even after
    the retry; ``error`` then carries the message.
    """

    seed: int
    grid: GridLayout | None
    diagnostics: LayoutDiagnostics | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.grid is None


@dataclass(frozen=True, eq=False)
class AugmentedSet:
    """The k layout runs produced for one graph."""

    graph_id: int
    layouts: tuple[AugmentedLayout, ...]

    def __post_init__(self) -> None:
        seeds = [lay.seed for lay in self.layouts]
        if len(set(seeds)) != len(seeds):
            raise ValueError("layout seeds must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.layouts)

    def successful(self) -> tuple[AugmentedLayout, ...]:
        return tuple(lay for lay in self.layouts if not lay.failed)


def augment(
    g: Graph, p: LayoutParams, k: int, graph_id: int = 0
) -> AugmentedSet:
    """Produce k layouts of ``g`` under seeds p.seed, p.seed + 1, ...

    A failed run is retried once with a perturbed seed; if the retry also
    fails the slot is recorded as failed instead of aborting the whole
    set. The result is a pure function of (g, p, k).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    runs: list[AugmentedLayout] = []
    for i in range(k):
        seed = p.seed + i
        runs.append(_run_once(g, p, seed))
    return AugmentedSet(graph_id=graph_id, layouts=tuple(runs))


def _run_once(g: Graph, p: LayoutParams, seed: int) -> AugmentedLayout:
    for attempt_seed in (seed, seed + _RETRY_OFFSET):
        try:
            grid, diag = layout_graph(g, replace(p, seed=attempt_seed))
        except GpglError as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        return AugmentedLayout(seed=attempt_seed, grid=grid, diagnostics=diag)
    return AugmentedLayout(seed=seed, grid=None, diagnostics=None, error=last_error)
