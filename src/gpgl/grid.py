"""Dense feature tensors built from grid layouts.

A grid layout plus per-vertex feature vectors becomes a fixed-size
``H x W x F`` volume: each vertex writes its feature vector into its
cell, empty cells stay zero, and vertices that collided on one cell are
averaged. How many vertices collided is counted once, by the layout's
phase scan (``LayoutDiagnostics.lost_vertices``). A layout larger than
the window is never cropped: ``check_window`` and ``build_grid_tensor``
raise, and ``datasets.export_tensors`` records the run as failed.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .errors import WindowOverflowError
from .layout import GridLayout

__all__ = ["build_grid_tensor", "check_window", "DEFAULT_WINDOW"]

DEFAULT_WINDOW = (64, 64)


def check_window(gl: GridLayout, window: tuple[int, int]) -> None:
    """Raise WindowOverflowError unless every cell of ``gl`` lies inside
    ``window`` (height, width). Overflow is an error rather than a silent
    crop; cropping would lose vertices without showing up in the
    lost-vertex count."""
    height, width = window
    rows, cols = gl.extent()
    if rows > height or cols > width:
        raise WindowOverflowError(
            f"layout spans {rows}x{cols}, window is {height}x{width}"
        )


def build_grid_tensor(
    gl: GridLayout,
    features: np.ndarray,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> np.ndarray:
    """Place vertex features on the grid window; return ``(H, W, F)`` float32.

    The layout is aligned to the top-left corner: layout cell (0, 0) is
    window cell (0, 0) and the rest of the window is zero-padded. When
    several vertices share a cell the cell holds the mean of their
    feature vectors.

    Raises
    ------
    WindowOverflowError
        If any cell falls outside the window (``check_window``).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != gl.n:
        raise ValueError(
            f"features must be ({gl.n}, F), got {feats.shape}"
        )
    check_window(gl, window)
    by_cell: dict[tuple[int, int], list[int]] = defaultdict(list)
    for v, (r, c) in enumerate(gl.cells):
        by_cell[(int(r), int(c))].append(v)

    data = np.zeros((*window, feats.shape[1]), dtype=np.float32)
    for (r, c), members in by_cell.items():
        data[r, c] = feats[members].mean(axis=0)
    return data
