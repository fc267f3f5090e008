"""Independent reference implementations used as test oracles.

Everything here is written as plainly as possible (explicit loops, no
vectorization) so it can be trusted by inspection and compared against
the library's optimized code paths.
"""

from __future__ import annotations

import math

import numpy as np


def floyd_warshall(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """All-pairs shortest hop distances; inf where unreachable."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        d[u, v] = 1.0
        d[v, u] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def kk_loss_loops(coords: np.ndarray, s: np.ndarray) -> float:
    """Ordered-pair stress: sum over i != j of 0.5 (d_ij/s_ij - 1)^2."""
    n = coords.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = float(np.hypot(*(coords[i] - coords[j])))
            total += 0.5 * (d / s[i, j] - 1.0) ** 2
    return total


def separation_penalty_loops(coords: np.ndarray, alpha: float, lam: float) -> float:
    """Ordered-pair hinge: lam * sum over i != j of max(0, alpha/d_ij - 1)."""
    n = coords.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = float(np.hypot(*(coords[i] - coords[j])))
            total += max(0.0, alpha / d - 1.0)
    return lam * total


def fd_gradient(fn, coords: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of (n, 2) coords."""
    grad = np.zeros_like(coords, dtype=np.float64)
    for i in range(coords.shape[0]):
        for a in range(2):
            plus = coords.astype(np.float64).copy()
            plus[i, a] += h
            minus = coords.astype(np.float64).copy()
            minus[i, a] -= h
            grad[i, a] = (fn(plus) - fn(minus)) / (2.0 * h)
    return grad


def conv2d_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Six-loop same-padded stride-1 cross-correlation."""
    n, h, wd, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    pad = k // 2
    out = np.zeros((n, h, wd, cout), dtype=np.float64)
    for b_i in range(n):
        for y in range(h):
            for xq in range(wd):
                for co in range(cout):
                    acc = 0.0
                    for dy in range(k):
                        for dx in range(k):
                            yy = y + dy - pad
                            xx = xq + dx - pad
                            if 0 <= yy < h and 0 <= xx < wd:
                                for ci in range(cin):
                                    acc += x[b_i, yy, xx, ci] * w[dy, dx, ci, co]
                    out[b_i, y, xq, co] = acc + b[co]
    return out


def maxpool2_loops(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling with ceil semantics at odd edges."""
    n, h, w, c = x.shape
    h2 = (h + 1) // 2
    w2 = (w + 1) // 2
    out = np.full((n, h2, w2, c), -np.inf, dtype=np.float64)
    for b_i in range(n):
        for y in range(h):
            for xq in range(w):
                for ch in range(c):
                    oy, ox = y // 2, xq // 2
                    out[b_i, oy, ox, ch] = max(out[b_i, oy, ox, ch], x[b_i, y, xq, ch])
    return out


def maxout_loops(stack: np.ndarray) -> np.ndarray:
    """Elementwise max over the leading axis, by explicit iteration."""
    out = stack[0].astype(np.float64).copy()
    for s in range(1, stack.shape[0]):
        flat_out = out.reshape(-1)
        flat_s = stack[s].reshape(-1)
        for i in range(flat_out.size):
            if flat_s[i] > flat_out[i]:
                flat_out[i] = flat_s[i]
    return out


def global_pool_loops(x: np.ndarray, mode: str) -> np.ndarray:
    n, h, w, c = x.shape
    out = np.zeros((n, c), dtype=np.float64)
    for b_i in range(n):
        for ch in range(c):
            vals = [x[b_i, y, xq, ch] for y in range(h) for xq in range(w)]
            out[b_i, ch] = max(vals) if mode == "max" else sum(vals) / len(vals)
    return out


def round_best_phase_loops(coords: np.ndarray) -> tuple[np.ndarray, int]:
    """Best-phase rounding by scanning the 8x8 phases one at a time.

    Each phase shifts the origin-anchored coordinates by (tx, ty) in
    eighths (ty outer, tx inner), rounds every coordinate half away from
    zero, moves the minimum cell to 0 per axis and counts the distinct
    cells. The first phase with (fewest lost vertices, smallest bounding
    box) wins. Returns its cells and lost-vertex count.
    """
    n = coords.shape[0]
    lows = [min(float(coords[v, a]) for v in range(n)) for a in range(2)]
    best_cells, best_key = None, None
    for iy in range(8):
        for ix in range(8):
            shift = (ix / 8, iy / 8)
            cells = []
            for v in range(n):
                cell = []
                for a in range(2):
                    x = (float(coords[v, a]) - lows[a]) + shift[a]
                    cell.append(int(math.copysign(math.floor(abs(x) + 0.5), x)))
                cells.append(cell)
            for a in range(2):
                low = min(cell[a] for cell in cells)
                for cell in cells:
                    cell[a] -= low
            rows = max(cell[0] for cell in cells) + 1
            cols = max(cell[1] for cell in cells) + 1
            lost = n - len({(cell[0], cell[1]) for cell in cells})
            if best_key is None or (lost, rows * cols) < best_key:
                best_cells, best_key = cells, (lost, rows * cols)
    return np.array(best_cells, dtype=np.int64), best_key[0]
