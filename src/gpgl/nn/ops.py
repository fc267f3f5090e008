"""Numpy forward/backward primitives for the grid CNN.

All image tensors are ``(N, H, W, C)`` with the channel axis last, the
layout of the grid-tensor container. Convolution is cross-correlation
(no kernel flip) with stride 1 and zero same-padding, lowered to one
matrix product per call via ``im2col``. A convolution's backward takes
the im2col matrix of its input, which the caller may rebuild from the
input instead of keeping it. Every other forward returns the cache its
backward needs; dtypes follow the input so the same code runs in float32
for training and float64 for finite-difference checks.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "im2col",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2_forward",
    "maxpool2_backward",
    "global_pool_forward",
    "global_pool_backward",
    "maxout_forward",
    "maxout_backward",
    "relu_forward",
    "relu_backward",
    "dropout_forward",
    "dense_forward",
    "dense_backward",
    "softmax_cross_entropy",
]


def im2col(x: np.ndarray, k: int) -> np.ndarray:
    """The ``(N*H*W, k*k*Cin)`` patch matrix of a same-padded ``k``x``k``
    window over ``x`` ``(N, H, W, Cin)``, columns in ``(dy, dx, c)`` order
    to match ``w.reshape(k*k*Cin, Cout)``."""
    n, h, wd, cin = x.shape
    pad = k // 2
    xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, cin), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + wd, :] = x
    # (n, h, wd, cin, dy, dx) view -> (n, h, wd, dy, dx, cin); the
    # reshape is the one copy.
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * wd, k * k * cin)


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded stride-1 convolution.

    ``x`` is ``(N, H, W, Cin)``, ``w`` is ``(k, k, Cin, Cout)`` with odd
    k, ``b`` is ``(Cout,)``. Returns ``(out, cols)`` where ``cols`` is
    the ``(N*H*W, k*k*Cin)`` im2col matrix of ``x``; ``conv2d_backward``
    takes it or an equal ``im2col(x, k)``.
    """
    n, h, wd, cin = x.shape
    k = w.shape[0]
    cols = im2col(x, k)
    out = cols @ w.reshape(k * k * cin, -1)
    out += b
    return out.reshape(n, h, wd, -1), cols


def conv2d_backward(
    dout: np.ndarray,
    cols: np.ndarray,
    w: np.ndarray,
    x_shape: tuple[int, int, int, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward: returns ``(dx, dw, db)``."""
    n, h, wd, cin = x_shape
    k = w.shape[0]
    cout = w.shape[3]
    pad = k // 2
    dmat = dout.reshape(-1, cout)
    dw = (cols.T @ dmat).reshape(w.shape)
    db = dmat.sum(axis=0)
    dcols = (dmat @ w.reshape(-1, cout).T).reshape(n, h, wd, k * k, cin)
    dxp = np.zeros((n, h + 2 * pad, wd + 2 * pad, cin), dtype=dout.dtype)
    i = 0
    for dy in range(k):
        for dx in range(k):
            dxp[:, dy : dy + h, dx : dx + wd, :] += dcols[:, :, :, i, :]
            i += 1
    return dxp[:, pad : pad + h, pad : pad + wd, :], dw, db


def maxpool2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 stride-2 max pooling, odd edges padded with -inf.

    Returns ``(out, idx)``; idx holds each window's winning slot (0..3,
    ties to the first) for gradient routing.
    """
    n, h, w, c = x.shape
    h2 = -(-h // 2)
    w2 = -(-w // 2)
    if (h, w) != (2 * h2, 2 * w2):
        xp = np.full((n, 2 * h2, 2 * w2, c), -np.inf, dtype=x.dtype)
        xp[:, :h, :w, :] = x
    else:
        xp = x
    win = (
        xp.reshape(n, h2, 2, w2, 2, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n, h2, w2, 4, c)
    )
    idx = win.argmax(axis=3)
    out = np.take_along_axis(win, idx[:, :, :, None, :], axis=3).squeeze(3)
    return out, idx


def maxpool2_backward(
    dout: np.ndarray, idx: np.ndarray, x_shape: tuple[int, int, int, int]
) -> np.ndarray:
    n, h, w, c = x_shape
    h2, w2 = dout.shape[1], dout.shape[2]
    dwin = np.zeros((n, h2, w2, 4, c), dtype=dout.dtype)
    np.put_along_axis(dwin, idx[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dxp = (
        dwin.reshape(n, h2, w2, 2, 2, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n, 2 * h2, 2 * w2, c)
    )
    return dxp[:, :h, :w, :]


def global_pool_forward(
    x: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """Collapse the spatial grid to ``(N, C)`` by max or mean."""
    n, h, w, c = x.shape
    flat = x.reshape(n, h * w, c)
    if mode == "max":
        idx = flat.argmax(axis=1)
        out = np.take_along_axis(flat, idx[:, None, :], axis=1).reshape(n, c)
        return out, idx
    if mode == "mean":
        return flat.mean(axis=1), None
    raise ValueError(f"mode must be 'max' or 'mean', got {mode!r}")


def global_pool_backward(
    dout: np.ndarray,
    idx: np.ndarray | None,
    x_shape: tuple[int, int, int, int],
    mode: str,
) -> np.ndarray:
    n, h, w, c = x_shape
    if mode == "max":
        dflat = np.zeros((n, h * w, c), dtype=dout.dtype)
        np.put_along_axis(dflat, idx[:, None, :], dout[:, None, :], axis=1)
        return dflat.reshape(n, h, w, c)
    return np.repeat(dout[:, None, :] / (h * w), h * w, axis=1).reshape(n, h, w, c)


def maxout_forward(
    branches: Sequence[np.ndarray], train: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Elementwise max over a sequence of equal-shape branch outputs.

    Returns ``(out, winner)``. With ``train`` winner records the branch
    index per element, ties resolved to the lowest index; without it
    winner is None.
    """
    out = np.array(branches[0])
    winner = np.zeros(out.shape, np.min_scalar_type(len(branches) - 1)) if train else None
    for s in range(1, len(branches)):
        branch = branches[s]
        if train:
            np.copyto(winner, s, where=branch > out)
        # On a tie np.maximum returns its second operand, so an equal
        # later branch (-0.0 against +0.0 included) never replaces out.
        np.maximum(branch, out, out=out)
    return out, winner


def maxout_backward(
    dout: np.ndarray, winner: np.ndarray, scales: int
) -> np.ndarray:
    """Route ``dout`` to each element's winning branch: returns the
    ``(scales,) + dout.shape`` branch gradients, zero where a branch
    lost."""
    branch = np.arange(scales, dtype=winner.dtype).reshape((scales,) + (1,) * winner.ndim)
    return np.where(winner == branch, dout, 0)


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = x > 0
    return x * mask, mask


def relu_backward(dout: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dout * mask


def dropout_forward(
    x: np.ndarray, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: kept units are scaled by 1/(1-rate) so the
    inference path needs no rescaling. Call only in training mode."""
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dense_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    return x @ w + b, x


def dense_backward(
    dout: np.ndarray, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return dout @ w.T, x.T @ dout, dout.sum(axis=0)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its logit gradient.

    Computed through the log-sum-exp identity after subtracting the row
    max, which keeps the loss finite for any logit magnitude.
    """
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    logsumexp = np.log(expz.sum(axis=1))
    loss = float(np.mean(logsumexp - z[np.arange(n), labels]))
    dlogits = expz / expz.sum(axis=1, keepdims=True)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits.astype(logits.dtype, copy=False)
