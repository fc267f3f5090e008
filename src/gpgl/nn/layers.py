"""Layer objects wiring the ops into a trainable stack.

Each layer caches what its backward pass needs during a forward pass
with ``train=True`` and releases the cache afterwards; no cache is
larger than the layer's input. A convolution keeps its input and its
backward rebuilds the 9x wider im2col matrix from it. A forward pass
with ``train=False`` keeps nothing, and convolves in sample blocks whose
im2col matrix stays under a fixed size. Parameters use assignment
semantics: backward overwrites ``Param.grad``, it does not accumulate.
"""

from __future__ import annotations

import numpy as np

from . import ops

__all__ = [
    "Param",
    "Conv3x3",
    "MsmConv",
    "MaxPool2",
    "GlobalPool",
    "Dense",
    "ReLU",
    "Dropout",
]


class Param:
    """A weight array plus its current gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray) -> None:
        self.value = value
        self.grad = np.zeros_like(value)


class Conv3x3:
    """Single 3x3 same-padded convolution, Kaiming fan-in init."""

    def __init__(
        self,
        cin: int,
        cout: int,
        rng: np.random.Generator,
        dtype: np.dtype = np.float32,
    ) -> None:
        std = np.sqrt(2.0 / (9 * cin))
        self.w = Param(rng.normal(0.0, std, (3, 3, cin, cout)).astype(dtype))
        self.b = Param(np.zeros(cout, dtype=dtype))
        self._x: np.ndarray | None = None

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        self._x = x if train else None
        n, h, wd, cin = x.shape
        blocks = ops.sample_blocks(n, h * wd * 9 * cin)
        if train or len(blocks) < 2:
            return ops.conv2d_forward(x, self.w.value, self.b.value)[0]
        out = np.empty((n, h, wd, self.b.value.size), np.result_type(x, self.w.value))
        for start, stop in blocks:
            # Indexing drops the block's im2col before the next is built.
            out[start:stop] = ops.conv2d_forward(x[start:stop], self.w.value, self.b.value)[0]
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        cols = ops.im2col(self._x, self.w.value.shape[0])
        dx, self.w.grad, self.b.grad = ops.conv2d_backward(
            dout, cols, self.w.value, self._x.shape
        )
        self._x = None
        return dx


class MsmConv:
    """Multi-scale maxout convolution block.

    Branch s (s = 0..scales-1) chains s+1 plain 3x3 convolutions, so the
    branches see receptive fields of radius 1..scales; the block output
    is the elementwise max over branches. The convolutions are purely
    linear: maxout is the only nonlinearity in the block, so on any
    element the block output equals the dominating branch's output.
    """

    def __init__(
        self,
        cin: int,
        cout: int,
        scales: int,
        rng: np.random.Generator,
        dtype: np.dtype = np.float32,
    ) -> None:
        self.branches: list[list[Conv3x3]] = []
        for s in range(scales):
            chain = []
            c_prev = cin
            for _ in range(s + 1):
                chain.append(Conv3x3(c_prev, cout, rng, dtype))
                c_prev = cout
            self.branches.append(chain)
        self._winner: np.ndarray | None = None

    def params(self) -> list[Param]:
        return [p for chain in self.branches for conv in chain for p in conv.params()]

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        # The first conv of every branch keeps the same input array. Each
        # branch is folded into the running max as soon as it is done,
        # so no two finished branch outputs are alive at once.
        running = None
        for s, chain in enumerate(self.branches):
            h = x
            for conv in chain:
                h = conv.forward(h, train)
            running = ops.maxout_forward([h], train, running, start=s)
        out, self._winner = running
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx = None
        for s, chain in enumerate(self.branches):
            d = ops.maxout_backward(dout, self._winner, s)
            for conv in reversed(chain):
                d = conv.backward(d)
            if dx is None:
                dx = d
            else:
                dx += d  # no layer caches a returned input gradient
        self._winner = None
        return dx


class MaxPool2:
    def __init__(self) -> None:
        self._idx: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        out, idx = ops.maxpool2_forward(x)
        self._idx = idx if train else None
        self._x_shape = x.shape
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx = ops.maxpool2_backward(dout, self._idx, self._x_shape)
        self._idx = None
        return dx


class GlobalPool:
    def __init__(self, mode: str) -> None:
        self.mode = mode
        self._cache: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        out, cache = ops.global_pool_forward(x, self.mode)
        self._cache = cache if train else None
        self._x_shape = x.shape
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx = ops.global_pool_backward(dout, self._cache, self._x_shape, self.mode)
        self._cache = None
        return dx


class Dense:
    def __init__(
        self,
        din: int,
        dout: int,
        rng: np.random.Generator,
        dtype: np.dtype = np.float32,
    ) -> None:
        std = np.sqrt(2.0 / din)
        self.w = Param(rng.normal(0.0, std, (din, dout)).astype(dtype))
        self.b = Param(np.zeros(dout, dtype=dtype))
        self._x: np.ndarray | None = None

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        out, cache = ops.dense_forward(x, self.w.value, self.b.value)
        self._x = cache if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx, self.w.grad, self.b.grad = ops.dense_backward(dout, self._x, self.w.value)
        self._x = None
        return dx


class ReLU:
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        out, mask = ops.relu_forward(x)
        self._mask = mask if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx = ops.relu_backward(dout, self._mask)
        self._mask = None
        return dx


class Dropout:
    """Inverted dropout; the identity when rate is 0 or train is False."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = rate
        self._rng = rng
        self._mask: np.ndarray | None = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        out, self._mask = ops.dropout_forward(x, self.rate, self._rng)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        dx = dout * self._mask
        self._mask = None
        return dx
