"""The multi-scale maxout CNN and its checkpoint format."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ..tensor_io import read_framed, write_framed
from . import ops
from .layers import Dense, Dropout, GlobalPool, MaxPool2, MsmConv, Param, ReLU

__all__ = ["NetworkConfig", "MsmCnn"]

_CHECKPOINT_FORMAT = "gpgl-checkpoint"


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and training hyperparameters.

    The default stack is MSM-Conv(64) - pool/2 - MSM-Conv(128) - pool/2 -
    MSM-Conv(256) - global pool - FC(256) - FC(128) - FC(classes), with
    ReLU and dropout after the hidden FC layers only.
    """

    conv_channels: tuple[int, ...] = (64, 128, 256)
    fc_sizes: tuple[int, ...] = (256, 128)
    scales: int = 3
    global_pool: str = "max"
    dropout: float = 0.3
    learning_rate: float = 1e-4
    batch_size: int = 10
    epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "conv_channels", tuple(int(c) for c in self.conv_channels))
        object.__setattr__(self, "fc_sizes", tuple(int(c) for c in self.fc_sizes))
        if not self.conv_channels or any(c < 1 for c in self.conv_channels):
            raise ValueError("conv_channels must be positive and non-empty")
        if any(c < 1 for c in self.fc_sizes):
            raise ValueError("fc_sizes must be positive")
        if self.scales < 1:
            raise ValueError(f"scales must be >= 1, got {self.scales}")
        if self.global_pool not in ("max", "mean"):
            raise ValueError(f"global_pool must be 'max' or 'mean', got {self.global_pool!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1 or self.epochs < 0 or self.patience < 1:
            raise ValueError("batch_size, epochs, patience out of range")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class MsmCnn:
    """Feedforward network over grid tensors.

    Built from a seeded generator so two instances with equal
    ``(in_channels, num_classes, config)`` start from identical weights.
    ``dtype`` defaults to float32 for training; float64 is used by the
    finite-difference gradient checks.
    """

    def __init__(
        self,
        in_channels: int,
        num_classes: int,
        config: NetworkConfig,
        dtype: np.dtype = np.float32,
    ) -> None:
        if in_channels < 1 or num_classes < 2:
            raise ValueError("need in_channels >= 1 and num_classes >= 2")
        self.in_channels = in_channels
        self.num_classes = num_classes
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(config.seed)
        # Dropout draws from its own stream so evaluation passes, which
        # skip dropout, cannot shift the weight-init reproducibility.
        self._dropout_rng = np.random.default_rng(config.seed + 1)

        layers: list = []
        c_prev = in_channels
        for i, c in enumerate(config.conv_channels):
            layers.append(MsmConv(c_prev, c, config.scales, rng, dtype))
            if i < len(config.conv_channels) - 1:
                layers.append(MaxPool2())
            c_prev = c
        layers.append(GlobalPool(config.global_pool))
        d_prev = c_prev
        for d in config.fc_sizes:
            layers.append(Dense(d_prev, d, rng, dtype))
            layers.append(ReLU())
            layers.append(Dropout(config.dropout, self._dropout_rng))
            d_prev = d
        layers.append(Dense(d_prev, num_classes, rng, dtype))
        self.layers = layers
        self._params = [p for layer in layers for p in layer.params()]

    def params(self) -> list[Param]:
        return self._params

    @property
    def num_params(self) -> int:
        return sum(p.value.size for p in self._params)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Logits for a batch; ``train=True`` applies dropout and keeps the
        layer caches ``backward`` needs, ``train=False`` does neither."""
        return self._forward(x, dropout=train, cache=train)

    def _forward(self, x: np.ndarray, dropout: bool, cache: bool) -> np.ndarray:
        h = np.asarray(x, dtype=self.dtype)
        for layer in self.layers:
            h = layer.forward(h, dropout if isinstance(layer, Dropout) else cache)
        return h

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)
        return d

    def loss_and_grad(
        self, x: np.ndarray, labels: np.ndarray, train: bool = True
    ) -> float:
        """One forward/backward pass; gradients land in ``params()``.

        ``train`` switches dropout; with ``train=False`` the gradients are
        those of the inference-mode loss.
        """
        logits = self._forward(x, dropout=train, cache=True)
        loss, dlogits = ops.softmax_cross_entropy(logits, labels)
        self.backward(dlogits)
        return loss

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([p.value.ravel() for p in self._params])

    def set_flat_params(self, flat: np.ndarray) -> None:
        if flat.size != self.num_params:
            raise ValueError(f"expected {self.num_params} values, got {flat.size}")
        offset = 0
        for p in self._params:
            size = p.value.size
            p.value = flat[offset : offset + size].reshape(p.value.shape).astype(
                self.dtype
            )
            offset += size

    def get_flat_grads(self) -> np.ndarray:
        return np.concatenate([p.grad.ravel() for p in self._params])

    def save(self, path: str | Path, epoch: int = 0) -> None:
        """Write a checkpoint: JSON header line, then the parameter
        arrays as raw little-endian float32 in declaration order."""
        header = {
            "format": _CHECKPOINT_FORMAT,
            "version": 1,
            "in_channels": self.in_channels,
            "num_classes": self.num_classes,
            "epoch": epoch,
            "config": asdict(self.config),
        }
        write_framed(path, header, (p.value for p in self._params))

    @classmethod
    def load(cls, path: str | Path) -> tuple["MsmCnn", int]:
        """Rebuild a network from a checkpoint; returns (model, epoch)."""
        header, payload = read_framed(path)
        if header.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"not a {_CHECKPOINT_FORMAT} file")
        for name in ("in_channels", "num_classes", "epoch"):
            value = header.get(name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"checkpoint field {name!r} must be an integer, got {value!r}")
        config = header.get("config")
        names = {f.name for f in fields(NetworkConfig)}
        if not isinstance(config, dict) or set(config) != names:
            raise ValueError(f"checkpoint field 'config' must be an object with keys {sorted(names)}")
        try:
            config = NetworkConfig(**config)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint field 'config': {exc}") from exc
        model = cls(header["in_channels"], header["num_classes"], config)
        expected = model.num_params * 4
        if len(payload) != expected:
            raise ValueError(f"payload is {len(payload)} bytes, expected {expected}")
        model.set_flat_params(np.frombuffer(payload, dtype="<f4"))
        return model, int(header["epoch"])
