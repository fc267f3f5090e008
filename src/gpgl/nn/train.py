"""Cross-validated training with Adam and graph-level voting.

Folds are drawn over source graphs, never over individual layouts:
augmented layouts of one graph always share a fold, so the test score is
not inflated by near-duplicate images of training graphs. At test time
each graph's layouts vote and the majority label is the graph
prediction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import NonFiniteLossError
from ..tensor_io import manifest_path_for, read_container, read_manifest
from . import ops
from .layers import Param
from .network import MsmCnn, NetworkConfig

__all__ = [
    "Adam",
    "FoldResult",
    "TrainResult",
    "make_graph_folds",
    "majority_vote",
    "evaluate",
    "train",
    "load_container_training_set",
]


class Adam:
    """Adam with bias correction; state arrays follow parameter dtype."""

    def __init__(
        self,
        params: list[Param],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / correction1) / (np.sqrt(v / correction2) + self.eps)
            p.value = p.value - self.lr * update


@dataclass(eq=False)
class FoldResult:
    """Outcome of one cross-validation fold."""

    fold: int
    layout_accuracy: float
    graph_accuracy: float
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    layout_counts: tuple[int, int]
    graph_counts: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "layout_accuracy": self.layout_accuracy,
            "graph_accuracy": self.graph_accuracy,
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "best_epoch": self.best_epoch,
        }


@dataclass(eq=False)
class TrainResult:
    """Aggregate over all folds; accuracies are pooled counts, not fold
    means, so every graph weighs equally."""

    config: NetworkConfig
    folds: list[FoldResult]
    layout_accuracy: float
    graph_accuracy: float

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "layout_accuracy": self.layout_accuracy,
            "graph_accuracy": self.graph_accuracy,
            "folds": [f.to_dict() for f in self.folds],
        }


def make_graph_folds(
    graph_ids: np.ndarray, n_folds: int, seed: int
) -> list[np.ndarray]:
    """Split the distinct graph ids into n_folds near-equal parts."""
    unique = np.unique(np.asarray(graph_ids))
    if not 2 <= n_folds <= unique.size:
        raise ValueError(
            f"n_folds must be in [2, {unique.size}], got {n_folds}"
        )
    perm = np.random.default_rng(seed).permutation(unique)
    return [np.sort(chunk) for chunk in np.array_split(perm, n_folds)]


def majority_vote(predictions: np.ndarray) -> int:
    """Most frequent label; ties break to the smallest label."""
    votes = np.bincount(np.asarray(predictions, dtype=np.int64))
    return int(votes.argmax())


def evaluate(
    model: MsmCnn,
    tensors: np.ndarray,
    labels: np.ndarray,
    graph_ids: np.ndarray,
    batch_size: int = 32,
) -> tuple[float, int, int, np.ndarray]:
    """Returns (mean loss, layout hits, graph hits, predictions).

    A layout hits when its prediction equals its label; a graph hits
    when the majority vote of its layouts' predictions does.
    """
    losses = []
    preds = []
    for start in range(0, tensors.shape[0], batch_size):
        x = tensors[start : start + batch_size]
        y = labels[start : start + batch_size]
        logits = model.forward(x, train=False)
        loss, _ = ops.softmax_cross_entropy(logits, y)
        losses.append(loss * x.shape[0])
        preds.append(logits.argmax(axis=1))
    preds = np.concatenate(preds)
    mean_loss = float(sum(losses) / tensors.shape[0])
    layout_hits = int(np.sum(preds == labels))
    graph_hits = 0
    for gid in np.unique(graph_ids):
        member = graph_ids == gid
        if majority_vote(preds[member]) == labels[member][0]:
            graph_hits += 1
    return mean_loss, layout_hits, graph_hits, preds


def _train_one_fold(
    fold: int,
    tensors: np.ndarray,
    labels: np.ndarray,
    graph_ids: np.ndarray,
    test_graphs: np.ndarray,
    config: NetworkConfig,
    num_classes: int,
) -> tuple[FoldResult, MsmCnn]:
    is_test = np.isin(graph_ids, test_graphs)
    train_idx = np.flatnonzero(~is_test)
    test_idx = np.flatnonzero(is_test)
    # Distinct seed per fold so fold models do not share initial weights.
    model = MsmCnn(
        tensors.shape[3], num_classes, replace(config, seed=config.seed + fold)
    )
    optimizer = Adam(model.params(), lr=config.learning_rate)
    batch_rng = np.random.default_rng((config.seed, fold))

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_params = model.get_flat_params()
    best_epoch = 0
    best_hits = None
    stale = 0
    for epoch in range(config.epochs):
        order = batch_rng.permutation(train_idx)
        epoch_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss = model.loss_and_grad(tensors[batch], labels[batch], train=True)
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"training loss diverged at fold {fold}, epoch {epoch}"
                )
            optimizer.step()
            epoch_loss += loss * batch.size
        train_losses.append(epoch_loss / order.size)
        val_loss, layout_hits, graph_hits, _ = evaluate(
            model, tensors[test_idx], labels[test_idx], graph_ids[test_idx]
        )
        val_losses.append(val_loss)
        if val_loss < best_val - 1e-6:
            best_val = val_loss
            best_params = model.get_flat_params()
            best_epoch = epoch
            best_hits = (layout_hits, graph_hits)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    # The restored weights were scored at the best epoch; only when no
    # epoch ran, or none beat the initial weights, are they scored here.
    model.set_flat_params(best_params)
    if best_hits is None:
        best_hits = evaluate(
            model, tensors[test_idx], labels[test_idx], graph_ids[test_idx]
        )[1:3]
    layout_hits, graph_hits = best_hits
    result = FoldResult(
        fold=fold,
        layout_accuracy=layout_hits / test_idx.size,
        graph_accuracy=graph_hits / test_graphs.size,
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        layout_counts=(layout_hits, test_idx.size),
        graph_counts=(graph_hits, test_graphs.size),
    )
    return result, model


def train(
    tensors: np.ndarray,
    labels: np.ndarray,
    graph_ids: np.ndarray,
    config: NetworkConfig,
    n_folds: int = 10,
    num_classes: int | None = None,
    checkpoint_dir: str | Path | None = None,
) -> TrainResult:
    """Run n-fold cross-validation over a tensor corpus.

    The held-out fold doubles as the early-stopping validation set; the
    parameters from its best-loss epoch are restored before scoring.
    Deterministic for fixed inputs and config.
    """
    tensors = np.asarray(tensors, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    graph_ids = np.asarray(graph_ids, dtype=np.int64)
    if not tensors.shape[0] == labels.shape[0] == graph_ids.shape[0]:
        raise ValueError("tensors, labels and graph_ids must align")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    folds = make_graph_folds(graph_ids, n_folds, config.seed)
    results = []
    for fold, test_graphs in enumerate(folds):
        result, model = _train_one_fold(
            fold, tensors, labels, graph_ids, test_graphs, config, num_classes
        )
        results.append(result)
        if checkpoint_dir is not None:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            model.save(
                Path(checkpoint_dir) / f"fold{fold}.ckpt", epoch=result.best_epoch
            )
    layout_hits = sum(r.layout_counts[0] for r in results)
    layout_total = sum(r.layout_counts[1] for r in results)
    graph_hits = sum(r.graph_counts[0] for r in results)
    graph_total = sum(r.graph_counts[1] for r in results)
    return TrainResult(
        config=config,
        folds=results,
        layout_accuracy=layout_hits / layout_total,
        graph_accuracy=graph_hits / graph_total,
    )


def load_container_training_set(
    path: str | Path,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a tensor container plus manifest as (tensors, labels, graph_ids)."""
    tensors, _ = read_container(path)
    entries = read_manifest(manifest_path_for(path))
    if len(entries) != tensors.shape[0]:
        raise ValueError(
            f"manifest has {len(entries)} entries for {tensors.shape[0]} tensors"
        )
    labels = np.array([e.label for e in entries], dtype=np.int64)
    graph_ids = np.array([e.graph_id for e in entries], dtype=np.int64)
    return tensors, labels, graph_ids
