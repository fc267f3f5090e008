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

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# Samples per forward pass when scoring a held-out fold.
_EVAL_BATCH = 32


class Adam:
    """Adam with bias correction; state arrays follow parameter dtype."""

    def __init__(self, params: list[Param], lr: float) -> None:
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        self.t += 1
        correction1 = 1.0 - _BETA1**self.t
        correction2 = 1.0 - _BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            update = (m / correction1) / (np.sqrt(v / correction2) + _EPS)
            p.value = p.value - self.lr * update


@dataclass(eq=False)
class FoldResult:
    """Outcome of one cross-validation fold; the counts are (hits, total)
    over the fold's test layouts and test graphs."""

    fold: int
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    layout_counts: tuple[int, int]
    graph_counts: tuple[int, int]

    @property
    def layout_accuracy(self) -> float:
        return self.layout_counts[0] / self.layout_counts[1]

    @property
    def graph_accuracy(self) -> float:
        return self.graph_counts[0] / self.graph_counts[1]

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

    @property
    def layout_accuracy(self) -> float:
        return _pooled([f.layout_counts for f in self.folds])

    @property
    def graph_accuracy(self) -> float:
        return _pooled([f.graph_counts for f in self.folds])

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "layout_accuracy": self.layout_accuracy,
            "graph_accuracy": self.graph_accuracy,
            "folds": [f.to_dict() for f in self.folds],
        }


def _pooled(counts: list[tuple[int, int]]) -> float:
    return sum(hits for hits, _ in counts) / sum(total for _, total in counts)


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
) -> tuple[float, int, int, np.ndarray]:
    """Score ``model`` in inference mode (no dropout, no layer caches).

    Returns (mean loss, layout hits, graph hits, predicted labels). The
    tensors are scored in batches of 32 in their given order. A layout
    hits when its prediction equals its label; a graph hits when the
    ``majority_vote`` of its layouts' predictions does.
    """
    losses = []
    preds = []
    for start in range(0, tensors.shape[0], _EVAL_BATCH):
        x = tensors[start : start + _EVAL_BATCH]
        y = labels[start : start + _EVAL_BATCH]
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
    held_out = (tensors[test_idx], labels[test_idx], graph_ids[test_idx])
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
        val_loss, layout_hits, graph_hits, _ = evaluate(model, *held_out)
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
        best_hits = evaluate(model, *held_out)[1:3]
    layout_hits, graph_hits = best_hits
    result = FoldResult(
        fold=fold,
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
    checkpoint_dir: str | Path | None = None,
) -> TrainResult:
    """Run n-fold cross-validation over a tensor corpus.

    Folds split the distinct ``graph_ids`` (``make_graph_folds``), and
    the network has ``max(labels) + 1`` classes. The held-out fold
    doubles as the early-stopping validation set: a fold stops after
    ``config.patience`` epochs in which the held-out loss fell by no
    more than 1e-6, and the parameters from the best-loss epoch are
    restored and scored. With a ``checkpoint_dir``, each fold's restored
    model is saved there as ``fold{i}.ckpt``. Deterministic for fixed
    inputs and config.
    """
    tensors = np.asarray(tensors, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    graph_ids = np.asarray(graph_ids, dtype=np.int64)
    if not tensors.shape[0] == labels.shape[0] == graph_ids.shape[0]:
        raise ValueError("tensors, labels and graph_ids must align")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative")
    num_classes = int(labels.max()) + 1
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
    return TrainResult(config=config, folds=results)


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
