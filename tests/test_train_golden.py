"""Golden training run: the results and weights of a fixed run never move.

One seeded cross-validation run at ``scales=3`` with dropout on, 2 folds
of 3 epochs, on 32x32 inputs. Each fold's test split of 12 samples is
evaluated as one batch, so the 64-channel convolutions of inference run
in two blocks of 8 samples, the second overlapping the first. Both folds
restore an earlier epoch. The digests pin ``to_dict()`` of the result
and the restored parameters of every fold. They were recorded
before the convolutions stopped caching their im2col matrices, so a
memory refactor of the CNN that changes any float of training or
evaluation shows up here as a changed digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from gpgl.nn.network import MsmCnn, NetworkConfig
from gpgl.nn.train import train

GOLDEN_RESULT = "5493a4a8816d9ef1a0ab7689c26b7f19b9168a7b5cfcc6d4eaa4bee628f485f2"
GOLDEN_FOLD_PARAMS = (
    "26367410313966cd400eb93fd64dd54404cdf73b78d4c9b95532e6b04ccfe8ac",
    "b59aca2c1b2c44a7f817365ec8634b7123b68c7e560267ebe5928fd8b764cbe2",
)


def golden_corpus():
    """12 graphs x 2 layouts of sparse 32x32x3 grids; the label decides
    which channel carries the vertex feature."""
    rng = np.random.default_rng(2024)
    tensors, labels, gids = [], [], []
    for gid in range(12):
        label = gid % 2
        for _ in range(2):
            t = np.zeros((32, 32, 3), dtype=np.float32)
            cells = rng.integers(0, 12, size=(8, 2))
            t[cells[:, 0], cells[:, 1], 2] = 1.0
            t[cells[:, 0], cells[:, 1], label] = rng.uniform(0.5, 1.5, size=8)
            tensors.append(t)
            labels.append(label)
            gids.append(gid)
    return np.stack(tensors), np.array(labels), np.array(gids)


def golden_config():
    return NetworkConfig(
        conv_channels=(64, 8),
        fc_sizes=(8,),
        scales=3,
        dropout=0.3,
        learning_rate=0.001,
        batch_size=10,
        epochs=3,
        patience=4,
        seed=5,
    )


def test_training_matches_golden(tmp_path):
    tensors, labels, gids = golden_corpus()
    result = train(tensors, labels, gids, golden_config(), n_folds=2, checkpoint_dir=tmp_path)
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_RESULT
    for fold, golden in enumerate(GOLDEN_FOLD_PARAMS):
        model, _ = MsmCnn.load(tmp_path / f"fold{fold}.ckpt")
        flat = np.ascontiguousarray(model.get_flat_params(), dtype="<f4")
        assert hashlib.sha256(flat.tobytes()).hexdigest() == golden, f"fold {fold}"
