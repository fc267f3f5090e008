"""Tests for the optimizer, cross-validation folds, and the training loop."""

import numpy as np
import pytest

from gpgl.errors import NonFiniteLossError
from gpgl.nn.layers import Param
from gpgl.nn.network import MsmCnn, NetworkConfig
from gpgl.nn.train import (
    Adam,
    evaluate,
    load_container_training_set,
    majority_vote,
    make_graph_folds,
    train,
)
from gpgl.tensor_io import ManifestEntry, manifest_path_for, write_container, write_manifest


def blob_corpus(n_graphs=16, layouts_per=2, side=6, noise=0.05, seed=0):
    """Separable two-class corpus: class c lights up channel c."""
    rng = np.random.default_rng(seed)
    tensors, labels, gids = [], [], []
    for gid in range(n_graphs):
        label = gid % 2
        for _ in range(layouts_per):
            t = rng.normal(0.0, noise, size=(side, side, 2)).astype(np.float32)
            t[:, :, label] += 1.0
            tensors.append(t)
            labels.append(label)
            gids.append(gid)
    return np.stack(tensors), np.array(labels), np.array(gids)


def small_config(**overrides):
    base = dict(
        conv_channels=(4,),
        fc_sizes=(8,),
        scales=2,
        dropout=0.0,
        learning_rate=0.01,
        batch_size=8,
        epochs=15,
        patience=15,
        seed=0,
    )
    base.update(overrides)
    return NetworkConfig(**base)


class TestNetworkConfig:
    """``NetworkConfig`` is the one place that checks the CNN's settings;
    the layers it configures do not check them again."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("scales", 0, "scales must be >= 1"),
            ("global_pool", "sum", "global_pool must be 'max' or 'mean'"),
            ("dropout", 1.0, r"dropout must be in \[0, 1\)"),
            ("dropout", -0.1, r"dropout must be in \[0, 1\)"),
            ("seed", -1, "^seed must be >= 0$"),
            ("seed", -(2**40), "^seed must be >= 0$"),
        ],
        ids=["scales", "global_pool", "dropout_one", "dropout_negative", "seed", "seed_large"],
    )
    def test_rejects_out_of_range(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            NetworkConfig(**{field: value})


class TestMajorityVote:
    def test_simple_majority(self):
        assert majority_vote(np.array([1, 1, 0])) == 1

    def test_tie_breaks_to_smallest(self):
        assert majority_vote(np.array([0, 1])) == 0
        assert majority_vote(np.array([2, 1, 1, 2])) == 1

    def test_single_vote(self):
        assert majority_vote(np.array([2])) == 2


class TestMakeGraphFolds:
    def test_partition(self):
        gids = np.repeat(np.arange(23), 3)
        folds = make_graph_folds(gids, 5, seed=1)
        assert len(folds) == 5
        combined = np.concatenate(folds)
        assert np.array_equal(np.sort(combined), np.arange(23))
        sizes = [f.size for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_and_seed_dependent(self):
        gids = np.arange(30)
        a = make_graph_folds(gids, 3, seed=5)
        b = make_graph_folds(gids, 3, seed=5)
        c = make_graph_folds(gids, 3, seed=6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            make_graph_folds(np.arange(4), 1, seed=0)
        with pytest.raises(ValueError):
            make_graph_folds(np.arange(4), 5, seed=0)


class TestAdam:
    def test_first_step_size_is_lr(self):
        p = Param(np.array([5.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([3.0])
        opt.step()
        assert p.value[0] == pytest.approx(5.0 - 0.1, abs=1e-6)

    def test_minimizes_quadratic(self):
        p = Param(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.grad = p.value.copy()
            opt.step()
        assert abs(p.value[0]) < 1e-2

    def test_zero_lr_freezes_params(self):
        p = Param(np.array([2.0, -3.0]))
        opt = Adam([p], lr=0.0)
        for _ in range(5):
            p.grad = np.array([10.0, -4.0])
            opt.step()
        assert np.array_equal(p.value, [2.0, -3.0])


class TestTrainingLoop:
    def test_separable_blobs_learned_within_50_epochs(self):
        tensors, labels, gids = blob_corpus()
        config = small_config()
        model = MsmCnn(2, 2, config)
        opt = Adam(model.params(), lr=config.learning_rate)
        accuracy = 0.0
        for _ in range(50):
            model.loss_and_grad(tensors, labels, train=True)
            opt.step()
            preds = evaluate(model, tensors, labels, gids)[3]
            accuracy = float(np.mean(preds == labels))
            if accuracy >= 0.99:
                break
        assert accuracy >= 0.99

    def test_zero_lr_keeps_untrained_predictions(self):
        tensors, labels, gids = blob_corpus(n_graphs=8)
        config = small_config(learning_rate=0.0, epochs=3)
        model = MsmCnn(2, 2, config)
        before = evaluate(model, tensors, labels, gids)[3]
        flat0 = model.get_flat_params().copy()
        opt = Adam(model.params(), lr=config.learning_rate)
        for _ in range(3):
            model.loss_and_grad(tensors, labels, train=True)
            opt.step()
        assert np.array_equal(model.get_flat_params(), flat0)
        assert np.array_equal(evaluate(model, tensors, labels, gids)[3], before)

    def test_cross_validation_end_to_end(self):
        tensors, labels, gids = blob_corpus()
        result = train(tensors, labels, gids, small_config(), n_folds=4)
        assert len(result.folds) == 4
        # Separable data: held-out accuracy should be essentially perfect.
        assert result.layout_accuracy >= 0.95
        assert result.graph_accuracy >= 0.95
        layout_hits = sum(f.layout_counts[0] for f in result.folds)
        layout_total = sum(f.layout_counts[1] for f in result.folds)
        assert layout_total == tensors.shape[0]
        assert result.layout_accuracy == pytest.approx(layout_hits / layout_total)
        graph_total = sum(f.graph_counts[1] for f in result.folds)
        assert graph_total == np.unique(gids).size
        for f in result.folds:
            assert 1 <= len(f.train_losses) <= 15
            assert len(f.val_losses) == len(f.train_losses)
            assert all(np.isfinite(v) for v in f.val_losses)

    def test_early_stopping_after_patience_stale_epochs(self):
        # At lr 0 the held-out loss never falls after epoch 0, so each
        # fold stops after 1 + patience of its 6 epochs.
        tensors, labels, gids = blob_corpus(n_graphs=8)
        config = small_config(learning_rate=0.0, patience=2, epochs=6)
        result = train(tensors, labels, gids, config, n_folds=2)
        for f in result.folds:
            assert len(f.train_losses) == len(f.val_losses) == 3
            assert f.best_epoch == 0

    def test_layouts_of_one_graph_stay_in_one_fold(self):
        tensors, labels, gids = blob_corpus(n_graphs=10)
        folds = make_graph_folds(gids, 5, seed=0)
        for fold_graphs in folds:
            member = np.isin(gids, fold_graphs)
            # Every layout of a member graph is in this fold's test split.
            for gid in fold_graphs:
                assert np.all(member[gids == gid])

    def test_deterministic_curves(self):
        tensors, labels, gids = blob_corpus(n_graphs=8)
        config = small_config(epochs=5)
        a = train(tensors, labels, gids, config, n_folds=2)
        b = train(tensors, labels, gids, config, n_folds=2)
        for fa, fb in zip(a.folds, b.folds):
            assert fa.train_losses == fb.train_losses
            assert fa.val_losses == fb.val_losses
        assert a.layout_accuracy == b.layout_accuracy
        assert a.graph_accuracy == b.graph_accuracy

    def test_divergence_reported_with_fold_and_epoch(self):
        tensors, labels, gids = blob_corpus(n_graphs=8)
        tensors[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteLossError, match=r"fold 0, epoch 0"):
            train(tensors, labels, gids, small_config(epochs=2), n_folds=2)

    def test_negative_labels_rejected(self):
        tensors, labels, gids = blob_corpus(n_graphs=4)
        labels[labels == 0] = -1
        with pytest.raises(ValueError, match="labels"):
            train(tensors, labels, gids, small_config(epochs=1), n_folds=2)

    def test_misaligned_inputs_rejected(self):
        tensors, labels, gids = blob_corpus(n_graphs=4)
        with pytest.raises(ValueError):
            train(tensors, labels[:-1], gids, small_config(), n_folds=2)

    def test_checkpoints_written(self, tmp_path):
        tensors, labels, gids = blob_corpus(n_graphs=6)
        result = train(
            tensors,
            labels,
            gids,
            small_config(epochs=2),
            n_folds=2,
            checkpoint_dir=tmp_path,
        )
        for fold in range(2):
            model, epoch = MsmCnn.load(tmp_path / f"fold{fold}.ckpt")
            assert epoch == result.folds[fold].best_epoch

    @pytest.mark.parametrize("epochs", [0, 6])
    def test_stored_counts_equal_fresh_evaluate_of_restored_model(self, tmp_path, epochs):
        # Noise that buries the signal: in two folds the best epoch is not
        # the last, and the last epoch scores other hits than the best.
        tensors, labels, gids = blob_corpus(n_graphs=12, noise=2.0, seed=1)
        config = small_config(epochs=epochs, learning_rate=0.05)
        result = train(tensors, labels, gids, config, n_folds=3, checkpoint_dir=tmp_path)
        folds = make_graph_folds(gids, 3, config.seed)
        for fold, test_graphs in zip(result.folds, folds):
            model, _ = MsmCnn.load(tmp_path / f"fold{fold.fold}.ckpt")
            test = np.isin(gids, test_graphs)
            _, layout_hits, graph_hits, _ = evaluate(model, tensors[test], labels[test], gids[test])
            assert fold.layout_counts == (layout_hits, int(test.sum()))
            assert fold.graph_counts == (graph_hits, test_graphs.size)
        if epochs:
            assert any(f.best_epoch < len(f.val_losses) - 1 for f in result.folds)


class TestEvaluate:
    def test_consistent_with_returned_predictions(self):
        tensors, labels, gids = blob_corpus(n_graphs=6)
        model = MsmCnn(2, 2, small_config())
        loss, layout_hits, graph_hits, preds = evaluate(model, tensors, labels, gids)
        assert np.isfinite(loss)
        assert preds.shape == (tensors.shape[0],)
        assert layout_hits == int(np.sum(preds == labels))
        correct = sum(
            majority_vote(preds[gids == gid]) == labels[gids == gid][0]
            for gid in np.unique(gids)
        )
        assert graph_hits == correct


class TestContainerTrainingSet:
    def test_round_trip(self, tmp_path):
        tensors, labels, gids = blob_corpus(n_graphs=4)
        path = tmp_path / "corpus.gt"
        write_container(path, tensors)
        entries = [
            ManifestEntry(graph_id=int(g), layout_seed=i, label=int(lab))
            for i, (g, lab) in enumerate(zip(gids, labels))
        ]
        write_manifest(manifest_path_for(path), entries)
        loaded, got_labels, got_gids = load_container_training_set(path)
        assert np.array_equal(loaded, tensors)
        assert np.array_equal(got_labels, labels)
        assert np.array_equal(got_gids, gids)

    def test_manifest_length_checked(self, tmp_path):
        tensors, labels, gids = blob_corpus(n_graphs=4)
        path = tmp_path / "corpus.gt"
        write_container(path, tensors)
        write_manifest(
            manifest_path_for(path), [ManifestEntry(0, 0, 0)]
        )
        with pytest.raises(ValueError, match="manifest"):
            load_container_training_set(path)
