"""Gradient checks: every backward pass against central finite differences."""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgl.nn.network import MsmCnn, NetworkConfig
from gpgl.nn.ops import (
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    global_pool_backward,
    global_pool_forward,
    maxout_backward,
    maxout_forward,
    maxpool2_backward,
    maxpool2_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)


def _fd(fn, arr, h=1e-6):
    """Central finite differences of a scalar function of ``arr``."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn()
        flat[i] = orig - h
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def _close(analytic, numeric, rel=1e-5):
    denom = np.maximum(np.abs(numeric), 1.0)
    return np.max(np.abs(analytic - numeric) / denom) < rel


class TestOpGradients:
    def test_conv2d(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 5, 3))
        w = rng.normal(size=(3, 3, 3, 2))
        b = rng.normal(size=2)
        r = rng.normal(size=(2, 4, 5, 2))

        def value():
            out, _ = conv2d_forward(x, w, b)
            return float((out * r).sum())

        out, cols = conv2d_forward(x, w, b)
        dx, dw, db = conv2d_backward(r, cols, w, x.shape)
        assert _close(dx, _fd(value, x))
        assert _close(dw, _fd(value, w))
        assert _close(db, _fd(value, b))

    def test_maxpool2(self):
        rng = np.random.default_rng(1)
        for h, w in [(4, 4), (5, 3)]:
            x = rng.normal(size=(2, h, w, 2))
            out, idx = maxpool2_forward(x)
            r = rng.normal(size=out.shape)

            def value():
                o, _ = maxpool2_forward(x)
                return float((o * r).sum())

            dx = maxpool2_backward(r, idx, x.shape)
            assert _close(dx, _fd(value, x))

    def test_global_pool(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 4, 5))
        for mode in ("max", "mean"):
            out, idx = global_pool_forward(x, mode)
            r = rng.normal(size=out.shape)

            def value():
                o, _ = global_pool_forward(x, mode)
                return float((o * r).sum())

            dx = global_pool_backward(r, idx, x.shape, mode)
            assert _close(dx, _fd(value, x))

    def test_maxout_routes_to_winner_only(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(3, 2, 3, 3, 2))
        out, winner = maxout_forward(stack)
        dout = rng.normal(size=out.shape)
        dstack = np.stack([maxout_backward(dout, winner, s) for s in range(3)])
        for s in range(3):
            won = winner == s
            assert np.array_equal(dstack[s][won], dout[won])
            assert np.all(dstack[s][~won] == 0.0)
        # The full upstream gradient is distributed, none lost.
        assert np.allclose(dstack.sum(axis=0), dout)

    def test_maxout_fd(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(3, 1, 4, 4, 2))
        out, winner = maxout_forward(stack)
        r = rng.normal(size=out.shape)

        def value():
            o, _ = maxout_forward(stack)
            return float((o * r).sum())

        dstack = np.stack([maxout_backward(r, winner, s) for s in range(3)])
        assert _close(dstack, _fd(value, stack))

    def test_dense(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=(4, 3))

        def value():
            out, _ = dense_forward(x, w, b)
            return float((out * r).sum())

        _, cache = dense_forward(x, w, b)
        dx, dw, db = dense_backward(r, cache, w)
        assert _close(dx, _fd(value, x))
        assert _close(dw, _fd(value, w))
        assert _close(db, _fd(value, b))

    def test_relu(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 7)) + 0.05  # keep away from the kink
        out, mask = relu_forward(x)
        r = rng.normal(size=out.shape)

        def value():
            o, _ = relu_forward(x)
            return float((o * r).sum())

        dx = relu_backward(r, mask)
        assert _close(dx, _fd(value, x))

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)

        def value():
            loss, _ = softmax_cross_entropy(logits, labels)
            return loss

        _, dlogits = softmax_cross_entropy(logits, labels)
        assert _close(dlogits, _fd(value, logits))


def _network_fd_check(
    model, x, labels, coords_per_block=None, h=1e-4, rel=1e-3, train=True
):
    """Compare analytic parameter gradients with central differences of
    the inference-mode loss."""
    model.loss_and_grad(x, labels, train=train)
    analytic = model.get_flat_grads().copy()
    flat0 = model.get_flat_params().astype(np.float64)

    def loss_at(flat):
        model.set_flat_params(flat)
        logits = model.forward(x, train=False)
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss

    if coords_per_block is None:
        indices = np.arange(flat0.size)
    else:
        rng = np.random.default_rng(0)
        blocks = []
        offset = 0
        for p in model.params():
            size = p.value.size
            take = min(coords_per_block, size)
            blocks.append(offset + rng.choice(size, size=take, replace=False))
            offset += size
        indices = np.concatenate(blocks)

    worst = 0.0
    for i in indices:
        bumped = flat0.copy()
        bumped[i] += h
        hi = loss_at(bumped)
        bumped[i] -= 2.0 * h
        lo = loss_at(bumped)
        fd = (hi - lo) / (2.0 * h)
        err = abs(analytic[i] - fd) / max(abs(fd), 1.0)
        worst = max(worst, err)
    model.set_flat_params(flat0)
    assert worst < rel, f"worst relative gradient error {worst:.2e}"


class TestNetworkGradients:
    def test_tiny_network_every_parameter(self):
        # Dropout off so the training-mode forward pass is deterministic
        # and differentiable.
        config = NetworkConfig(
            conv_channels=(3,), fc_sizes=(6,), scales=2, dropout=0.0, seed=0
        )
        model = MsmCnn(in_channels=2, num_classes=2, config=config, dtype=np.float64)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 8, 8, 2))
        labels = np.array([0, 1, 0])
        _network_fd_check(model, x, labels)

    def test_reduced_config_spot_check(self):
        config = NetworkConfig(
            conv_channels=(4, 8, 16),
            fc_sizes=(8,),
            scales=3,
            dropout=0.0,
            seed=2,
        )
        model = MsmCnn(in_channels=2, num_classes=2, config=config, dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 8, 2))
        labels = np.array([0, 1])
        _network_fd_check(model, x, labels, coords_per_block=6)

    def test_inference_mode_gradients_with_dropout_configured(self):
        # train=False switches dropout off, so the gradients are exact
        # for the deterministic inference-mode loss.
        config = NetworkConfig(
            conv_channels=(3,), fc_sizes=(6, 5), scales=2, dropout=0.5, seed=5
        )
        model = MsmCnn(in_channels=2, num_classes=2, config=config, dtype=np.float64)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 8, 8, 2))
        _network_fd_check(model, x, np.array([1, 0, 1]), train=False)

    def test_zero_signal_zero_gradients(self):
        # All-zero parameters give uniform outputs; balanced labels then
        # cancel every gradient exactly.
        config = NetworkConfig(
            conv_channels=(3,), fc_sizes=(4,), scales=2, dropout=0.0, seed=4
        )
        model = MsmCnn(in_channels=1, num_classes=2, config=config, dtype=np.float64)
        model.set_flat_params(np.zeros(model.num_params))
        x = np.ones((2, 6, 6, 1))
        model.loss_and_grad(x, np.array([0, 1]), train=True)
        assert np.max(np.abs(model.get_flat_grads())) < 1e-12


class TestParamsAndCheckpoints:
    def _model(self):
        config = NetworkConfig(
            conv_channels=(3, 4), fc_sizes=(8,), scales=2, dropout=0.2, seed=9
        )
        return MsmCnn(in_channels=2, num_classes=3, config=config)

    def test_flat_params_round_trip(self):
        model = self._model()
        flat = model.get_flat_params()
        assert flat.size == model.num_params
        model.set_flat_params(flat)
        assert np.array_equal(model.get_flat_params(), flat)

    def test_set_flat_params_size_checked(self):
        model = self._model()
        with pytest.raises(ValueError):
            model.set_flat_params(np.zeros(3))

    def test_checkpoint_round_trip(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        model.save(path, epoch=7)
        loaded, epoch = MsmCnn.load(path)
        assert epoch == 7
        assert loaded.config == model.config
        assert np.array_equal(loaded.get_flat_params(), model.get_flat_params())
        x = np.random.default_rng(0).normal(size=(4, 8, 8, 2)).astype(np.float32)
        assert np.array_equal(loaded.forward(x, train=False), model.forward(x, train=False))

    @settings(max_examples=25, deadline=None)
    @given(
        in_channels=st.integers(1, 4),
        num_classes=st.integers(2, 4),
        conv=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        fc=st.lists(st.integers(1, 5), max_size=2),
        scales=st.integers(1, 4),
    )
    def test_checkpoint_round_trip_over_architectures(
        self, in_channels, num_classes, conv, fc, scales
    ):
        # load checks the payload size against the architecture before it
        # builds the network, so every architecture must load back.
        config = NetworkConfig(conv_channels=conv, fc_sizes=fc, scales=scales)
        model = MsmCnn(in_channels, num_classes, config)
        with tempfile.TemporaryDirectory() as d:
            model.save(Path(d) / "m.ckpt")
            loaded, _ = MsmCnn.load(Path(d) / "m.ckpt")
        assert np.array_equal(loaded.get_flat_params(), model.get_flat_params())

    def test_checkpoint_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b'{"format":"something-else"}\n')
        with pytest.raises(ValueError, match="not a"):
            MsmCnn.load(path)

    @pytest.mark.parametrize("header", [b"[1,2]", b"5", b'"gpgl-checkpoint"', b"null"])
    def test_checkpoint_header_must_be_object(self, tmp_path, header):
        path = tmp_path / "list.ckpt"
        path.write_bytes(header + b"\n" + bytes(8))
        with pytest.raises(ValueError, match="JSON object"):
            MsmCnn.load(path)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("config", lambda h: h.pop("config")),
            ("config", lambda h: h.update(config=5)),
            ("config", lambda h: h.update(config={"bogus": 1})),
            ("config", lambda h: h["config"].update(scales="3")),
            ("in_channels", lambda h: h.pop("in_channels")),
            ("in_channels", lambda h: h.update(in_channels="2")),
            ("num_classes", lambda h: h.update(num_classes=3.0)),
            ("epoch", lambda h: h.pop("epoch")),
            ("epoch", lambda h: h.update(epoch=True)),
        ],
    )
    def test_checkpoint_header_fields_checked(self, tmp_path, field, edit):
        path = tmp_path / "model.ckpt"
        self._model().save(path, epoch=1)
        head, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=field):
            MsmCnn.load(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        model.save(path, epoch=3)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="payload"):
            MsmCnn.load(path)
        path.write_bytes(data[: data.index(b"\n") // 2])
        with pytest.raises(ValueError):
            MsmCnn.load(path)

    def test_checkpoint_bytes_are_header_and_params(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        model.save(path, epoch=4)
        header = {
            "format": "gpgl-checkpoint",
            "version": 1,
            "in_channels": 2,
            "num_classes": 3,
            "epoch": 4,
            "config": asdict(model.config),
        }
        expected = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        expected += b"\n" + b"".join(p.value.astype("<f4").tobytes() for p in model.params())
        assert path.read_bytes() == expected

    def test_save_deterministic_bytes(self, tmp_path):
        model = self._model()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(a, epoch=1)
        model.save(b, epoch=1)
        assert a.read_bytes() == b.read_bytes()


def _cached_arrays(layer) -> list[str]:
    """Names of the arrays a layer (or any conv in its branches) holds
    besides its parameters."""
    held = [
        f"{type(layer).__name__}.{name}"
        for name, value in vars(layer).items()
        if name.startswith("_") and isinstance(value, np.ndarray)
    ]
    for chain in getattr(layer, "branches", []):
        for conv in chain:
            held += _cached_arrays(conv)
    return held


class TestInferenceCaches:
    def _model(self):
        config = NetworkConfig(
            conv_channels=(3, 4), fc_sizes=(6,), scales=2, dropout=0.3, seed=3
        )
        return MsmCnn(in_channels=2, num_classes=2, config=config)

    def test_inference_forward_keeps_no_cache(self):
        model = self._model()
        x = np.random.default_rng(1).normal(size=(4, 8, 8, 2)).astype(np.float32)
        model.forward(x, train=True)
        assert any(_cached_arrays(layer) for layer in model.layers)
        model.forward(x, train=False)
        assert [a for layer in model.layers for a in _cached_arrays(layer)] == []

    def test_inference_logits_match_training_pass_without_dropout(self):
        config = NetworkConfig(
            conv_channels=(3, 4), fc_sizes=(6,), scales=2, dropout=0.0, seed=3
        )
        model = MsmCnn(in_channels=2, num_classes=2, config=config)
        x = np.random.default_rng(2).normal(size=(4, 8, 8, 2)).astype(np.float32)
        assert np.array_equal(model.forward(x, train=False), model.forward(x, train=True))
