"""Forward-pass tests for the network kernels, against loop oracles."""

import numpy as np
import pytest

from oracles import conv2d_loops, global_pool_loops, maxout_loops, maxpool2_loops
from gpgl.nn.layers import MsmConv
from gpgl.nn.network import MsmCnn, NetworkConfig
from gpgl.nn.ops import (
    conv2d_forward,
    dropout_forward,
    global_pool_forward,
    maxout_forward,
    maxpool2_forward,
    relu_forward,
    softmax_cross_entropy,
)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 6, 3))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[1, 1, c, c] = 1.0
        out, _ = conv2d_forward(x, w, np.zeros(3))
        assert np.allclose(out, x, atol=1e-12)

    def test_all_ones_kernel_interior(self):
        x = np.ones((1, 6, 6, 1))
        w = np.ones((3, 3, 1, 1))
        out, _ = conv2d_forward(x, w, np.zeros(1))
        assert np.allclose(out[0, 1:-1, 1:-1, 0], 9.0)
        # Zero padding: corners see a 2x2 patch, edges a 2x3 patch.
        assert out[0, 0, 0, 0] == pytest.approx(4.0)
        assert out[0, 0, 1, 0] == pytest.approx(6.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n, h, w_, cin, cout = (
                int(rng.integers(1, 3)),
                int(rng.integers(2, 7)),
                int(rng.integers(2, 7)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
            )
            x = rng.normal(size=(n, h, w_, cin))
            w = rng.normal(size=(3, 3, cin, cout))
            b = rng.normal(size=cout)
            out, _ = conv2d_forward(x, w, b)
            assert np.allclose(out, conv2d_loops(x, w, b), atol=1e-6)

    def test_bias_applied(self):
        x = np.zeros((1, 2, 2, 1))
        w = np.zeros((3, 3, 1, 2))
        out, _ = conv2d_forward(x, w, np.array([1.5, -2.0]))
        assert np.allclose(out[..., 0], 1.5)
        assert np.allclose(out[..., 1], -2.0)


class TestMaxPool2:
    def test_constant_preserved(self):
        x = np.full((1, 4, 4, 2), 3.5)
        out, _ = maxpool2_forward(x)
        assert out.shape == (1, 2, 2, 2)
        assert np.all(out == 3.5)

    def test_matches_loop_oracle_even_and_odd(self):
        rng = np.random.default_rng(2)
        for h, w in [(4, 4), (5, 4), (4, 5), (5, 5), (1, 1), (3, 7)]:
            x = rng.normal(size=(2, h, w, 3))
            out, _ = maxpool2_forward(x)
            assert out.shape == (2, -(-h // 2), -(-w // 2), 3)
            assert np.allclose(out, maxpool2_loops(x), atol=1e-12)

    def test_odd_edge_never_invents_values(self):
        # -inf padding means outputs are always drawn from real inputs.
        x = np.full((1, 3, 3, 1), -100.0)
        out, _ = maxpool2_forward(x)
        assert np.all(out == -100.0)


class TestGlobalPool:
    def test_max_picks_single_peak(self):
        x = np.zeros((1, 4, 4, 1))
        x[0, 0, 0, 0] = 7.0
        out, _ = global_pool_forward(x, "max")
        assert out[0, 0] == 7.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 5, 4, 6))
        for mode in ("max", "mean"):
            out, _ = global_pool_forward(x, mode)
            assert out.shape == (3, 6)
            assert np.allclose(out, global_pool_loops(x, mode), atol=1e-12)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            global_pool_forward(np.zeros((1, 2, 2, 1)), "median")


class TestMaxout:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(3, 2, 4, 4, 5))
        out, _ = maxout_forward(stack)
        assert np.allclose(out, maxout_loops(stack), atol=1e-12)

    def test_dominates_every_branch(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 2, 3, 3, 2))
        out, _ = maxout_forward(stack)
        for s in range(4):
            assert np.all(out >= stack[s])

    def test_tie_goes_to_lowest_branch(self):
        stack = np.ones((3, 1, 2, 2, 1))
        _, winner = maxout_forward(stack)
        assert np.all(winner == 0)


class TestMsmConvLayer:
    def test_identical_branches_equal_single_branch(self):
        # All branch stacks reduced to identity convolutions: every
        # branch output equals x, so the maxout equals x too.
        rng = np.random.default_rng(6)
        layer = MsmConv(2, 2, scales=3, rng=rng)
        for p in layer.params():
            p.value[:] = 0.0
            if p.value.ndim == 4:
                for c in range(2):
                    p.value[1, 1, c, c] = 1.0
        x = np.abs(np.random.default_rng(7).normal(size=(1, 5, 5, 2)))
        out = layer.forward(x, train=False)
        assert np.allclose(out, x, atol=1e-12)

    def test_matches_explicit_branch_max(self):
        rng = np.random.default_rng(8)
        layer = MsmConv(3, 4, scales=3, rng=rng)
        x = np.random.default_rng(9).normal(size=(2, 6, 6, 3))
        out = layer.forward(x, train=False)
        branches = []
        for branch in layer.branches:
            h = x
            for conv in branch:
                h = conv.forward(h, train=False)
            branches.append(h)
        assert np.allclose(out, np.max(np.stack(branches), axis=0), atol=1e-12)
        for b in branches:
            assert np.all(out >= b - 1e-12)

    def test_branch_depth_is_scale_plus_one(self):
        layer = MsmConv(1, 2, scales=3, rng=np.random.default_rng(0))
        assert [len(branch) for branch in layer.branches] == [1, 2, 3]

    def test_receptive_field_radius(self):
        # Branch s chains s+1 3x3 convs, so a pixel perturbation can
        # reach Chebyshev radius s+1 and no further.
        rng = np.random.default_rng(10)
        for s in range(3):
            layer = MsmConv(1, 1, scales=s + 1, rng=rng)
            branch = layer.branches[s]
            x = np.zeros((1, 11, 11, 1))
            base = x
            for conv in branch:
                base = conv.forward(base, train=False)
            x2 = x.copy()
            x2[0, 5, 5, 0] = 1.0
            out = x2
            for conv in branch:
                out = conv.forward(out, train=False)
            diff = np.abs(out - base)[0, :, :, 0]
            rows, cols = np.nonzero(diff > 1e-12)
            radius = max(
                np.abs(rows - 5).max(), np.abs(cols - 5).max()
            )
            assert radius <= s + 1


class TestActivations:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        out, mask = relu_forward(x)
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])
        assert np.array_equal(mask, [[False, False, True]])

    def test_dropout_zero_rate_identity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 5))
        out, mask = dropout_forward(x, 0.0, rng)
        assert np.array_equal(out, x)
        assert np.all(mask == 1.0)

    def test_dropout_scales_kept_units(self):
        rng = np.random.default_rng(12)
        x = np.ones((2000, 1))
        out, _ = dropout_forward(x, 0.5, rng)
        kept = out[out != 0.0]
        assert np.allclose(kept, 2.0)
        # Inverted scaling keeps the expectation near 1.
        assert abs(out.mean() - 1.0) < 0.1


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(3.0))

    def test_confident_correct_is_cheap(self):
        logits = np.array([[20.0, 0.0], [0.0, 20.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_stable_for_huge_logits(self):
        logits = np.array([[1e4, 0.0]])
        loss, dlog = softmax_cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(dlog))

    def test_gradient_sums_to_zero_per_row(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(5, 4))
        _, dlog = softmax_cross_entropy(logits, rng.integers(0, 4, size=5))
        assert np.allclose(dlog.sum(axis=1), 0.0, atol=1e-12)


class TestShapeContract:
    def test_default_architecture_shapes(self):
        # 64x64xF input: spatial 64 -> 32 -> 16 -> global, channels
        # F -> 64 -> 128 -> 256 -> 256 -> 128 -> C.
        config = NetworkConfig(seed=0)
        model = MsmCnn(in_channels=5, num_classes=3, config=config)
        x = np.random.default_rng(1).normal(size=(2, 64, 64, 5)).astype(np.float32)
        shapes = []
        h = x
        for layer in model.layers:
            h = layer.forward(h, train=False)
            shapes.append(h.shape)
        assert shapes[0] == (2, 64, 64, 64)   # MSM-Conv(64)
        assert shapes[1] == (2, 32, 32, 64)   # max-pool
        assert shapes[2] == (2, 32, 32, 128)  # MSM-Conv(128)
        assert shapes[3] == (2, 16, 16, 128)  # max-pool
        assert shapes[4] == (2, 16, 16, 256)  # MSM-Conv(256)
        assert shapes[5] == (2, 256)          # global pool
        assert shapes[-1] == (2, 3)           # class head

    def test_small_config_forward(self):
        config = NetworkConfig(
            conv_channels=(4, 8), fc_sizes=(16,), scales=2, seed=1
        )
        model = MsmCnn(in_channels=2, num_classes=2, config=config)
        x = np.random.default_rng(2).normal(size=(3, 8, 8, 2)).astype(np.float32)
        logits = model.forward(x, train=False)
        assert logits.shape == (3, 2)
        assert np.all(np.isfinite(logits))
