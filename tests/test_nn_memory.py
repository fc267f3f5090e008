"""Property tests of the CNN's memory paths: maxout without a stacked
copy, inference convolution in sample blocks, and the training caches."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import maxout_loops
from gpgl.nn import ops
from gpgl.nn.layers import Conv3x3, Dense, Dropout, GlobalPool, MaxPool2, MsmConv, ReLU
from gpgl.nn.network import MsmCnn, NetworkConfig

# Small-integer floats, signed zeros included, so branches tie exactly.
branch_stacks = st.tuples(
    st.integers(1, 4), st.lists(st.integers(1, 3), min_size=4, max_size=4)
).flatmap(
    lambda dims: arrays(
        np.float32,
        (dims[0],) + tuple(dims[1]),
        elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
    )
)


@settings(max_examples=150, deadline=None)
@given(stack=branch_stacks)
def test_maxout_matches_loop_oracle(stack):
    out, winner = ops.maxout_forward(list(stack))
    # Bitwise, so a tie between -0.0 and +0.0 keeps the earlier branch's
    # sign, as the oracle's strict comparison does.
    assert out.astype(np.float64).tobytes() == maxout_loops(stack).tobytes()
    first_max = np.argmax(stack == out, axis=0)
    assert np.array_equal(winner, first_max)
    dout = np.arange(1, out.size + 1, dtype=np.float32).reshape(out.shape)
    dstack = ops.maxout_backward(dout, winner, stack.shape[0])
    for s in range(stack.shape[0]):
        assert np.array_equal(dstack[s], np.where(first_max == s, dout, 0.0))


@settings(max_examples=100, deadline=None)
@given(stack=branch_stacks)
def test_maxout_inference_output_equals_training_output(stack):
    trained, _ = ops.maxout_forward(list(stack), train=True)
    inferred, winner = ops.maxout_forward(list(stack), train=False)
    assert winner is None
    assert inferred.tobytes() == trained.tobytes()


# Channel widths of the default network, where inference convolves in
# blocks: 8 samples per block at 32x32x64, 16 at 16x16x128. In the
# explicit example a 1-sample tail block would be small enough for
# OpenBLAS's small-matrix kernel, which rounds differently.
@settings(max_examples=30, deadline=None)
@example(n=17, shape=(16, 128), cout=2, seed=0)
@given(
    n=st.integers(1, 40),
    shape=st.sampled_from([(32, 64), (16, 128)]),
    cout=st.sampled_from([1, 2, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_inference_conv_equals_unblocked(n, shape, cout, seed):
    side, cin = shape
    rng = np.random.default_rng(seed)
    conv = Conv3x3(cin, cout, rng)
    conv.b.value = rng.normal(size=cout).astype(np.float32)
    x = rng.normal(size=(n, side, side, cin)).astype(np.float32)
    expected, _ = ops.conv2d_forward(x, conv.w.value, conv.b.value)
    assert conv.forward(x, train=False).tobytes() == expected.tobytes()


def test_training_caches_no_array_larger_than_layer_input(monkeypatch):
    inputs = {}
    for cls in (Conv3x3, MsmConv, MaxPool2, GlobalPool, Dense, ReLU, Dropout):

        def recording(self, x, train, _forward=cls.forward):
            inputs[id(self)] = x
            return _forward(self, x, train)

        monkeypatch.setattr(cls, "forward", recording)
    config = NetworkConfig(conv_channels=(8, 16), fc_sizes=(8,), scales=3, dropout=0.3)
    model = MsmCnn(3, 2, config)
    x = np.random.default_rng(0).normal(size=(4, 12, 12, 3)).astype(np.float32)
    model.forward(x, train=True)
    blocks = [layer for layer in model.layers if isinstance(layer, MsmConv)]
    convs = [conv for block in blocks for chain in block.branches for conv in chain]
    for layer in model.layers + convs:
        cached = [v for v in vars(layer).values() if isinstance(v, np.ndarray)]
        assert all(arr.nbytes <= inputs[id(layer)].nbytes for arr in cached), layer
    # The first conv of every branch keeps the block's input array itself.
    for block in blocks:
        for chain in block.branches:
            assert any(v is inputs[id(block)] for v in vars(chain[0]).values())
