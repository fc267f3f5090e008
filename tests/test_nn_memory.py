"""Property tests of the CNN's memory paths: maxout folded one branch at
a time, convolution in sample blocks, the training caches, and the
allocation bounds of an MSM block."""

import tracemalloc

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
    for s in range(stack.shape[0]):
        got = ops.maxout_backward(dout, winner, s)
        assert np.array_equal(got, np.where(first_max == s, dout, 0.0))


@settings(max_examples=100, deadline=None)
@given(stack=branch_stacks, train=st.booleans())
def test_maxout_folded_one_branch_at_a_time_equals_one_call(stack, train):
    whole = ops.maxout_forward(list(stack), train)
    running = None
    for s, branch in enumerate(stack):
        running = ops.maxout_forward([branch], train, running, start=s)
    assert running[0].tobytes() == whole[0].tobytes()
    if train:
        assert running[1].dtype == whole[1].dtype
        assert np.array_equal(running[1], whole[1])
    else:
        assert running[1] is None


@settings(max_examples=100, deadline=None)
@given(stack=branch_stacks)
def test_maxout_inference_output_equals_training_output(stack):
    trained, _ = ops.maxout_forward(list(stack), train=True)
    inferred, winner = ops.maxout_forward(list(stack), train=False)
    assert winner is None
    assert inferred.tobytes() == trained.tobytes()


# Channel widths of the default network, where inference convolves in
# near-equal blocks of at most 8 samples at 32x32x64 and 16 at
# 16x16x128. In the explicit example a fixed 16-sample step would leave
# a 1-sample tail, small enough for OpenBLAS's small-matrix kernel,
# which rounds differently.
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


def conv2d_backward_one_gemm(dout, cols, w, x_shape):
    """conv2d_backward with the input gradient's whole im2col matrix
    built by one product and scattered at once."""
    n, h, wd, cin = x_shape
    k, cout = w.shape[0], w.shape[3]
    dmat = dout.reshape(-1, cout)
    dcols = (dmat @ w.reshape(-1, cout).T).reshape(n, h, wd, k * k, cin)
    dxp = np.zeros((n, h + k - 1, wd + k - 1, cin), dout.dtype)
    for i in range(k * k):
        dy, dx = divmod(i, k)
        dxp[:, dy : dy + h, dx : dx + wd, :] += dcols[:, :, :, i, :]
    pad = k // 2
    dx = dxp[:, pad : pad + h, pad : pad + wd, :]
    return dx, (cols.T @ dmat).reshape(w.shape), dmat.sum(axis=0)


# The default network's (32, 64) and (16, 128) inputs, and the golden
# run's 8-channel block: 16x16 inputs of 64 channels, then of 8. In the
# explicit example a fixed 16-sample step would leave a 1-sample tail.
@settings(max_examples=30, deadline=None)
@example(n=17, shape=(16, 128), cout=2, seed=0)
@given(
    n=st.integers(1, 40),
    shape=st.sampled_from([(32, 64), (16, 128), (16, 64), (16, 8)]),
    cout=st.sampled_from([1, 2, 8, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_conv_backward_equals_one_gemm(n, shape, cout, seed):
    side, cin = shape
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, side, side, cin)).astype(np.float32)
    w = rng.normal(size=(3, 3, cin, cout)).astype(np.float32)
    dout = rng.normal(size=(n, side, side, cout)).astype(np.float32)
    cols = ops.im2col(x, 3)
    got = ops.conv2d_backward(dout, cols, w, x.shape)
    expected = conv2d_backward_one_gemm(dout, cols, w, x.shape)
    for g, e in zip(got, expected):
        assert g.shape == e.shape and g.tobytes() == e.tobytes()


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


def test_maxpool_caches_window_slot_as_uint8():
    x = np.random.default_rng(1).normal(size=(2, 5, 6, 3)).astype(np.float32)
    _, idx = ops.maxpool2_forward(x)
    assert idx.dtype == np.uint8
    dout = np.arange(1, 2 * 3 * 3 * 3 + 1, dtype=np.float32).reshape(2, 3, 3, 3)
    wide = ops.maxpool2_backward(dout, idx.astype(np.int64), x.shape)
    assert ops.maxpool2_backward(dout, idx, x.shape).tobytes() == wide.tobytes()


# An MSM block small enough that no convolution runs in blocks: 4
# samples of 32x32x32, 3 scales.
_N, _SIDE, _C, _SCALES = 4, 32, 32, 3


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _msm_block_and_sizes():
    """A warmed-up block, its input, and the bytes of its arrays: a
    branch output, its padded copy, an im2col matrix, all weights, and
    room for numpy's iterator buffers and small Python objects."""
    rng = np.random.default_rng(0)
    block = MsmConv(_C, _C, _SCALES, rng)
    x = rng.normal(size=(_N, _SIDE, _SIDE, _C)).astype(np.float32)
    block.forward(x, train=True)
    block.backward(np.ones_like(x))
    item = x.itemsize
    sizes = {
        "out": x.nbytes,
        "padded": _N * (_SIDE + 2) ** 2 * _C * item,
        "cols": 9 * x.nbytes,
        "weights": sum(p.value.nbytes for p in block.params()),
        "slack": 8 * np.getbufsize() * item,
    }
    return block, x, sizes


def test_msm_inference_holds_one_finished_branch_besides_the_running_max():
    block, x, b = _msm_block_and_sizes()
    peak = _traced_peak(lambda: block.forward(x, train=False))
    # The running max, one more branch-output array (a finished branch
    # or the input of the convolution running now), and one
    # convolution: its im2col matrix plus the larger of its padded
    # input and its output.
    bound = 2 * b["out"] + b["cols"] + max(b["padded"], b["out"]) + b["slack"]
    assert peak <= bound


def test_msm_backward_builds_no_branch_stack():
    block, x, b = _msm_block_and_sizes()
    block.forward(x, train=True)
    dout = np.random.default_rng(1).normal(size=x.shape).astype(np.float32)
    peak = _traced_peak(lambda: block.backward(dout))
    # One branch's gradient at a time: the summed input gradient, the
    # gradient entering a convolution, and that convolution's backward:
    # the copy of its output gradient, its rebuilt im2col matrix, the
    # input gradient's im2col matrix and padded input gradient, and the
    # new weight gradients. A (scales, ...) stack of the branch
    # gradients would add scales branch outputs.
    bound = 3 * b["padded"] + b["out"] + 2 * b["cols"] + b["weights"] + b["slack"]
    assert peak <= bound
