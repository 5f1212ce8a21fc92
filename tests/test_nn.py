"""Tests for layers, the network container, and the training loop."""

import copy

import numpy as np
import pytest

from kfeprune import kfac, layers, oracle, pipeline
from kfeprune.checkpoint import network_bytes, network_from_bytes
from kfeprune.config import RunConfig
from kfeprune.data import Dataset, synth_dataset
from kfeprune.errors import (
    DimensionError,
    StateError,
    TrainingDivergenceError,
    ValidationError,
)
from kfeprune.layers import (
    COL2IM_BLOCK,
    BottleneckConvLayer,
    BottleneckDenseLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    ReluLayer,
    col2im,
    conv_out_size,
    im2col,
)
from kfeprune.network import (
    Network,
    build_cnn,
    build_mlp,
    cross_entropy,
    cross_entropy_and_grad,
    kaiming_uniform,
)
from kfeprune.oracle import softmax
from kfeprune.training import (
    evaluate,
    keep_patterns,
    lr_at_epoch,
    mask_grad,
    sgd_step,
    train,
)


def kernel4d(layer):
    """(c_out, c_in, k, k) view of a conv layer's canonical weight matrix."""
    return layer.w.T.reshape(layer.c_out, layer.c_in, layer.k, layer.k)


def out_shapes(net, in_shape):
    """Per-sample output shape of every layer."""
    shapes = [tuple(in_shape)]
    for layer in net.layers:
        shapes.append(tuple(layer.out_shape(shapes[-1])))
    return shapes[1:]


def naive_conv(x, kernel4d, bias, stride, padding):
    """Direct nested-loop convolution used as an oracle."""
    b, c_in, h, w = x.shape
    c_out, _, k, _ = kernel4d.shape
    h_out = conv_out_size(h, k, stride, padding)
    w_out = conv_out_size(w, k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((b, c_out, h_out, w_out))
    for s in range(b):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    patch = xp[s, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[s, o, i, j] = np.sum(patch * kernel4d[o]) + bias[o]
    return out


def test_dense_identity_forward():
    layer = DenseLayer(np.eye(2))
    np.testing.assert_array_equal(layer.forward(np.array([[1.0, 2.0]])), [[1.0, 2.0]])


def test_dense_shapes_and_errors():
    layer = DenseLayer(np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        layer.forward(np.zeros((1, 4)))
    with pytest.raises(DimensionError):
        DenseLayer(np.zeros(3))
    with pytest.raises(DimensionError):
        DenseLayer(np.zeros((3, 2)), np.zeros(3))


def test_dense_backward_formula():
    rng = np.random.default_rng(0)
    layer = DenseLayer(rng.standard_normal((4, 3)))
    a = rng.standard_normal((6, 4))
    dy = rng.standard_normal((6, 3))
    tape = {}
    layer.forward(a, tape)
    dx = layer.backward(dy, tape)
    np.testing.assert_allclose(tape["grads"]["w"], a.T @ dy / 6, atol=1e-14)
    np.testing.assert_allclose(tape["grads"]["b"], dy.mean(axis=0), atol=1e-14)
    np.testing.assert_allclose(dx, dy @ layer.w.T, atol=1e-14)


def test_one_by_one_conv_is_identity():
    layer = ConvLayer(np.ones((1, 1)), None, c_in=1, k=1)
    x = np.random.default_rng(1).standard_normal((2, 1, 4, 4))
    np.testing.assert_array_equal(layer.forward(x), x)


def test_conv_forward_matches_naive():
    rng = np.random.default_rng(2)
    for stride, padding in ((1, 0), (1, 1), (2, 1)):
        c_in, c_out, k = 2, 3, 3
        w = rng.standard_normal((c_in * k * k, c_out))
        b = rng.standard_normal(c_out)
        layer = ConvLayer(w, b, c_in=c_in, k=k, stride=stride, padding=padding)
        x = rng.standard_normal((2, c_in, 5, 6))
        np.testing.assert_allclose(
            layer.forward(x),
            naive_conv(x, kernel4d(layer), b, stride, padding),
            atol=1e-12,
        )


def _im2col_loop(x, k, stride, padding):
    """Reference im2col: pad, then one strided slice per kernel offset."""
    b, c, h, w = x.shape
    h_out = conv_out_size(h, k, stride, padding)
    w_out = conv_out_size(w, k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((b, c, k, k, h_out, w_out), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj] = xp[
                :, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride
            ]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(b, h_out * w_out, c * k * k)


def _col2im_loop(cols, x_shape, k, stride, padding):
    """Reference col2im: one strided scatter-add per kernel offset."""
    b, c, h, w = x_shape
    h_out = conv_out_size(h, k, stride, padding)
    w_out = conv_out_size(w, k, stride, padding)
    blocks = cols.reshape(b, h_out, w_out, c, k, k).transpose(0, 3, 4, 5, 1, 2)
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            xp[
                :, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride
            ] += blocks[:, :, di, dj]
    return xp[:, :, padding : padding + h, padding : padding + w]


# stride > k leaves input pixels that no patch reads (zero gradient there);
# k = 1 with padding makes whole patches of padding; H != W throughout.
GEOMETRIES = [
    (k, stride, padding) for k in (1, 2, 3, 5) for stride in (1, 2, 3) for padding in (0, 1, 2)
]
INPUT_SHAPES = [(1, 1, 7, 6), (1, 3, 6, 7), (5, 1, 6, 7), (5, 3, 7, 6)]


def _bits(a):
    """a's float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def _layout(a):
    """Strides of the axes longer than 1; a length-1 axis's stride is never used."""
    return tuple(st for n, st in zip(a.shape, a.strides) if n > 1)


@pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
def test_im2col_matches_loop_reference(k, stride, padding):
    rng = np.random.default_rng(30)
    for shape in INPUT_SHAPES:
        x = rng.standard_normal(shape)
        got = im2col(x, k, stride, padding)
        want = _im2col_loop(x, k, stride, padding)
        assert got.shape == want.shape
        assert _layout(got) == _layout(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
def test_col2im_matches_loop_reference(k, stride, padding):
    # bitwise: each pixel must sum its contributions in the loop's order
    rng = np.random.default_rng(31)
    for shape in INPUT_SHAPES:
        b, c = shape[:2]
        length = conv_out_size(shape[2], k, stride, padding) * conv_out_size(
            shape[3], k, stride, padding
        )
        n = c * k * k
        contiguous = rng.standard_normal((b, length, n))
        contiguous[contiguous > 1.0] = -0.0
        transposed = rng.standard_normal((b, n, length)).transpose(0, 2, 1)
        assert _layout(transposed) == _layout(im2col(np.zeros(shape), k, stride, padding))
        # a location-reversed view of contiguous storage, as a conv's
        # input gradient hands it over
        backwards = np.ascontiguousarray(contiguous[:, ::-1])[:, ::-1]
        for cols in (contiguous, transposed, backwards):
            got = col2im(cols, shape, k, stride, padding)
            assert got.shape == shape
            assert np.array_equal(_bits(got), _bits(_col2im_loop(cols, shape, k, stride, padding)))


# (input shape, k, stride, padding, entries per bincount call); a patch
# table holds c*k*k*L entries
COL2IM_GROUPS = [
    # 1,152-entry tables: groups of 14 samples, then a last group of 9
    ((37, 8, 4, 4), 3, 1, 1, [14 * 1152] * 2 + [9 * 1152]),
    # 7,056-entry tables, conv-eigendamage's second conv: groups of 2
    ((5, 16, 14, 14), 3, 2, 1, [2 * 7056] * 2 + [7056]),
    # 9,216-entry tables, over half of COL2IM_BLOCK: one sample per group
    ((3, 4, 16, 16), 3, 1, 1, [9216] * 3),
    # 18,432-entry tables, larger than COL2IM_BLOCK: one sample per group
    ((2, 8, 16, 16), 3, 1, 1, [18432] * 2),
]


@pytest.mark.parametrize("shape,k,stride,padding,calls", COL2IM_GROUPS)
def test_col2im_groups_match_single_samples(shape, k, stride, padding, calls, monkeypatch):
    # bitwise: a group's samples own disjoint bins, so grouping changes no
    # pixel's order of contributions
    assert COL2IM_BLOCK == 2**14
    sizes, real = [], np.bincount

    def counting(index, *args, **kwargs):
        sizes.append(index.size)
        return real(index, *args, **kwargs)

    rng = np.random.default_rng(35)
    b, c = shape[:2]
    length = conv_out_size(shape[2], k, stride, padding) * conv_out_size(
        shape[3], k, stride, padding
    )
    n = c * k * k
    for cols in (
        rng.standard_normal((b, length, n)),
        rng.standard_normal((b, n, length)).transpose(0, 2, 1),
    ):
        monkeypatch.setattr(np, "bincount", counting)
        got = col2im(cols, shape, k, stride, padding)
        monkeypatch.undo()
        assert sizes == calls
        sizes.clear()
        assert _is_channels_last(got)
        assert np.array_equal(got, _col2im_loop(cols, shape, k, stride, padding))
        single = [col2im(cols[i : i + 1], (1,) + shape[1:], k, stride, padding) for i in range(b)]
        assert np.array_equal(got, np.concatenate(single))


def test_im2col_col2im_adjoint():
    """<im2col(x), C> == <x, col2im(C)> makes col2im the exact adjoint."""
    rng = np.random.default_rng(3)
    for k, stride, padding in GEOMETRIES:
        for shape in INPUT_SHAPES:
            x = rng.standard_normal(shape)
            cols = im2col(x, k, stride, padding)
            c = rng.standard_normal(cols.shape)
            lhs = float(np.sum(cols * c))
            rhs = float(np.sum(x * col2im(c, x.shape, k, stride, padding)))
            np.testing.assert_allclose(
                lhs, rhs, rtol=1e-12, err_msg=f"k={k} stride={stride} padding={padding} {shape}"
            )


def _channels_last_copy(x):
    """x with the same (B, C, H, W) values, stored channels-last."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _is_channels_last(a):
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def _conv_layers(rng, c_in, k, stride, padding):
    """A plain conv and a bottleneck of each core mode over c_in channels."""
    geometry = dict(c_in=c_in, k=k, stride=stride, padding=padding)
    kk = k * k
    return [
        ConvLayer(rng.standard_normal((c_in * kk, 4)), rng.standard_normal(4), **geometry),
        BottleneckConvLayer(
            rng.standard_normal((c_in, 2)), rng.standard_normal((2, 3, kk)),
            rng.standard_normal((5, 3)), rng.standard_normal(5), **geometry,
        ),
        BottleneckConvLayer(
            rng.standard_normal((c_in, 2)), rng.standard_normal((kk, 2)),
            rng.standard_normal((5, 2)), rng.standard_normal(5), **geometry,
        ),
    ]


@pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
def test_layers_agree_across_memory_layouts(k, stride, padding):
    # NCHW-contiguous and channels-last inputs give bitwise equal results,
    # and col2im and both conv kinds return channels-last arrays
    rng = np.random.default_rng(33)
    for shape in INPUT_SHAPES:
        x = rng.standard_normal(shape)
        x_last = _channels_last_copy(x)
        assert x.flags.c_contiguous and _is_channels_last(x_last)
        assert np.array_equal(im2col(x, k, stride, padding), im2col(x_last, k, stride, padding))
        cols = rng.standard_normal(im2col(x, k, stride, padding).shape)
        assert _is_channels_last(col2im(cols, shape, k, stride, padding))
        for layer in _conv_layers(rng, shape[1], k, stride, padding):
            dy = None
            results = []
            for inp in (x, x_last):
                tape = {}
                y = layer.forward(inp, tape)
                assert _is_channels_last(y), layer.kind
                if dy is None:
                    dy = rng.standard_normal(y.shape)
                dx = layer.backward(dy if inp is x else _channels_last_copy(dy), tape)
                assert _is_channels_last(dx), layer.kind
                results.append([y, dx, tape["g"]] + [tape["grads"][n] for n, _ in layer.param_items()])
            for got, want in zip(*results):
                assert np.array_equal(got, want), layer.kind


# conv-eigendamage's second conv input.  A kernel width m below its 16
# channels takes the phase GEMMs wherever the scatter would span more than
# one bincount group, and col2im elsewhere (batch 1 at k = 1, say)
PHASE_INPUT = (16, 14, 14)

# A plain conv at least as wide as its input, over c_in 8, 16 and 32:
# m = c_in, c_in + 1 and 2 * c_in take the phase GEMMs where the scatter
# spans more than one bincount group and the output is more than one
# pixel wide.  The 5x2 input gives one-pixel-wide outputs (k = 3,
# stride 3) whose phase GEMMs would have a single row.
WIDE_INPUTS = [(c, h, w) for c in (8, 16, 32) for h, w in ((7, 6), (5, 2))]


def _input_grad_is_col2im_of_the_gemm(layer, x, rng):
    """Whether layer's input gradient for a random dy, with -0.0 entries,
    is bitwise col2im of the GEMM g @ K.T as numpy computes it."""
    tape = {}
    dy = rng.standard_normal(layer.forward(x, tape).shape)
    dy[dy > 1.0] = -0.0
    dx = layer.backward(dy, tape, param_grads=False)
    kernel = tape["w_eff"] if "w_eff" in tape else layer.w
    want = col2im(tape["g"] @ np.ascontiguousarray(kernel.T), x.shape, layer.k, layer.stride, layer.padding)
    return np.array_equal(_bits(dx), _bits(want))


@pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
def test_conv_input_grad_is_col2im_of_the_gemm(k, stride, padding):
    # bitwise, signed zeros included: the input gradient is col2im of the
    # GEMM g @ K.T as numpy computes it, on both sides of the selection
    # between col2im and the phase GEMMs.  A GEMM over g's locations
    # reversed, which would spare col2im its reversal copy, rounds some
    # rows differently (OpenBLAS 0.3.31 SkylakeX kernels, when c*k*k is not
    # a multiple of 4).  Batches 1, 7 and 32 fall on both sides of the
    # grouping boundary of the small tables, and m is the kernel width: a
    # plain conv's c_out, a bottleneck's core rank rc.  Plain convs at
    # least as wide as their input run WIDE_INPUTS at batches 7 and 32.
    rng = np.random.default_rng(37)
    cases = [(shape[1:], (4, 13, 32)) for shape in INPUT_SHAPES] + [(PHASE_INPUT, (1, 4, 13))]
    for (c, h, w), widths in cases:
        kk = k * k
        geometry = dict(c_in=c, k=k, stride=stride, padding=padding)
        for m in widths:
            plain = ConvLayer(rng.standard_normal((c * kk, m)), rng.standard_normal(m), **geometry)
            bottleneck = BottleneckConvLayer(
                rng.standard_normal((c, 2)), rng.standard_normal((2, m, kk)),
                rng.standard_normal((5, m)), rng.standard_normal(5), **geometry,
            )
            for b in (1, 7, 32):
                x = rng.standard_normal((b, c, h, w))
                for layer in (plain, bottleneck):
                    assert _input_grad_is_col2im_of_the_gemm(layer, x, rng), (layer.kind, m, b)
    for c, h, w in WIDE_INPUTS:
        if min(conv_out_size(n, k, stride, padding) for n in (h, w)) < 1:
            continue
        geometry = dict(c_in=c, k=k, stride=stride, padding=padding)
        for m in (c, c + 1, 2 * c):
            plain = ConvLayer(rng.standard_normal((c * k * k, m)), None, **geometry)
            for b in (7, 32):
                x = rng.standard_normal((b, c, h, w))
                assert _input_grad_is_col2im_of_the_gemm(plain, x, rng), ((c, h, w), m, b)


def _counting_col2im(monkeypatch):
    """Shapes col2im is called for, from now on."""
    calls, original = [], layers.col2im

    def counting(cols, x_shape, *args):
        calls.append(tuple(x_shape))
        return original(cols, x_shape, *args)

    monkeypatch.setattr(layers, "col2im", counting)
    return calls


@pytest.mark.parametrize(
    "shape,width,plain,calls",
    [
        # conv-eigendamage's pruned second conv: rank 4 of 16 channels
        ((32, 16, 14, 14), 4, False, 0),
        # the README demo's pruned second conv: 9,216 table entries, one group
        ((32, 8, 4, 4), 4, False, 1),
        # conv-eigendamage's plain second conv, and narrower plain convs
        ((32, 16, 14, 14), 32, True, 0),
        ((32, 16, 14, 14), 16, True, 0),
        ((32, 16, 14, 14), 15, True, 0),
        # 64 channels: up to 64 wide
        ((32, 64, 8, 8), 64, True, 0),
        ((32, 64, 8, 8), 96, True, 1),
        # wider than twice the input
        ((32, 16, 14, 14), 64, True, 1),
        # c_in not a multiple of 8, at any width; at 17 channels and width
        # 16 the phase GEMMs round some entries differently
        ((32, 12, 14, 14), 12, True, 1),
        ((32, 12, 14, 14), 6, True, 1),
        ((32, 17, 14, 14), 16, True, 1),
        # one output pixel, and outputs one pixel wide
        ((32, 64, 2, 2), 64, True, 1),
        ((32, 16, 14, 2), 16, True, 1),
        # the README demo's plain second conv: 9,216 table entries, one group
        ((32, 8, 4, 4), 16, True, 1),
    ],
)
def test_conv_input_grad_selects_col2im_by_shape(shape, width, plain, calls, monkeypatch):
    # the phase GEMMs run when the scatter would span more than one bincount
    # group, c_in is a multiple of 8, the output is more than one pixel
    # wide and m < c_in, or m <= min(2 * c_in, 64)
    rng = np.random.default_rng(38)
    c, kk = shape[1], 9
    geometry = dict(c_in=c, k=3, stride=2, padding=1)
    if plain:
        layer = ConvLayer(rng.standard_normal((c * kk, width)), None, **geometry)
    else:
        layer = BottleneckConvLayer(
            rng.standard_normal((c, 5)), rng.standard_normal((5, width, kk)),
            rng.standard_normal((32, width)), None, **geometry,
        )
    x = rng.standard_normal(shape)
    tape = {}
    dy = rng.standard_normal(layer.forward(x, tape).shape)
    seen = _counting_col2im(monkeypatch)
    dx = layer.backward(dy, tape)
    assert seen == [shape] * calls
    kernel = layer.w if plain else tape["w_eff"]
    want = col2im(tape["g"] @ np.ascontiguousarray(kernel.T), shape, 3, 2, 1)
    assert np.array_equal(_bits(dx), _bits(want))


@pytest.mark.parametrize("k,stride,padding", [(1, 2, 0), (2, 3, 1), (1, 3, 2), (2, 5, 0)])
def test_phase_input_grad_leaves_unreached_pixels_positive_zero(k, stride, padding, monkeypatch):
    # with stride > k no tap reaches some phases; their pixels are +0.0,
    # as col2im gives them, even where every other term is -0.0
    rng = np.random.default_rng(39)
    c, h, w, m = 16, 14, 13, 3
    geometry = dict(c_in=c, k=k, stride=stride, padding=padding)
    layer = ConvLayer(rng.standard_normal((c * k * k, m)), None, **geometry)
    x = rng.standard_normal((32, c, h, w))
    tape = {}
    dy = rng.standard_normal(layer.forward(x, tape).shape)
    dy[dy > 0.5] = -0.0
    seen = _counting_col2im(monkeypatch)
    dx = layer.backward(dy, tape, param_grads=False)
    assert seen == []
    rows = (np.arange(h) + padding) % stride >= k
    cols = (np.arange(w) + padding) % stride >= k
    assert rows.any() and cols.any()
    unreached = rows[:, None] | cols[None, :]
    assert (_bits(dx.transpose(0, 2, 3, 1))[:, unreached] == 0).all()
    want = col2im(tape["g"] @ np.ascontiguousarray(layer.w.T), x.shape, k, stride, padding)
    assert np.array_equal(_bits(dx), _bits(want))


def test_conv_input_grad_rejects_mismatched_gradient():
    # a dy whose locations do not fit the input is a DimensionError, as
    # col2im raises it, on both sides of the selection: width 4 at batch 32
    # takes the phase GEMMs, width 64 col2im, width 4 at batch 2 either
    rng = np.random.default_rng(40)
    geometry = dict(c_in=16, k=3, stride=2, padding=1)
    for width, batch in ((4, 32), (4, 2), (64, 32)):
        layer = ConvLayer(rng.standard_normal((16 * 9, width)), None, **geometry)
        x = rng.standard_normal((batch, 16, 14, 14))
        for spatial in ((6, 7), (7, 8), (8, 8)):
            tape = {}
            layer.forward(x, tape)
            dy = rng.standard_normal((batch, width) + spatial)
            with pytest.raises(DimensionError):
                layer.backward(dy, tape, param_grads=False)


def _nchw_conv_backward(layer, dy, tape):
    """ConvLayer.backward as it was with NCHW activations: dy read through
    a transposed (B, L, C) view, whose location axis is contiguous."""
    x, patches = tape["x_in"], tape["patches"]
    batch = x.shape[0]
    g = np.ascontiguousarray(dy).reshape(batch, layer.c_out, -1).transpose(0, 2, 1)
    grad_w = patches.reshape(-1, layer.w.shape[0]).T @ g.reshape(-1, layer.c_out) / batch
    grad_b = g.sum(axis=1).mean(axis=0)
    dx = col2im(g @ layer.w.T, x.shape, layer.k, layer.stride, layer.padding)
    return grad_w, grad_b, dx


@pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
def test_conv_backward_matches_nchw_reference(k, stride, padding):
    # bitwise: a location sum over a contiguous axis is pairwise, over a
    # strided one sequential, so the bias gradient must keep the old order.
    # The weight gradient sums per-sample products over the batch and the
    # input gradient multiplies by a contiguous copy of w.T, so those two
    # round differently from the reference's reshapes: checked to 1e-13.
    rng = np.random.default_rng(34)
    for shape in INPUT_SHAPES:
        conv, bottleneck, _ = _conv_layers(rng, shape[1], k, stride, padding)
        x = _channels_last_copy(rng.standard_normal(shape))
        tape = {}
        dy = _channels_last_copy(rng.standard_normal(conv.forward(x, tape).shape))
        dx = conv.backward(dy, tape)
        grad_w, grad_b, want_dx = _nchw_conv_backward(conv, dy, tape)
        assert np.array_equal(tape["grads"]["b"], grad_b)
        np.testing.assert_allclose(tape["grads"]["w"], grad_w, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-13, atol=1e-13)
        tape = {}
        dy = _channels_last_copy(rng.standard_normal(bottleneck.forward(x, tape).shape))
        bottleneck.backward(dy, tape)
        nchw = np.ascontiguousarray(dy).reshape(shape[0], bottleneck.c_out, -1)
        assert np.array_equal(tape["grads"]["b"], nchw.transpose(0, 2, 1).sum(axis=1).mean(axis=0))


def _three_stage_bottleneck(layer, x, dy):
    """A conv bottleneck's output, tape["g"], input gradient and batch-mean
    parameter gradients through its three stages: the 1x1 projection qa,
    the core over patches of the projected input, the 1x1 projection qs."""
    b, kk = x.shape[0], layer.k * layer.k
    geometry = (layer.k, layer.stride, layer.padding)
    x1 = np.einsum("ca,bchw->bahw", layer.qa, x)
    pat = im2col(x1, *geometry).reshape(b, -1, layer.ra, kk)
    dyr = dy.reshape(b, layer.c_out, -1)
    dh2 = np.einsum("bol,oc->blc", dyr, layer.qs)
    if layer.core_mode == "diag":
        h2 = np.einsum("blad,da->bla", pat, layer.core)
        gcore = np.einsum("blad,bla->da", pat, dh2)
        dpat = np.einsum("bla,da->blad", dh2, layer.core)
    else:
        h2 = np.einsum("blad,acd->blc", pat, layer.core)
        gcore = np.einsum("blad,blc->acd", pat, dh2)
        dpat = np.einsum("blc,acd->blad", dh2, layer.core)
    y = np.einsum("blc,oc->bol", h2, layer.qs) + layer.b[:, None]
    dx1 = col2im(dpat.reshape(b, -1, layer.ra * kk), x1.shape, *geometry)
    grads = {
        "qa": np.einsum("bchw,bahw->ca", x, dx1) / b,
        "core": gcore / b,
        "qs": np.einsum("bol,blc->oc", dyr, h2) / b,
        "b": dyr.sum(axis=(0, 2)) / b,
    }
    return y.reshape(dy.shape), dh2, np.einsum("ca,bahw->bchw", layer.qa, dx1), grads


@pytest.mark.parametrize("core_mode", ["full", "diag"])
@pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
def test_bottleneck_conv_matches_three_stage_reference(k, stride, padding, core_mode):
    # one GEMM over input patches against the effective kernel rounds
    # differently from the three stages, so the check is to float64
    # rounding, relative to each array's largest entry
    rng = np.random.default_rng(36)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    for shape in INPUT_SHAPES:
        _, full, diag = _conv_layers(rng, shape[1], k, stride, padding)
        layer = full if core_mode == "full" else diag
        x = rng.standard_normal(shape)
        tape = {}
        y = layer.forward(x, tape)
        dy = rng.standard_normal(y.shape)
        dx = layer.backward(dy, tape)
        want_y, want_g, want_dx, want_grads = _three_stage_bottleneck(layer, x, dy)
        close(y, want_y)
        close(tape["g"], want_g)
        close(dx, want_dx)
        assert tape["grads"].keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert tape["grads"][name].shape == want.shape, name
            close(tape["grads"][name], want)
        if core_mode == "full":
            plain = ConvLayer(oracle.effective_weight(layer), layer.b, **layer.geometry())
            close(y, plain.forward(x))


@pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
def test_full_core_bottleneck_runs_the_plain_conv_path(k, stride, padding):
    # one path per geometry: with identity bases and a plain layer's kernel
    # as its core, a conv bottleneck's kernel() is w, and both kinds run the
    # same GEMM, weight-gradient contraction and input-gradient product; the
    # last input is a dense pair, whose identity qa hands the core GEMM its
    # input unchanged
    rng = np.random.default_rng(37)
    kk = k * k

    def pairs():
        for shape in INPUT_SHAPES:
            c_in = shape[1]
            conv = ConvLayer(
                rng.standard_normal((c_in * kk, 4)), rng.standard_normal(4),
                c_in=c_in, k=k, stride=stride, padding=padding,
            )
            core = conv.w.reshape(c_in, kk, 4).transpose(0, 2, 1)
            bottleneck = BottleneckConvLayer(np.eye(c_in), core, np.eye(4), conv.b, **conv.geometry())
            yield conv, bottleneck, rng.standard_normal(shape)
        dense = DenseLayer(rng.standard_normal((6, 4)), rng.standard_normal(4))
        yield dense, BottleneckDenseLayer(np.eye(6), dense.w, np.eye(4), dense.b), rng.standard_normal((5, 6))

    for plain, bottleneck, x in pairs():
        dy = rng.standard_normal(plain.forward(x).shape)
        results = []
        for layer in (plain, bottleneck):
            tape = {}
            y = layer.forward(x, tape)
            dx = layer.backward(dy, tape)
            results.append((y, tape["g"], dx, tape["grads"]))
        (y, g, dx, grads), (by, bg, bdx, bgrads) = results
        assert np.array_equal(by, y), plain.kind
        assert np.array_equal(bg, g), plain.kind
        assert np.array_equal(bdx, dx), plain.kind
        gcore = bgrads["core"].reshape(bottleneck.ra, 4, -1).transpose(0, 2, 1).reshape(plain.w.shape)
        assert np.array_equal(gcore, grads["w"]), plain.kind
        assert np.array_equal(bgrads["b"], grads["b"]), plain.kind


@pytest.mark.parametrize("batch", [1, 7, 32])
def test_dense_bottleneck_is_bitwise_the_three_gemm_chain(batch):
    # the dense bottleneck keeps qa out of its kernel: x @ qa, then @ core,
    # then @ qs.T, and the backward of that chain, bit for bit; the
    # association (x @ qa) @ core rounds differently from x @ (qa @ core)
    rng = np.random.default_rng(39)
    qa, core, qs = (rng.standard_normal(s) for s in ((23, 9), (9, 11), (6, 11)))
    b = rng.standard_normal(6)
    layer = BottleneckDenseLayer(qa, core, qs, b)
    x, dy = rng.standard_normal((batch, 23)), rng.standard_normal((batch, 6))
    h1 = x @ qa
    h2 = h1 @ core
    dh2 = dy @ qs
    dh1 = dh2 @ core.T
    want = {
        "qa": x.T @ dh1 / batch, "core": h1.T @ dh2 / batch, "qs": dy.T @ h2 / batch,
        "b": dy.mean(axis=0),
    }
    tape = {}
    assert np.array_equal(layer.forward(x, tape), h2 @ qs.T + b)
    assert np.array_equal(layer.backward(dy.copy(), tape), dh1 @ qa.T)
    assert np.array_equal(tape["a"], h1)
    assert np.array_equal(tape["g"], dh2)
    assert tape["grads"].keys() == want.keys()
    for name, w in want.items():
        assert np.array_equal(tape["grads"][name], w), name


def _laid_out(a, layout):
    """a's values in Fortran order, or as a strided view of a larger array."""
    return np.asfortranarray(a) if layout == "fortran" else np.stack([a, a], axis=-1)[..., 0]


# per kind: the class, its parameter shapes in constructor order, its
# geometry and a sample shape
CHECKPOINT_COPY_KINDS = {
    "dense": (DenseLayer, ((23, 6), (6,)), {}, (23,)),
    "conv": (ConvLayer, ((27, 5), (5,)), dict(c_in=3, k=3, stride=2, padding=1), (3, 7, 6)),
    "bottleneck_dense": (BottleneckDenseLayer, ((23, 9), (9, 11), (6, 11), (6,)), {}, (23,)),
    "bottleneck_conv": (
        BottleneckConvLayer,
        ((3, 4), (4, 5, 9), (6, 5), (6,)),
        dict(c_in=3, k=3, stride=2, padding=1),
        (3, 7, 6),
    ),
}


@pytest.mark.parametrize("layout", ["fortran", "strided"])
@pytest.mark.parametrize("kind", sorted(CHECKPOINT_COPY_KINDS))
def test_layer_runs_as_its_checkpoint_copy(kind, layout):
    # a checkpoint loads C order and the GEMMs round by operand layout, so
    # every constructor holds its parameters C-contiguous: a layer built
    # from Fortran-order or strided arrays runs bitwise as its saved copy
    cls, shapes, geometry, in_shape = CHECKPOINT_COPY_KINDS[kind]
    rng = np.random.default_rng(40)
    layer = cls(*(_laid_out(rng.standard_normal(s), layout) for s in shapes), **geometry)
    loaded = network_from_bytes(network_bytes(Network([layer]))).layers[0]
    assert all(p.flags.c_contiguous for _, p in layer.param_items())
    for batch in (1, 7, 32):
        x = rng.standard_normal((batch,) + in_shape)
        dy = rng.standard_normal((batch,) + layer.out_shape(in_shape))
        results = []
        for each in (layer, loaded):
            tape = {}
            y = each.forward(x, tape)
            results.append((y, each.backward(dy.copy(), tape), tape["g"], tape["grads"]))
        (y, dx, g, grads), (ly, ldx, lg, lgrads) = results
        assert np.array_equal(y, ly) and np.array_equal(dx, ldx) and np.array_equal(g, lg), batch
        assert grads.keys() == lgrads.keys()
        assert all(np.array_equal(grads[k], lgrads[k]) for k in grads), batch


def test_one_by_one_conv_bottleneck_is_the_dense_bottleneck():
    # on 1x1 images a 1x1 conv is a dense layer: with the same bases and
    # core, the two bottleneck kinds agree to float64 rounding in every
    # output, gradient, capture and factor input
    rng = np.random.default_rng(38)
    qa, core, qs = (rng.standard_normal(s) for s in ((5, 4), (4, 3), (6, 3)))
    b = rng.standard_normal(6)
    conv = BottleneckConvLayer(qa, core[:, :, None], qs, b, c_in=5, k=1, stride=1, padding=0)
    dense = BottleneckDenseLayer(qa, core, qs, b)
    x = rng.standard_normal((7, 5))
    dy = rng.standard_normal((7, 6))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    conv_tape, dense_tape = {}, {}
    close(conv.forward(x[:, :, None, None], conv_tape).reshape(7, 6), dense.forward(x, dense_tape))
    close(conv.backward(dy[:, :, None, None], conv_tape).reshape(7, 5), dense.backward(dy, dense_tape))
    close(conv_tape["g"].reshape(7, 3), dense_tape["g"])
    assert conv_tape["grads"].keys() == dense_tape["grads"].keys()
    for name, want in dense_tape["grads"].items():
        close(conv_tape["grads"][name].reshape(want.shape), want)
    close(conv.projected(x[:, :, None, None]).reshape(7, 4), dense_tape["a"])


def test_col2im_rejects_mismatched_cols():
    # (2, 3, 6, 5) with k=3, stride=2, padding=1 takes cols of shape (2, 9, 27)
    good = np.zeros((2, 9, 27))
    assert col2im(good, (2, 3, 6, 5), 3, 2, 1).shape == (2, 3, 6, 5)
    for bad in ((1, 9, 27), (2, 8, 27), (2, 9, 26), (9, 27), (2, 9, 27, 1)):
        with pytest.raises(DimensionError):
            col2im(np.zeros(bad), (2, 3, 6, 5), 3, 2, 1)


def test_im2col_empty_output_rejected():
    with pytest.raises(DimensionError):
        im2col(np.zeros((1, 1, 2, 2)), k=5, stride=1, padding=0)


def test_conv_weight_row_layout():
    # row index c*k*k encodes (channel, row, col); check against kernel4d
    rng = np.random.default_rng(4)
    layer = ConvLayer(rng.standard_normal((2 * 4, 3)), None, c_in=2, k=2)
    k4 = kernel4d(layer)
    for o in range(3):
        for c in range(2):
            for i in range(2):
                for j in range(2):
                    assert k4[o, c, i, j] == layer.w[c * 4 + i * 2 + j, o]


def test_mlp_logits_match_direct_evaluation():
    rng = np.random.default_rng(5)
    net = build_mlp(3, [5], 2, seed=9)
    x = rng.standard_normal((4, 3))
    w1, b1 = net.layers[0].w, net.layers[0].b
    w2, b2 = net.layers[2].w, net.layers[2].b
    ref = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    np.testing.assert_allclose(net.forward(x), ref, atol=1e-14)


def test_softmax_and_cross_entropy_reference():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((5, 3)) * 4.0
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-12)
    # shift invariance
    np.testing.assert_allclose(softmax(logits + 100.0), p, atol=1e-12)
    labels = rng.integers(0, 3, size=5)
    ref = -np.mean(np.log(p[np.arange(5), labels]))
    np.testing.assert_allclose(cross_entropy(logits, labels), ref, atol=1e-12)
    _, grad = cross_entropy_and_grad(logits, labels)
    onehot = np.eye(3)[labels]
    np.testing.assert_allclose(grad, softmax(logits) - onehot, atol=1e-12)


def test_cross_entropy_shape_checks():
    with pytest.raises(DimensionError):
        cross_entropy(np.zeros(3), np.zeros(3, dtype=np.int64))
    with pytest.raises(DimensionError):
        cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=np.int64))
    for logits in (np.zeros(3), np.zeros((2, 3))):
        with pytest.raises(DimensionError):
            cross_entropy_and_grad(logits, np.zeros(3, dtype=np.int64))


def _loss_batches():
    """(logits, labels) batches: a ragged batch of 7, rows tied at their
    max or all equal, entries near +-1e300, and signed zeros."""
    rng = np.random.default_rng(11)
    tied = np.array([[2.0, 2.0, -1.0, 0.5], [3.0, 3.0, 3.0, 3.0], [0.0, -0.0, 0.0, -0.0]])
    huge = np.array([[1e300, -1e300, 0.0, 9.9e299], [-1e300, -1e300, -9e299, -1e299]])
    signed = np.array([[-0.0, -0.0, -1.0, -0.0], [-0.0, 1e-300, -1e-300, 0.0]])
    return [
        (rng.standard_normal((7, 4)) * 5.0, rng.integers(0, 4, size=7)),
        (tied, np.array([1, 2, 3])),
        (huge, np.array([1, 3])),
        (signed, np.array([0, 2])),
    ]


@pytest.mark.parametrize("logits, labels", _loss_batches())
def test_cross_entropy_and_grad_is_bitwise_both(logits, labels):
    """One softmax gives bitwise the loss of cross_entropy and the gradient
    softmax(logits) minus the one-hot labels, which keeps the result of
    softmax as first written: max-shifted exponentials over their
    ndarray.sum row sums."""
    loss, grad = cross_entropy_and_grad(logits, labels)
    assert loss.hex() == cross_entropy(logits, labels).hex()
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    assert same_bits(softmax(logits), want)
    want[np.arange(len(labels)), labels] -= 1.0
    assert same_bits(grad, want)


def test_backward_returns_the_batch_loss():
    """backward's loss is bitwise cross_entropy of the logits it
    backpropagates, with or without parameter gradients, and logits from
    another forward pass still raise."""
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal((7, 1, 6, 6)), rng.integers(0, 3, size=7)
    net = build_cnn((1, 6, 6), [4], 3, seed=2)
    for param_grads in (True, False):
        logits = net.forward(x, capture=True)
        want = cross_entropy(logits, y)
        loss, grads = net.backward(logits, y, param_grads=param_grads)
        assert loss.hex() == want.hex()
        assert all(grads[i] for i in net.parameterized_ids()) == param_grads
    with pytest.raises(StateError, match="different forward pass"):
        net.backward(logits.copy(), y)


def test_step_and_factor_batch_exponentiate_the_logits_once(monkeypatch):
    """One train step and one captured factor-pass batch each compute one
    softmax: the loss and the gradient share it."""
    ds = synth_dataset("blobs", seed=5, n=10, classes=3, image_shape=(1, 6, 6))
    net = build_cnn((1, 6, 6), [4], 3, seed=1)
    calls, np_exp = [], np.exp

    def exp(a, *args, **kwargs):
        calls.append(a.shape)
        return np_exp(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    train(net, ds, epochs=1, lr=0.1, batch_size=10, seed=0)
    assert calls == [(10, 3)]
    calls.clear()
    kfac.estimate_factors(net, ds, batch_size=10)
    assert calls == [(10, 3)]


def test_saturated_logits_give_zero_gradients():
    # one-hot logits scaled far past saturation leave no gradient signal
    layer = DenseLayer(1000.0 * np.eye(2))
    net = Network([layer])
    x = np.eye(2)
    logits = net.forward(x, capture=True)
    _, grads = net.backward(logits, np.array([0, 1]))
    assert np.max(np.abs(grads[0]["w"])) <= 1e-8
    assert np.max(np.abs(grads[0]["b"])) <= 1e-8


def test_backward_state_errors():
    net = build_mlp(2, [3], 2, seed=0)
    with pytest.raises(StateError):
        net.backward(np.zeros((1, 2)), np.zeros(1, dtype=np.int64))
    x = np.zeros((1, 2))
    net.forward(x, capture=True)
    with pytest.raises(StateError, match="different forward pass"):
        net.backward(np.zeros((1, 2)), np.zeros(1, dtype=np.int64))
    with pytest.raises(StateError):
        Network([DenseLayer(np.eye(2))]).captures()
    net2 = Network([DenseLayer(np.eye(2))])
    net2.forward(np.zeros((1, 2)), capture=True)
    with pytest.raises(StateError, match="before backward"):
        net2.captures()


def test_backward_needs_a_captured_forward():
    net = build_mlp(2, [3], 2, seed=0)
    x, y = np.zeros((1, 2)), np.zeros(1, dtype=np.int64)
    captured = net.forward(x, capture=True)
    plain = net.forward(x)
    assert net._tapes is None and net._logits is None
    with pytest.raises(StateError, match="capture=True"):
        net.backward(plain, y)
    # the plain forward also dropped the tapes of the captured one
    with pytest.raises(StateError, match="capture=True"):
        net.backward(captured, y)
    with pytest.raises(StateError):
        net.captures()
    np.testing.assert_array_equal(plain, captured)


def test_backward_skips_input_grads_up_to_the_first_parameterized_layer():
    # an mlp over images starts with a Flatten, so the first dense layer's
    # input gradient would only be thrown away: neither computes one
    cfg = RunConfig(arch="mlp:6", image="2x3x3", dataset="blobs", classes=3)
    net = pipeline.build_network(cfg, 3)
    flags = {}
    for i, layer in enumerate(net.layers):
        def recording(dy, tape, input_grad=True, param_grads=True, i=i, inner=layer.backward):
            flags[i] = input_grad
            return inner(dy, tape, input_grad, param_grads)

        layer.backward = recording
    x = np.random.default_rng(9).standard_normal((4, 2, 3, 3))
    _, grads = net.backward(net.forward(x, capture=True), np.array([0, 1, 2, 0]))
    assert [layer.kind for layer in net.layers] == ["flatten", "dense", "relu", "dense"]
    assert flags == {0: False, 1: False, 2: True, 3: True}
    assert all(grads[i] for i in net.parameterized_ids())


def test_evaluate_keeps_no_tapes():
    net = build_cnn((1, 6, 6), [3], 2, seed=0)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 1, 6, 6))
    y = rng.integers(0, 2, size=5)
    net.backward(net.forward(x, capture=True), y)
    assert net._tapes is not None
    evaluate(net, x, y, batch_size=2)
    assert net._tapes is None and net._logits is None


def test_network_needs_layers():
    with pytest.raises(ValidationError):
        Network([])


def test_build_mlp_structure():
    net = build_mlp(4, [8, 6], 3, seed=0)
    kinds = [l.kind for l in net.layers]
    assert kinds == ["dense", "relu", "dense", "relu", "dense"]
    assert net.parameterized_ids() == [0, 2, 4]
    assert net.layers[0].w.shape == (4, 8)
    assert net.layers[4].w.shape == (6, 3)
    assert out_shapes(net, (4,))[-1] == (3,)


def test_build_cnn_structure():
    net = build_cnn((3, 8, 8), [4, 6], 5, seed=0)
    kinds = [l.kind for l in net.layers]
    assert kinds == ["conv", "relu", "conv", "relu", "flatten", "dense"]
    # stride-2 same-ish padding halves each map: 8 -> 4 -> 2
    assert out_shapes(net, (3, 8, 8))[-1] == (5,)
    assert net.layers[5].w.shape == (6 * 2 * 2, 5)


def test_kaiming_uniform_bound():
    rng = np.random.default_rng(7)
    w = kaiming_uniform(rng, 50, (50, 20))
    assert np.max(np.abs(w)) <= np.sqrt(6.0 / 50)


def test_lr_schedule():
    total = 10
    assert lr_at_epoch(1, total, 0.5) == 0.5
    assert lr_at_epoch(4, total, 0.5) == 0.5
    # drops by 10 at epoch ceil(E/2) and by 100 at ceil(3E/4)
    assert lr_at_epoch(5, total, 0.5) == 0.05
    assert lr_at_epoch(7, total, 0.5) == 0.05
    assert lr_at_epoch(8, total, 0.5) == 0.005
    assert lr_at_epoch(10, total, 0.5) == 0.005
    assert lr_at_epoch(int(np.ceil(total / 2)), total, 1.0) == 0.1


def test_sgd_step_rules():
    p = np.array([1.0, -2.0])
    sgd_step([("w", p)], {"w": np.array([5.0, 5.0])}, lr=0.0)
    np.testing.assert_array_equal(p, [1.0, -2.0])
    sgd_step([("w", p)], {"w": p.copy()}, lr=1.0, weight_decay=0.0)
    np.testing.assert_array_equal(p, [0.0, 0.0])
    p = np.array([2.0])
    sgd_step([("w", p)], {"w": np.array([0.0])}, lr=0.5, weight_decay=1.0)
    np.testing.assert_array_equal(p, [1.0])
    # at zero decay the step is p -= lr * g, bitwise the old formula
    # p -= lr * (g + 0.0 * p) for finite p, signed zeros included
    tiny = np.finfo(np.float64).smallest_subnormal
    values = np.array([0.0, -0.0, tiny, -tiny, 1e-300, -2.5, 3.0, 1e300, -1e300])
    p_grid, g_grid = (a.ravel() for a in np.meshgrid(values, values))
    for lr in (0.0, 1e-3, 0.5, 1.0):
        got, want = p_grid.copy(), p_grid.copy()
        sgd_step([("w", got)], {"w": g_grid.copy()}, lr=lr)
        want -= lr * (g_grid + 0.0 * want)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a weight already at +-inf stays there, where 0.0 * inf made NaN
    p = np.array([np.inf, -np.inf])
    sgd_step([("w", p)], {"w": np.array([1.0, 1.0])}, lr=0.1)
    np.testing.assert_array_equal(p, [np.inf, -np.inf])


def test_sgd_converges_on_quadratic():
    # 0.5*(theta - 3)^2 has gradient theta - 3
    p = np.array([0.0])
    for _ in range(1000):
        sgd_step([("w", p)], {"w": p - 3.0}, lr=0.1)
    assert abs(p[0] - 3.0) <= 1e-6


def test_train_is_deterministic():
    ds = synth_dataset("blobs", seed=0, n=64, classes=3, dim=2)
    blobs = []
    for _ in range(2):
        net = build_mlp(2, [8], 3, seed=1)
        train(net, ds, epochs=3, lr=0.1, batch_size=16, seed=1)
        blobs.append(network_bytes(net))
    assert blobs[0] == blobs[1]


def test_train_curve_shape_and_weight_decay():
    ds = synth_dataset("blobs", seed=1, n=32, classes=2, dim=2)
    net = build_mlp(2, [4], 2, seed=0)
    _, curve = train(net, ds, epochs=4, lr=0.05, weight_decay=1e-3, batch_size=8, seed=0)
    assert len(curve) == 4
    epochs, lrs, losses, accs = zip(*curve)
    assert epochs == (1, 2, 3, 4)
    assert lrs == (0.05, 0.05 / 10, 0.05 / 100, 0.05 / 100)
    assert all(0.0 <= a <= 1.0 for a in accs)


def test_train_divergence_raises():
    ds = synth_dataset("blobs", seed=2, n=16, classes=2, dim=2)
    net = build_mlp(2, [4], 2, seed=0)
    net.layers[0].w[...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergenceError):
        train(net, ds, epochs=1, lr=0.1, seed=0)


def test_freeze_zeros_preserves_pruning():
    ds = synth_dataset("blobs", seed=3, n=64, classes=3, dim=4)
    net = build_mlp(4, [6], 3, seed=2)
    net.layers[0].w[1, :] = 0.0
    net.layers[0].w[0, 2] = 0.0
    net.layers[2].w[:, 1] = 0.0
    net.layers[2].b[1] = 0.0
    train(net, ds, epochs=3, lr=0.2, batch_size=16, seed=0, freeze_zeros=True)
    assert np.all(net.layers[0].w[1, :] == 0.0)
    assert net.layers[0].w[0, 2] == 0.0
    assert np.all(net.layers[2].w[:, 1] == 0.0)
    assert net.layers[2].b[1] == 0.0
    # untouched entries did move, the bias of a live column too
    assert np.any(net.layers[0].w[0, :2] != 0.0)
    assert net.layers[2].b[0] != 0.0


def test_mask_grad_matches_where_bitwise():
    tiny = np.finfo(np.float64).smallest_subnormal
    nan_payload = np.array([0x7FF8_0000_0000_0123, 0xFFF4_0000_0000_0001], dtype=np.uint64)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 1e-310, 1.5, -2.0]
    values = np.concatenate([specials, nan_payload.view(np.float64)])
    g = np.tile(values, 2)
    mask = np.repeat([True, False], values.size)
    want = np.where(mask, 0.0, g)
    keep = np.where(mask, np.uint64(0), np.uint64(2**64 - 1))
    assert keep.dtype == np.uint64
    mask_grad(g, keep)
    assert np.array_equal(g.view(np.uint64), want.view(np.uint64))


def test_keep_patterns_skip_masks_that_freeze_nothing():
    """Zero weights freeze; a bias entry freezes only when it and its
    whole weight column are zero; a layer that freezes nothing gets no
    patterns."""
    net = build_mlp(3, [2, 4], 3, seed=0)
    for i in net.parameterized_ids():
        net.layers[i].b[...] = 0.5
    net.layers[0].w[:, 0] = 0.0
    net.layers[0].b[0] = 0.0
    net.layers[2].w[:, 1] = 0.0
    keeps = keep_patterns(net)
    ones = 2**64 - 1
    assert set(keeps) == {0, 2, 4} and list(keeps[0]) == ["w", "b"] and keeps[4] == {}
    assert keeps[0]["b"].tolist() == [0, ones]
    assert keeps[0]["w"].tolist() == [[0, ones]] * 3
    assert list(keeps[2]) == ["w"] and keeps[2]["w"].tolist() == [[ones, 0, ones, ones]] * 2


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cross_entropy_mean(logits, labels):
    """network.cross_entropy as first written, through numpy's mean."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float((lse - z[np.arange(z.shape[0]), labels]).mean())


def _relu_backward_allocating(self, dy, tape, input_grad=True, param_grads=True):
    return dy * tape["mask"] if input_grad else None


def frozen_masks(net):
    """Per plain layer, the weights exactly 0.0 and the biases that are
    0.0 with their whole weight column."""
    masks = {}
    for i in net.parameterized_ids():
        layer = net.layers[i]
        if layer.kind in ("dense", "conv"):
            w_zero = layer.w == 0.0
            masks[i] = {"w": w_zero, "b": w_zero.all(axis=0) & (layer.b == 0.0)}
    return masks


def reference_finetune(net, ds, epochs, lr, weight_decay, batch_size, seed, freeze_zeros=True):
    """train as first written; returns its curve.  Losses and bias
    gradients go through numpy's mean, ReLU's backward allocates dy * mask,
    each frozen gradient is an np.where copy, and the step allocates
    p -= lr * g, or p -= lr * (g + wd * p) under weight decay."""
    rng = np.random.default_rng(seed)
    masks = frozen_masks(net) if freeze_zeros else {}
    curve = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReluLayer, "backward", _relu_backward_allocating)
        mp.setattr(layers, "_batch_mean", lambda rows: rows.mean(axis=0))
        for epoch in range(1, epochs + 1):
            lr_e = lr_at_epoch(epoch, epochs, lr)
            perm = rng.permutation(ds.n)
            epoch_loss, correct = 0.0, 0
            for start in range(0, ds.n, batch_size):
                idx = perm[start : start + batch_size]
                logits = net.forward(ds.x[idx], capture=True)
                epoch_loss += _cross_entropy_mean(logits, ds.y[idx]) * idx.size
                correct += int((logits.argmax(axis=1) == ds.y[idx]).sum())
                _, grads = net.backward(logits, ds.y[idx])
                for i in net.parameterized_ids():
                    layer_masks = masks.get(i, {})
                    for name, p in net.layers[i].param_items():
                        g = grads[i][name]
                        if name in layer_masks:
                            g = np.where(layer_masks[name], 0.0, g)
                        if weight_decay == 0.0:
                            p -= lr_e * g
                        else:
                            p -= lr_e * (g + weight_decay * p)
            curve.append((epoch, lr_e, epoch_loss / ds.n, correct / ds.n))
    return curve


def assert_same_params(net, ref):
    for i in net.parameterized_ids():
        for (name, got), (_, want) in zip(net.layers[i].param_items(), ref.layers[i].param_items()):
            assert same_bits(got, want), (i, name)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize(
    "arch, image, strategy", [("mlp:32,16", "1x4x4", "obs"), ("cnn:4,8", "1x8x8", "c-obs")]
)
def test_freeze_zeros_matches_where_reference(arch, image, strategy, weight_decay):
    """train(freeze_zeros=True) after an in-place prune gives bitwise the
    parameters and curve of the np.where reference loop, and frozen
    entries stay 0."""
    cfg = RunConfig(
        arch=arch, image=image, dataset="blobs", classes=3, n_train=96, sigma=1.0,
        strategy=strategy, ratio=0.5, batch_size=16,
    )
    ds = pipeline.build_dataset(cfg, "train")
    net = pipeline.build_network(cfg, ds.num_classes)
    train(net, ds, epochs=2, lr=0.1, batch_size=16, seed=0)
    pipeline.prune_once(net, ds, cfg, cap=0.9)
    masks = frozen_masks(net)
    assert any(m["w"].any() for m in masks.values())
    before, ref = copy.deepcopy(net), copy.deepcopy(net)
    run = dict(epochs=2, lr=0.05, weight_decay=weight_decay, batch_size=16, seed=3)
    _, curve = train(net, ds, freeze_zeros=True, **run)
    assert curve == reference_finetune(ref, ds, **run)
    assert network_bytes(net) != network_bytes(before)
    assert_same_params(net, ref)
    for i in net.parameterized_ids():
        for name, got in net.layers[i].param_items():
            assert np.all(got[masks[i][name]] == 0.0)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("arch, image", [("mlp:32,16", "1x4x4"), ("cnn:4,8", "1x8x8")])
def test_train_matches_allocating_reference(arch, image, weight_decay):
    """Plain training, with no frozen weights, from a fresh network and
    then from an eigendamage-pruned one (bottleneck layers): bitwise the
    parameters and curve of the allocating reference loop.  The ragged
    last batch of 6 samples divides by its own size."""
    cfg = RunConfig(
        arch=arch, image=image, dataset="blobs", classes=3, n_train=70, sigma=1.0,
        strategy="eigendamage", ratio=0.4, batch_size=16,
    )
    ds = pipeline.build_dataset(cfg, "train")
    net = pipeline.build_network(cfg, ds.num_classes)
    run = dict(epochs=3, lr=0.1, weight_decay=weight_decay, batch_size=16, seed=1)
    for step in range(2):
        if step:
            pipeline.prune_once(net, ds, cfg, cap=0.9)
            assert {l.kind for l in net.layers} & {"bottleneck_dense", "bottleneck_conv"}
        ref = copy.deepcopy(net)
        _, curve = train(net, ds, **run)
        assert curve == reference_finetune(ref, ds, freeze_zeros=False, **run)
        assert_same_params(net, ref)


def test_sum_then_divide_is_bitwise_numpy_mean():
    """The loss and the bias gradients sum, then divide in place by the
    batch size: bitwise numpy's mean at every batch size up to 70."""
    rng = np.random.default_rng(4)
    for b in range(1, 71):
        logits = rng.standard_normal((b, 5)) * 3.0
        labels = rng.integers(0, 5, size=b)
        assert cross_entropy(logits, labels) == _cross_entropy_mean(logits, labels)
        rows = rng.standard_normal((b, 7))
        assert same_bits(layers._batch_mean(rows), rows.mean(axis=0))


def test_relu_backward_in_place_is_bitwise_the_product():
    """ReLU masks dy in place and hands it back: bitwise dy * mask for
    NaN, +-inf, -0.0 and subnormals, in either memory layout."""
    tiny = np.finfo(np.float64).smallest_subnormal
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 1.5, -2.0, 3.0])
    rng = np.random.default_rng(5)
    x = rng.choice(values, size=(4, 3, 5, 5))
    dy = rng.choice(values, size=x.shape)
    relu = ReluLayer()
    for layout in (lambda a: a, _channels_last_copy):
        tape = {}
        relu.forward(layout(x), tape)
        handed = layout(dy)
        with np.errstate(invalid="ignore"):
            want = dy * tape["mask"]
            got = relu.backward(handed, tape)
        assert got is handed
        assert same_bits(got, want)


def _tape_arrays(tape):
    return {k: v.copy() for k, v in tape.items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("arch, image", [("mlp:12,8", "1x4x4"), ("cnn:4,8", "2x8x8")])
def test_steps_leave_every_tape_capture_intact(arch, image):
    """Backward may overwrite the dy it is handed, sgd_step consumes its
    gradients and the factor folds write into the factors: none of them
    touches a tape capture.  Each capture (a, g, patches, x_in, the ReLU
    masks, a bottleneck's h2 and effective kernel) is copied as its layer
    writes it and must be unchanged after one train step and after one
    factor pass, on a fresh network and on an eigendamage-pruned one."""
    cfg = RunConfig(
        arch=arch, image=image, dataset="blobs", classes=3, n_train=32, sigma=1.0,
        strategy="eigendamage", ratio=0.4, batch_size=32,
    )
    ds = pipeline.build_dataset(cfg, "train")
    net = pipeline.build_network(cfg, ds.num_classes)
    for step in range(2):
        if step:
            pipeline.prune_once(net, ds, cfg, cap=0.9)
        written = {}
        for i, layer in enumerate(net.layers):

            def forward(x, tape=None, _i=i, _f=layer.forward):
                out = _f(x, tape)
                if tape is not None:
                    written[_i] = _tape_arrays(tape)
                return out

            def backward(dy, tape, *args, _i=i, _b=layer.backward, **kwargs):
                out = _b(dy, tape, *args, **kwargs)
                if "g" in tape:
                    written[_i]["g"] = tape["g"].copy()
                return out

            layer.forward, layer.backward = forward, backward
        for run in (
            lambda: train(net, ds, epochs=1, lr=0.1, batch_size=32, seed=0),
            lambda: kfac.estimate_factors(net, ds, batch_size=32),
        ):
            written.clear()
            run()
            kinds = set()
            for i, want in written.items():
                kinds.update(want)
                for key, value in want.items():
                    assert same_bits(net._tapes[i][key], value), (step, i, key)
            assert {"a", "g", "mask"} <= kinds
            if arch.startswith("cnn"):
                assert {"patches", "x_in"} <= kinds
        for layer in net.layers:
            del layer.forward, layer.backward


def test_evaluate_batch_invariant():
    ds = synth_dataset("blobs", seed=4, n=50, classes=3, dim=2)
    net = build_mlp(2, [5], 3, seed=0)
    loss_a, acc_a = evaluate(net, ds.x, ds.y, batch_size=50)
    loss_b, acc_b = evaluate(net, ds.x, ds.y, batch_size=7)
    np.testing.assert_allclose(loss_a, loss_b, rtol=1e-12)
    assert acc_a == acc_b


def test_xor_training_reaches_full_accuracy():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    ds = Dataset(x=x, y=y, num_classes=2)
    net = build_mlp(2, [8], 2, seed=0)
    train(net, ds, epochs=400, lr=0.5, batch_size=4, seed=0)
    _, acc = evaluate(net, x, y)
    assert acc == 1.0


def test_separable_blobs_reach_high_accuracy():
    ds = synth_dataset("blobs", seed=0, n=200, classes=2, dim=2)
    net = build_mlp(2, [8], 2, seed=0)
    train(net, ds, epochs=20, lr=0.2, batch_size=32, seed=0)
    _, acc = evaluate(net, ds.x, ds.y)
    assert acc >= 0.99


def test_moons_mlp_reaches_high_accuracy():
    ds = synth_dataset("moons", seed=0, n=200, classes=2)
    net = build_mlp(2, [12, 8], 2, seed=0)
    train(net, ds, epochs=60, lr=0.3, batch_size=32, seed=0)
    _, acc = evaluate(net, ds.x, ds.y)
    assert acc >= 0.95


def test_relu_and_flatten_roundtrip():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 2, 4, 4))
    relu, flat = ReluLayer(), FlattenLayer()
    tape_r, tape_f = {}, {}
    y = relu.forward(x, tape_r)
    assert np.all(y >= 0.0)
    z = flat.forward(y, tape_f)
    assert z.shape == (3, 32)
    dz = rng.standard_normal(z.shape)
    dy = flat.backward(dz, tape_f)
    assert dy.shape == y.shape
    dx = relu.backward(dy, tape_r)
    np.testing.assert_array_equal(dx[x <= 0], 0.0)
