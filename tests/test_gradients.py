"""Finite-difference checks of the conv and bottleneck backward passes,
of the first layer skipping its input gradient, and of backward without
parameter gradients."""

import numpy as np
import pytest

from kfeprune import layers as layers_mod
from kfeprune import oracle
from kfeprune.data import synth_dataset
from kfeprune.layers import (
    BottleneckConvLayer,
    BottleneckDenseLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    ReluLayer,
)
from kfeprune.config import RunConfig
from kfeprune.data import Dataset
from kfeprune.network import Network, build_cnn, cross_entropy, cross_entropy_and_grad
from kfeprune.pipeline import prune_once

REL_TOL = 1e-6


def param_grad_check(net, x, y):
    """Relative error of every parameter's analytic gradient against central
    differences of the batch-mean loss."""
    arrays = [arr for layer in net.layers for _, arr in layer.param_items()]
    theta0 = np.concatenate([a.ravel() for a in arrays])

    def lossfn(theta):
        pos = 0
        for a in arrays:
            a[...] = theta[pos : pos + a.size].reshape(a.shape)
            pos += a.size
        return cross_entropy(net.forward(x), y)

    g_num = oracle.finite_diff_grad(lossfn, theta0)
    lossfn(theta0)
    _, grads = net.backward(net.forward(x, capture=True), y)
    g_ana = np.concatenate(
        [grads[i][name].ravel() for i, layer in enumerate(net.layers)
         for name, _ in layer.param_items()]
    )
    return float(np.linalg.norm(g_ana - g_num) / max(np.linalg.norm(g_num), 1e-12))


def bottleneck_conv_net(rng, core_mode):
    """conv -> bottleneck conv -> dense, so the bottleneck's input gradient
    reaches the first layer's parameters."""
    k = 3
    ra, rc = (2, 2) if core_mode == "diag" else (2, 3)
    core = (
        rng.standard_normal((k * k, ra))
        if core_mode == "diag"
        else rng.standard_normal((ra, rc, k * k))
    )
    bottleneck = BottleneckConvLayer(
        qa=rng.standard_normal((2, ra)),
        core=core,
        qs=rng.standard_normal((3, rc)),
        bias=rng.standard_normal(3),
        c_in=2, k=k, stride=2, padding=1,
    )
    # the mode is read off the core's rank
    assert bottleneck.core_mode == core_mode
    return Network([
        ConvLayer(rng.standard_normal((9, 2)), rng.standard_normal(2), c_in=1, k=3, padding=1),
        ReluLayer(),
        bottleneck,
        ReluLayer(),
        FlattenLayer(),
        DenseLayer(0.3 * rng.standard_normal((27, 3)), rng.standard_normal(3)),
    ])


def bottleneck_dense_net(rng):
    core = rng.standard_normal((3, 2))
    bottleneck = BottleneckDenseLayer(
        qa=rng.standard_normal((5, 3)),
        core=core,
        qs=rng.standard_normal((4, 2)),
        bias=rng.standard_normal(4),
    )
    return Network([
        DenseLayer(rng.standard_normal((6, 5)), rng.standard_normal(5)),
        ReluLayer(),
        bottleneck,
        ReluLayer(),
        DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(3)),
    ])


def two_conv_case(seed):
    net = build_cnn((1, 6, 6), [2, 3], 3, seed=seed)
    ds = synth_dataset("random", seed=seed, n=8, classes=3, image_shape=(1, 6, 6))
    return net, ds.x, ds.y


def bottleneck_conv_case(seed, core_mode):
    rng = np.random.default_rng(seed)
    net = bottleneck_conv_net(rng, core_mode)
    return net, rng.standard_normal((4, 1, 5, 5)), rng.integers(0, 3, 4)


def bottleneck_dense_case(seed):
    rng = np.random.default_rng(seed)
    net = bottleneck_dense_net(rng)
    return net, rng.standard_normal((6, 6)), rng.integers(0, 3, 6)


CASES = {
    "two_conv": two_conv_case,
    "bottleneck_conv_full": lambda seed: bottleneck_conv_case(seed, "full"),
    "bottleneck_conv_diag": lambda seed: bottleneck_conv_case(seed, "diag"),
    "bottleneck_dense_full": bottleneck_dense_case,
}


@pytest.mark.parametrize("seed", range(4))
def test_two_conv_cnn_gradient_matches_finite_differences(seed):
    assert param_grad_check(*two_conv_case(seed)) <= REL_TOL


@pytest.mark.parametrize("core_mode", ["full", "diag"])
@pytest.mark.parametrize("seed", range(3))
def test_bottleneck_conv_gradient_matches_finite_differences(core_mode, seed):
    assert param_grad_check(*bottleneck_conv_case(seed, core_mode)) <= REL_TOL


# dense bottleneck cores are always full; the mode stays in the test id
@pytest.mark.parametrize("core_mode", ["full"])
@pytest.mark.parametrize("seed", range(3))
def test_bottleneck_dense_gradient_matches_finite_differences(core_mode, seed):
    assert param_grad_check(*bottleneck_dense_case(seed)) <= REL_TOL


@pytest.mark.parametrize("case", sorted(CASES))
def test_network_backward_matches_per_layer_input_grads(case):
    """Skipping the first layer's input gradient leaves every parameter
    gradient bit-identical to backpropagating through all layers."""
    net, x, y = CASES[case](0)
    logits = net.forward(x, capture=True)
    _, fast = net.backward(logits, y)
    tapes = [{} for _ in net.layers]
    out = x
    for layer, tape in zip(net.layers, tapes):
        out = layer.forward(out, tape)
    _, delta = cross_entropy_and_grad(out, y)
    for layer, tape in zip(reversed(net.layers), reversed(tapes)):
        delta = layer.backward(delta, tape, input_grad=True)
    assert delta.shape == x.shape
    for i in net.parameterized_ids():
        assert fast[i].keys() == tapes[i]["grads"].keys()
        for name in fast[i]:
            np.testing.assert_array_equal(fast[i][name], tapes[i]["grads"][name])


def test_first_layer_skips_input_gradient(monkeypatch):
    net, x, y = two_conv_case(0)
    calls, layouts = [], []
    original = layers_mod.col2im

    # the conv input gradient's scatter, handed the GEMM's (B, L, n)
    # output as it lies
    def counting_col2im(*args, **kwargs):
        calls.append(args[1])
        layouts.append(args[0].flags.c_contiguous)
        return original(*args, **kwargs)

    monkeypatch.setattr(layers_mod, "col2im", counting_col2im)
    net.backward(net.forward(x, capture=True), y)
    assert calls == [(8, 2, 3, 3)]
    tape = {}
    dy = net.layers[0].forward(x, tape)
    assert net.layers[0].backward(dy, tape, input_grad=False) is None
    assert "grads" in tape

    # eigendamage rewrites both convs as bottlenecks.  A bottleneck's only
    # col2im is its input gradient, so layer 0 scatters none, in training
    # or in the factor pass, which builds no parameter gradients.
    prune_once(net, Dataset(x=x, y=y, num_classes=3), RunConfig(ratio=0.3), cap=0.9)
    assert [net.layers[i].kind for i in (0, 2)] == ["bottleneck_conv", "bottleneck_conv"]
    for param_grads in (True, False):
        calls.clear()
        net.backward(net.forward(x, capture=True), y, param_grads=param_grads)
        caps = net.captures()
        assert calls == [caps[2]["x_in"].shape]
        assert all(layouts)
        assert caps[2]["x_in"].shape != caps[0]["x_in"].shape


def layer_case(kind, rng):
    """(layer, input batch) for each parameterized kind and core mode."""
    if kind == "dense":
        layer = DenseLayer(rng.standard_normal((6, 5)), rng.standard_normal(5))
        return layer, rng.standard_normal((4, 6))
    if kind == "conv":
        w, b = rng.standard_normal((18, 3)), rng.standard_normal(3)
        return ConvLayer(w, b, c_in=2, k=3, stride=2, padding=1), rng.standard_normal((4, 2, 5, 5))
    if kind == "bottleneck_dense":
        return bottleneck_dense_net(rng).layers[2], rng.standard_normal((4, 5))
    layer = bottleneck_conv_net(rng, kind[len("bottleneck_conv_"):]).layers[2]
    return layer, rng.standard_normal((4, 2, 5, 5))


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize(
    "kind", ["dense", "conv", "bottleneck_dense", "bottleneck_conv_full", "bottleneck_conv_diag"]
)
def test_backward_without_param_grads_keeps_captures(kind, input_grad):
    """param_grads=False writes no gradients and leaves the output-side
    capture and the input gradient bitwise unchanged."""
    layer, x = layer_case(kind, np.random.default_rng(3))
    full, lean = {}, {}
    y = layer.forward(x, full)
    layer.forward(x, lean)
    dy = np.random.default_rng(4).standard_normal(y.shape)
    dx_full = layer.backward(dy, full, input_grad=input_grad)
    dx_lean = layer.backward(dy, lean, input_grad=input_grad, param_grads=False)
    assert "grads" in full and "grads" not in lean
    assert full.keys() - {"grads"} == lean.keys()
    np.testing.assert_array_equal(lean["g"], full["g"])
    if input_grad:
        assert dx_lean.shape == x.shape
        np.testing.assert_array_equal(dx_lean, dx_full)
        assert dx_lean.strides == dx_full.strides
    else:
        assert dx_lean is None and dx_full is None


@pytest.mark.parametrize("case", sorted(CASES))
def test_network_backward_without_param_grads(case):
    """Network.backward(param_grads=False) returns empty dicts and the same
    capture tensors as a full backward."""
    net, x, y = CASES[case](0)
    net.backward(net.forward(x, capture=True), y)
    full = {i: tape["g"] for i, tape in net.captures().items()}
    _, grads = net.backward(net.forward(x, capture=True), y, param_grads=False)
    assert grads == [{} for _ in net.layers]
    lean = net.captures()
    assert lean.keys() == full.keys()
    for i, g in full.items():
        np.testing.assert_array_equal(lean[i]["g"], g)


def test_blas_contractions_match_einsum_reference():
    """The reshape-GEMM and batched-matmul contractions agree with the
    plain einsum forms they replaced, to float64 rounding."""
    rng = np.random.default_rng(5)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    conv = ConvLayer(rng.standard_normal((18, 4)), None, c_in=2, k=3, stride=2, padding=1)
    x = rng.standard_normal((3, 2, 7, 6))
    tape = {}
    dy = rng.standard_normal(conv.forward(x, tape).shape)
    conv.backward(dy, tape)
    close(tape["grads"]["w"], np.einsum("bln,blm->nm", tape["patches"], tape["g"]) / 3)

    # the bottleneck's effective-kernel GEMMs against the three-stage einsum
    # chain: projection, im2col of the projected input, core, qs
    layer = bottleneck_conv_net(rng, "full").layers[2]
    x = rng.standard_normal((3, 2, 5, 5))
    tape = {}
    y = layer.forward(x, tape)
    dy = rng.standard_normal(y.shape)
    dx = layer.backward(dy, tape)
    x1 = np.einsum("ca,bchw->bahw", layer.qa, x)
    core_pat = layers_mod.im2col(x1, 3, 2, 1).reshape(3, -1, layer.ra, 9)
    h2 = np.einsum("blad,acd->blc", core_pat, layer.core)
    dy3 = dy.reshape(3, layer.c_out, -1).transpose(0, 2, 1)
    close(tape["h2"], h2)
    close(y, np.einsum("blc,oc->bol", h2, layer.qs).reshape(y.shape) + layer.b[:, None, None])
    dh2 = np.einsum("blo,oc->blc", dy3, layer.qs)
    close(tape["g"], dh2)
    close(tape["grads"]["qs"], np.einsum("blo,blc->oc", dy3, h2) / 3)
    close(tape["grads"]["core"], np.einsum("blad,blc->acd", core_pat, dh2) / 3)
    dcore_pat = np.einsum("blc,acd->blad", dh2, layer.core).reshape(3, -1, layer.ra * 9)
    dx1 = layers_mod.col2im(dcore_pat, x1.shape, 3, 2, 1)
    close(tape["grads"]["qa"], np.einsum("bchw,bahw->ca", x, dx1) / 3)
    close(dx, np.einsum("ca,bahw->bchw", layer.qa, dx1))

    layer = bottleneck_dense_net(rng).layers[2]
    x = rng.standard_normal((4, 5))
    tape = {}
    dy = rng.standard_normal(layer.forward(x, tape).shape)
    layer.backward(dy, tape)
    close(tape["grads"]["qs"], np.einsum("bm,br->mr", dy, tape["h2"]) / 4)
