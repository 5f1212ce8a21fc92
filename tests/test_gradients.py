"""Finite-difference checks of the conv and bottleneck backward passes,
and of the first layer skipping its input gradient."""

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
from kfeprune.network import Network, build_cnn, cross_entropy_grad

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
        return net.loss(x, y)

    g_num = oracle.finite_diff_grad(lossfn, theta0)
    lossfn(theta0)
    grads = net.backward(net.forward(x), y)
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
        c_in=2, k=k, stride=2, padding=1, basis="channel", core_mode=core_mode,
    )
    return Network([
        ConvLayer(rng.standard_normal((9, 2)), rng.standard_normal(2), c_in=1, k=3, padding=1),
        ReluLayer(),
        bottleneck,
        ReluLayer(),
        FlattenLayer(),
        DenseLayer(0.3 * rng.standard_normal((27, 3)), rng.standard_normal(3)),
    ])


def bottleneck_dense_net(rng, core_mode):
    ra, rc = (3, 3) if core_mode == "diag" else (3, 2)
    core = rng.standard_normal(ra) if core_mode == "diag" else rng.standard_normal((ra, rc))
    bottleneck = BottleneckDenseLayer(
        qa=rng.standard_normal((5, ra)),
        core=core,
        qs=rng.standard_normal((4, rc)),
        bias=rng.standard_normal(4),
        core_mode=core_mode,
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


def bottleneck_dense_case(seed, core_mode):
    rng = np.random.default_rng(seed)
    net = bottleneck_dense_net(rng, core_mode)
    return net, rng.standard_normal((6, 6)), rng.integers(0, 3, 6)


CASES = {
    "two_conv": two_conv_case,
    "bottleneck_conv_full": lambda seed: bottleneck_conv_case(seed, "full"),
    "bottleneck_conv_diag": lambda seed: bottleneck_conv_case(seed, "diag"),
    "bottleneck_dense_full": lambda seed: bottleneck_dense_case(seed, "full"),
    "bottleneck_dense_diag": lambda seed: bottleneck_dense_case(seed, "diag"),
}


@pytest.mark.parametrize("seed", range(4))
def test_two_conv_cnn_gradient_matches_finite_differences(seed):
    assert param_grad_check(*two_conv_case(seed)) <= REL_TOL


@pytest.mark.parametrize("core_mode", ["full", "diag"])
@pytest.mark.parametrize("seed", range(3))
def test_bottleneck_conv_gradient_matches_finite_differences(core_mode, seed):
    assert param_grad_check(*bottleneck_conv_case(seed, core_mode)) <= REL_TOL


@pytest.mark.parametrize("core_mode", ["full", "diag"])
@pytest.mark.parametrize("seed", range(3))
def test_bottleneck_dense_gradient_matches_finite_differences(core_mode, seed):
    assert param_grad_check(*bottleneck_dense_case(seed, core_mode)) <= REL_TOL


@pytest.mark.parametrize("case", sorted(CASES))
def test_network_backward_matches_per_layer_input_grads(case):
    """Skipping the first layer's input gradient leaves every parameter
    gradient bit-identical to backpropagating through all layers."""
    net, x, y = CASES[case](0)
    logits = net.forward(x)
    fast = net.backward(logits, y)
    tapes = [{} for _ in net.layers]
    out = x
    for layer, tape in zip(net.layers, tapes):
        out = layer.forward(out, tape)
    delta = cross_entropy_grad(out, y)
    for layer, tape in zip(reversed(net.layers), reversed(tapes)):
        delta = layer.backward(delta, tape, input_grad=True)
    assert delta.shape == x.shape
    for i in net.parameterized_ids():
        assert fast[i].keys() == tapes[i]["grads"].keys()
        for name in fast[i]:
            np.testing.assert_array_equal(fast[i][name], tapes[i]["grads"][name])


def test_first_layer_skips_input_gradient(monkeypatch):
    net, x, y = two_conv_case(0)
    calls = []
    original = layers_mod.col2im

    def counting_col2im(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(layers_mod, "col2im", counting_col2im)
    net.backward(net.forward(x), y)
    assert calls == [(8, 2, 3, 3)]
    tape = {}
    dy = net.layers[0].forward(x, tape)
    assert net.layers[0].backward(dy, tape, input_grad=False) is None
    assert "grads" in tape


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

    net = bottleneck_conv_net(rng, "full")
    layer = net.layers[2]
    x = rng.standard_normal((3, 2, 5, 5))
    tape = {}
    y = layer.forward(x, tape)
    close(tape["x1"], np.einsum("ca,bchw->bahw", layer.qa, x))
    dy = rng.standard_normal(y.shape)
    dx = layer.backward(dy, tape)
    dy3 = dy.reshape(3, layer.c_out, -1).transpose(0, 2, 1)
    close(tape["grads"]["qs"], np.einsum("blo,blr->or", dy3, tape["h2"]) / 3)
    dcore_mat = np.einsum("bln,blc->nc", tape["core_pat"], tape["g"]) / 3
    close(tape["grads"]["core"], dcore_mat.reshape(layer.ra, 9, layer.rc).transpose(0, 2, 1))
    dcore_pat = tape["g"] @ layer.core_matrix().T
    dx1 = layers_mod.col2im(dcore_pat, tape["x1"].shape, 3, 2, 1)
    close(tape["grads"]["qa"], np.einsum("bchw,bahw->ca", x, dx1) / 3)
    close(dx, np.einsum("ca,bahw->bchw", layer.qa, dx1))

    layer = bottleneck_dense_net(rng, "full").layers[2]
    x = rng.standard_normal((4, 5))
    tape = {}
    dy = rng.standard_normal(layer.forward(x, tape).shape)
    layer.backward(dy, tape)
    close(tape["grads"]["qs"], np.einsum("bm,br->mr", dy, tape["h2"]) / 4)
