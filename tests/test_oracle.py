"""Tests for the brute-force oracles: Fisher, finite differences, KKT prunes."""

import numpy as np
import pytest

from kfeprune import oracle
from kfeprune.data import Dataset, synth_dataset
from kfeprune.errors import DimensionError, SizeError, ValidationError
from kfeprune.layers import DenseLayer
from kfeprune.network import Network, build_mlp
from kfeprune.oracle import kron
from kfeprune.training import train

# three-weight quadratic model used across the pruning tests
THETA = np.array([1.0, 1.0, 1.0])
HESS = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.01], [0.0, 0.01, 0.5]])


def random_spd(rng, dim, floor=0.1):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + floor * np.eye(dim)


def test_flatten_set_weights_roundtrip():
    net = build_mlp(3, [4], 2, seed=0)
    theta = oracle.flatten_weights(net, include_bias=True)
    assert theta.size == 3 * 4 + 4 + 4 * 2 + 2
    rng = np.random.default_rng(0)
    new = rng.standard_normal(theta.size)
    oracle.set_weights(net, new, include_bias=True)
    np.testing.assert_array_equal(oracle.flatten_weights(net, include_bias=True), new)
    with pytest.raises(DimensionError):
        oracle.set_weights(net, new[:-1], include_bias=True)


def test_flatten_weights_is_column_major():
    w = np.array([[1.0, 3.0], [2.0, 4.0]])
    net = Network([DenseLayer(w)])
    np.testing.assert_array_equal(oracle.flatten_weights(net), [1.0, 2.0, 3.0, 4.0])


def test_weight_oracles_reject_bottlenecks():
    from kfeprune.layers import BottleneckDenseLayer

    layer = BottleneckDenseLayer(np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValidationError):
        oracle.flatten_weights(Network([layer]))


def test_exact_fisher_single_sample_kron_identity():
    rng = np.random.default_rng(1)
    net = Network([DenseLayer(rng.standard_normal((3, 4)))])
    ds = Dataset(x=rng.standard_normal((1, 3)), y=np.array([1]), num_classes=4)
    fisher = oracle.exact_fisher(net, ds)
    logits = net.forward(ds.x, capture=True)
    net.backward(logits, ds.y)
    tape = net.captures()[0]
    a, g = tape["a"][0], tape["g"][0]
    ref = kron(np.outer(g, g), np.outer(a, a))
    np.testing.assert_allclose(fisher, ref, atol=1e-14)


def test_exact_fisher_zero_at_saturation():
    # fully saturated logits produce exactly zero per-sample gradients
    net = Network([DenseLayer(1000.0 * np.eye(2))])
    ds = Dataset(x=np.eye(2), y=np.array([0, 1]), num_classes=2)
    np.testing.assert_array_equal(oracle.exact_fisher(net, ds), np.zeros((4, 4)))


def test_exact_fisher_psd():
    ds = synth_dataset("blobs", seed=2, n=10, classes=2, dim=3)
    net = build_mlp(3, [4], 2, seed=0)
    for flavor in ("empirical", "expected"):
        f = oracle.exact_fisher(net, ds, flavor=flavor)
        np.testing.assert_allclose(f, f.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(f)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-30)


def test_exact_fisher_expected_matches_enumeration():
    rng = np.random.default_rng(3)
    net = Network([DenseLayer(rng.standard_normal((2, 3)) * 0.5)])
    ds = Dataset(x=rng.standard_normal((4, 2)), y=rng.integers(0, 3, 4), num_classes=3)
    fisher = oracle.exact_fisher(net, ds, flavor="expected")
    from kfeprune.network import softmax

    ref = np.zeros((6, 6))
    for s in range(4):
        x = ds.x[s]
        logits = x @ net.layers[0].w
        p = softmax(logits[None, :])[0]
        for cls in range(3):
            g = p.copy()
            g[cls] -= 1.0
            gv = np.outer(x, g).reshape(-1, order="F")
            ref += p[cls] * np.outer(gv, gv)
    np.testing.assert_allclose(fisher, ref / 4, atol=1e-12)


def test_exact_fisher_options_and_limits():
    ds = synth_dataset("blobs", seed=4, n=4, classes=2, dim=2)
    net = build_mlp(2, [3], 2, seed=0)
    with pytest.raises(ValidationError):
        oracle.exact_fisher(net, ds, flavor="bogus")
    big = build_mlp(2, [64, 64], 2, seed=0)
    with pytest.raises(SizeError):
        oracle.exact_fisher(big, ds)
    # restricting to one layer shrinks the block
    f = oracle.exact_fisher(net, ds, layer_ids=[2])
    assert f.shape == (6, 6)


def test_analytic_grad_matches_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        widths = [int(rng.integers(3, 6))]
        ds = synth_dataset("random", seed=seed, n=12, classes=3, dim=4)
        net = build_mlp(4, widths, 3, seed=seed)
        grad = oracle.analytic_grad(net, ds, include_bias=True)
        lossfn, theta0 = oracle.net_loss_fn(net, ds, include_bias=True)
        fd = oracle.finite_diff_grad(lossfn, theta0, step=1e-5)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-30)
        assert rel <= 1e-6


def test_net_loss_fn_matches_evaluate():
    from kfeprune.training import evaluate

    ds = synth_dataset("blobs", seed=5, n=20, classes=2, dim=2)
    net = build_mlp(2, [4], 2, seed=0)
    lossfn, theta0 = oracle.net_loss_fn(net, ds)
    ref, _ = evaluate(net, ds.x, ds.y)
    np.testing.assert_allclose(lossfn(theta0), ref, rtol=1e-12)


def test_finite_diff_hessian_quadratic_exact():
    rng = np.random.default_rng(6)
    m = random_spd(rng, 4)

    def f(theta):
        return float(0.5 * theta @ m @ theta)

    h = oracle.finite_diff_hessian(f, rng.standard_normal(4))
    np.testing.assert_allclose(h, m, atol=1e-6)


def test_finite_diff_hessian_linear_zero():
    c = np.array([1.0, -2.0, 3.0])

    def f(theta):
        return float(c @ theta)

    h = oracle.finite_diff_hessian(f, np.zeros(3))
    np.testing.assert_allclose(h, np.zeros((3, 3)), atol=1e-6)


def test_hessian_matches_expected_fisher_at_minimum():
    """With logits linear in the weights the loss Hessian is the expected
    Fisher identically, so the trained comparison isolates FD noise."""
    ds = synth_dataset("blobs", seed=0, n=64, classes=3, dim=3)
    net = build_mlp(3, [], 3, seed=0)
    train(net, ds, epochs=60, lr=0.3, batch_size=16, seed=0)
    fisher = oracle.exact_fisher(net, ds, flavor="expected")
    lossfn, theta0 = oracle.net_loss_fn(net, ds)
    hess = oracle.finite_diff_hessian(lossfn, theta0, step=1e-4)
    rel = np.linalg.norm(hess - fisher) / np.linalg.norm(fisher)
    assert rel <= 5e-3


def test_single_prune_worked_example():
    """Dual route on the three-weight example: the KKT solve and the
    inverse-curvature closed form must agree to roundoff."""
    h_inv = np.linalg.inv(HESS)
    for q in range(3):
        dtheta, dl = oracle.exact_single_prune(THETA, HESS, q)
        closed = -(THETA[q] / h_inv[q, q]) * h_inv[:, q]
        np.testing.assert_allclose(dtheta, closed, atol=1e-12)
        np.testing.assert_allclose(dl, 0.5 * THETA[q] ** 2 / h_inv[q, q], atol=1e-12)
        assert abs(THETA[q] + dtheta[q]) <= 1e-12
        # compensation never costs more than plain zeroing
        assert dl <= 0.5 * THETA[q] ** 2 * HESS[q, q] + 1e-12
    # first-weight numbers for the record
    dtheta, dl = oracle.exact_single_prune(THETA, HESS, 0)
    np.testing.assert_allclose(dtheta, [-1.0, 0.99019804, -0.01980396], atol=1e-8)
    np.testing.assert_allclose(dl, 0.00985197, atol=1e-8)


def test_single_prune_diagonal_degenerates_to_plain_zeroing():
    h = np.diag([2.0, 3.0, 4.0])
    theta = np.array([1.0, -2.0, 0.5])
    for q in range(3):
        dtheta, dl = oracle.exact_single_prune(theta, h, q)
        expected = np.zeros(3)
        expected[q] = -theta[q]
        np.testing.assert_allclose(dtheta, expected, atol=1e-12)
        np.testing.assert_allclose(dl, 0.5 * theta[q] ** 2 * h[q, q], atol=1e-12)


def test_single_prune_random_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = random_spd(rng, 5)
        theta = rng.standard_normal(5)
        h_inv = np.linalg.inv(h)
        q = int(rng.integers(5))
        dtheta, dl = oracle.exact_single_prune(theta, h, q)
        closed = -(theta[q] / h_inv[q, q]) * h_inv[:, q]
        np.testing.assert_allclose(dtheta, closed, atol=1e-10)
        np.testing.assert_allclose(dl, 0.5 * theta[q] ** 2 / h_inv[q, q], atol=1e-10)


def test_single_prune_validation():
    with pytest.raises(ValidationError):
        oracle.exact_single_prune(THETA, HESS, 3)
    with pytest.raises(DimensionError):
        oracle.exact_single_prune(THETA, np.eye(2), 0)


def test_multi_prune_worked_example_costs():
    dtheta, dl = oracle.exact_multi_prune(THETA, HESS, [1, 2])
    np.testing.assert_allclose(dtheta, [0.0, -1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(dl, 0.76, atol=1e-12)
    dtheta, dl = oracle.exact_multi_prune(THETA, HESS, [0, 1])
    np.testing.assert_allclose(dtheta, [-1.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(dl, 1.99, atol=1e-12)


def test_multi_prune_all_indices():
    dtheta, dl = oracle.exact_multi_prune(THETA, HESS, [0, 1, 2])
    np.testing.assert_allclose(dtheta, -THETA, atol=1e-12)
    np.testing.assert_allclose(dl, 0.5 * THETA @ HESS @ THETA, atol=1e-12)


def test_multi_prune_compensated_matches_single():
    rng = np.random.default_rng(8)
    h = random_spd(rng, 6)
    theta = rng.standard_normal(6)
    d1, l1 = oracle.exact_single_prune(theta, h, 2)
    d2, l2 = oracle.exact_multi_prune(theta, h, [2], compensate=True)
    np.testing.assert_allclose(d1, d2, atol=1e-10)
    np.testing.assert_allclose(l1, l2, atol=1e-10)
    # compensation helps against plain zeroing of the same set
    _, l_zero = oracle.exact_multi_prune(theta, h, [2, 4])
    _, l_comp = oracle.exact_multi_prune(theta, h, [2, 4], compensate=True)
    assert l_comp <= l_zero + 1e-12


def test_multi_prune_zeroing_touches_only_the_set():
    rng = np.random.default_rng(9)
    h = random_spd(rng, 5)
    theta = rng.standard_normal(5)
    dtheta, _ = oracle.exact_multi_prune(theta, h, [1, 3])
    np.testing.assert_allclose(dtheta[[0, 2, 4]], 0.0, atol=1e-12)
    np.testing.assert_allclose(dtheta[[1, 3]], -theta[[1, 3]], atol=1e-12)


def test_multi_prune_validation():
    with pytest.raises(ValidationError):
        oracle.exact_multi_prune(THETA, HESS, [])
    with pytest.raises(ValidationError):
        oracle.exact_multi_prune(THETA, HESS, [5])
    with pytest.raises(ValidationError):
        oracle.exact_multi_prune(THETA, HESS, [0, 1, 2], compensate=True)


def test_kl_diag_directions():
    diag = np.diag([2.0, 5.0])
    np.testing.assert_allclose(oracle.kl_diag(diag, "forward"), [2.0, 5.0])
    np.testing.assert_allclose(oracle.kl_diag(diag, "reverse"), [2.0, 5.0])
    sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
    np.testing.assert_allclose(oracle.kl_diag(sigma, "forward"), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(oracle.kl_diag(sigma, "reverse"), [0.19, 0.19], atol=1e-12)


def test_kl_diag_forward_dominates_reverse():
    rng = np.random.default_rng(10)
    for _ in range(10):
        sigma = random_spd(rng, 4, floor=0.5)
        fwd = oracle.kl_diag(sigma, "forward")
        rev = oracle.kl_diag(sigma, "reverse")
        assert np.all(fwd >= rev - 1e-12)


def test_kl_diag_validation():
    with pytest.raises(ValidationError):
        oracle.kl_diag(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DimensionError):
        oracle.kl_diag(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        oracle.kl_diag(np.eye(2), "sideways")
