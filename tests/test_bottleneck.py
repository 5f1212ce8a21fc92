"""Tests for eigenbasis bottleneck layers: rotation, pruning, merging,
and the separable core decomposition."""

import numpy as np
import pytest

from kfeprune import oracle
from kfeprune.errors import DimensionError, SingularityError, ValidationError
from kfeprune.kfac import EigenFactors
from kfeprune.layers import (
    BottleneckConvLayer,
    BottleneckDenseLayer,
    ConvLayer,
    DenseLayer,
    im2col,
)
from kfeprune.reparam import (
    ALS_MAX_ITER,
    ALS_RESTARTS,
    ALS_TOL,
    COLLAPSE_TOL,
    _solve_factor,
    _svd_init,
    _unfold,
    absorb_depthwise,
    depthwise_decompose,
    eigenprune,
    khatri_rao,
    merge_bases,
    smallest_form,
    to_kfe,
)


def random_orthonormal(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def random_eigen(rng, n, m):
    return EigenFactors(
        qa=random_orthonormal(rng, n),
        lam_a=np.sort(rng.uniform(0.1, 2.0, n))[::-1].copy(),
        qs=random_orthonormal(rng, m),
        lam_s=np.sort(rng.uniform(0.1, 2.0, m))[::-1].copy(),
    )


def planted_conv(rng, c_in=6, c_out=5, k=3, rank=2):
    u = rng.standard_normal((c_in, rank))
    v = rng.standard_normal((c_out, rank))
    c = rng.uniform(0.5, 1.5, (k * k, rank))
    core = np.einsum("ir,jr,dr->ijd", u, v, c)
    return BottleneckConvLayer(
        qa=np.eye(c_in),
        core=core,
        qs=np.eye(c_out),
        bias=None,
        c_in=c_in,
        k=k,
        stride=1,
        padding=1,
    )


def rotated(kind, rng, n=6, m=6):
    """A plain dense or conv layer with a bias, its rotation into random
    orthonormal bases, and an input batch for both."""
    if kind == "dense":
        plain = DenseLayer(rng.standard_normal((n, m)), rng.standard_normal(m))
        x = rng.standard_normal((7, n))
    else:
        plain = ConvLayer(
            rng.standard_normal((n * 9, m)), rng.standard_normal(m), c_in=n, k=3,
            stride=2, padding=1,
        )
        x = rng.standard_normal((2, n, 5, 5))
    return plain, to_kfe(plain, random_eigen(rng, n, m)), x


def assert_same_shell(new, old):
    """A rewrite keeps the class, the geometry and the bias bytes, and
    copies the bias."""
    assert type(new) is type(old)
    assert (new.qa.shape[0], new.qs.shape[0]) == (old.qa.shape[0], old.qs.shape[0])
    assert new.geometry() == old.geometry()
    assert new.b.tobytes() == old.b.tobytes()
    assert new.b is not old.b


def reconstruct(factors):
    """The core a set of separable factors stands for."""
    return np.einsum("ir,jr,dr->ijd", factors.u, factors.v, factors.c)


def test_to_kfe_dense_preserves_function():
    rng = np.random.default_rng(0)
    layer = DenseLayer(rng.standard_normal((5, 4)), rng.standard_normal(4))
    ef = random_eigen(rng, 5, 4)
    rot = to_kfe(layer, ef)
    x = rng.standard_normal((7, 5))
    np.testing.assert_allclose(rot.forward(x), layer.forward(x), atol=1e-12)
    np.testing.assert_allclose(oracle.effective_weight(rot), layer.w, atol=1e-12)
    np.testing.assert_allclose(rot.qa.T @ rot.qa, np.eye(4 + 1), atol=1e-12)
    np.testing.assert_allclose(rot.qs.T @ rot.qs, np.eye(4), atol=1e-12)


def test_to_kfe_identity_factors_keep_weight_as_core():
    rng = np.random.default_rng(1)
    layer = DenseLayer(rng.standard_normal((3, 2)))
    ef = EigenFactors(
        qa=np.eye(3), lam_a=np.ones(3), qs=np.eye(2), lam_s=np.ones(2)
    )
    rot = to_kfe(layer, ef)
    np.testing.assert_allclose(rot.core, layer.w, atol=1e-15)


def test_to_kfe_conv_channel_preserves_function():
    rng = np.random.default_rng(2)
    layer = ConvLayer(
        rng.standard_normal((4 * 9, 6)), rng.standard_normal(6), c_in=4, k=3,
        stride=1, padding=1,
    )
    ef = random_eigen(rng, 4, 6)
    rot = to_kfe(layer, ef)
    x = rng.standard_normal((2, 4, 5, 5))
    np.testing.assert_allclose(rot.forward(x), layer.forward(x), atol=1e-12)
    np.testing.assert_allclose(oracle.effective_weight(rot), layer.w, atol=1e-12)


def test_to_kfe_validation():
    rng = np.random.default_rng(4)
    layer = DenseLayer(rng.standard_normal((3, 2)))
    with pytest.raises(DimensionError):
        to_kfe(layer, random_eigen(rng, 4, 2))
    from kfeprune.layers import ReluLayer

    with pytest.raises(ValidationError):
        to_kfe(ReluLayer(), random_eigen(rng, 2, 2))


def test_eigenprune_empty_removals_keep_function():
    rng = np.random.default_rng(5)
    for kind in ("dense", "conv"):
        layer, rot, x = rotated(kind, rng, 4, 3)
        pruned = eigenprune(rot, [], [])
        assert_same_shell(pruned, rot)
        np.testing.assert_allclose(pruned.forward(x), layer.forward(x), atol=1e-12)


def test_eigenprune_zero_directions_exact():
    # a core supported on few basis directions loses nothing when the
    # unused directions go
    rng = np.random.default_rng(6)
    qa = random_orthonormal(rng, 5)
    qs = random_orthonormal(rng, 4)
    core = np.zeros((5, 4))
    core[np.ix_([0, 2], [1, 3])] = rng.standard_normal((2, 2))
    layer = BottleneckDenseLayer(qa=qa, core=core, qs=qs)
    pruned = eigenprune(layer, [1, 3, 4], [0, 2])
    x = rng.standard_normal((8, 5))
    np.testing.assert_allclose(pruned.forward(x), layer.forward(x), atol=1e-12)
    assert pruned.core.shape == (2, 2)


def test_eigenprune_parseval_energy_split():
    # orthonormal bases make the removed function energy exactly the
    # removed core energy: |W|_F^2 = |kept core|_F^2 + |dropped core|_F^2
    rng = np.random.default_rng(7)
    for kind in ("dense", "conv"):
        layer, rot, _ = rotated(kind, rng, 6, 5)
        pruned = eigenprune(rot, [4, 5], [0])
        total = np.sum(layer.w**2)
        kept = np.sum(pruned.core**2)
        dropped = total - np.sum(rot.core[np.ix_([0, 1, 2, 3], [1, 2, 3, 4])] ** 2)
        np.testing.assert_allclose(
            np.sum(oracle.effective_weight(pruned) ** 2), kept, atol=1e-10
        )
        np.testing.assert_allclose(dropped + kept, total, atol=1e-10)


def test_eigenprune_conv_channel():
    rng = np.random.default_rng(8)
    layer = ConvLayer(rng.standard_normal((3 * 9, 4)), None, c_in=3, k=3, padding=1)
    rot = to_kfe(layer, random_eigen(rng, 3, 4))
    pruned = eigenprune(rot, [2], [0, 3])
    assert pruned.core.shape == (2, 2, 9)
    assert pruned.qa.shape == (3, 2)
    assert pruned.qs.shape == (4, 2)
    x = rng.standard_normal((2, 3, 4, 4))
    out = pruned.forward(x)
    assert out.shape == (2, 4, 4, 4)


def test_eigenprune_kept_indices_compose():
    rng = np.random.default_rng(9)
    for kind in ("dense", "conv"):
        _, rot, _ = rotated(kind, rng)
        once = eigenprune(rot, [1, 4], [5])
        twice = eigenprune(once, [2], [0, 1])
        assert_same_shell(twice, rot)
        # the core keeps exactly the surviving entries, every kernel offset
        np.testing.assert_array_equal(twice.core, rot.core[np.ix_([0, 2, 5], [2, 3, 4])])
        np.testing.assert_array_equal(twice.qa, rot.qa[:, [0, 2, 5]])
        np.testing.assert_array_equal(twice.qs, rot.qs[:, [2, 3, 4]])


def test_eigenprune_validation():
    rng = np.random.default_rng(10)
    layer = DenseLayer(rng.standard_normal((3, 3)))
    rot = to_kfe(layer, random_eigen(rng, 3, 3))
    with pytest.raises(ValidationError):
        eigenprune(rot, [0, 0], [])
    with pytest.raises(ValidationError):
        eigenprune(rot, [3], [])
    with pytest.raises(ValidationError):
        eigenprune(rot, [0, 1, 2], [])
    with pytest.raises(ValidationError):
        eigenprune(DenseLayer(np.eye(2)), [0], [])


def test_merge_bases_preserves_function_dense():
    rng = np.random.default_rng(11)
    layer = DenseLayer(rng.standard_normal((5, 4)), rng.standard_normal(4))
    rot = to_kfe(layer, random_eigen(rng, 5, 4))
    pruned = eigenprune(rot, [4], [3])
    merged = merge_bases(pruned, random_eigen(rng, 4, 3))
    x = rng.standard_normal((6, 5))
    np.testing.assert_allclose(merged.forward(x), pruned.forward(x), atol=1e-12)
    assert_same_shell(merged, pruned)


def test_merge_bases_preserves_function_conv():
    rng = np.random.default_rng(12)
    layer = ConvLayer(rng.standard_normal((3 * 9, 4)), None, c_in=3, k=3, padding=1)
    rot = to_kfe(layer, random_eigen(rng, 3, 4))
    merged = merge_bases(rot, random_eigen(rng, 3, 4))
    x = rng.standard_normal((2, 3, 4, 4))
    np.testing.assert_allclose(merged.forward(x), layer.forward(x), atol=1e-12)
    assert_same_shell(merged, rot)
    pruned = eigenprune(rot, [0], [1, 2])
    merged = merge_bases(pruned, random_eigen(rng, 2, 2))
    np.testing.assert_allclose(merged.forward(x), pruned.forward(x), atol=1e-12)
    assert_same_shell(merged, pruned)


def test_merge_bases_identity_is_noop():
    rng = np.random.default_rng(13)
    ident = EigenFactors(qa=np.eye(3 + 1), lam_a=np.ones(4), qs=np.eye(3), lam_s=np.ones(3))
    for kind in ("dense", "conv"):
        _, rot, _ = rotated(kind, rng, 4, 3)
        merged = merge_bases(rot, ident)
        assert_same_shell(merged, rot)
        np.testing.assert_allclose(merged.qa, rot.qa, atol=1e-15)
        np.testing.assert_allclose(merged.core, rot.core, atol=1e-15)
        np.testing.assert_allclose(merged.qs, rot.qs, atol=1e-15)


def test_merge_bases_nested_equals_staged():
    # applying old bases then fresh ones step by step must match the
    # merged layer exactly
    rng = np.random.default_rng(14)
    layer = DenseLayer(rng.standard_normal((5, 5)))
    rot = to_kfe(layer, random_eigen(rng, 5, 5))
    pruned = eigenprune(rot, [3, 4], [4])
    ef = random_eigen(rng, 3, 4)
    merged = merge_bases(pruned, ef)
    x = rng.standard_normal((6, 5))
    staged = ((x @ pruned.qa) @ ef.qa) @ (ef.qa.T @ pruned.core @ ef.qs)
    staged = (staged @ ef.qs.T) @ pruned.qs.T + pruned.b
    np.testing.assert_allclose(merged.forward(x), staged, atol=1e-12)


# (kind, fan-in channels n, fan-out m, kernel k, removed rows, removed
# cols, the kind smallest_form gives, its core shape if still factored)
SMALLEST_FORM_CASES = [
    # ranks 4 and 8 reduce by SVD to a 4 x 4 core, 114 params against 130
    ("dense", 12, 10, 1, range(8), [0, 3], "bottleneck_dense", (4, 4)),
    # equal ranks, no SVD: 91 params against 42, so it folds
    ("dense", 6, 6, 1, [1], [5], "dense", None),
    # ranks 4 and 6 reduce to 4, still 70 params against 42: SVD, then fold
    ("dense", 6, 6, 1, [1, 2], [], "dense", None),
    # a 1x1 conv core reduces as the dense one does
    ("conv", 12, 10, 1, range(8), [0, 3], "bottleneck_conv", (4, 4, 1)),
    # a k x k core pays as it is, 132 params against 275
    ("conv", 6, 5, 3, range(4), [], "bottleneck_conv", (2, 5, 9)),
    # one input channel, as the first conv of an image net: 367 against 160
    ("conv", 1, 16, 3, [], [0, 1], "conv", None),
]


@pytest.mark.parametrize("kind, n, m, k, rows, cols, form, core_shape", SMALLEST_FORM_CASES)
def test_smallest_form_is_exact_and_never_larger(kind, n, m, k, rows, cols, form, core_shape):
    """smallest_form keeps the pruned rewrite's function: outputs, input
    gradients and bias gradients within 1e-12 of the largest entry.  It
    holds no more params than the rewrite or the plain layer, and the
    one-offset cores it reduces come out diagonal."""
    rng = np.random.default_rng(n + m + k)
    if kind == "dense":
        plain = DenseLayer(rng.standard_normal((n, m)), rng.standard_normal(m))
        x = rng.standard_normal((7, n))
    else:
        plain = ConvLayer(
            rng.standard_normal((n * k * k, m)), rng.standard_normal(m), c_in=n, k=k,
            stride=2, padding=k // 2,
        )
        x = rng.standard_normal((3, n, 5, 5))
    pruned = eigenprune(to_kfe(plain, random_eigen(rng, n, m)), list(rows), cols)
    small = smallest_form(pruned)
    assert small.kind == form
    assert small.param_count() <= min(pruned.param_count(), plain.param_count())
    assert small.geometry() == pruned.geometry()
    assert small.b.tobytes() == pruned.b.tobytes()
    if core_shape is None:
        assert small.w.flags.c_contiguous
    elif k > 1:
        assert small is pruned
    else:
        r = core_shape[0]
        assert small.core.shape == core_shape
        core = small.core.reshape(r, r)
        np.testing.assert_array_equal(core, np.diag(np.diag(core)))
    got_tape, want_tape = {}, {}
    y, want_y = small.forward(x, got_tape), pruned.forward(x, want_tape)
    dy = rng.standard_normal(y.shape)
    dx, want_dx = small.backward(dy.copy(), got_tape), pruned.backward(dy.copy(), want_tape)
    pairs = [(y, want_y), (dx, want_dx), (got_tape["grads"]["b"], want_tape["grads"]["b"])]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_merge_bases_validation():
    rng = np.random.default_rng(15)
    layer = DenseLayer(rng.standard_normal((4, 3)))
    rot = to_kfe(layer, random_eigen(rng, 4, 3))
    with pytest.raises(DimensionError):
        merge_bases(rot, random_eigen(rng, 2, 3))
    with pytest.raises(ValidationError):
        merge_bases(DenseLayer(np.eye(2)), random_eigen(rng, 2, 2))
    conv = planted_conv(rng)
    absorbed = absorb_depthwise(conv, depthwise_decompose(conv, rank=2, seed=0))
    with pytest.raises(ValidationError, match="factored core"):
        merge_bases(absorbed, random_eigen(rng, 2, 2))
    with pytest.raises(ValidationError, match="factored core"):
        eigenprune(absorbed, [0], [])


def test_depthwise_planted_rank_recovered():
    rng = np.random.default_rng(16)
    layer = planted_conv(rng)
    factors = depthwise_decompose(layer, rank=2, seed=0)
    assert factors.trace[-1] <= 1e-10
    np.testing.assert_allclose(reconstruct(factors), layer.core, atol=1e-6)


def test_depthwise_trace_monotone_across_seeds():
    rng = np.random.default_rng(17)
    core = rng.standard_normal((5, 4, 9))
    layer = BottleneckConvLayer(
        qa=np.eye(5), core=core, qs=np.eye(4), bias=None, c_in=5, k=3,
        stride=1, padding=1,
    )
    for seed in range(5):
        factors = depthwise_decompose(layer, rank=2, seed=seed)
        trace = np.array(factors.trace)
        assert np.all(np.diff(trace) <= 1e-12)
        np.testing.assert_allclose(
            trace[-1],
            0.5 * np.sum((core - reconstruct(factors)) ** 2),
            rtol=1e-10,
        )


@pytest.mark.parametrize("ra,rc", [(5, 4), (4, 4)])
def test_depthwise_init_and_objective_match_einsum_reference(ra, rc):
    # max_iter=0 returns the SVD initialisation and its objective, which
    # must match their einsum forms
    rng = np.random.default_rng(19)
    core = rng.standard_normal((ra, rc, 9))
    layer = BottleneckConvLayer(
        qa=np.eye(ra), core=core, qs=np.eye(rc), bias=None, c_in=ra, k=3,
        stride=1, padding=1,
    )
    factors = depthwise_decompose(layer, rank=2, seed=0, max_iter=0)
    want_c = np.einsum("ir,ijd,jr->dr", factors.u, core, factors.v)
    np.testing.assert_allclose(factors.c, want_c, rtol=0, atol=1e-12)
    resid = core - reconstruct(factors)
    assert factors.trace == pytest.approx([0.5 * np.sum(resid * resid)], rel=1e-12)


def test_depthwise_single_offset_matches_svd():
    # one kernel offset reduces the fit to a matrix low-rank problem, so
    # the objective must land on the truncated-SVD error
    rng = np.random.default_rng(18)
    slab = rng.standard_normal((6, 5))
    layer = BottleneckConvLayer(
        qa=np.eye(6), core=slab[:, :, None], qs=np.eye(5), bias=None,
        c_in=6, k=1, stride=1, padding=0,
    )
    factors = depthwise_decompose(layer, rank=2, seed=0)
    sigma = np.linalg.svd(slab, compute_uv=False)
    np.testing.assert_allclose(
        factors.trace[-1], 0.5 * np.sum(sigma[2:] ** 2), atol=1e-8
    )


def test_depthwise_validation():
    rng = np.random.default_rng(19)
    layer = planted_conv(rng)
    with pytest.raises(ValidationError):
        depthwise_decompose(layer, rank=0)
    with pytest.raises(ValidationError):
        depthwise_decompose(layer, rank=6)
    dense = BottleneckDenseLayer(np.eye(3), np.eye(3), np.eye(3))
    with pytest.raises(ValidationError):
        depthwise_decompose(dense, rank=1)


def conv_core_layer(core):
    """A conv bottleneck with identity bases around a (ra, rc, k*k) core."""
    ra, rc, kk = core.shape
    k = int(round(kk**0.5))
    return BottleneckConvLayer(
        qa=np.eye(ra), core=core, qs=np.eye(rc), bias=None, c_in=ra, k=k,
        stride=1, padding=k // 2,
    )


def lstsq_sweep_fit(core, rank, seed=0, max_iter=ALS_MAX_ITER, tol=ALS_TOL):
    """depthwise_decompose's fit as it was before its lean sweep, the
    reference for it: every step solves through oracle.lstsq, which checks
    its inputs, columns are normalized with np.linalg.norm, and the
    objective sums with np.sum.  Returns (u, v, c, trace) and the attempt
    that gave them, or (None, None) when every attempt collapsed."""
    targets = [_unfold(core, mode).T for mode in range(3)]

    def normalize(u, v, c):
        nu = np.linalg.norm(u, axis=0)
        nv = np.linalg.norm(v, axis=0)
        if np.any(nu < COLLAPSE_TOL) or np.any(nv < COLLAPSE_TOL):
            raise SingularityError("separable factor column collapsed to zero")
        return u / nu, v / nv, c * (nu * nv)

    def objective(u, v, c):
        resid = core - (khatri_rao(u, v) @ c.T).reshape(core.shape)
        return 0.5 * float(np.sum(resid * resid))

    for attempt in range(ALS_RESTARTS + 1):
        rng = np.random.default_rng(seed + attempt)
        jitter = 0.0 if attempt == 0 else 10.0 ** (-3 + attempt)
        try:
            u, v, c = normalize(*_svd_init(core, rank, rng, jitter))
            trace = [objective(u, v, c)]
            for _ in range(max_iter):
                prev = (u, v, c)
                u = oracle.lstsq(khatri_rao(c, v), targets[0]).T
                v = oracle.lstsq(khatri_rao(c, u), targets[1]).T
                c = oracle.lstsq(khatri_rao(v, u), targets[2]).T
                u, v, c = normalize(u, v, c)
                obj = objective(u, v, c)
                if obj > trace[-1]:
                    u, v, c = prev
                    break
                improved = trace[-1] - obj
                relative = improved / max(trace[-1], 1e-30)
                trace.append(obj)
                if relative < tol:
                    break
            return (u, v, c, trace), attempt
        except SingularityError:
            pass
    return None, None


def assert_same_fit(factors, want):
    u, v, c, trace = want
    for got, ref in ((factors.u, u), (factors.v, v), (factors.c, c)):
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
    assert factors.trace == trace


@pytest.mark.parametrize("kk", [1, 4, 9])
@pytest.mark.parametrize("ra,rc", [(5, 3), (3, 5), (4, 4), (1, 3)])
def test_depthwise_fit_is_bitwise_the_lstsq_sweep(ra, rc, kk):
    # every rank, sweeps capped at 25 to keep the test quick, and no sweep
    # at all: factors and trace agree bit for bit
    rng = np.random.default_rng(20)
    core = rng.standard_normal((ra, rc, kk))
    layer = conv_core_layer(core)
    for rank in range(1, min(ra, rc) + 1):
        for max_iter in (25, 0):
            want, attempt = lstsq_sweep_fit(core, rank, seed=3, max_iter=max_iter)
            assert attempt == 0
            assert_same_fit(depthwise_decompose(layer, rank, seed=3, max_iter=max_iter), want)


def test_depthwise_fit_to_the_sweep_cap_is_bitwise_the_lstsq_sweep():
    # the shape of the README demo's second conv core, which runs to
    # ALS_MAX_ITER sweeps
    core = np.random.default_rng(21).standard_normal((6, 6, 9))
    want, _ = lstsq_sweep_fit(core, 6)
    factors = depthwise_decompose(conv_core_layer(core), 6)
    assert len(factors.trace) - 1 == ALS_MAX_ITER
    assert_same_fit(factors, want)


@pytest.mark.parametrize(
    "shape,pattern,attempt",
    [((2, 4, 9), "entry", 1), ((3, 5, 1), "entry", 2), ((2, 4, 9), "rank1", 3),
     ((2, 5, 1), "rank1", None)],
)
def test_depthwise_restart_is_bitwise_the_lstsq_sweep(shape, pattern, attempt):
    # rank-2 fits of a single-entry or an exactly rank-1 core collapse a
    # column, so the fit restarts with jitter: the attempt that succeeds,
    # or the SingularityError when none does, must agree too
    if pattern == "entry":
        core = np.zeros(shape)
        core[0, 0, 0] = 1.0
    else:
        core = np.einsum("i,j,d->ijd", *(np.arange(1.0, n + 1) for n in shape))
    want, got_attempt = lstsq_sweep_fit(core, 2)
    assert got_attempt == attempt
    if attempt is None:
        with pytest.raises(SingularityError, match="after 3 restarts"):
            depthwise_decompose(conv_core_layer(core), 2)
    else:
        assert_same_fit(depthwise_decompose(conv_core_layer(core), 2), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_depthwise_rejects_a_non_finite_core(bad):
    core = np.random.default_rng(23).standard_normal((4, 3, 9))
    core[1, 2, 4] = bad
    with pytest.raises(ValidationError, match="NaN or Inf"):
        depthwise_decompose(conv_core_layer(core), rank=2)


def test_depthwise_factor_step_rejects_a_non_finite_factor():
    # a factor that overflowed in an earlier step is a ValidationError,
    # as the checked Khatri-Rao product made it before
    rng = np.random.default_rng(24)
    c, v = rng.standard_normal((9, 2)), rng.standard_normal((3, 2))
    target = rng.standard_normal((27, 4))
    assert _solve_factor(c, v, target, np.eye(2)).shape == (4, 2)
    c[3, 1] = np.inf
    with pytest.raises(ValidationError, match="NaN or Inf"):
        _solve_factor(c, v, target, np.eye(2))


def test_depthwise_zero_core_collapses():
    layer = BottleneckConvLayer(
        qa=np.eye(4), core=np.zeros((4, 3, 9)), qs=np.eye(3), bias=None,
        c_in=4, k=3, stride=1, padding=1,
    )
    with pytest.raises(SingularityError):
        depthwise_decompose(layer, rank=1)


def test_absorb_depthwise_exact_fit_preserves_function():
    rng = np.random.default_rng(20)
    layer = planted_conv(rng)
    factors = depthwise_decompose(layer, rank=2, seed=0)
    pruned = eigenprune(layer, [5], [4])
    absorbed = absorb_depthwise(layer, factors)
    assert absorbed.core_mode == "diag"
    assert absorbed.core.shape == (9, 2)
    assert_same_shell(absorbed, layer)
    assert_same_shell(absorb_depthwise(pruned, depthwise_decompose(pruned, 2)), pruned)
    x = rng.standard_normal((2, 6, 5, 5))
    np.testing.assert_allclose(absorbed.forward(x), layer.forward(x), atol=1e-5)


def test_absorb_depthwise_param_shapes():
    rng = np.random.default_rng(21)
    slab = rng.standard_normal((6, 5))
    layer = BottleneckConvLayer(
        qa=np.eye(6), core=slab[:, :, None], qs=np.eye(5), bias=None,
        c_in=6, k=1, stride=1, padding=0,
    )
    r = 3
    factors = depthwise_decompose(layer, rank=r, seed=0)
    absorbed = absorb_depthwise(layer, factors)
    weight_sizes = absorbed.qa.size + absorbed.core.size + absorbed.qs.size
    assert weight_sizes == 6 * r + r + r * 5


def test_absorb_depthwise_residual_bound():
    # forward error is bounded by the patch-matrix spectral norm times the
    # core residual, since orthonormal bases preserve Frobenius norms
    rng = np.random.default_rng(22)
    core = rng.standard_normal((5, 4, 9))
    layer = BottleneckConvLayer(
        qa=random_orthonormal(rng, 5), core=core, qs=random_orthonormal(rng, 4),
        bias=None, c_in=5, k=3, stride=1, padding=1,
    )
    factors = depthwise_decompose(layer, rank=2, seed=0)
    absorbed = absorb_depthwise(layer, factors)
    x = rng.standard_normal((3, 5, 4, 4))
    core_resid = np.sqrt(2.0 * factors.trace[-1])
    # the bound holds per sample, with that sample's own patch matrix P_b
    for b in range(x.shape[0]):
        xb = x[b : b + 1]
        err = np.linalg.norm(absorbed.forward(xb) - layer.forward(xb))
        bound = np.linalg.norm(im2col(xb, k=3, stride=1, padding=1)[0], 2) * core_resid
        assert err <= bound * (1.0 + 1e-8)


def test_absorb_depthwise_validation():
    rng = np.random.default_rng(23)
    layer = planted_conv(rng)
    factors = depthwise_decompose(layer, rank=2, seed=0)
    absorbed = absorb_depthwise(layer, factors)
    with pytest.raises(ValidationError):
        absorb_depthwise(absorbed, factors)
    other = planted_conv(rng, c_in=4)
    with pytest.raises(DimensionError):
        absorb_depthwise(other, factors)
    # a dense bottleneck has no kernel offsets to factor
    _, dense, _ = rotated("dense", rng)
    with pytest.raises(ValidationError):
        absorb_depthwise(dense, factors)
    with pytest.raises(ValidationError):
        absorb_depthwise(DenseLayer(np.eye(2)), factors)


@pytest.mark.parametrize("k, stride, padding", [(0, 1, 0), (3, 0, 1)])
def test_conv_layers_reject_bad_geometry(k, stride, padding):
    with pytest.raises(ValidationError, match="stride >= 1"):
        ConvLayer(np.zeros((2 * k * k, 3)), None, c_in=2, k=k, stride=stride, padding=padding)
    with pytest.raises(ValidationError, match="stride >= 1"):
        BottleneckConvLayer(
            qa=np.eye(2), core=np.zeros((2, 3, k * k)), qs=np.eye(3), bias=None,
            c_in=2, k=k, stride=stride, padding=padding,
        )
