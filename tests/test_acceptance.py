"""Acceptance suite: one test per shipped guarantee, twelve in all.

Each test prints a single verdict line ("[criterion NN] label: PASS/FAIL
(elapsed)") and enforces its runtime budget.  Checks accumulate into a
problem list and are raised after the line is printed, so a FAIL always
carries its reason in the assertion message.
"""

import time
from dataclasses import replace

import numpy as np

from kfeprune import criteria, oracle
from kfeprune.accounting import count_params
from kfeprune.checkpoint import network_bytes
from kfeprune.data import Dataset, synth_dataset
from kfeprune.kfac import (
    KronFactors,
    damp,
    eigenbasis,
    estimate_factors,
    inv_psd,
    offdiag_ratio,
)
from kfeprune.layers import BottleneckConvLayer, conv_out_size, im2col
from kfeprune.network import build_cnn, build_mlp
from kfeprune.pipeline import eligible_layer_ids, prune_once
from kfeprune.reparam import depthwise_decompose, eigenprune, merge_bases, to_kfe
from kfeprune.training import evaluate, train

THETA = np.array([1.0, 1.0, 1.0])
HESS = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.01], [0.0, 0.01, 0.5]])

STRUCTURED_BASELINES = ("c-obd", "c-obs", "kron-obd", "kron-obs")


def _verdict(capsys, num, label, budget, t0, problems):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        problems.append(f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    status = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:02d}] {label}: {status} ({elapsed:.2f}s)")
    if problems:
        raise AssertionError("; ".join(problems))


def _psd(rng, dim):
    r = rng.standard_normal((dim + 2, dim))
    return r.T @ r / dim + np.eye(dim)


def test_criterion_01_worked_example(capsys):
    t0 = time.perf_counter()
    problems = []

    obd = criteria.obd_scores(0, THETA, np.diag(HESS)).delta_l
    err = float(np.max(np.abs(obd - [0.5, 0.5, 0.25])))
    if err > 1e-12:
        problems.append(f"diagonal scores off by {err:.3g}")
    q = int(np.argmin(obd))
    d, cost = oracle.exact_multi_prune(THETA, HESS, [q])
    err = float(np.max(np.abs(d - [0.0, 0.0, -1.0])))
    if q != 2 or err > 1e-12:
        problems.append(f"plain removal picked weight {q}, move off by {err:.3g}")
    if abs(cost - 0.25) > 1e-12:
        problems.append(f"plain removal cost {cost:.12f}, pinned 0.25")

    # Removing weight 0 with compensation solves HESS @ d = lam * e0 with
    # d[0] = -THETA[0]: row 2 gives d[2] = -0.02 * d[1], row 1 then gives
    # d[1] = 0.99 / 0.9998, and the cost is 0.5 * THETA[0]**2 / inv(HESS)[0, 0].
    pinned = np.array([-1.0, 0.99 / 0.9998, -0.0198 / 0.9998])
    pinned_cost = 0.0197 / (2 * 0.9998)
    # Check the pin itself first, so a typo in it reads as a fault in the pin.
    residual = float(np.max(np.abs((HESS @ pinned)[1:])))
    if pinned[0] != -THETA[0] or residual > 1e-12:
        problems.append(f"pinned update is not stationary (rows 1-2 residual {residual:.3g})")
    if abs(0.5 * pinned @ HESS @ pinned - pinned_cost) > 1e-12:
        problems.append("pinned cost does not match the pinned update")

    d, cost = oracle.exact_single_prune(THETA, HESS, 0)
    gap = np.abs(d - pinned)
    if float(gap.max()) > 1e-12:
        worst = int(np.argmax(gap))
        problems.append(
            f"compensated update entry {worst} is {d[worst]:+.6f}, "
            f"pinned {pinned[worst]:+.6f} (tol 1e-12)"
        )
    if abs(cost - pinned_cost) > 1e-12:
        problems.append(f"compensated cost {cost:.6f}, pinned {pinned_cost:.6f} (tol 1e-12)")

    pair_costs = {(i, j): obd[i] + obd[j] for i in range(3) for j in range(i + 1, 3)}
    best = min(pair_costs.values())
    if abs(best - 0.75) > 1e-12 or abs(pair_costs[(1, 2)] - best) > 1e-12:
        problems.append("diagonal criterion does not predict 0.75 for weights {1,2}")
    d, cost = oracle.exact_multi_prune(THETA, HESS, [1, 2])
    if abs(cost - 0.76) > 5e-3 or float(np.max(np.abs(d - [0.0, -1.0, -1.0]))) > 1e-12:
        problems.append(f"true cost of zeroing weights {{1,2}} is {cost:.6f}, pinned 0.76")
    obs = criteria.obs_scores(0, THETA, np.diag(np.linalg.inv(HESS))).delta_l
    if set(np.argsort(obs)[:2]) != {0, 1}:
        problems.append("compensated criterion does not rank weights {0,1} cheapest")
    d, cost = oracle.exact_multi_prune(THETA, HESS, [0, 1])
    if abs(cost - 1.99) > 5e-3 or float(np.max(np.abs(d - [-1.0, -1.0, 0.0]))) > 1e-12:
        problems.append(f"true cost of zeroing weights {{0,1}} is {cost:.6f}, pinned 1.99")

    _verdict(capsys, 1, "worked-example removal costs", 1.0, t0, problems)


def test_criterion_02_gradient_correctness(capsys):
    t0 = time.perf_counter()
    problems = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        if seed % 4 == 3:
            net = build_cnn((1, 6, 6), [3], 3, seed=seed)
            ds = synth_dataset("random", seed=seed, n=8, classes=3, image_shape=(1, 6, 6))
        else:
            width = int(rng.integers(4, 10))
            net = build_mlp(4, [width], 3, seed=seed)
            ds = synth_dataset("random", seed=seed, n=12, classes=3, dim=4)
        if count_params(net) > 500:
            problems.append(f"seed {seed}: net has {count_params(net)} params")
            continue
        lossfn, theta0 = oracle.net_loss_fn(net, ds, include_bias=True)
        g_num = oracle.finite_diff_grad(lossfn, theta0)
        lossfn(theta0)
        g_ana = oracle.analytic_grad(net, ds, include_bias=True)
        rel = float(
            np.linalg.norm(g_ana - g_num) / max(np.linalg.norm(g_num), 1e-12)
        )
        if rel > 1e-6:
            problems.append(f"seed {seed}: gradient relative error {rel:.3g}")
    _verdict(capsys, 2, "analytic gradient vs finite differences", 30.0, t0, problems)


def test_criterion_03_single_sample_factored_fisher(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(3)
    net = build_mlp(5, [], 4, seed=3)
    ds = Dataset(x=rng.standard_normal((1, 5)), y=np.array([2]), num_classes=4)
    exact = oracle.exact_fisher(net, ds, flavor="empirical")
    f = estimate_factors(net, ds, batch_size=1)[0][0]
    gap = float(np.max(np.abs(np.kron(f.s, f.a) - exact)))
    if gap > 1e-12:
        problems.append(f"factored vs exact Fisher max gap {gap:.3g}")
    _verdict(capsys, 3, "single-sample factored Fisher exactness", 1.0, t0, problems)


def test_criterion_04_eigenbasis_diagonalizes(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(4)
    for dim_a, dim_s in ((3, 5), (8, 8), (6, 2)):
        a = _psd(rng, dim_a)
        s = _psd(rng, dim_s)
        ef = eigenbasis(KronFactors(a=a, s=s, count=1, a_locs=1, s_locs=1, variant="dense"))
        q = np.kron(ef.qs, ef.qa)
        rot = q.T @ np.kron(s, a) @ q
        off = float(np.max(np.abs(rot - np.diag(np.diag(rot)))))
        if off > 1e-10:
            problems.append(f"{dim_a}x{dim_s}: max off-diagonal {off:.3g}")
        gap = float(np.max(np.abs(np.diag(rot) - np.kron(ef.lam_s, ef.lam_a))))
        if gap > 1e-10:
            problems.append(f"{dim_a}x{dim_s}: diagonal vs eigenvalue products {gap:.3g}")
    _verdict(capsys, 4, "eigenbasis diagonalizes the factored curvature", 1.0, t0, problems)


def test_criterion_05_offdiagonal_mass_drops(capsys):
    t0 = time.perf_counter()
    problems = []
    for seed in range(5):
        ds = synth_dataset("moons", seed=seed, n=200, classes=2)
        net = build_mlp(2, [12, 8], 2, seed=seed)
        train(net, ds, epochs=8, lr=0.2, batch_size=32, seed=seed)
        fisher = oracle.exact_fisher(net, ds, flavor="empirical", layer_ids=[2])
        ef = eigenbasis(estimate_factors(net, ds, layer_ids=[2])[0][2])
        q = np.kron(ef.qs, ef.qa)
        r_param = offdiag_ratio(fisher)
        r_kfe = offdiag_ratio(q.T @ fisher @ q)
        if not r_kfe < r_param:
            problems.append(f"seed {seed}: rotated ratio {r_kfe:.3f} >= {r_param:.3f}")
    _verdict(capsys, 5, "off-diagonal Fisher mass drops in the eigenbasis", 300.0, t0, problems)


def _rotate_all(net, ds):
    factors, _ = estimate_factors(net, ds, conv_variant="channel")
    for lid in net.parameterized_ids():
        layer = net.layers[lid]
        net.layers[lid] = to_kfe(layer, eigenbasis(factors[lid]))


def test_criterion_06_rotation_fidelity_and_energy(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(6)

    mlp = build_mlp(3, [10, 6], 3, seed=6)
    ds_m = synth_dataset("random", seed=6, n=32, classes=3, dim=3)
    x_m = rng.standard_normal((100, 3))
    before = mlp.forward(x_m)
    _rotate_all(mlp, ds_m)
    gap = float(np.max(np.abs(mlp.forward(x_m) - before)))
    if gap > 1e-10:
        problems.append(f"dense rotation moved outputs by {gap:.3g}")

    cnn = build_cnn((2, 6, 6), [4], 3, seed=6)
    ds_c = synth_dataset("random", seed=7, n=32, classes=3, image_shape=(2, 6, 6))
    x_c = rng.standard_normal((100, 2, 6, 6))
    before = cnn.forward(x_c)
    _rotate_all(cnn, ds_c)
    gap = float(np.max(np.abs(cnn.forward(x_c) - before)))
    if gap > 1e-10:
        problems.append(f"conv rotation moved outputs by {gap:.3g}")

    for name, layer, rows, cols in (
        ("dense", mlp.layers[2], [1, 3], [0, 4]),
        ("conv", cnn.layers[0], [1], [0, 2]),
    ):
        w_full = oracle.effective_weight(layer)
        pruned = eigenprune(layer, rows, cols)
        err2 = float(np.sum((w_full - oracle.effective_weight(pruned)) ** 2))
        mask = np.zeros(layer.core.shape, dtype=bool)
        mask[rows] = True
        mask[:, cols] = True
        removed2 = float(np.sum(layer.core[mask] ** 2))
        if abs(err2 - removed2) > 1e-10:
            problems.append(f"{name}: energy {err2:.6g} vs removed mass {removed2:.6g}")
    _verdict(capsys, 6, "rotation fidelity and removal energy identity", 10.0, t0, problems)


def test_criterion_07_structured_criterion_identities(capsys):
    t0 = time.perf_counter()
    problems = []
    for trial in range(50):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        w = rng.standard_normal((n, m))
        a = _psd(rng, n)
        s = _psd(rng, m)
        f = np.kron(s, a)
        vec_w = w.flatten(order="F")
        j = int(rng.integers(0, m))
        col = np.arange(j * n, (j + 1) * n)

        scores = criteria.kron_obd_scores(0, w, a, s).delta_l
        _, plain_cost = oracle.exact_multi_prune(vec_w, f, col)
        if abs(scores[j] - plain_cost) > 1e-10:
            problems.append(
                f"trial {trial}: filter score {scores[j]:.6g} vs true zeroing cost {plain_cost:.6g}"
            )
        total = 0.5 * np.trace(np.diag(np.diag(s)) @ w.T @ a @ w)
        if abs(scores.sum() - total) > 1e-10:
            problems.append(f"trial {trial}: score sum breaks the trace identity")

        table, update = criteria.kron_obs_scores_and_update(0, w, a, inv_psd(s))
        w_new = update([j])
        if not np.all(w_new[:, j] == 0.0):
            problems.append(f"trial {trial}: removed filter column is not exactly zero")
        delta = (w_new - w).flatten(order="F")
        true_cost = 0.5 * delta @ f @ delta
        if abs(table.delta_l[j] - true_cost) > 1e-10:
            problems.append(
                f"trial {trial}: compensated score {table.delta_l[j]:.6g} "
                f"vs realized cost {true_cost:.6g}"
            )
    _verdict(capsys, 7, "structured criterion identities", 10.0, t0, problems)


def test_criterion_08_closed_forms_match_solver(capsys):
    t0 = time.perf_counter()
    problems = []
    for trial in range(25):
        rng = np.random.default_rng(200 + trial)
        n = int(rng.integers(2, 51))
        theta = rng.standard_normal(n)
        h = _psd(rng, n)
        h_inv = np.linalg.inv(h)
        q = int(rng.integers(0, n))
        d_cf = -theta[q] * h_inv[:, q] / h_inv[q, q]
        cost_cf = float(criteria.obs_scores(0, theta, np.diag(h_inv)).delta_l[q])
        d_kkt, cost_kkt = oracle.exact_single_prune(theta, h, q)
        if float(np.max(np.abs(d_cf - d_kkt))) > 1e-10 or abs(cost_cf - cost_kkt) > 1e-10:
            problems.append(f"trial {trial}: single-weight closed form drifts from solver")

    for trial in range(25):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 8))
        if n * m > 50:
            m = max(2, 50 // n)
        w = rng.standard_normal((n, m))
        a = _psd(rng, n)
        s = _psd(rng, m)
        table, update = criteria.kron_obs_scores_and_update(0, w, a, inv_psd(s))
        j = int(rng.integers(0, m))
        col = np.arange(j * n, (j + 1) * n)
        d_or, cost_or = oracle.exact_multi_prune(
            w.flatten(order="F"), np.kron(s, a), col, compensate=True
        )
        if abs(table.delta_l[j] - cost_or) > 1e-10:
            problems.append(f"trial {trial}: filter score drifts from solver cost")
        d_pkg = (update([j]) - w).flatten(order="F")
        if float(np.max(np.abs(d_pkg - d_or))) > 1e-10:
            problems.append(f"trial {trial}: filter update drifts from solver move")
    _verdict(capsys, 8, "closed forms match constrained-solve oracles", 30.0, t0, problems)


def _channel_layer(core):
    c_in, c_out, kk = core.shape
    k = int(round(kk ** 0.5))
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


def test_criterion_09_separable_core_decomposition(capsys):
    t0 = time.perf_counter()
    problems = []
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        c_in = int(rng.integers(3, 6))
        c_out = int(rng.integers(3, 6))
        layer = _channel_layer(rng.standard_normal((c_in, c_out, 9)))
        factors = depthwise_decompose(layer, rank=2, seed=seed)
        worst = float(np.max(np.diff(factors.trace))) if len(factors.trace) > 1 else 0.0
        if worst > 0.0:
            problems.append(f"seed {seed}: objective rose by {worst:.3g} during a sweep")

    for seed in range(3):
        rng = np.random.default_rng(500 + seed)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((5, 2))
        c = rng.uniform(0.5, 1.5, size=(9, 2))
        layer = _channel_layer(np.einsum("ir,jr,dr->ijd", u, v, c))
        factors = depthwise_decompose(layer, rank=2, seed=seed, max_iter=5000, tol=1e-14)
        if factors.trace[-1] > 1e-10:
            problems.append(f"planted seed {seed}: residual objective {factors.trace[-1]:.3g}")

    rng = np.random.default_rng(9)
    slab = rng.standard_normal((6, 5, 1))
    factors = depthwise_decompose(_channel_layer(slab), rank=2, seed=0)
    sigma = np.linalg.svd(slab[:, :, 0], compute_uv=False)
    best = 0.5 * float(np.sum(sigma[2:] ** 2))
    if abs(factors.trace[-1] - best) > 1e-8:
        problems.append(f"1x1 case: objective {factors.trace[-1]:.10f} vs svd {best:.10f}")
    _verdict(capsys, 9, "separable core decomposition", 60.0, t0, problems)


def test_criterion_10_rotated_pruning_wins_pre_finetune(capsys, cnn_baseline):
    t0 = time.perf_counter()
    problems = []
    for seed in range(3):
        losses = {}
        for strategy in ("eigendamage",) + STRUCTURED_BASELINES:
            cfg, net, ds_train, _ = cnn_baseline(seed)
            prune_once(net, ds_train, replace(cfg, strategy=strategy), 0.95)
            losses[strategy] = evaluate(net, ds_train.x, ds_train.y)[0]
        for strategy in STRUCTURED_BASELINES:
            if not losses["eigendamage"] <= losses[strategy]:
                problems.append(
                    f"seed {seed}: rotated loss {losses['eigendamage']:.4f} "
                    f"above {strategy} loss {losses[strategy]:.4f}"
                )
    _verdict(
        capsys, 10, "rotated pruning beats structured baselines pre-finetune", 600.0, t0, problems
    )


def test_criterion_11_prune_finetune_recovery(capsys, cnn_baseline):
    t0 = time.perf_counter()
    problems = []
    for seed in range(3):
        cfg, baseline, ds_train, ds_test = cnn_baseline(seed)
        base_acc = evaluate(baseline, ds_test.x, ds_test.y)[1]
        params_before = count_params(baseline)

        def run():
            _, net, _, _ = cnn_baseline(seed)
            prune_once(net, ds_train, cfg, 0.95)
            train(
                net,
                ds_train,
                epochs=cfg.finetune_epochs,
                lr=cfg.finetune_lr,
                batch_size=cfg.batch_size,
                seed=cfg.seed,
                freeze_zeros=True,
            )
            return net

        first, second = run(), run()
        if network_bytes(first) != network_bytes(second):
            problems.append(f"seed {seed}: repeat run produced different weights")
        acc = evaluate(first, ds_test.x, ds_test.y)[1]
        if acc < 0.9 * base_acc:
            problems.append(f"seed {seed}: accuracy {acc:.4f} below 90% of {base_acc:.4f}")
        reduction = 100.0 * (1.0 - count_params(first) / params_before)
        if reduction < 30.0:
            problems.append(f"seed {seed}: parameter reduction {reduction:.1f}% below 30%")
    _verdict(capsys, 11, "prune plus finetune recovery", 600.0, t0, problems)


def _staged_forward(layer, ef, x):
    """Apply old bases, the fresh rotation, and the rotated core one stage
    at a time; association order is the only difference from the merged
    layer's forward."""
    x1 = np.einsum("ca,bchw->bahw", layer.qa, x)
    x2 = np.einsum("bahw,at->bthw", x1, ef.qa)
    core_r = np.einsum("ar,abk,bc->rck", ef.qa, layer.core, ef.qs)
    kk = layer.k * layer.k
    pat = im2col(x2, layer.k, layer.stride, layer.padding)
    h2 = pat @ core_r.transpose(0, 2, 1).reshape(core_r.shape[0] * kk, core_r.shape[1])
    y = (h2 @ ef.qs.T) @ layer.qs.T + layer.b
    h_out = conv_out_size(x.shape[2], layer.k, layer.stride, layer.padding)
    w_out = conv_out_size(x.shape[3], layer.k, layer.stride, layer.padding)
    return y.transpose(0, 2, 1).reshape(x.shape[0], layer.qs.shape[0], h_out, w_out)


def test_criterion_12_iterative_rounds(capsys, cnn_baseline):
    t0 = time.perf_counter()
    problems = []
    cap = 0.5
    cfg, net, ds_train, _ = cnn_baseline(0)
    probe = ds_train.x[:8]
    params_seq = [count_params(net)]
    for rnd in range(3):
        factors, _ = estimate_factors(
            net, ds_train, conv_variant="channel", batch_size=cfg.batch_size
        )
        xp = probe
        for lid, layer in enumerate(net.layers):
            if lid in factors and lid in eligible_layer_ids(net, "eigendamage"):
                ef = eigenbasis(damp(factors[lid], cfg.damping))
                if isinstance(layer, BottleneckConvLayer):
                    merged = merge_bases(layer, ef)
                    gap = float(
                        np.max(np.abs(merged.forward(xp) - _staged_forward(layer, ef, xp)))
                    )
                    if gap > 1e-10:
                        problems.append(
                            f"round {rnd + 1} layer {lid}: merged vs staged gap {gap:.3g}"
                        )
                elif layer.kind == "conv":
                    rotated = to_kfe(layer, ef)
                    gap = float(np.max(np.abs(rotated.forward(xp) - layer.forward(xp))))
                    if gap > 1e-10:
                        problems.append(
                            f"round {rnd + 1} layer {lid}: rotation gap {gap:.3g}"
                        )
            xp = layer.forward(xp)

        _, mask, _ = prune_once(net, ds_train, cfg, cap)
        for (lid, kind), group in mask.groups.items():
            frac = len(group["removed"]) / group["total"]
            if frac > cap:
                problems.append(
                    f"round {rnd + 1} layer {lid} {kind}: removed fraction {frac:.3f} over cap"
                )
        params_seq.append(count_params(net))
        train(
            net,
            ds_train,
            epochs=cfg.finetune_epochs,
            lr=cfg.finetune_lr,
            batch_size=cfg.batch_size,
            seed=cfg.seed + rnd + 1,
            freeze_zeros=True,
        )
    if not all(b < a for a, b in zip(params_seq, params_seq[1:])):
        problems.append(f"parameter counts not strictly decreasing: {params_seq}")
    _verdict(capsys, 12, "iterative rounds with per-layer cap", 900.0, t0, problems)
