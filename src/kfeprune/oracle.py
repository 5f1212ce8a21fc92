"""Small-scale oracles: exact Fisher, finite differences, KKT prune solves.

Everything here is deliberately independent of the fast paths it checks:
the Fisher is assembled from per-sample gradient outer products, pruning
updates come from explicit KKT linear systems rather than the closed
forms, derivatives come from central differences, the softmax is
written out apart from the loss's fused pass, the textbook
single-weight OBS step uses a dense H^-1, curvature products go through
an explicit Kronecker product of column-major vecs, a bottleneck's
plain weight is rebuilt one kernel offset at a time, and the reference
least-squares solve checks every input.
"""

from __future__ import annotations

import numpy as np

from . import criteria
from .errors import DimensionError, KfepruneError, SingularityError, ValidationError
from .kfac import KronFactors, as_matrix
from .network import Network, cross_entropy
from .reparam import LSTSQ_RIDGE

MAX_EXACT_PARAMS = 2000

# Hard ceiling on kron output entries; anything bigger is a mistake at desk scale.
MAX_KRON_ENTRIES = 2 ** 26


class SizeError(KfepruneError):
    """Requested result would exceed the configured size budget."""


def vec(m) -> np.ndarray:
    """Column-major vectorization: stacks the columns of ``m``."""
    a = as_matrix(m, "vec input")
    return a.reshape(-1, order="F").copy()


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`; fails if the length does not factor."""
    a = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.size != rows * cols:
        raise DimensionError(f"cannot unvec length {a.size} into {rows}x{cols}")
    return a.reshape(rows, cols, order="F").copy()


def kron(a, b) -> np.ndarray:
    """Kronecker product with a result-size guard; column-major stacking
    makes ``kron(s, a) @ vec(x) == vec(a @ x @ s.T)`` hold."""
    a = as_matrix(a, "kron lhs")
    b = as_matrix(b, "kron rhs")
    entries = a.shape[0] * b.shape[0] * a.shape[1] * b.shape[1]
    if entries > MAX_KRON_ENTRIES:
        raise SizeError(
            f"kron result would hold {entries} entries, budget is {MAX_KRON_ENTRIES}"
        )
    return np.kron(a, b)


def lstsq(a, b) -> np.ndarray:
    """Least-squares solve of ``a @ x = b``, every input checked, by the
    same ridge-stabilized normal equations as ``reparam.ridge_solve``:
    the solver of the separable fit's reference sweep."""
    a = as_matrix(a, "lstsq lhs")
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    b = as_matrix(b, "lstsq rhs")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"lstsq row mismatch: {a.shape[0]} vs {b.shape[0]}")
    gram = a.T @ a
    ridge = LSTSQ_RIDGE * np.trace(gram) / max(gram.shape[0], 1)
    gram = gram + ridge * np.eye(gram.shape[0])
    try:
        x = np.linalg.solve(gram, a.T @ b)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"normal equations singular beyond ridge: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularityError("normal equations produced non-finite solution")
    return x[:, 0] if squeeze else x


def fisher_vec(f: KronFactors, x: np.ndarray) -> np.ndarray:
    """Curvature-vector product kron(S, A) @ vec(x), returned in matrix form."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (f.a.shape[0], f.s.shape[0]):
        raise DimensionError(
            f"fisher_vec expects shape {(f.a.shape[0], f.s.shape[0])}, got {x.shape}"
        )
    return f.a @ x @ f.s.T


def offdiag_ratio(m: np.ndarray) -> float:
    """Frobenius mass off the diagonal relative to the whole matrix."""
    total = np.linalg.norm(m)
    off = np.linalg.norm(m - np.diag(np.diag(m)))
    return float(off / max(total, 1e-30))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax, written apart from network.cross_entropy_and_grad."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def effective_weight(layer) -> np.ndarray:
    """Plain weight a full-core bottleneck stands for, in the canonical
    (fan_in, fan_out) view: qa @ core @ qs.T, per kernel offset for a
    conv core, whose offsets interleave the rows as (channel, offset)."""
    if layer.core_mode != "full":
        raise ValidationError("effective weight needs a full core")
    if layer.core.ndim == 2:
        return layer.qa @ layer.core @ layer.qs.T
    kk = layer.core.shape[2]
    w = np.zeros((layer.qa.shape[0] * kk, layer.qs.shape[0]), dtype=np.float64)
    for delta in range(kk):
        w[delta::kk, :] = layer.qa @ layer.core[:, :, delta] @ layer.qs.T
    return w


def _weight_layers(net: Network, layer_ids):
    if layer_ids is None:
        layer_ids = net.parameterized_ids()
    for lid in layer_ids:
        if net.layers[lid].kind not in ("dense", "conv"):
            raise ValidationError("exact Fisher supports plain dense/conv layers")
    return list(layer_ids)


def flatten_weights(net: Network, layer_ids=None, include_bias: bool = False) -> np.ndarray:
    """Concatenated column-major weight vector over the chosen layers."""
    layer_ids = _weight_layers(net, layer_ids)
    parts = []
    for lid in layer_ids:
        layer = net.layers[lid]
        parts.append(layer.w.reshape(-1, order="F"))
        if include_bias:
            parts.append(layer.b.copy())
    return np.concatenate(parts)


def set_weights(net: Network, theta: np.ndarray, layer_ids=None, include_bias: bool = False):
    layer_ids = _weight_layers(net, layer_ids)
    pos = 0
    for lid in layer_ids:
        layer = net.layers[lid]
        size = layer.w.size
        layer.w[...] = theta[pos : pos + size].reshape(layer.w.shape, order="F")
        pos += size
        if include_bias:
            layer.b[...] = theta[pos : pos + layer.b.size]
            pos += layer.b.size
    if pos != theta.size:
        raise DimensionError("weight vector length does not match the network")


def _per_sample_grads(net: Network, layer_ids) -> np.ndarray:
    """Stack per-sample weight-gradient vectors from the cached captures."""
    caps = net.captures()
    parts = []
    for lid in layer_ids:
        layer = net.layers[lid]
        tape = caps[lid]
        if layer.kind == "dense":
            gm = tape["a"][:, :, None] * tape["g"][:, None, :]
        else:
            gm = tape["patches"].transpose(0, 2, 1) @ tape["g"]
        parts.append(gm.transpose(0, 2, 1).reshape(gm.shape[0], -1))
    return np.concatenate(parts, axis=1)


def exact_fisher(
    net: Network,
    dataset,
    flavor: str = "empirical",
    layer_ids=None,
    batch_size: int = 64,
) -> np.ndarray:
    """Exact Fisher over the chosen layers' weights (biases excluded).

    empirical: mean outer product of per-sample gradients at the true
    labels.  expected: per-sample class enumeration weighted by the
    model's softmax probabilities.
    """
    if flavor not in ("empirical", "expected"):
        raise ValidationError(f"unknown Fisher flavor {flavor!r}")
    layer_ids = _weight_layers(net, layer_ids)
    dim = sum(net.layers[lid].w.size for lid in layer_ids)
    if dim > MAX_EXACT_PARAMS:
        raise SizeError(f"exact Fisher over {dim} weights exceeds {MAX_EXACT_PARAMS}")
    fisher = np.zeros((dim, dim))
    n = dataset.n
    for start in range(0, n, batch_size):
        xb = dataset.x[start : start + batch_size]
        yb = dataset.y[start : start + batch_size]
        logits = net.forward(xb, capture=True)
        if flavor == "empirical":
            net.backward(logits, yb)
            v = _per_sample_grads(net, layer_ids)
            fisher += v.T @ v
        else:
            probs = softmax(logits)
            for cls in range(probs.shape[1]):
                labels = np.full(xb.shape[0], cls, dtype=np.int64)
                net.backward(logits, labels)
                v = _per_sample_grads(net, layer_ids)
                fisher += (v * probs[:, cls : cls + 1]).T @ v
    return fisher / n


def net_loss_fn(net: Network, dataset, layer_ids=None, include_bias: bool = False):
    """(loss(theta), theta0) for optimizing/differentiating over flat weights."""
    theta0 = flatten_weights(net, layer_ids, include_bias)

    def loss(theta: np.ndarray) -> float:
        set_weights(net, theta, layer_ids, include_bias)
        total = 0.0
        for start in range(0, dataset.n, 256):
            xb = dataset.x[start : start + 256]
            yb = dataset.y[start : start + 256]
            total += cross_entropy(net.forward(xb), yb) * xb.shape[0]
        return total / dataset.n

    return loss, theta0


def analytic_grad(net: Network, dataset, layer_ids=None, include_bias: bool = False) -> np.ndarray:
    """Gradient of the dataset-mean loss, flattened like flatten_weights."""
    layer_ids = _weight_layers(net, layer_ids)
    acc = {lid: None for lid in layer_ids}
    n = dataset.n
    for start in range(0, n, 256):
        xb = dataset.x[start : start + 256]
        yb = dataset.y[start : start + 256]
        logits = net.forward(xb, capture=True)
        _, grads = net.backward(logits, yb)
        scale = xb.shape[0] / n
        for lid in layer_ids:
            g = grads[lid]
            part = [g["w"].reshape(-1, order="F")]
            if include_bias:
                part.append(g["b"])
            flat = np.concatenate(part) * scale
            acc[lid] = flat if acc[lid] is None else acc[lid] + flat
    return np.concatenate([acc[lid] for lid in layer_ids])


def finite_diff_grad(lossfn, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (lossfn(up) - lossfn(dn)) / (2 * step)
    return out


def finite_diff_hessian(lossfn, theta: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian via the four-point mixed formula, symmetrized."""
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.size
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            pp = theta.copy(); pp[i] += step; pp[j] += step
            pm = theta.copy(); pm[i] += step; pm[j] -= step
            mp = theta.copy(); mp[i] -= step; mp[j] += step
            mm = theta.copy(); mm[i] -= step; mm[j] -= step
            val = (lossfn(pp) - lossfn(pm) - lossfn(mp) + lossfn(mm)) / (4 * step * step)
            hess[i, j] = val
            hess[j, i] = val
    return (hess + hess.T) / 2


def _kkt_solve(h: np.ndarray, theta: np.ndarray, constrained, targets):
    """Minimize 0.5 d.T H d subject to d[c] = targets for c in constrained."""
    d = theta.size
    k = len(constrained)
    system = np.zeros((d + k, d + k))
    rhs = np.zeros(d + k)
    system[:d, :d] = h
    for row, (idx, tgt) in enumerate(zip(constrained, targets)):
        system[d + row, idx] = 1.0
        system[idx, d + row] = 1.0
        rhs[d + row] = tgt
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"KKT system is singular: {exc}") from exc
    delta = sol[:d]
    return delta, float(0.5 * delta @ h @ delta)


def exact_single_prune(theta: np.ndarray, h: np.ndarray, q: int):
    """Optimal compensated removal of one coordinate via an explicit KKT solve."""
    theta = np.asarray(theta, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (theta.size, theta.size):
        raise DimensionError("quadratic model shape mismatch")
    if not 0 <= q < theta.size:
        raise ValidationError(f"prune index {q} out of range")
    return _kkt_solve(h, theta, [q], [-theta[q]])


def exact_multi_prune(theta: np.ndarray, h: np.ndarray, q_set, compensate: bool = False):
    """True cost of removing a coordinate set under the quadratic model.

    With compensate=False the move zeroes exactly the chosen coordinates
    and leaves the rest untouched, which is the cost a structural prune
    actually pays.  With compensate=True the free coordinates adjust
    optimally (the multi-coordinate analogue of exact_single_prune).
    Both paths run through the same KKT machinery.
    """
    theta = np.asarray(theta, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    q_list = sorted(set(int(q) for q in q_set))
    if not q_list:
        raise ValidationError("prune set is empty")
    if q_list[0] < 0 or q_list[-1] >= theta.size:
        raise ValidationError("prune set contains out-of-range indices")
    if compensate:
        if len(q_list) == theta.size:
            raise ValidationError("cannot compensate when every coordinate is pruned")
        constrained = q_list
        targets = [-theta[q] for q in q_list]
    else:
        constrained = list(range(theta.size))
        targets = [-theta[i] if i in set(q_list) else 0.0 for i in constrained]
    return _kkt_solve(h, theta, constrained, targets)


def obs_scores_and_update(layer_id: int, theta: np.ndarray, h_inv: np.ndarray, q: int):
    """Scores for all weights plus the compensated update for removing q.

    The update is d = -(theta_q / [H^-1]_qq) * H^-1 e_q, which zeroes
    coordinate q exactly and adjusts the rest to minimize the quadratic
    loss increase.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    h_inv = np.asarray(h_inv, dtype=np.float64)
    if h_inv.shape != (theta.size, theta.size):
        raise DimensionError("inverse curvature shape mismatch")
    if not 0 <= q < theta.size:
        raise ValidationError(f"prune index {q} out of range")
    table = criteria.obs_scores(layer_id, theta, np.diag(h_inv))
    dtheta = -(theta[q] / h_inv[q, q]) * h_inv[:, q]
    return table, dtheta


def kl_diag(sigma: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Best diagonal Gaussian approximation of a covariance, per KL direction.

    forward keeps the marginal variances diag(sigma); reverse keeps the
    precision diagonal, i.e. 1 / diag(inv(sigma)).  Forward is never
    smaller elementwise.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionError("covariance must be square")
    eigvals = np.linalg.eigvalsh((sigma + sigma.T) / 2)
    if eigvals.min() <= 0:
        raise ValidationError("covariance must be positive definite")
    if direction == "forward":
        return np.diag(sigma).copy()
    if direction == "reverse":
        return 1.0 / np.diag(np.linalg.inv(sigma))
    raise ValidationError(f"unknown KL direction {direction!r}")
