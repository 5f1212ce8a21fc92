"""Bottleneck reparameterization in the factor eigenbasis.

A parameterized layer W is rewritten as qa @ core @ qs.T where qa and qs
start as the eigenvector bases of the input and output curvature
factors.  Rotations and basis merges preserve the layer function
exactly; structural pruning drops basis directions, and smallest_form
then rewrites the layer, exactly, in whichever form holds fewest params;
the depthwise decomposition approximates a convolution core with
per-channel kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, SingularityError, ValidationError
from .kfac import EigenFactors
from .layers import Bottleneck, BottleneckConvLayer, BottleneckDenseLayer, ConvLayer, DenseLayer

ALS_MAX_ITER = 200
ALS_TOL = 1e-8
ALS_RESTARTS = 3
COLLAPSE_TOL = 1e-12

# Ridge scale for the normal-equations solver.
LSTSQ_RIDGE = 1e-12


def _rotate(core: np.ndarray, ef: EigenFactors) -> np.ndarray:
    """ef.qa.T @ core @ ef.qs, per kernel offset for a (ra, rc, k*k) conv
    core: the one core rotation of to_kfe and merge_bases."""
    for q, n, name in ((ef.qa, core.shape[0], "input"), (ef.qs, core.shape[1], "output")):
        if q.shape != (n, n):
            raise DimensionError(f"{name} basis shape {q.shape} does not match layer dimension {n}")
    if core.ndim == 2:
        return ef.qa.T @ core @ ef.qs
    out = np.empty(core.shape)
    for delta in range(core.shape[2]):
        out[:, :, delta] = ef.qa.T @ core[:, :, delta] @ ef.qs
    return out


def to_kfe(layer, ef: EigenFactors):
    """Rewrite a plain layer in the eigenbasis of its curvature factors.

    The returned bottleneck layer computes exactly the same function: the
    core is qa.T @ W @ qs, per kernel offset for a convolution, whose qa
    is the eigenbasis of its input channel covariance (the conv_channel
    factor), and the outer bases are orthonormal.
    """
    if isinstance(layer, DenseLayer):
        return BottleneckDenseLayer(
            qa=ef.qa.copy(), core=_rotate(layer.w, ef), qs=ef.qs.copy(), bias=layer.b.copy()
        )
    if isinstance(layer, ConvLayer):
        # w's rows are (channel, offset) pairs: core[:, :, d] is w[d::k*k]
        core = layer.w.reshape(layer.c_in, layer.k * layer.k, layer.c_out).transpose(0, 2, 1)
        return BottleneckConvLayer(
            ef.qa.copy(), _rotate(core, ef), ef.qs.copy(), layer.b.copy(), **layer.geometry()
        )
    raise ValidationError(f"cannot rotate layer of type {type(layer).__name__}")


def _drop(total: int, removed, what) -> np.ndarray:
    removed = sorted(int(r) for r in removed)
    if len(set(removed)) != len(removed):
        raise ValidationError(f"duplicate {what} removal ids")
    for r in removed:
        if not 0 <= r < total:
            raise ValidationError(f"{what} removal id {r} out of range")
    gone = set(removed)
    keep = [i for i in range(total) if i not in gone]
    if not keep:
        raise ValidationError(f"cannot remove every {what} of a layer")
    return np.array(keep, dtype=np.intp)


def _full_core(layer, action: str) -> np.ndarray:
    """The core of a bottleneck layer whose core is not factored."""
    if not isinstance(layer, Bottleneck):
        raise ValidationError(f"cannot {action} layer of type {type(layer).__name__}")
    if layer.core_mode != "full":
        raise ValidationError(f"cannot {action} a factored core")
    return layer.core


def eigenprune(layer, removed_rows, removed_cols):
    """Drop basis directions from a bottleneck layer.

    Rows index the input basis (columns of qa), cols the output basis
    (columns of qs), as the layer holds them now.
    """
    core = _full_core(layer, "prune")
    keep_r = _drop(core.shape[0], removed_rows, "input direction")
    keep_c = _drop(core.shape[1], removed_cols, "output direction")
    return layer.rebuilt(layer.qa[:, keep_r], core[np.ix_(keep_r, keep_c)], layer.qs[:, keep_c])


def merge_bases(layer, ef: EigenFactors):
    """Fold a fresh eigenbasis into an existing bottleneck layer.

    qa <- qa @ qa', qs <- qs @ qs', core <- qa'.T @ core @ qs' (per kernel
    offset for a conv core).  The layer function is unchanged because the
    new bases are orthonormal.
    """
    core = _rotate(_full_core(layer, "merge into"), ef)
    return layer.rebuilt(layer.qa @ ef.qa, core, layer.qs @ ef.qs)


def smallest_form(layer):
    """The smallest exact form of a pruned bottleneck layer.

    A one-offset core (dense, or a 1x1 conv) of unequal ranks is reduced
    by thin SVD to r = min(ra, rc): qa U, diag(sigma) as a full r x r
    core, and qs V.  A bottleneck
    that then holds no fewer params than its plain layer is folded back
    to that plain layer.  Either rewrite keeps the layer function.
    """
    ra, rc = layer.ra, layer.rc
    if layer.core.shape[2:] in ((), (1,)) and ra != rc:
        u, s, vt = np.linalg.svd(layer.core.reshape(ra, rc), full_matrices=False)
        core = np.diag(s).reshape(s.shape * 2 + layer.core.shape[2:])
        layer = layer.rebuilt(layer.qa @ u, core, layer.qs @ vt.T)
    if isinstance(layer, BottleneckConvLayer):
        plain = ConvLayer(layer.kernel() @ layer.qs.T, layer.b.copy(), **layer.geometry())
    else:
        plain = DenseLayer((layer.qa @ layer.core) @ layer.qs.T, layer.b.copy())
    return plain if layer.param_count() >= plain.param_count() else layer


@dataclass
class DepthwiseFactors:
    """Rank-r separable approximation of a conv bottleneck core.

    core[i, j, delta] ~= sum_rho u[i, rho] * v[j, rho] * c[delta, rho].
    trace holds the objective value after init and after each accepted
    sweep; it is non-increasing by construction.
    """

    u: np.ndarray
    v: np.ndarray
    c: np.ndarray
    trace: list = field(default_factory=list)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two float64 matrices with equal
    column counts.  Entries are not checked: a non-finite one gives a
    non-finite product column."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"khatri_rao needs equal column counts, got {a.shape[1]} and {b.shape[1]}"
        )
    m, r = a.shape
    n = b.shape[0]
    # column j is kron(a[:, j], b[:, j]); a's row index varies slower
    return (a[:, None, :] * b[None, :, :]).reshape(m * n, r)


def ridge_solve(a: np.ndarray, b: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Least-squares solve of ``a @ x = b`` via ridge-stabilized normal equations.

    ``a`` is an (n, r) and ``b`` an (n, k) float64 matrix, both finite, and
    ``eye`` is ``np.eye(r)``: a caller that solves many systems checks its
    inputs and builds ``eye`` once.  The ridge is tied to the scale of
    ``a.T @ a`` so well-posed systems are perturbed negligibly.  A system
    that stays singular even with the ridge (for example an all-zero
    ``a``), or a non-finite solution, raises SingularityError.
    """
    gram = a.T @ a
    gram += (LSTSQ_RIDGE * gram.trace() / len(eye)) * eye
    try:
        x = np.linalg.solve(gram, a.T @ b)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"normal equations singular beyond ridge: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularityError("normal equations produced non-finite solution")
    return x


def _objective(t: np.ndarray, u, v, c) -> float:
    resid = t - (khatri_rao(u, v) @ c.T).reshape(t.shape)
    return 0.5 * float((resid * resid).sum())


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1, order="F")


def _svd_init(t: np.ndarray, rank: int, rng, jitter: float):
    mean_slice = t.mean(axis=2)
    p, _, qt = np.linalg.svd(mean_slice, full_matrices=False)
    u = p[:, :rank].copy()
    v = qt[:rank, :].T.copy()
    if jitter > 0.0:
        u += jitter * rng.standard_normal(u.shape)
        v += jitter * rng.standard_normal(v.shape)
    c = _unfold(t, 2) @ khatri_rao(v, u)
    return u, v, c


def _normalize_columns(u, v, c):
    # bitwise np.linalg.norm(., axis=0), without its Python-level wrapper
    nu = np.sqrt((u * u).sum(axis=0))
    nv = np.sqrt((v * v).sum(axis=0))
    if (nu < COLLAPSE_TOL).any() or (nv < COLLAPSE_TOL).any():
        raise SingularityError("separable factor column collapsed to zero")
    return u / nu, v / nv, c * (nu * nv)


def _solve_factor(a, b, target, eye):
    """The factor whose product with khatri_rao(a, b) fits target in least
    squares.  A factor that overflowed to Inf or NaN in an earlier step
    shows up here, in the product."""
    kr = khatri_rao(a, b)
    if not np.isfinite(kr).all():
        raise ValidationError("separable factors contain NaN or Inf")
    return ridge_solve(kr, target, eye).T


def depthwise_decompose(
    layer,
    rank: int,
    seed: int = 0,
    max_iter: int = ALS_MAX_ITER,
    tol: float = ALS_TOL,
) -> DepthwiseFactors:
    """Fit a rank-r separable core by alternating least squares.

    Each sweep solves the three linear subproblems in turn and is
    accepted only if the objective does not increase; an increasing
    sweep is reverted and the fit stops, so the recorded trace is
    monotone.  Collapsed factor columns trigger up to three jittered
    restarts before giving up.  A core with a NaN or Inf entry is a
    ValidationError.
    """
    t = _full_core(layer, "fit separable factors to")
    if t.ndim != 3:
        raise ValidationError("separable fit needs a convolution bottleneck core")
    ra, rc, kk = t.shape
    if not 1 <= rank <= min(ra, rc):
        raise ValidationError(
            f"rank must lie in [1, {min(ra, rc)}] for core shape {t.shape}"
        )
    if not np.isfinite(t).all():
        raise ValidationError(f"core of shape {t.shape} contains NaN or Inf")
    targets = [_unfold(t, mode).T for mode in range(3)]
    eye = np.eye(rank)
    last_err = None
    for attempt in range(ALS_RESTARTS + 1):
        rng = np.random.default_rng(seed + attempt)
        jitter = 0.0 if attempt == 0 else 10.0 ** (-3 + attempt)
        try:
            u, v, c = _svd_init(t, rank, rng, jitter)
            u, v, c = _normalize_columns(u, v, c)
            trace = [_objective(t, u, v, c)]
            for _ in range(max_iter):
                # each step rebinds u, v and c and never writes them in place
                prev = (u, v, c)
                u = _solve_factor(c, v, targets[0], eye)
                v = _solve_factor(c, u, targets[1], eye)
                c = _solve_factor(v, u, targets[2], eye)
                u, v, c = _normalize_columns(u, v, c)
                obj = _objective(t, u, v, c)
                if obj > trace[-1]:
                    u, v, c = prev
                    break
                improved = trace[-1] - obj
                relative = improved / max(trace[-1], 1e-30)
                trace.append(obj)
                if relative < tol:
                    break
            return DepthwiseFactors(u=u, v=v, c=c, trace=trace)
        except SingularityError as err:
            last_err = err
    raise SingularityError(
        f"separable fit failed after {ALS_RESTARTS} restarts: {last_err}"
    )


def absorb_depthwise(layer, factors: DepthwiseFactors):
    """Fold separable factors into the bases, leaving a per-channel core.

    qa <- qa @ u and qs <- qs @ v; the core becomes the (k*k, rank)
    coefficient table applied channelwise.  The layer function changes
    by the approximation error of the fit.
    """
    core = _full_core(layer, "absorb separable factors into")
    if core.ndim != 3:
        raise ValidationError("separable absorb needs a convolution bottleneck")
    if factors.u.shape[0] != core.shape[0] or factors.v.shape[0] != core.shape[1]:
        raise DimensionError("separable factors do not match the core shape")
    return layer.rebuilt(layer.qa @ factors.u, factors.c.copy(), layer.qs @ factors.v)
