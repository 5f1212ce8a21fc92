"""Layer implementations with explicit forward/backward and capture hooks.

Every parameterized layer exposes its weight through the canonical matrix
view of shape (fan_in, fan_out): dense layers store it directly, conv
layers store the kernel as a (c_in*k*k, c_out) matrix whose column i is
filter i.  Pre-activations follow s = W.T @ a per sample, so the input
covariance lives on the fan_in side and the gradient covariance on the
fan_out side.

Backward passes propagate per-sample, unscaled loss gradients (the
gradient of each sample's own loss, not the batch mean).  Parameter
gradients returned to the trainer are means over the batch.  The tape
dict a layer fills during forward/backward carries the capture tensors
used for curvature estimation.  backward(dy, tape, input_grad=False)
fills the tape the same way but returns None instead of the input
gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Extract sliding k x k patches.

    x: (B, C, H, W) -> (B, L, C*k*k) with L = H_out*W_out and each patch
    flattened in (channel, row, col) order, matching the canonical weight
    matrix row layout.
    """
    b, c, h, w = x.shape
    h_out = conv_out_size(h, k, stride, padding)
    w_out = conv_out_size(w, k, stride, padding)
    if h_out <= 0 or w_out <= 0:
        raise DimensionError(f"conv output would be empty for input {h}x{w}")
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((b, c, k, k, h_out, w_out), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj] = xp[
                :, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride
            ]
    return (
        cols.transpose(0, 4, 5, 1, 2, 3).reshape(b, h_out * w_out, c * k * k)
    )


def col2im(cols: np.ndarray, x_shape, k: int, stride: int, padding: int) -> np.ndarray:
    """Scatter-add patches back onto the input grid; adjoint of im2col."""
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
    if padding == 0:
        return xp
    return xp[:, :, padding : padding + h, padding : padding + w]


class DenseLayer:
    kind = "dense"

    def __init__(self, w: np.ndarray, bias: np.ndarray | None = None):
        self.w = np.asarray(w, dtype=np.float64)
        if self.w.ndim != 2:
            raise DimensionError("dense weight must be 2-D")
        if bias is None:
            bias = np.zeros(self.w.shape[1])
        self.b = np.asarray(bias, dtype=np.float64)
        if self.b.shape != (self.w.shape[1],):
            raise DimensionError("dense bias shape mismatch")

    @property
    def fan_in(self) -> int:
        return self.w.shape[0]

    @property
    def fan_out(self) -> int:
        return self.w.shape[1]

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise DimensionError(
                f"dense expects (B, {self.fan_in}), got {x.shape}"
            )
        if tape is not None:
            tape["a"] = x
        return x @ self.w + self.b

    def backward(self, dy: np.ndarray, tape: dict, input_grad: bool = True) -> np.ndarray | None:
        a = tape["a"]
        batch = a.shape[0]
        tape["g"] = dy
        tape["grads"] = {"w": a.T @ dy / batch, "b": dy.mean(axis=0)}
        if not input_grad:
            return None
        return dy @ self.w.T

    def param_items(self):
        return [("w", self.w), ("b", self.b)]

    def out_shape(self, in_shape):
        return (self.fan_out,)

    def param_count(self) -> int:
        return self.w.size + self.b.size

    def flops(self, in_shape) -> int:
        return 2 * self.fan_in * self.fan_out


class ConvLayer:
    """2-D convolution storing its kernel in the canonical matrix view.

    w has shape (c_in*k*k, c_out); column i is filter i flattened in
    (channel, row, col) order.
    """

    kind = "conv"

    def __init__(
        self,
        w: np.ndarray,
        bias: np.ndarray | None,
        c_in: int,
        k: int,
        stride: int = 1,
        padding: int = 0,
    ):
        self.w = np.asarray(w, dtype=np.float64)
        self.c_in = int(c_in)
        self.k = int(k)
        self.stride = int(stride)
        self.padding = int(padding)
        if self.w.ndim != 2 or self.w.shape[0] != self.c_in * self.k * self.k:
            raise DimensionError("conv weight rows must equal c_in*k*k")
        if bias is None:
            bias = np.zeros(self.w.shape[1])
        self.b = np.asarray(bias, dtype=np.float64)
        if self.b.shape != (self.w.shape[1],):
            raise DimensionError("conv bias shape mismatch")

    @property
    def c_out(self) -> int:
        return self.w.shape[1]

    @property
    def kernel4d(self) -> np.ndarray:
        """(c_out, c_in, k, k) view of the weight, for inspection."""
        return self.w.T.reshape(self.c_out, self.c_in, self.k, self.k)

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise DimensionError(
                f"conv expects (B, {self.c_in}, H, W), got {x.shape}"
            )
        patches = im2col(x, self.k, self.stride, self.padding)
        h_out = conv_out_size(x.shape[2], self.k, self.stride, self.padding)
        w_out = conv_out_size(x.shape[3], self.k, self.stride, self.padding)
        y = patches @ self.w + self.b
        if tape is not None:
            tape["x_in"] = x
            tape["patches"] = patches
            tape["out_hw"] = (h_out, w_out)
        return y.transpose(0, 2, 1).reshape(x.shape[0], self.c_out, h_out, w_out)

    def backward(self, dy: np.ndarray, tape: dict, input_grad: bool = True) -> np.ndarray | None:
        x = tape["x_in"]
        patches = tape["patches"]
        batch = x.shape[0]
        g = dy.reshape(batch, self.c_out, -1).transpose(0, 2, 1)
        tape["g"] = g
        tape["grads"] = {
            "w": patches.reshape(-1, self.w.shape[0]).T @ g.reshape(-1, self.c_out) / batch,
            "b": g.sum(axis=1).mean(axis=0),
        }
        if not input_grad:
            return None
        dpatches = g @ self.w.T
        return col2im(dpatches, x.shape, self.k, self.stride, self.padding)

    def param_items(self):
        return [("w", self.w), ("b", self.b)]

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (
            self.c_out,
            conv_out_size(h, self.k, self.stride, self.padding),
            conv_out_size(w, self.k, self.stride, self.padding),
        )

    def param_count(self) -> int:
        return self.w.size + self.b.size

    def flops(self, in_shape) -> int:
        _, h_out, w_out = self.out_shape(in_shape)
        return 2 * self.k * self.k * self.c_in * self.c_out * h_out * w_out


class ReluLayer:
    kind = "relu"

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if tape is not None:
            tape["mask"] = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray, tape: dict, input_grad: bool = True) -> np.ndarray | None:
        if not input_grad:
            return None
        return dy * tape["mask"]

    def param_items(self):
        return []

    def out_shape(self, in_shape):
        return in_shape

    def param_count(self) -> int:
        return 0

    def flops(self, in_shape) -> int:
        return 0


class FlattenLayer:
    kind = "flatten"

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if tape is not None:
            tape["shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray, tape: dict, input_grad: bool = True) -> np.ndarray | None:
        if not input_grad:
            return None
        return dy.reshape(tape["shape"])

    def param_items(self):
        return []

    def out_shape(self, in_shape):
        n = 1
        for s in in_shape:
            n *= s
        return (n,)

    def param_count(self) -> int:
        return 0

    def flops(self, in_shape) -> int:
        return 0


class BottleneckDenseLayer:
    """Dense layer factored as qa @ core @ qs.T with prunable inner ranks.

    core is either a full (ra, rc) matrix ("full" mode) or, after a
    depthwise decomposition has been absorbed, a length-r diagonal
    ("diag" mode, ra == rc == r).
    """

    kind = "bottleneck_dense"

    def __init__(
        self,
        qa: np.ndarray,
        core: np.ndarray,
        qs: np.ndarray,
        bias: np.ndarray | None = None,
        core_mode: str = "full",
        kept_rows: np.ndarray | None = None,
        kept_cols: np.ndarray | None = None,
    ):
        self.qa = np.asarray(qa, dtype=np.float64)
        self.core = np.asarray(core, dtype=np.float64)
        self.qs = np.asarray(qs, dtype=np.float64)
        self.core_mode = core_mode
        if core_mode == "full":
            if self.core.ndim != 2:
                raise DimensionError("full core must be 2-D")
            ra, rc = self.core.shape
        elif core_mode == "diag":
            if self.core.ndim != 1:
                raise DimensionError("diag core must be 1-D")
            ra = rc = self.core.shape[0]
        else:
            raise ValidationError(f"unknown core mode {core_mode!r}")
        if self.qa.shape[1] != ra or self.qs.shape[1] != rc:
            raise DimensionError("basis column counts must match core ranks")
        if bias is None:
            bias = np.zeros(self.qs.shape[0])
        self.b = np.asarray(bias, dtype=np.float64)
        if self.b.shape != (self.qs.shape[0],):
            raise DimensionError("bottleneck bias shape mismatch")
        n_rows = self.qa.shape[1] if kept_rows is None else len(kept_rows)
        n_cols = self.qs.shape[1] if kept_cols is None else len(kept_cols)
        self.kept_rows = (
            np.arange(n_rows, dtype=np.uint32)
            if kept_rows is None
            else np.asarray(kept_rows, dtype=np.uint32)
        )
        self.kept_cols = (
            np.arange(n_cols, dtype=np.uint32)
            if kept_cols is None
            else np.asarray(kept_cols, dtype=np.uint32)
        )

    @property
    def fan_in(self) -> int:
        return self.qa.shape[0]

    @property
    def fan_out(self) -> int:
        return self.qs.shape[0]

    def effective_weight(self) -> np.ndarray:
        if self.core_mode == "diag":
            return self.qa @ (self.core[:, None] * self.qs.T)
        return self.qa @ self.core @ self.qs.T

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise DimensionError(
                f"bottleneck dense expects (B, {self.fan_in}), got {x.shape}"
            )
        h1 = x @ self.qa
        if self.core_mode == "diag":
            h2 = h1 * self.core
        else:
            h2 = h1 @ self.core
        if tape is not None:
            tape["x"] = x
            tape["a"] = h1
            tape["h2"] = h2
        return h2 @ self.qs.T + self.b

    def backward(self, dy: np.ndarray, tape: dict, input_grad: bool = True) -> np.ndarray | None:
        x, h1, h2 = tape["x"], tape["a"], tape["h2"]
        batch = x.shape[0]
        dh2 = dy @ self.qs
        tape["g"] = dh2
        if self.core_mode == "diag":
            dcore = (dh2 * h1).sum(axis=0) / batch
            dh1 = dh2 * self.core
        else:
            dcore = h1.T @ dh2 / batch
            dh1 = dh2 @ self.core.T
        tape["grads"] = {
            "qa": x.T @ dh1 / batch,
            "core": dcore,
            "qs": dy.T @ h2 / batch,
            "b": dy.mean(axis=0),
        }
        if not input_grad:
            return None
        return dh1 @ self.qa.T

    def param_items(self):
        return [("qa", self.qa), ("core", self.core), ("qs", self.qs), ("b", self.b)]

    def out_shape(self, in_shape):
        return (self.fan_out,)

    def param_count(self) -> int:
        return self.qa.size + self.core.size + self.qs.size + self.b.size

    def flops(self, in_shape) -> int:
        ra = self.qa.shape[1]
        rc = self.qs.shape[1]
        core = 2 * ra if self.core_mode == "diag" else 2 * ra * rc
        return 2 * self.fan_in * ra + core + 2 * rc * self.fan_out


class BottleneckConvLayer:
    """Convolution factored through rotated channel (or patch) spaces.

    Channel basis: 1x1 projection qa (c_in, ra), a k x k core conv held as
    a 3-tensor (ra, rc, k*k) with per-offset slices, then a 1x1
    projection back through qs (c_out, rc).  Patch basis: the projection
    qa acts on whole im2col patches (c_in*k*k, ra) and the core is a
    plain (ra, rc) matrix.  After a depthwise decomposition is absorbed
    the channel-basis core becomes a (k*k, r) array of per-offset
    diagonals.
    """

    kind = "bottleneck_conv"

    def __init__(
        self,
        qa: np.ndarray,
        core: np.ndarray,
        qs: np.ndarray,
        bias: np.ndarray | None,
        c_in: int,
        k: int,
        stride: int,
        padding: int,
        basis: str = "channel",
        core_mode: str = "full",
        kept_rows: np.ndarray | None = None,
        kept_cols: np.ndarray | None = None,
    ):
        self.qa = np.asarray(qa, dtype=np.float64)
        self.core = np.asarray(core, dtype=np.float64)
        self.qs = np.asarray(qs, dtype=np.float64)
        self.c_in = int(c_in)
        self.k = int(k)
        self.stride = int(stride)
        self.padding = int(padding)
        self.basis = basis
        self.core_mode = core_mode
        if basis not in ("channel", "patch"):
            raise ValidationError(f"unknown conv bottleneck basis {basis!r}")
        if basis == "channel":
            if self.qa.shape[0] != self.c_in:
                raise DimensionError("channel basis qa must have c_in rows")
            if core_mode == "full":
                if self.core.ndim != 3 or self.core.shape[2] != self.k * self.k:
                    raise DimensionError("channel core must be (ra, rc, k*k)")
                ra, rc = self.core.shape[0], self.core.shape[1]
            elif core_mode == "diag":
                if self.core.ndim != 2 or self.core.shape[0] != self.k * self.k:
                    raise DimensionError("depthwise core must be (k*k, r)")
                ra = rc = self.core.shape[1]
            else:
                raise ValidationError(f"unknown core mode {core_mode!r}")
        else:
            if core_mode != "full":
                raise ValidationError("patch basis supports only a full core")
            if self.qa.shape[0] != self.c_in * self.k * self.k:
                raise DimensionError("patch basis qa must have c_in*k*k rows")
            if self.core.ndim != 2:
                raise DimensionError("patch core must be 2-D")
            ra, rc = self.core.shape
        if self.qa.shape[1] != ra or self.qs.shape[1] != rc:
            raise DimensionError("basis column counts must match core ranks")
        if bias is None:
            bias = np.zeros(self.qs.shape[0])
        self.b = np.asarray(bias, dtype=np.float64)
        if self.b.shape != (self.qs.shape[0],):
            raise DimensionError("bottleneck conv bias shape mismatch")
        n_rows = ra if kept_rows is None else len(kept_rows)
        n_cols = rc if kept_cols is None else len(kept_cols)
        self.kept_rows = (
            np.arange(n_rows, dtype=np.uint32)
            if kept_rows is None
            else np.asarray(kept_rows, dtype=np.uint32)
        )
        self.kept_cols = (
            np.arange(n_cols, dtype=np.uint32)
            if kept_cols is None
            else np.asarray(kept_cols, dtype=np.uint32)
        )

    @property
    def c_out(self) -> int:
        return self.qs.shape[0]

    @property
    def ra(self) -> int:
        return self.qa.shape[1]

    @property
    def rc(self) -> int:
        return self.qs.shape[1]

    def core_matrix(self) -> np.ndarray:
        """Core as a (ra*k*k, rc) matrix matching the patch row layout."""
        if self.basis == "patch":
            return self.core
        kk = self.k * self.k
        if self.core_mode == "diag":
            r = self.core.shape[1]
            mat = np.zeros((r * kk, r), dtype=np.float64)
            for delta in range(kk):
                mat[delta::kk, :][np.arange(r), np.arange(r)] = self.core[delta]
            return mat
        return self.core.transpose(0, 2, 1).reshape(self.ra * kk, self.rc)

    def effective_weight(self) -> np.ndarray:
        """Equivalent plain-conv weight in the canonical (c_in*k*k, c_out) view."""
        if self.basis == "patch":
            return self.qa @ self.core @ self.qs.T
        kk = self.k * self.k
        w = np.zeros((self.c_in * kk, self.c_out), dtype=np.float64)
        for delta in range(kk):
            if self.core_mode == "diag":
                slice_ = self.core[delta][None, :] * np.eye(self.ra)
            else:
                slice_ = self.core[:, :, delta]
            w_delta = self.qa @ slice_ @ self.qs.T
            w[delta::kk, :] = w_delta
        return w

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise DimensionError(
                f"bottleneck conv expects (B, {self.c_in}, H, W), got {x.shape}"
            )
        batch = x.shape[0]
        h_out = conv_out_size(x.shape[2], self.k, self.stride, self.padding)
        w_out = conv_out_size(x.shape[3], self.k, self.stride, self.padding)
        if self.basis == "patch":
            patches = im2col(x, self.k, self.stride, self.padding)
            h1 = patches @ self.qa
            h2 = h1 @ self.core
            if tape is not None:
                tape["x_in"] = x
                tape["patches"] = patches
                tape["a_core"] = h1
                tape["h2"] = h2
                tape["out_hw"] = (h_out, w_out)
            y = h2 @ self.qs.T + self.b
            return y.transpose(0, 2, 1).reshape(batch, self.c_out, h_out, w_out)
        x1 = (self.qa.T @ x.reshape(batch, self.c_in, -1)).reshape(
            batch, self.ra, x.shape[2], x.shape[3]
        )
        core_pat = im2col(x1, self.k, self.stride, self.padding)
        if self.core_mode == "diag":
            kk = self.k * self.k
            pr = core_pat.reshape(batch, -1, self.ra, kk)
            h2 = np.einsum("blrd,dr->blr", pr, self.core)
        else:
            h2 = core_pat @ self.core_matrix()
        if tape is not None:
            tape["x_in"] = x
            tape["x1"] = x1
            tape["core_pat"] = core_pat
            tape["h2"] = h2
            tape["out_hw"] = (h_out, w_out)
        y = h2 @ self.qs.T + self.b
        return y.transpose(0, 2, 1).reshape(batch, self.c_out, h_out, w_out)

    def backward(self, dy: np.ndarray, tape: dict, input_grad: bool = True) -> np.ndarray | None:
        x = tape["x_in"]
        batch = x.shape[0]
        dy3 = dy.reshape(batch, self.c_out, -1).transpose(0, 2, 1)
        h2 = tape["h2"]
        dqs = dy3.reshape(-1, self.c_out).T @ h2.reshape(-1, self.rc) / batch
        db = dy3.sum(axis=1).mean(axis=0)
        dh2 = dy3 @ self.qs
        tape["g"] = dh2
        if self.basis == "patch":
            patches, h1 = tape["patches"], tape["a_core"]
            dcore = np.einsum("bla,blc->ac", h1, dh2) / batch
            dh1 = dh2 @ self.core.T
            dqa = np.einsum("bln,bla->na", patches, dh1) / batch
            tape["grads"] = {"qa": dqa, "core": dcore, "qs": dqs, "b": db}
            if not input_grad:
                return None
            dpatches = dh1 @ self.qa.T
            return col2im(dpatches, x.shape, self.k, self.stride, self.padding)
        core_pat = tape["core_pat"]
        kk = self.k * self.k
        if self.core_mode == "diag":
            pr = core_pat.reshape(batch, -1, self.ra, kk)
            dcore = np.einsum("blr,blrd->dr", dh2, pr) / batch
            dpr = np.einsum("blr,dr->blrd", dh2, self.core)
            dcore_pat = dpr.reshape(core_pat.shape)
        else:
            dcore_mat = core_pat.reshape(-1, self.ra * kk).T @ dh2.reshape(-1, self.rc) / batch
            dcore = dcore_mat.reshape(self.ra, kk, self.rc).transpose(0, 2, 1)
            dcore_pat = dh2 @ self.core_matrix().T
        x1 = tape["x1"]
        dx1 = col2im(dcore_pat, x1.shape, self.k, self.stride, self.padding)
        x3 = x.reshape(batch, self.c_in, -1)
        dx13 = dx1.reshape(batch, self.ra, -1)
        dqa = (x3 @ dx13.transpose(0, 2, 1)).sum(axis=0) / batch
        tape["grads"] = {"qa": dqa, "core": dcore, "qs": dqs, "b": db}
        if not input_grad:
            return None
        return (self.qa @ dx13).reshape(x.shape)

    def param_items(self):
        return [("qa", self.qa), ("core", self.core), ("qs", self.qs), ("b", self.b)]

    def out_shape(self, in_shape):
        _, h, w = in_shape
        return (
            self.c_out,
            conv_out_size(h, self.k, self.stride, self.padding),
            conv_out_size(w, self.k, self.stride, self.padding),
        )

    def param_count(self) -> int:
        return self.qa.size + self.core.size + self.qs.size + self.b.size

    def flops(self, in_shape) -> int:
        _, h, w = in_shape
        _, h_out, w_out = self.out_shape(in_shape)
        if self.basis == "patch":
            proj = 2 * self.qa.shape[0] * self.ra * h_out * w_out
            core = 2 * self.ra * self.rc * h_out * w_out
        else:
            proj = 2 * self.c_in * self.ra * h * w
            if self.core_mode == "diag":
                core = 2 * self.k * self.k * self.ra * h_out * w_out
            else:
                core = 2 * self.k * self.k * self.ra * self.rc * h_out * w_out
        back = 2 * self.rc * self.c_out * h_out * w_out
        return proj + core + back
