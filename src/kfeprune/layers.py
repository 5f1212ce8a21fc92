"""Layer implementations with explicit forward/backward and capture hooks.

Every parameterized layer exposes its weight through the canonical matrix
view of shape (fan_in, fan_out): dense layers store it directly, conv
layers store the kernel as a (c_in*k*k, c_out) matrix whose column i is
filter i.  Pre-activations follow s = W.T @ a per sample, so the input
covariance lives on the fan_in side and the gradient covariance on the
fan_out side.

Conv activations keep their logical (B, C, H, W) shape but are
channels-last in memory, as PyTorch's channels_last format: each is a
(B, C, H, W) view of a contiguous (B, H, W, C) array, which is the conv
GEMM's (B, L, C) output reshaped.  So conv, ReLU, col2im and flatten's
backward hand each other arrays of one layout, and the channel-covariance
factor of a plain conv reads its input's pixel rows without a copy.  Every
layer accepts either layout and gives bitwise the same result for both;
shapes, weights and flop counts do not depend on it.

The four parameterized kinds split along two axes.  The geometry,
_DenseGeometry or _ConvGeometry, turns a sample into GEMM rows and back:
_gemm multiplies the rows (the sample itself, or its im2col patches) by
a (fan_in, m) kernel K, _kernel_grad and _input_grad give K's gradient
and the input gradient, and _rows, _bias_grad and _output handle the
output side's layout.  The layer decides what runs between input and
output rows: the GEMM against w for a plain layer, or a bottleneck's
core stage followed by the qs projection.  So one forward and one
backward in _Plain serve DenseLayer and ConvLayer, and one pair in
Bottleneck serves both bottleneck kinds.  Every kind derives from _Layer,
and counts its parameters and FLOPs from its arrays' sizes.

A conv's input gradient is bitwise col2im(g @ K.T).  Where the scatter
would span more than one bincount group, c_in is a multiple of 8, the
output is more than one pixel wide and the kernel width m is below c_in
or at most min(2*c_in, 64), it is computed from the m-wide g instead:
one GEMM per kernel tap over the tap's stride phase of the input, with
no (B, L, c_in*k*k) patch gradient.  The shapes alone choose the way;
_ConvGeometry._input_grad says why each bound is there.

Every parameter is a C-contiguous float64 array from construction on, as
a checkpoint loads it, so a layer trains bitwise the same from memory or
from disk: the GEMMs round by operand layout.

Each layer checks a sample shape once, in out_shape, which forward calls
and pipeline.flops_and_out_shape walks through a network: DimensionError
if it cannot fit.

Backward passes propagate per-sample, unscaled loss gradients (the
gradient of each sample's own loss, not the batch mean).  Parameter
gradients returned to the trainer are means over the batch, written to
tape["grads"].  The tape dict a layer fills during forward/backward
carries the capture tensors used for curvature estimation, among them
the output-side gradient tape["g"].  backward(dy, tape, input_grad,
param_grads) takes two switches, both on by default: input_grad=False
returns None instead of the input gradient, and param_grads=False writes
no tape["grads"] and skips the work that only the parameter gradients
need, as the factor pass does.  Neither switch changes tape["g"] or the
input gradient by a bit.

Ownership: backward may overwrite the dy it is handed (ReLU masks it in
place), so the caller must not read dy again.  No input gradient a layer
returns is held by a tape, and no layer writes into an array once a tape
holds it.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import DimensionError, ValidationError


# Constructor arguments that fix a convolution's geometry, in record order.
CONV_GEOMETRY = ("c_in", "k", "stride", "padding")

# Most patch-table entries col2im scatters per bincount call.  Small tables
# are grouped up to this size, so a batch of tiny patches costs one call
# instead of one per sample; a table over half this size goes alone.
COL2IM_BLOCK = 2**14


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


@functools.lru_cache(maxsize=64)
def _patch_index(c: int, h: int, w: int, k: int, stride: int, padding: int) -> np.ndarray:
    """Flat channels-last input position of every patch entry, as a
    read-only intp table.

    Shape (c*k*k, L), rows in (channel, di, dj) order and columns in
    (out_row, out_col) order; input pixel (row, col) of channel ch sits at
    (row*w + col)*c + ch, its offset in an (H, W, C) array.  Positions in
    the padding point at the sentinel slot c*h*w, one past the last input
    pixel.
    """
    h_out = conv_out_size(h, k, stride, padding)
    w_out = conv_out_size(w, k, stride, padding)
    if h_out <= 0 or w_out <= 0:
        raise DimensionError(f"conv output would be empty for input {h}x{w}")
    rows = (np.arange(k)[:, None] + stride * np.arange(h_out) - padding)[:, None, :, None]
    cols = (np.arange(k)[:, None] + stride * np.arange(w_out) - padding)[None, :, None, :]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    channel = np.arange(c)[:, None, None, None, None]
    table = np.where(inside, (rows * w + cols) * c + channel, c * h * w)
    table = table.reshape(c * k * k, h_out * w_out).astype(np.intp)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _scatter_index(
    c: int, h: int, w: int, k: int, stride: int, padding: int, group: int
) -> np.ndarray:
    """Read-only bincount index of col2im for a group of samples.

    Entries follow the (sample, location, patch entry) order of a
    contiguous (group, L, c*k*k) array whose locations run backwards:
    sample s's entries are _patch_index's table transposed, its locations
    reversed, plus s*(c*h*w + 1), so each sample owns its own bins and its
    own padding sentinel.
    """
    table = _patch_index(c, h, w, k, stride, padding)
    index = table.T[::-1].ravel()
    if group > 1:
        index = (index + (c * h * w + 1) * np.arange(group)[:, None]).ravel()
    index.flags.writeable = False
    return index


def _channels_last(rows: np.ndarray, b: int, c: int, h: int, w: int) -> np.ndarray:
    """(B, C, H, W) view of contiguous channels-last storage, such as the
    (B, H*W, C) pixel rows of a GEMM."""
    return rows.reshape(b, h, w, c).transpose(0, 3, 1, 2)


def _pixel_rows(x: np.ndarray) -> np.ndarray:
    """Contiguous (B, H*W, C) per-pixel channel rows of x; a view when x
    is channels-last, a copy otherwise."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(x.shape[0], -1, x.shape[1])


def _transposed(m: np.ndarray) -> np.ndarray:
    """m.T as a contiguous copy.  At batch 32 on one BLAS thread, numpy
    multiplies a stack of matrices by a transposed 2-D view 1.3 to 2.5
    times slower than by a contiguous copy."""
    return np.ascontiguousarray(m.T)


def _batch_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over the leading axis as a sum, then an in-place division:
    bitwise rows.mean(axis=0), without numpy's Python-level wrapper."""
    out = np.add.reduce(rows, axis=0)
    out /= rows.shape[0]
    return out


def im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Extract sliding k x k patches.

    x: (B, C, H, W) in either memory layout -> (B, L, C*k*k) with
    L = H_out*W_out and each patch flattened in (channel, row, col) order,
    matching the canonical weight matrix row layout.  The result is a
    transposed view of a contiguous (B, C*k*k, L) array.
    """
    b, c, h, w = x.shape
    table = _patch_index(c, h, w, k, stride, padding)
    # Allocate the result, which tapes keep alive, before the scratch buffer,
    # so the buffer is freed above it and leaves no hole below it in the
    # heap (the other order adds about 5 MB of peak RSS to a conv run).
    cols = np.empty((b,) + table.shape, dtype=np.float64)
    flat = np.empty((b, c * h * w + 1), dtype=np.float64)
    # a plain copy when x is channels-last; x.reshape(b, -1) would copy twice
    flat[:, :-1].reshape(b, h, w, c)[...] = x.transpose(0, 2, 3, 1)
    flat[:, -1] = 0.0
    # every index is in range; "clip" lets take write into cols unbuffered
    flat.take(table, axis=1, out=cols, mode="clip")
    return cols.transpose(0, 2, 1)


def col2im(cols: np.ndarray, x_shape, k: int, stride: int, padding: int) -> np.ndarray:
    """Scatter-add patches back onto the input grid; adjoint of im2col.

    One bincount scatters a group of samples, at most COL2IM_BLOCK table
    entries or one sample when a single table is larger, through the
    cached _scatter_index.  It reads each group's patches with their
    locations reversed, a row-order copy: for a fixed input pixel,
    location descending is kernel offset (di, dj) ascending, since
    di = row + padding - stride*out_row, so each pixel sums its
    contributions in (di, dj) order whatever k, stride and padding are.
    The result is channels-last in memory.
    """
    b, c, h, w = x_shape
    table = _patch_index(c, h, w, k, stride, padding)
    want = (b, table.shape[1], table.shape[0])
    if cols.shape != want:
        raise DimensionError(
            f"col2im expects cols of shape {want} for input {tuple(x_shape)}, got {cols.shape}"
        )
    size = c * h * w + 1
    group = max(1, min(b, COL2IM_BLOCK // table.size))
    index = _scatter_index(c, h, w, k, stride, padding, group)
    backwards = cols[:, ::-1]
    out = np.empty((b, size - 1), dtype=np.float64)
    for i in range(0, b, group):
        m = min(group, b - i)
        sums = np.bincount(
            index[: m * table.size], weights=backwards[i : i + m].ravel(), minlength=m * size
        )
        out[i : i + m] = sums.reshape(m, size)[:, :-1]
    return _channels_last(out, b, c, h, w)


class _DenseGeometry:
    """Geometry of both dense kinds: a (fan_in,) sample is one GEMM row,
    y = x @ K against a (fan_in, m) kernel K, and the output is those
    rows.  The tape keeps the input as "a"."""

    def out_shape(self, in_shape):
        if tuple(in_shape) != (self.fan_in,):
            raise DimensionError(f"{self.kind} expects ({self.fan_in},), got {tuple(in_shape)}")
        return (self.fan_out,)

    def _locations(self, in_shape) -> tuple:
        """(input pixels, output locations) of a sample: one of each."""
        self.out_shape(in_shape)
        return 1, 1

    def _gemm(self, x: np.ndarray, kernel: np.ndarray, tape: dict | None) -> np.ndarray:
        if tape is not None:
            tape["a"] = x
        return x @ kernel

    def _kernel_grad(self, tape: dict, g: np.ndarray) -> np.ndarray:
        gw = tape["a"].T @ g
        gw /= g.shape[0]
        return gw

    # a 2-D product takes a transposed operand as a free view
    _t = staticmethod(operator.attrgetter("T"))

    def _input_grad(self, tape: dict, g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        return g @ self._t(kernel)

    @staticmethod
    def _rows(dy: np.ndarray) -> np.ndarray:
        return dy

    _bias_grad = staticmethod(_batch_mean)

    @staticmethod
    def _output(y: np.ndarray, out_shape) -> np.ndarray:
        return y


class _ConvGeometry:
    """Geometry of both conv kinds: c_in input channels, a k x k kernel,
    stride and zero padding.  out_shape rejects a wrong channel count and
    an input too small to give any output.  A sample's GEMM rows are the
    im2col patches of its input, y = im2col(x) @ K against a
    (c_in*k*k, m) kernel K, and the (B, L, m) output rows are laid out
    as a channels-last (B, m, H_out, W_out) view."""

    def _set_geometry(self, c_in: int, k: int, stride: int, padding: int):
        self.c_in, self.k, self.stride, self.padding = int(c_in), int(k), int(stride), int(padding)
        if self.k < 1 or self.stride < 1 or self.padding < 0:
            raise ValidationError(
                f"conv needs k >= 1, stride >= 1 and padding >= 0, "
                f"got k={self.k}, stride={self.stride}, padding={self.padding}"
            )

    def geometry(self) -> dict:
        return {key: getattr(self, key) for key in CONV_GEOMETRY}

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.c_in:
            raise DimensionError(f"{self.kind} expects ({self.c_in}, H, W), got {tuple(in_shape)}")
        _, h, w = in_shape
        h_out = conv_out_size(h, self.k, self.stride, self.padding)
        w_out = conv_out_size(w, self.k, self.stride, self.padding)
        if h_out <= 0 or w_out <= 0:
            raise DimensionError(f"{self.kind} output would be empty for input {h}x{w}")
        return (self.c_out, h_out, w_out)

    def _locations(self, in_shape) -> tuple:
        """(input pixels, output locations) of a sample: H*W and
        H_out*W_out."""
        _, h_out, w_out = self.out_shape(in_shape)
        return in_shape[1] * in_shape[2], h_out * w_out

    def _gemm(self, x: np.ndarray, kernel: np.ndarray, tape: dict | None) -> np.ndarray:
        """(B, L, m) product of x's patches and kernel; the tape keeps x_in
        and the patches."""
        patches = im2col(x, self.k, self.stride, self.padding)
        if tape is not None:
            tape["x_in"] = x
            tape["patches"] = patches
        return patches @ kernel

    def _kernel_grad(self, tape: dict, g: np.ndarray) -> np.ndarray:
        """Batch-mean gradient of the patch GEMM's kernel from its (B, L, m)
        output gradients: per-sample products over the patches' contiguous
        (B, n, L) storage, summed over the batch.  A (B*L, n) row view of
        the patches would copy every patch."""
        gw = np.add.reduce(tape["patches"].transpose(0, 2, 1) @ g, axis=0)
        gw /= g.shape[0]
        return gw

    # a stack of products takes a transposed operand as a contiguous copy
    _t = staticmethod(_transposed)

    def _input_grad(self, tape: dict, g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """Input gradient of the patch GEMM, bitwise col2im(g @ kernel.T).

        _phase_input_grad works from the m-wide g directly, with no
        (B, L, c_in*k*k) patch gradient, when all of these hold; every
        other shape, among them each small batch, runs col2im.
          - The scatter would span more than one bincount group: below
            that, col2im is one call and the phase GEMMs do not pay.
          - c_in is a multiple of 8: with it, OpenBLAS's SkylakeX GEMM
            (AVX-512) rounds each column of a phase GEMM as it rounds the
            same tap's column of g @ kernel.T; at c_in 12, 17, 20 or 28,
            say, some differ.  Its Haswell (AVX2) and Nehalem GEMMs break
            the equality at some geometries for kernels 8 and 4 or more
            wide, in the m < c_in branch too: the rule is bitwise with
            the SkylakeX and Sandybridge kernels only.
          - The output is more than one pixel wide, so no phase GEMM has
            a single row, which numpy hands to gemv, which rounds
            differently.
          - m < c_in, or m <= min(2*c_in, 64): the phase GEMMs run the
            padded output grid, and past those widths they took longer
            than col2im (at c_in 64, m 96 or 128, say).
        """
        x_shape = tape["x_in"].shape
        m, c = kernel.shape[1], self.c_in
        if (
            g.shape[0] * g.shape[1] * kernel.shape[0] > COL2IM_BLOCK
            and c % 8 == 0
            and conv_out_size(x_shape[3], self.k, self.stride, self.padding) > 1
            and (m < c or m <= min(2 * c, 64))
        ):
            return self._phase_input_grad(g, kernel, x_shape)
        dpatches = g @ self._t(kernel)
        return col2im(dpatches, x_shape, self.k, self.stride, self.padding)

    def _phase_input_grad(self, g: np.ndarray, kernel: np.ndarray, x_shape) -> np.ndarray:
        """col2im(g @ kernel.T) as stride**2 sub-convolutions of g, one per
        input phase: the pixels (r, c) with fixed (r + padding) % stride
        and (c + padding) % stride.

        Kernel tap (di, dj) reaches only the phase (di % stride,
        dj % stride), its phase pixel (q, p) from output location
        (q - di // stride, p - dj // stride).  So over g zero-padded to a
        flat grid of rows wp wide, a tap's terms for a whole phase are one
        GEMM: a contiguous slice of the grid, shifted by the tap's offset,
        times the tap's (m, c_in) slice of the kernel.  A slice row reads
        past its grid row into the next one's left padding, zeros, and the
        columns past the phase's width are dropped.  Each phase sums its
        taps from zeros in (di, dj) order, col2im's order, into a
        channels-last dx; pixels that no tap reaches are +0.0.
        """
        b, c, h, w = x_shape
        k, s, pad = self.k, self.stride, self.padding
        h_out, w_out = conv_out_size(h, k, s, pad), conv_out_size(w, k, s, pad)
        m = kernel.shape[1]
        if g.shape != (b, h_out * w_out, m):
            raise DimensionError(
                f"conv input gradient expects g of shape {(b, h_out * w_out, m)} "
                f"for input {tuple(x_shape)}, got {g.shape}"
            )

        def bounds(r0: int, n: int) -> tuple:
            """[first, last) phase index q of phase r0 over n input rows,
            q's row being s*q + r0 - pad."""
            return (pad - r0 + s - 1) // s, (pad + n - r0 + s - 1) // s

        t = (k - 1) // s  # the largest shift, and the grid's top and left padding
        wp = max(t + w_out, bounds(0, w)[1])
        size = (t + max(h_out, bounds(0, h)[1])) * wp
        # the slices of phase 0's last row run this far past the grid
        grid = np.zeros((b, size + bounds(0, w)[0] + t, m), dtype=np.float64)
        rows = grid[:, :size].reshape(b, -1, wp, m)
        rows[:, t : t + h_out, t : t + w_out] = g.reshape(b, h_out, w_out, m)
        taps = np.ascontiguousarray(kernel.reshape(c, k, k, m).transpose(1, 2, 3, 0))
        # with stride <= k every phase has taps and writes all its pixels
        dx = (np.zeros if s > k else np.empty)((b, h, w, c), dtype=np.float64)
        for r0 in range(min(s, k)):
            q0, q1 = bounds(r0, h)
            for c0 in range(min(s, k)):
                p0, p1 = bounds(c0, w)
                acc = np.zeros((b, (q1 - q0) * wp, c), dtype=np.float64)
                for di in range(r0, k, s):
                    for dj in range(c0, k, s):
                        start = (q0 - di // s + t) * wp + p0 - dj // s + t
                        acc += grid[:, start : start + acc.shape[1]] @ taps[di, dj]
                phase = dx[:, s * q0 + r0 - pad :: s, s * p0 + c0 - pad :: s]
                phase[...] = acc.reshape(b, q1 - q0, wp, c)[:, :, : p1 - p0]
        return dx.transpose(0, 3, 1, 2)

    _rows = staticmethod(_pixel_rows)

    @staticmethod
    def _bias_grad(g: np.ndarray) -> np.ndarray:
        """Batch-mean bias gradient from (B, L, C) output gradients.

        numpy sums pairwise only along a contiguous axis, so the location
        sum runs over a (B, C, L) copy: the order does not depend on g's
        layout.
        """
        return _batch_mean(np.add.reduce(np.ascontiguousarray(g.transpose(0, 2, 1)), axis=2))

    @staticmethod
    def _output(y: np.ndarray, out_shape) -> np.ndarray:
        return _channels_last(y, y.shape[0], *out_shape)


class _Layer:
    """Base of every kind: param_count sums the sizes of param_items, and
    flops(in_shape), the forward multiply-add count of one sample at two
    ops each, is the parameters' sizes times the geometry's _locations."""

    def geometry(self) -> dict:
        return {}

    def param_items(self):
        return []

    def param_count(self) -> int:
        return sum(p.size for _, p in self.param_items())

    def flops(self, in_shape) -> int:
        return 0

    def _set_bias(self, bias: np.ndarray | None, n: int):
        """The bias b as n float64 values, zeros when bias is None."""
        self.b = np.ascontiguousarray(np.zeros(n) if bias is None else bias, dtype=np.float64)
        if self.b.shape != (n,):
            raise DimensionError(f"{self.kind} bias shape mismatch")


class _Plain(_Layer):
    """The one forward/backward of both plain kinds: the geometry's GEMM
    against the weight w, a (fan_in, fan_out) matrix, plus the bias."""

    def __init__(self, w: np.ndarray, bias: np.ndarray | None = None):
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        if self.w.ndim != 2:
            raise DimensionError(f"{self.kind} weight must be 2-D")
        self._set_bias(bias, self.w.shape[1])

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        out_shape = self.out_shape(x.shape[1:])
        y = self._gemm(x, self.w, tape)
        y += self.b
        return self._output(y, out_shape)

    def backward(
        self, dy: np.ndarray, tape: dict, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        g = self._rows(dy)
        tape["g"] = g
        if param_grads:
            tape["grads"] = {"w": self._kernel_grad(tape, g), "b": self._bias_grad(g)}
        return self._input_grad(tape, g, self.w) if input_grad else None

    def param_items(self):
        return [("w", self.w), ("b", self.b)]

    def flops(self, in_shape) -> int:
        """The GEMM against w at every output location."""
        return 2 * self.w.size * self._locations(in_shape)[1]


class DenseLayer(_DenseGeometry, _Plain):
    kind = "dense"

    @property
    def fan_in(self) -> int:
        return self.w.shape[0]

    @property
    def fan_out(self) -> int:
        return self.w.shape[1]


class ConvLayer(_ConvGeometry, _Plain):
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
        self._set_geometry(c_in, k, stride, padding)
        super().__init__(w, bias)
        if self.w.shape[0] != self.c_in * self.k * self.k:
            raise DimensionError("conv weight rows must equal c_in*k*k")

    @property
    def c_out(self) -> int:
        return self.w.shape[1]


class ReluLayer(_Layer):
    kind = "relu"

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if tape is not None:
            tape["mask"] = x > 0
        return np.maximum(x, 0.0)

    def backward(
        self, dy: np.ndarray, tape: dict, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        """dy masked in place: backward may overwrite the dy it is handed."""
        if not input_grad:
            return None
        dy *= tape["mask"]
        return dy

    def out_shape(self, in_shape):
        return in_shape


class FlattenLayer(_Layer):
    kind = "flatten"

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if tape is not None:
            tape["shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(
        self, dy: np.ndarray, tape: dict, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        if not input_grad:
            return None
        dx = dy.reshape(tape["shape"])
        # hand a conv stack's ReLU its gradient in the mask's layout
        return _channels_last(_pixel_rows(dx), *dx.shape) if dx.ndim == 4 else dx

    def out_shape(self, in_shape):
        return (math.prod(in_shape),)


class Bottleneck(_Layer):
    """A layer rewritten as qa @ core @ qs.T with prunable inner ranks.

    qa (fan_in side, ra columns) and qs (fan_out side, rc columns) are the
    bases; the bases, core and bias describe the layer completely.
    Subclasses fix the core layout through core_ranks(), and rebuilt()
    carries their geometry() over.

    Both kinds run one forward and one backward around a core stage that
    takes the input to h2, the core's output rows: then y = h2 @ qs.T + b,
    and the tape adds h2.  _core_forward gives h2, and
    _core_backward turns h2's gradient into the (qa, core) gradients and
    the input gradient.  With qa = I, qs = I and a core laid out from a
    plain layer's w, the layer is bitwise that plain layer.
    """

    core_mode = "full"

    def __init__(self, qa, core, qs, bias=None):
        self.qa, self.core, self.qs = (
            np.ascontiguousarray(m, dtype=np.float64) for m in (qa, core, qs)
        )
        ra, rc = self.core_ranks()
        if self.qa.ndim != 2 or self.qs.ndim != 2 or self.ra != ra or self.rc != rc:
            raise DimensionError("basis column counts must match core ranks")
        self._set_bias(bias, self.qs.shape[0])

    @property
    def ra(self) -> int:
        return self.qa.shape[1]

    @property
    def rc(self) -> int:
        return self.qs.shape[1]

    def rebuilt(self, qa, core, qs):
        """The same kind of layer with the same geometry and a copy of the
        bias, around new bases and core."""
        return type(self)(qa=qa, core=core, qs=qs, bias=self.b.copy(), **self.geometry())

    def param_items(self):
        return [("qa", self.qa), ("core", self.core), ("qs", self.qs), ("b", self.b)]

    def flops(self, in_shape) -> int:
        """The factored layer's count, qa at every input pixel and the core
        and qs at every output location, not that of the forward's GEMMs."""
        pixels, locations = self._locations(in_shape)
        return 2 * (self.qa.size * pixels + (self.core.size + self.qs.size) * locations)

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        out_shape = self.out_shape(x.shape[1:])
        h2 = self._core_forward(x, tape)
        if tape is not None:
            tape["h2"] = h2
        y = h2 @ self._t(self.qs)
        y += self.b
        return self._output(y, out_shape)

    def backward(
        self, dy: np.ndarray, tape: dict, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        dy3 = self._rows(dy)
        dh2 = dy3 @ self.qs
        tape["g"] = dh2
        grads, dx = self._core_backward(tape, dh2, input_grad, param_grads)
        if param_grads:
            gqs = dy3.reshape(-1, self.qs.shape[0]).T @ tape["h2"].reshape(-1, self.rc)
            gqs /= dy3.shape[0]
            tape["grads"] = {"qa": grads[0], "core": grads[1], "qs": gqs, "b": self._bias_grad(dy3)}
        return dx


class BottleneckDenseLayer(_DenseGeometry, Bottleneck):
    """Dense layer factored as qa @ core @ qs.T; core is a full (ra, rc)
    matrix.  The core stage keeps qa out of the kernel, x @ qa and then
    the dense GEMM against core: an effective kernel pays off over many
    output locations, and a dense layer has one.  The tape keeps x, and
    x @ qa as "a", the input of the layer's factor."""

    kind = "bottleneck_dense"

    def core_ranks(self) -> tuple:
        if self.core.ndim != 2:
            raise DimensionError("full core must be 2-D")
        return self.core.shape

    @property
    def fan_in(self) -> int:
        return self.qa.shape[0]

    @property
    def fan_out(self) -> int:
        return self.qs.shape[0]

    def _core_forward(self, x: np.ndarray, tape: dict | None) -> np.ndarray:
        if tape is not None:
            tape["x"] = x
        return self._gemm(x @ self.qa, self.core, tape)

    def _core_backward(self, tape: dict, dh2: np.ndarray, input_grad: bool, param_grads: bool):
        if not (input_grad or param_grads):
            return None, None
        dh1 = self._input_grad(tape, dh2, self.core)
        grads = None
        if param_grads:
            gqa = tape["x"].T @ dh1
            gqa /= dh1.shape[0]
            grads = gqa, self._kernel_grad(tape, dh2)
        return grads, dh1 @ self.qa.T if input_grad else None


class BottleneckConvLayer(_ConvGeometry, Bottleneck):
    """Convolution factored through rotated channel spaces.

    A 1x1 projection qa (c_in, ra), a k x k core conv held as a 3-tensor
    (ra, rc, k*k) with per-offset slices, then a 1x1 projection back
    through qs (c_out, rc).  After a depthwise decomposition is absorbed
    the core becomes a (k*k, r) array of per-offset diagonals, the only
    factored bottleneck core.  core_mode, "full" or "diag", is read off
    the core's rank.

    Both core modes run the core stage as the plain conv's patch GEMM
    against the effective kernel W of kernel(), which the tape keeps as
    w_eff: W's gradient splits into qa's and the core's, and the input
    gradient is the plain conv's, for W's rc columns: where _input_grad's
    rule allows, the per-phase GEMMs that skip col2im.
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
    ):
        self._set_geometry(c_in, k, stride, padding)
        super().__init__(qa, core, qs, bias)
        if self.qa.shape[0] != self.c_in:
            raise DimensionError("qa must have c_in rows")

    @property
    def core_mode(self) -> str:
        return "diag" if self.core.ndim == 2 else "full"

    def core_ranks(self) -> tuple:
        kk = self.k * self.k
        if self.core_mode == "diag":
            if self.core.ndim != 2 or self.core.shape[0] != kk:
                raise DimensionError("depthwise core must be (k*k, r)")
            return self.core.shape[1], self.core.shape[1]
        if self.core.ndim != 3 or self.core.shape[2] != kk:
            raise DimensionError("full core must be (ra, rc, k*k)")
        return self.core.shape[:2]

    @property
    def c_out(self) -> int:
        return self.qs.shape[0]

    def kernel(self) -> np.ndarray:
        """(qa kron I_kk) @ core as a (c_in*k*k, rc) matrix in the patch row
        layout: entry ((c, d), j) is qa[c] . core[:, j, d], or
        qa[c, j] * core[d, j] for a depthwise core."""
        kk = self.k * self.k
        if self.core_mode == "diag":
            return (self.qa[:, None, :] * self.core).reshape(-1, self.rc)
        core = self.core.transpose(0, 2, 1).reshape(self.ra, kk * self.rc)
        return (self.qa @ core).reshape(-1, self.rc)

    def _split_kernel_grad(self, gw: np.ndarray) -> tuple:
        """(qa, core) gradients from the gradient gw of kernel()."""
        kk = self.k * self.k
        g3 = gw.reshape(self.c_in, kk, self.rc)
        if self.core_mode == "diag":
            return (g3 * self.core).sum(axis=1), (g3 * self.qa[:, None, :]).sum(axis=0)
        g2, core = g3.reshape(self.c_in, -1), self.core.transpose(0, 2, 1).reshape(self.ra, -1)
        return g2 @ core.T, (self.qa.T @ g2).reshape(self.ra, kk, self.rc).transpose(0, 2, 1)

    def _core_forward(self, x: np.ndarray, tape: dict | None) -> np.ndarray:
        w = self.kernel()
        if tape is not None:
            tape["w_eff"] = w
        return self._gemm(x, w, tape)

    def _core_backward(self, tape: dict, dh2: np.ndarray, input_grad: bool, param_grads: bool):
        grads = self._split_kernel_grad(self._kernel_grad(tape, dh2)) if param_grads else None
        return grads, self._input_grad(tape, dh2, tape["w_eff"]) if input_grad else None

    def projected(self, x: np.ndarray) -> np.ndarray:
        """qa.T x as (B, ra, H, W), the input of the bottleneck's factor: an
        NCHW-order product, (ra, c_in) times each sample's (c_in, H*W) pixel
        columns, which the factors are pinned to bit for bit."""
        batch, _, h, w = x.shape
        return (self.qa.T @ _pixel_rows(x).transpose(0, 2, 1)).reshape(batch, self.ra, h, w)
