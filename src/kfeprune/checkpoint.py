"""Binary container for networks and curvature factor snapshots.

Layout (integers little-endian unless noted):

    magic   4 bytes  "KFEP"
    version u32      currently 2; version 1 files end after the records
    kind    u8       1 = network, 2 = curvature factors
    records u32
    crc32   u32      after the records: zlib.crc32 of every byte before it

Each record is a layer-type tag byte, a meta block (u8 count of
key/value pairs, keys length-prefixed ASCII, values u32), and a tensor
block (u8 count of entries, each a length-prefixed ASCII tag, dtype
byte, ndim byte, u32 dims, raw payload).  Weight payloads are float64
little-endian; kept-index arrays are u32.  Writing the same object
twice produces identical bytes.

Tensor tags: plain layers "W"/"b"; bottleneck layers "QA"/"Wp" (full
core) or "D" (depthwise core, conv only)/"QS"/"b" plus kept-index
lists; factor records "A"/"S" and optionally "QA"/"QS"/"LA"/"LS".

Bottleneck records carry a "core_mode" meta key: 0 for a full core, 1
for a depthwise one.  Dense bottleneck records always carry 0; the
reader rejects any other value there, and any code that does not match
the rank of the core tensor (a layer reads its mode off that rank).  Conv bottleneck records also
carry a "basis" meta key that is always 0, the channel basis.  Code 1
named a patch basis that is no longer supported; the reader rejects it,
and every other malformed input, with FormatError.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .errors import DimensionError, FormatError, ValidationError
from .kfac import EigenFactors, KronFactors
from .layers import (
    CONV_GEOMETRY,
    BottleneckConvLayer,
    BottleneckDenseLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    ReluLayer,
)
from .network import Network

MAGIC = b"KFEP"
VERSION = 2

KIND_NETWORK = 1
KIND_FACTORS = 2

TAG_DENSE = 1
TAG_CONV = 2
TAG_RELU = 3
TAG_FLATTEN = 4
TAG_BN_DENSE = 5
TAG_BN_CONV = 6
TAG_KRON = 7

DTYPE_F64 = 0
DTYPE_U32 = 1

CHANNEL_BASIS = 0
U32_TAGS = ("kept_rows", "kept_cols")
_CORE_CODE = {"full": 0, "diag": 1}
_CORE_NAME = {v: k for k, v in _CORE_CODE.items()}
_VARIANT_CODE = {"dense": 0, "conv_full": 1, "conv_channel": 2}
_VARIANT_NAME = {v: k for k, v in _VARIANT_CODE.items()}


def _key_bytes(key: str) -> bytes:
    raw = key.encode("ascii")
    if not 1 <= len(raw) <= 255:
        raise FormatError(f"bad record key {key!r}")
    return struct.pack("<B", len(raw)) + raw


def _write_meta(out: list, meta: dict):
    out.append(struct.pack("<B", len(meta)))
    for key, value in meta.items():
        out.append(_key_bytes(key))
        out.append(struct.pack("<I", int(value)))


def _write_tensors(out: list, tensors: dict):
    out.append(struct.pack("<B", len(tensors)))
    for key, arr in tensors.items():
        out.append(_key_bytes(key))
        if arr.dtype == np.uint32:
            code, payload = DTYPE_U32, arr.astype("<u4").tobytes(order="C")
        else:
            code, payload = DTYPE_F64, arr.astype("<f8").tobytes(order="C")
        out.append(struct.pack("<BB", code, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(payload)


def _bottleneck_tensors(layer) -> dict:
    core_tag = "D" if layer.core_mode == "diag" else "Wp"
    return {
        "QA": layer.qa,
        core_tag: layer.core,
        "QS": layer.qs,
        "b": layer.b,
        "kept_rows": layer.kept_rows,
        "kept_cols": layer.kept_cols,
    }


def _layer_record(layer) -> tuple:
    if isinstance(layer, DenseLayer):
        return TAG_DENSE, {}, {"W": layer.w, "b": layer.b}
    if isinstance(layer, ConvLayer):
        return TAG_CONV, layer.geometry(), {"W": layer.w, "b": layer.b}
    if isinstance(layer, ReluLayer):
        return TAG_RELU, {}, {}
    if isinstance(layer, FlattenLayer):
        return TAG_FLATTEN, {}, {}
    if isinstance(layer, BottleneckDenseLayer):
        return TAG_BN_DENSE, {"core_mode": _CORE_CODE["full"]}, _bottleneck_tensors(layer)
    if isinstance(layer, BottleneckConvLayer):
        mode = _CORE_CODE[layer.core_mode]
        meta = {**layer.geometry(), "basis": CHANNEL_BASIS, "core_mode": mode}
        return TAG_BN_CONV, meta, _bottleneck_tensors(layer)
    raise FormatError(f"cannot serialize layer of type {type(layer).__name__}")


def _sealed(out: list) -> bytes:
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


def network_bytes(net: Network) -> bytes:
    out = [MAGIC, struct.pack("<IBI", VERSION, KIND_NETWORK, len(net.layers))]
    for layer in net.layers:
        tag, meta, tensors = _layer_record(layer)
        out.append(struct.pack("<B", tag))
        _write_meta(out, meta)
        _write_tensors(out, tensors)
    return _sealed(out)


def write_atomic(path, data: bytes):
    """Write data to a temp file next to path, then rename it over path.

    A write that fails before the rename leaves the previous file whole
    and removes the temp file.  There is no fsync: this guards against a
    failed or killed writer, not against power loss.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_network(path, net: Network):
    write_atomic(path, network_bytes(net))


def save_factors(path, factors: dict, eigen: dict | None = None):
    """Persist per-layer curvature factors (and eigenbases when given)."""
    out = [MAGIC, struct.pack("<IBI", VERSION, KIND_FACTORS, len(factors))]
    for layer_id in sorted(factors):
        kf = factors[layer_id]
        out.append(struct.pack("<B", TAG_KRON))
        _write_meta(
            out,
            {
                "layer_id": layer_id,
                "variant": _VARIANT_CODE[kf.variant],
                "count": kf.count,
                "a_locs": kf.a_locs,
                "s_locs": kf.s_locs,
            },
        )
        tensors = {"A": kf.a, "S": kf.s}
        if eigen is not None and layer_id in eigen:
            ef = eigen[layer_id]
            tensors.update({"QA": ef.qa, "LA": ef.lam_a, "QS": ef.qs, "LS": ef.lam_s})
        _write_tensors(out, tensors)
    write_atomic(path, _sealed(out))


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise FormatError("checkpoint truncated")
        chunk = self.raw[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def key(self) -> str:
        (n,) = self.unpack("<B")
        try:
            return self.take(n).decode("ascii")
        except UnicodeDecodeError as err:
            raise FormatError("record key is not ASCII") from err

    def done(self) -> bool:
        return self.pos == len(self.raw)


def _read_meta(r: _Reader) -> dict:
    (count,) = r.unpack("<B")
    meta = {}
    for _ in range(count):
        key = r.key()
        (meta[key],) = r.unpack("<I")
    return meta


def _read_tensors(r: _Reader) -> dict:
    (count,) = r.unpack("<B")
    tensors = {}
    for _ in range(count):
        key = r.key()
        code, ndim = r.unpack("<BB")
        dims = r.unpack(f"<{ndim}I")
        if code != (DTYPE_U32 if key in U32_TAGS else DTYPE_F64):
            raise FormatError(f"tensor {key!r} has dtype code {code}")
        dtype = np.dtype("<u4" if code == DTYPE_U32 else "<f8")
        payload = r.take(dtype.itemsize * math.prod(dims))
        try:
            tensors[key] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        except ValueError as err:
            raise FormatError(f"tensor {key!r} has an invalid shape {dims}") from err
    return tensors


def _decode(names: dict, meta: dict, key: str) -> str:
    if meta[key] not in names:
        raise FormatError(f"unknown {key} code {meta[key]}")
    return names[meta[key]]


def _geometry(meta: dict) -> dict:
    return {key: meta[key] for key in CONV_GEOMETRY}


def _build_layer(tag: int, meta: dict, tensors: dict):
    try:
        if tag == TAG_DENSE:
            return DenseLayer(tensors["W"], tensors["b"])
        if tag == TAG_CONV:
            return ConvLayer(tensors["W"], tensors["b"], **_geometry(meta))
        if tag == TAG_RELU:
            return ReluLayer()
        if tag == TAG_FLATTEN:
            return FlattenLayer()
        if tag in (TAG_BN_DENSE, TAG_BN_CONV):
            mode = _decode(_CORE_NAME, meta, "core_mode")
            if tag == TAG_BN_DENSE:
                if mode != "full":
                    raise FormatError(
                        f"dense bottleneck core_mode code {meta['core_mode']} is not "
                        "supported (only conv bottlenecks hold a depthwise core)"
                    )
                cls, extra = BottleneckDenseLayer, {}
            else:
                if meta["basis"] != CHANNEL_BASIS:
                    raise FormatError(
                        f"conv bottleneck basis code {meta['basis']} is not supported "
                        "(code 1, the patch basis, is retired)"
                    )
                cls, extra = BottleneckConvLayer, _geometry(meta)
            core = tensors["D" if mode == "diag" else "Wp"]
            if core.ndim != (3 if tag == TAG_BN_CONV and mode == "full" else 2):
                raise FormatError(
                    f"core_mode code {meta['core_mode']} does not match a {core.ndim}-D core"
                )
            return cls(
                qa=tensors["QA"],
                core=core,
                qs=tensors["QS"],
                bias=tensors["b"],
                kept_rows=tensors["kept_rows"],
                kept_cols=tensors["kept_cols"],
                **extra,
            )
    except KeyError as err:
        raise FormatError(f"layer record missing field {err}") from err
    except (DimensionError, ValidationError) as err:
        raise FormatError(f"malformed layer record: {err}") from err
    raise FormatError(f"unknown layer tag {tag}")


def _parse_header(raw: bytes) -> tuple:
    r = _Reader(raw)
    if r.take(4) != MAGIC:
        raise FormatError("bad checkpoint magic")
    version, kind, count = r.unpack("<IBI")
    if version == VERSION:
        r.raw = raw[:-4]
        if len(r.raw) < r.pos or struct.unpack("<I", raw[-4:]) != (zlib.crc32(r.raw),):
            raise FormatError("checkpoint checksum mismatch")
    elif version != 1:
        raise FormatError(f"unsupported checkpoint version {version}")
    return r, kind, count


def network_from_bytes(raw: bytes) -> Network:
    r, kind, count = _parse_header(raw)
    if kind != KIND_NETWORK:
        raise FormatError("checkpoint does not hold a network")
    layers = []
    for _ in range(count):
        (tag,) = r.unpack("<B")
        meta = _read_meta(r)
        tensors = _read_tensors(r)
        layers.append(_build_layer(tag, meta, tensors))
    if not r.done():
        raise FormatError("trailing bytes after last layer record")
    if not layers:
        raise FormatError("checkpoint holds no layers")
    return Network(layers)


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        return network_from_bytes(fh.read())


def load_factors(path) -> tuple:
    """Read a factor snapshot; returns (factors, eigen) keyed by layer id."""
    with open(path, "rb") as fh:
        raw = fh.read()
    r, kind, count = _parse_header(raw)
    if kind != KIND_FACTORS:
        raise FormatError("checkpoint does not hold curvature factors")
    factors, eigen = {}, {}
    for _ in range(count):
        (tag,) = r.unpack("<B")
        if tag != TAG_KRON:
            raise FormatError(f"unexpected record tag {tag} in factor file")
        meta = _read_meta(r)
        tensors = _read_tensors(r)
        try:
            layer_id = meta["layer_id"]
            factors[layer_id] = KronFactors(
                a=tensors["A"],
                s=tensors["S"],
                count=meta["count"],
                a_locs=meta["a_locs"],
                s_locs=meta["s_locs"],
                variant=_decode(_VARIANT_NAME, meta, "variant"),
            )
            if "QA" in tensors:
                eigen[layer_id] = EigenFactors(
                    qa=tensors["QA"],
                    lam_a=tensors["LA"],
                    qs=tensors["QS"],
                    lam_s=tensors["LS"],
                )
        except KeyError as err:
            raise FormatError(f"factor record missing field {err}") from err
    if not r.done():
        raise FormatError("trailing bytes after last factor record")
    return factors, eigen
