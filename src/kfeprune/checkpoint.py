"""Binary container for networks.

Layout (integers little-endian unless noted):

    magic   4 bytes  "KFEP"
    version u32      currently 2; version 1 files end after the records
    kind    u8       1 = network, the one kind
    records u32
    crc32   u32      after the records: zlib.crc32 of every byte before it

Each record is a layer-type tag byte, a meta block (u8 count of
key/value pairs, keys length-prefixed ASCII, values u32), and a tensor
block (u8 count of entries, each a length-prefixed ASCII tag, dtype
byte, ndim byte, u32 dims, raw payload).  Payloads are float64
little-endian.  Writing the same object twice produces identical bytes.

Each record kind holds exactly its own meta keys and tensor tags, each
once.  Tensor tags: plain layers "W"/"b"; bottleneck layers "QA"/"Wp"
(full core) or "D" (depthwise core, conv only)/"QS"/"b".  Older
bottleneck records also hold u32 "kept_rows"/"kept_cols" lists, which
the reader accepts there and drops.

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

TAG_DENSE = 1
TAG_CONV = 2
TAG_RELU = 3
TAG_FLATTEN = 4
TAG_BN_DENSE = 5
TAG_BN_CONV = 6

DTYPE_F64 = 0
DTYPE_U32 = 1

CHANNEL_BASIS = 0
# the u32 tensors of older bottleneck records, read and dropped
LEGACY_KEPT = ("kept_rows", "kept_cols")
_CORE_CODE = {"full": 0, "diag": 1}
_CORE_NAME = {v: k for k, v in _CORE_CODE.items()}
_META_KEYS = {
    TAG_DENSE: (),
    TAG_CONV: CONV_GEOMETRY,
    TAG_RELU: (),
    TAG_FLATTEN: (),
    TAG_BN_DENSE: ("core_mode",),
    TAG_BN_CONV: CONV_GEOMETRY + ("basis", "core_mode"),
}


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
        out.append(struct.pack("<BB", DTYPE_F64, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.astype("<f8").tobytes(order="C"))


def _bottleneck_tensors(layer) -> dict:
    core_tag = "D" if layer.core_mode == "diag" else "Wp"
    return {"QA": layer.qa, core_tag: layer.core, "QS": layer.qs, "b": layer.b}


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


def _read_fields(r: _Reader, read_value, what: str) -> dict:
    """A meta or tensor block as a dict; a key may appear once."""
    (count,) = r.unpack("<B")
    fields = {}
    for _ in range(count):
        key = r.key()
        if key in fields:
            raise FormatError(f"layer record repeats {what} {key!r}")
        fields[key] = read_value(r, key)
    return fields


def _tensor(r: _Reader, key: str) -> np.ndarray:
    code, ndim = r.unpack("<BB")
    dims = r.unpack(f"<{ndim}I")
    if code != (DTYPE_U32 if key in LEGACY_KEPT else DTYPE_F64):
        raise FormatError(f"tensor {key!r} has dtype code {code}")
    dtype = np.dtype("<u4" if code == DTYPE_U32 else "<f8")
    payload = r.take(dtype.itemsize * math.prod(dims))
    try:
        return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    except ValueError as err:
        raise FormatError(f"tensor {key!r} has an invalid shape {dims}") from err


def _expect(fields: dict, names: tuple, what: str):
    """A record holds exactly the fields its kind names."""
    for name in names:
        if name not in fields:
            raise FormatError(f"layer record missing {what} {name!r}")
    for name in fields:
        if name not in names:
            raise FormatError(f"layer record has unknown {what} {name!r}")


def _build_bottleneck(tag: int, meta: dict, tensors: dict):
    if meta["core_mode"] not in _CORE_NAME:
        raise FormatError(f"unknown core_mode code {meta['core_mode']}")
    mode = _CORE_NAME[meta["core_mode"]]
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
        cls, extra = BottleneckConvLayer, {key: meta[key] for key in CONV_GEOMETRY}
    core_tag = "D" if mode == "diag" else "Wp"
    legacy = LEGACY_KEPT if tensors.keys() & set(LEGACY_KEPT) else ()
    _expect(tensors, ("QA", core_tag, "QS", "b") + legacy, "tensor")
    core = tensors[core_tag]
    if core.ndim != (3 if tag == TAG_BN_CONV and mode == "full" else 2):
        raise FormatError(
            f"core_mode code {meta['core_mode']} does not match a {core.ndim}-D core"
        )
    return cls(qa=tensors["QA"], core=core, qs=tensors["QS"], bias=tensors["b"], **extra)


def _build_layer(tag: int, meta: dict, tensors: dict):
    if tag not in _META_KEYS:
        raise FormatError(f"unknown layer tag {tag}")
    _expect(meta, _META_KEYS[tag], "meta key")
    try:
        if tag in (TAG_BN_DENSE, TAG_BN_CONV):
            return _build_bottleneck(tag, meta, tensors)
        if tag in (TAG_RELU, TAG_FLATTEN):
            _expect(tensors, (), "tensor")
            return ReluLayer() if tag == TAG_RELU else FlattenLayer()
        _expect(tensors, ("W", "b"), "tensor")
        if tag == TAG_DENSE:
            return DenseLayer(tensors["W"], tensors["b"])
        return ConvLayer(tensors["W"], tensors["b"], **meta)
    except (DimensionError, ValidationError) as err:
        raise FormatError(f"malformed layer record: {err}") from err


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
        meta = _read_fields(r, lambda rd, _: rd.unpack("<I")[0], "meta key")
        tensors = _read_fields(r, _tensor, "tensor")
        layers.append(_build_layer(tag, meta, tensors))
    if not r.done():
        raise FormatError("trailing bytes after last layer record")
    if not layers:
        raise FormatError("checkpoint holds no layers")
    return Network(layers)


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        return network_from_bytes(fh.read())
