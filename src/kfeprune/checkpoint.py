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

Each record kind holds exactly the meta keys and tensor tags of its row
in _RECORDS, each once, and the writer and the reader both take them
from that row; a depthwise core (conv only) is tagged "D", not "Wp".
Older bottleneck records also hold u32 "kept_rows"/"kept_cols" lists,
which the reader accepts there and drops.

A bottleneck record's "core_mode" is 0 for a full core and 1 for a
depthwise one.  The reader rejects 1 on a dense bottleneck, and any code
that does not match the rank of the core tensor (a layer reads its mode
off that rank).  A conv bottleneck's "basis" is always 0, the channel
basis; code 1 named a patch basis that is no longer supported.  The
reader rejects it, and every other malformed input, with FormatError.
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

_PLAIN_TENSORS = (("W", "w"), ("b", "bias"))
_BOTTLENECK_TENSORS = (("QA", "qa"), ("Wp", "core"), ("QS", "qs"), ("b", "bias"))
# tag: (class, meta keys, (tensor tag, constructor argument) pairs), in record order
_RECORDS = {
    TAG_DENSE: (DenseLayer, (), _PLAIN_TENSORS),
    TAG_CONV: (ConvLayer, CONV_GEOMETRY, _PLAIN_TENSORS),
    TAG_RELU: (ReluLayer, (), ()),
    TAG_FLATTEN: (FlattenLayer, (), ()),
    TAG_BN_DENSE: (BottleneckDenseLayer, ("core_mode",), _BOTTLENECK_TENSORS),
    TAG_BN_CONV: (BottleneckConvLayer, CONV_GEOMETRY + ("basis", "core_mode"), _BOTTLENECK_TENSORS),
}
_TAG_OF = {row[0]: tag for tag, row in _RECORDS.items()}


def _tensor_tags(row_tensors: tuple, mode) -> list:
    """A row's (tensor tag, argument) pairs for a core in mode."""
    return [("D" if tag == "Wp" and mode == "diag" else tag, arg) for tag, arg in row_tensors]


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


def _layer_record(layer) -> tuple:
    tag = _TAG_OF.get(type(layer))
    if tag is None:
        raise FormatError(f"cannot serialize layer of type {type(layer).__name__}")
    _, meta_keys, row_tensors = _RECORDS[tag]
    # plain layers have no core_mode, and their rows name no core meta keys
    mode = getattr(layer, "core_mode", "full")
    fields = {**layer.geometry(), "basis": CHANNEL_BASIS, "core_mode": _CORE_CODE[mode]}
    # param_items names the bias "b", the constructors "bias"
    params = {("bias" if name == "b" else name): p for name, p in layer.param_items()}
    tensors = {tag: params[arg] for tag, arg in _tensor_tags(row_tensors, mode)}
    return tag, {key: fields[key] for key in meta_keys}, tensors


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


def _build_layer(tag: int, meta: dict, tensors: dict):
    if tag not in _RECORDS:
        raise FormatError(f"unknown layer tag {tag}")
    cls, meta_keys, row_tensors = _RECORDS[tag]
    _expect(meta, meta_keys, "meta key")
    mode, legacy = None, ()
    if "core_mode" in meta:
        if meta["core_mode"] not in _CORE_NAME:
            raise FormatError(f"unknown core_mode code {meta['core_mode']}")
        mode = _CORE_NAME[meta["core_mode"]]
        if mode != "full" and "k" not in meta:
            raise FormatError(
                f"dense bottleneck core_mode code {meta['core_mode']} is not "
                "supported (only conv bottlenecks hold a depthwise core)"
            )
        if meta.get("basis", CHANNEL_BASIS) != CHANNEL_BASIS:
            raise FormatError(
                f"conv bottleneck basis code {meta['basis']} is not supported "
                "(code 1, the patch basis, is retired)"
            )
        legacy = LEGACY_KEPT if tensors.keys() & set(LEGACY_KEPT) else ()
    tags = _tensor_tags(row_tensors, mode)
    _expect(tensors, tuple(tag for tag, _ in tags) + legacy, "tensor")
    args = {arg: tensors[tag] for tag, arg in tags}
    # a full conv core holds a k*k offset axis
    if mode is not None and args["core"].ndim != (3 if "k" in meta and mode == "full" else 2):
        raise FormatError(
            f"core_mode code {meta['core_mode']} does not match a {args['core'].ndim}-D core"
        )
    try:
        return cls(**args, **{key: meta[key] for key in CONV_GEOMETRY if key in meta})
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
