"""Binary model and dataset containers, plus true-bitwidth code packing.

Model files ("LOGN") hold the layer graph, per-layer quantizer blocks, and
weight payloads either as little-endian float32 or as codes packed at their
true bitwidth (sign bit first, most significant bit first within each byte,
zero-padded to a byte boundary per tensor).  Datasets use the IDX container
(big-endian dims, as the standard small-image sets ship).
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO

import numpy as np

from .lognum import ConfigError, DomainError, QuantizerConfig, ROUND_FLOOR, ROUND_NEAREST
from .nn import (
    BATCHNORM,
    CONV,
    FC,
    LINQUANT,
    LOGQUANT,
    MAXPOOL,
    RELU,
    SOFTMAX,
    LayerSpec,
    ModelGraph,
)
from .tensor import Tensor

MAGIC = b"LOGN"
FORMAT_VERSION = 1

_KIND_TAGS = {CONV: 1, FC: 2, RELU: 3, MAXPOOL: 4, BATCHNORM: 5,
              LOGQUANT: 6, LINQUANT: 7, SOFTMAX: 8}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}

_QKIND_TAGS = {None: 0, "log": 1, "linear": 2}
_ROUNDING_TAGS = {ROUND_FLOOR: 0, ROUND_NEAREST: 1}

_PAYLOAD_NONE = 0
_PAYLOAD_F32 = 1
_PAYLOAD_PACKED = 2

# geometry field names serialized per kind, in order, one u32 each
_GEOMETRY = {
    CONV: ("out_channels", "in_channels", "kernel", "stride", "pad"),
    FC: ("out_features", "in_features"),
    RELU: (),
    MAXPOOL: ("pool", "stride"),
    BATCHNORM: ("channels",),
    LOGQUANT: (),
    LINQUANT: (),
    SOFTMAX: (),
}


class FileFormatError(ValueError):
    """Malformed container; carries the byte offset of the defect."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------


def pack_codes(codes: np.ndarray, bitwidth: int) -> bytes:
    """Pack wire codes to ceil(N * bitwidth / 8) bytes.

    Each code contributes its ``bitwidth`` low bits, most significant first
    (so a sign bit, when present, leads); the stream is zero-padded to a
    byte boundary.
    """
    if not 1 <= bitwidth <= 8:
        raise ConfigError(f"packing supports bitwidths 1..8, got {bitwidth}")
    flat = np.ascontiguousarray(codes).ravel()
    if flat.size and int(flat.max()) >= (1 << bitwidth):
        raise DomainError(f"code {int(flat.max())} overflows {bitwidth} bits")
    shifts = np.arange(bitwidth - 1, -1, -1, dtype=np.uint8)
    bits = (flat[:, None] >> shifts) & 1
    return np.packbits(bits.ravel().astype(np.uint8)).tobytes()


def unpack_codes(data: bytes, bitwidth: int, count: int) -> np.ndarray:
    """Inverse of ``pack_codes``; returns ``count`` uint8 wire codes."""
    if not 1 <= bitwidth <= 8:
        raise ConfigError(f"packing supports bitwidths 1..8, got {bitwidth}")
    need = (count * bitwidth + 7) // 8
    if len(data) != need:
        raise DomainError(f"payload is {len(data)} bytes, expected {need}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count * bitwidth)
    weights = (1 << np.arange(bitwidth - 1, -1, -1)).astype(np.uint16)
    return (bits.reshape(count, bitwidth) @ weights).astype(np.uint8)


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


def _write_qblock(out: BinaryIO, cfg: QuantizerConfig | None) -> None:
    if cfg is None:
        out.write(struct.pack("<BBBhBB", 0, 0, 0, 0, 0, 0))
        return
    out.write(struct.pack(
        "<BBBhBB", _QKIND_TAGS[cfg.kind], cfg.bitwidth, int(cfg.signed),
        cfg.fsr, cfg.base_frac_bits, _ROUNDING_TAGS[cfg.rounding]))


def write_model(path, graph: ModelGraph) -> None:
    """Write ``graph`` as a LOGN file; a non-finite f32 payload is refused unopened."""
    for i, t in graph.weights.items():
        bad = np.flatnonzero(~np.isfinite(t.data)) if not t.is_quantized else ()
        if len(bad):
            raise ConfigError(f"layer {i} weight {int(bad[0])} is not finite")
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(struct.pack("<HhH", FORMAT_VERSION, graph.fsr, len(graph.layers)))
        for i, layer in enumerate(graph.layers):
            if layer.kind not in _KIND_TAGS:
                raise ConfigError(f"layer {i}: unknown kind {layer.kind!r}")
            out.write(struct.pack("<B", _KIND_TAGS[layer.kind]))
            for name in _GEOMETRY[layer.kind]:
                out.write(struct.pack("<I", getattr(layer, name)))
            if layer.kind in (LOGQUANT, LINQUANT):
                cfg = layer.qconfig
                if cfg is None:
                    raise ConfigError(f"layer {i}: quantizer layer without a config")
                cfg = QuantizerConfig(cfg.kind, cfg.bitwidth, cfg.signed,
                                      layer.fsr_offset, cfg.base_frac_bits, cfg.rounding)
                _write_qblock(out, cfg)  # fsr field carries the offset
            else:
                _write_qblock(out, layer.qconfig)
            _write_payload(out, i, layer, graph)


def _write_payload(out: BinaryIO, i: int, layer: LayerSpec, graph: ModelGraph) -> None:
    shape = layer.weight_shape()
    if not shape:
        out.write(struct.pack("<B", _PAYLOAD_NONE))
        return
    if i not in graph.weights:
        raise ConfigError(f"layer {i} is missing its weight tensor")
    t = graph.weights[i]
    if tuple(t.shape) != shape:
        raise ConfigError(f"layer {i}: weight shape {t.shape} != declared {shape}")
    if t.is_quantized:
        if layer.qconfig != t.qconfig:
            raise ConfigError(
                f"layer {i}: packed weights must use the layer's quantizer config")
        out.write(struct.pack("<B", _PAYLOAD_PACKED))
        out.write(pack_codes(t.data, t.qconfig.bitwidth))
    else:
        out.write(struct.pack("<B", _PAYLOAD_F32))
        out.write(t.data.astype("<f4").tobytes())


class _Reader:
    def __init__(self, f: BinaryIO):
        self.buf = f.read()
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise FileFormatError(self.pos, f"truncated while reading {what}")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_model(path) -> ModelGraph:
    with open(path, "rb") as f:
        r = _Reader(f)
    if r.take(4, "magic") != MAGIC:
        raise FileFormatError(0, "bad magic, not a LOGN model file")
    version, fsr, n_layers = r.unpack("<HhH", "header")
    if version != FORMAT_VERSION:
        raise FileFormatError(4, f"unsupported format version {version}")
    graph = ModelGraph(layers=[], fsr=fsr)
    for i in range(n_layers):
        at = r.pos
        (tag,) = r.unpack("<B", f"layer {i} kind tag")
        if tag not in _TAG_KINDS:
            raise FileFormatError(at, f"unknown layer kind tag {tag}")
        kind = _TAG_KINDS[tag]
        geom = {}
        for name in _GEOMETRY[kind]:
            at = r.pos
            (geom[name],) = r.unpack("<I", f"layer {i} geometry field {name}")
            if geom[name] == 0 and name != "pad":
                raise FileFormatError(at, f"layer {i} {kind} {name} must be positive")
        at = r.pos
        qk, bw, signed, qfsr, fb, rounding = r.unpack("<BBBhBB", f"layer {i} quantizer block")
        cfg = None
        fsr_offset = 0
        if qk != 0:
            if qk not in (1, 2):
                raise FileFormatError(at, f"unknown quantizer kind tag {qk}")
            if rounding not in (0, 1):
                raise FileFormatError(at, f"unknown rounding tag {rounding}")
            qkind = "log" if qk == 1 else "linear"
            stored_fsr = qfsr
            if kind in (LOGQUANT, LINQUANT):
                fsr_offset, stored_fsr = qfsr, 0
            try:
                cfg = QuantizerConfig(qkind, bw, bool(signed), stored_fsr, fb,
                                      ROUND_FLOOR if rounding == 0 else ROUND_NEAREST)
            except ConfigError as e:
                raise FileFormatError(at, f"invalid quantizer block: {e}") from e
        elif kind in (LOGQUANT, LINQUANT):
            raise FileFormatError(at, f"layer {i}: quantizer layer without a config")
        layer = LayerSpec(kind, qconfig=cfg, fsr_offset=fsr_offset, **geom)
        graph.layers.append(layer)
        _read_payload(r, i, layer, graph)
    if r.pos != len(r.buf):
        raise FileFormatError(r.pos, f"{len(r.buf) - r.pos} trailing bytes")
    return graph


def _read_payload(r: _Reader, i: int, layer: LayerSpec, graph: ModelGraph) -> None:
    at = r.pos
    (tag,) = r.unpack("<B", f"layer {i} payload tag")
    shape = layer.weight_shape()
    if tag == _PAYLOAD_NONE:
        if shape:
            raise FileFormatError(at, f"layer {i} requires a weight payload")
        return
    if not shape:
        raise FileFormatError(at, f"layer {i} ({layer.kind}) cannot carry weights")
    n = math.prod(shape)
    if tag == _PAYLOAD_F32:
        raw = r.take(4 * n, f"layer {i} f32 payload")
        data = np.frombuffer(raw, dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise FileFormatError(at + 1 + 4 * int(bad[0]),
                                  f"layer {i} weight {int(bad[0])} is not finite")
        graph.weights[i] = Tensor.from_real(data.reshape(shape).astype(np.float32))
    elif tag == _PAYLOAD_PACKED:
        cfg = layer.qconfig
        if cfg is None:
            raise FileFormatError(at, f"layer {i}: packed payload without quantizer block")
        raw = r.take((n * cfg.bitwidth + 7) // 8, f"layer {i} packed payload")
        codes = unpack_codes(raw, cfg.bitwidth, n).reshape(shape)
        graph.weights[i] = Tensor.from_codes(codes, cfg)
    else:
        raise FileFormatError(at, f"unknown payload dtype tag {tag}")


# ---------------------------------------------------------------------------
# IDX datasets
# ---------------------------------------------------------------------------

_IDX_DTYPES = {0x08: np.dtype(">u1"), 0x0D: np.dtype(">f4")}
_IDX_TAGS = {np.dtype(np.uint8): 0x08, np.dtype(np.float32): 0x0D}


def write_idx(path, array: np.ndarray) -> None:
    """IDX container: 0x00 0x00 dtype ndim, big-endian u32 dims, raw payload."""
    arr = np.ascontiguousarray(array)
    if arr.dtype not in _IDX_TAGS:
        raise ConfigError(f"IDX supports uint8 and float32, got {arr.dtype}")
    with open(path, "wb") as out:
        out.write(struct.pack(">BBBB", 0, 0, _IDX_TAGS[arr.dtype], arr.ndim))
        for d in arr.shape:
            out.write(struct.pack(">I", d))
        out.write(arr.astype(arr.dtype.newbyteorder(">")).tobytes())


def read_idx(path) -> np.ndarray:
    with open(path, "rb") as f:
        r = _Reader(f)
    z1, z2, dtype_tag, ndim = r.unpack(">BBBB", "IDX magic")
    if z1 != 0 or z2 != 0:
        raise FileFormatError(0, "bad IDX magic")
    if dtype_tag not in _IDX_DTYPES:
        raise FileFormatError(2, f"unsupported IDX dtype 0x{dtype_tag:02x}")
    dims = [r.unpack(">I", f"IDX dim {k}")[0] for k in range(ndim)]
    n = math.prod(dims)
    dt = _IDX_DTYPES[dtype_tag]
    raw = r.take(n * dt.itemsize, "IDX payload")
    if r.pos != len(r.buf):
        raise FileFormatError(r.pos, f"{len(r.buf) - r.pos} trailing bytes")
    return np.frombuffer(raw, dtype=dt).reshape(dims).astype(dt.newbyteorder("="))
