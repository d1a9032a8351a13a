"""Dense shaped arrays holding real values or quantized codes: the stored
weights of a model and every coded operand of the layer walk.

Layout is row-major (OutC, InC, Kh, Kw) for conv weights and (Out, In) for
fully connected weights.  Activations are NCHW at the file and API boundary
and channel-last (NHWC) inside the layer walk (``nn.walk``), which is what
``im2col_array`` lowers, to a k-major patch matrix: a row per output
position, each in (C, kh, kw) patch order, the order of the stored conv
weights, held as the transpose of one (C*kh*kw, positions) buffer.
Quantized payloads keep one wire code per byte in memory; the on-disk
format packs them to the true bitwidth (see the cli module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lognum import (KIND_LOG, CodeTable, ConfigError, DomainError, QuantizerConfig, code_table,
                     dequantize_array, quantize_array)


@dataclass(frozen=True)
class Tensor:
    """Immutable shaped array: a stored weight or a coded walk operand.

    Real tensors store float32 data and no quantizer config; quantized
    tensors store uint8 wire codes plus exactly one config.  ``from_codes``
    refuses codes at or above 2**bitwidth; walk operands, in range by
    construction, may be views such as a transpose.
    """

    data: np.ndarray
    qconfig: Optional[QuantizerConfig] = None

    def __post_init__(self) -> None:
        if self.qconfig is None:
            if self.data.dtype != np.float32:
                raise ConfigError(f"real tensors use float32, got {self.data.dtype}")
        elif self.data.dtype != np.uint8:
            raise ConfigError(f"quantized tensors use uint8 codes, got {self.data.dtype}")
        self.data.setflags(write=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_quantized(self) -> bool:
        return self.qconfig is not None

    @staticmethod
    def from_real(values: np.ndarray) -> "Tensor":
        return Tensor(np.ascontiguousarray(values, dtype=np.float32))

    @staticmethod
    def from_codes(codes: np.ndarray, cfg: QuantizerConfig) -> "Tensor":
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if codes.size and int(codes.max()) >= 1 << cfg.bitwidth:
            raise ConfigError(f"wire code {int(codes.max())} overflows {cfg.bitwidth} bits")
        return Tensor(codes, cfg)

    def real(self) -> np.ndarray:
        """Float64 values: the dequantized codes, or the raw real data."""
        if self.qconfig is None:
            return self.data.astype(np.float64)
        return dequantize_array(self.data, self.qconfig)

    @property
    def table(self) -> CodeTable:
        """What each wire code means (``lognum.code_table``), for log codes."""
        if self.qconfig is None or self.qconfig.kind != KIND_LOG:
            raise ConfigError("quantized matmul operands must be log codes")
        return code_table(self.qconfig)

    @property
    def esteps(self) -> np.ndarray:
        return self.table.esteps[self.data]

    @property
    def T(self) -> "Tensor":
        """The transpose, over a view of the data: coded values gather in the
        transposed layout, so a float64 product with them sums in the same
        order as with the transposed values of ``self``."""
        return Tensor(self.data.T, self.qconfig)

    def present(self) -> np.ndarray:
        """Which wire codes occur in the tensor, indexed by the code."""
        # in memory order, so a view such as im2col's k-major rows is not copied
        return np.bincount(self.data.ravel("K"), minlength=self.table.sign.size) > 0


def quantize_tensor(t: Tensor, cfg: QuantizerConfig) -> Tensor:
    """Elementwise quantization; shape is preserved.

    Raises ``DomainError`` when an unsigned config meets a negative element.
    """
    if t.is_quantized:
        raise ConfigError("tensor is already quantized")
    return Tensor.from_codes(quantize_array(t.data.astype(np.float64), cfg), cfg)


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1 or (size + 2 * pad - kernel) % stride != 0:
        raise DomainError(
            f"kernel {kernel}/stride {stride}/pad {pad} does not tile an extent of {size}"
        )
    return out


def im2col_array(x: np.ndarray, kernel: tuple[int, int], stride: int = 1,
                 pad: int = 0) -> tuple[np.ndarray, int, int]:
    """Lower channel-last (N, H, W, C) to an (N*oh*ow, C*kh*kw) patch matrix.

    Row j holds the receptive field of output position j, positions in
    (n, oh, ow) order and each field in (C, kh, kw) order, so a convolution
    becomes this matrix times the transposed (OutC, C*kh*kw) weights, and
    its (N*oh*ow, OutC) result is the channel-last output.  The matrix is
    k-major: the transposed view of one zeroed (C, kh, kw, N, oh, ow)
    buffer, which each tap (i, j) fills with one strided slice copy of the
    input positions it reads, over the outputs where it reads inside the
    input.  Padded border entries keep the zeros: 0.0 for values, the zero
    code for log codes.
    """
    kh, kw = kernel
    n, h, w, c = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    buf = np.zeros((c, kh, kw, n, oh, ow), x.dtype)
    src = x.transpose(3, 0, 1, 2)  # (C, N, H, W)
    for i in range(kh):
        out_y, in_y = _tap_range(i, stride, pad, h, oh)
        for j in range(kw):
            out_x, in_x = _tap_range(j, stride, pad, w, ow)
            buf[:, i, j, :, out_y, out_x] = src[:, :, in_y, in_x]
    return buf.reshape(c * kh * kw, n * oh * ow).T, oh, ow


def _tap_range(t: int, stride: int, pad: int, size: int, out: int):
    """(output slice, input slice) of the outputs o whose tap t reads input
    o*stride + t - pad inside [0, size); both are empty when every read is
    padding."""
    lo = max(0, -((t - pad) // stride))
    hi = max(lo, min(out, (size - 1 + pad - t) // stride + 1))
    first = lo * stride + t - pad
    return slice(lo, hi), slice(first, first + (hi - lo - 1) * stride + 1, stride)
