"""Layer kernels and the one layer walker.

``walk`` runs a layer graph for inference (``forward``), FSR calibration
(``collect_quantizer_inputs``) and training (``train._forward_train``).  The
three differ only in the data they hand it: the weight operands, the
activation quantizer, the batchnorm parameters (and whether batch
statistics replace them), the ``Arithmetic`` of the conv/fc products, and
an optional backward cache or capture of the quantizer inputs.  A log-coded
tensor, activation or weight, is a ``QuantizedOperand``: wire codes, their
config, and values dequantized on first use.  What a code means comes from
one table per config, ``lognum.code_table``: the kernels read signs and
exponents from it, dequantizing is a gather from it, and maxpool compares
the codes themselves (or, when signed, their value rank from the table), so
a pooled activation stays coded.

Convolutions are lowered with im2col, in one copy, to row-major (output
positions, C*kh*kw) rows that the products read as they are, and every
conv/fc product is rows @ W^T, computed by one of these kernels:

* a plain float64 matmul (reference path, also used for unquantized inputs),
* shift-weights: real weights held as fixed-point words, each term a single
  bitshift by the activation's exponent,
* exponent-sum: both operands log-coded, term exponents are integer adds
  and each term is a shifted power of two,
* exponent-sum with log-domain accumulation: the same terms folded into
  running log-domain sums, one per sign.

``Arithmetic`` has two binary-point rules.  Absolute (inference): the
accumulator's last fractional bit is a fixed 2**-frac_bits, and every
product with a coded operand runs its shift kernel.  Block-biased
(training): the binary point moves with the operands' full scale, only
coded x coded products run the exponent-sum kernel, and products with a
real operand are exact float64 products of the values.

The quantized kernels reproduce the scalar fixed-point semantics bit for
bit: term magnitudes are truncated to the accumulator's fractional
precision before summation.  The kernels read an operand through its code
table: a b-bit operand has at most 2**b codes, so every term a code can
produce against a weight is known up front.  In the linear-accumulation
kernels, codes whose terms never truncate fold into one matmul; every other
live code gets a (k, o) table of its truncated integer terms, and one GEMM
of one-hot code indicators against the stacked tables sums them.  All
arithmetic stays on integers below 2**53, where float64 is exact in any
summation order.  Where the range bound keeps every partial sum below 2**24
and every factor a GEMM reads is a normal float32 number, the sums run in
float32, which is exact there in any order too (``_sum_dtype``): at the
32+8 inference word, every linear-accumulation product of the benchmark's
reference net does.
Log-domain accumulation is order dependent, so its kernel keeps the index
order within each running sum.  A weight has one sign, so with unsigned
activations each of the 2o sums (one per output and term sign) gets its own
k-ordered list of the k's it can receive a term at; all sums step through
their lists together, each step one table lookup on exponents held relative
to the operands' lowest levels, in the narrowest of int16, int32 and int64
that provably holds every intermediate value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .lognum import (
    KIND_LOG,
    AccumulatorOverflow,
    ConfigError,
    QuantizerConfig,
    code_table,
    dequantize_array,
    log_accumulate_raw,
    quantize_array,
)
from .tensor import Tensor, conv_output_size, im2col_array

CONV = "conv"
FC = "fc"
RELU = "relu"
MAXPOOL = "maxpool"
BATCHNORM = "batchnorm"
LOGQUANT = "logquant"
LINQUANT = "linearquant"
SOFTMAX = "softmax"

MODE_FLOAT = "float32"
MODE_METHOD1 = "method1"
MODE_METHOD2_BASE2 = "method2_base2"
MODE_METHOD2_SQRT2 = "method2_sqrt2"
FORWARD_MODES = (MODE_FLOAT, MODE_METHOD1, MODE_METHOD2_BASE2, MODE_METHOD2_SQRT2)

ACCUM_LINEAR = "linear"
ACCUM_LOG = "log"

BN_EPS = 1e-5

# float64 holds integers exactly up to 2**53; kernels refuse configs that
# could push raw accumulator values past this.  float32 holds them up to
# 2**24, and the linear-accumulation kernels sum in it when they stay below.
_EXACT_RAW_BITS = 52
_EXACT_RAW_BITS_F32 = 23
_F32 = np.finfo(np.float32)


# ---------------------------------------------------------------------------
# layer specs and the model graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network; geometry fields are meaningful per kind.

    ``qconfig`` holds the weight quantizer for conv/fc layers (absolute fsr)
    and the activation quantizer template for logquant/linearquant layers,
    whose effective fsr is the graph's global fsr plus ``fsr_offset``.
    """

    kind: str
    out_channels: int = 0
    in_channels: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    out_features: int = 0
    in_features: int = 0
    pool: int = 0
    channels: int = 0
    qconfig: Optional[QuantizerConfig] = None
    fsr_offset: int = 0

    def has_weights(self) -> bool:
        return self.kind in (CONV, FC, BATCHNORM)


def conv(out_channels: int, in_channels: int, kernel: int, stride: int = 1,
         pad: int = 0, wq: Optional[QuantizerConfig] = None) -> LayerSpec:
    return LayerSpec(CONV, out_channels=out_channels, in_channels=in_channels,
                     kernel=kernel, stride=stride, pad=pad, qconfig=wq)


def fc(out_features: int, in_features: int,
       wq: Optional[QuantizerConfig] = None) -> LayerSpec:
    return LayerSpec(FC, out_features=out_features, in_features=in_features, qconfig=wq)


def relu_layer() -> LayerSpec:
    return LayerSpec(RELU)


def maxpool_layer(k: int = 2, stride: int = 0) -> LayerSpec:
    return LayerSpec(MAXPOOL, pool=k, stride=stride or k)


def batchnorm_layer(channels: int) -> LayerSpec:
    return LayerSpec(BATCHNORM, channels=channels)


def act_quant_layer(kind: str, bitwidth: int, fsr_offset: int = 0,
                    base_frac_bits: int = 0, rounding: str = "nearest_sqrt2") -> LayerSpec:
    layer_kind = LOGQUANT if kind == KIND_LOG else LINQUANT
    cfg = QuantizerConfig(kind, bitwidth, signed=False, fsr=0,
                          base_frac_bits=base_frac_bits, rounding=rounding)
    return LayerSpec(layer_kind, qconfig=cfg, fsr_offset=fsr_offset)


@dataclass
class ModelGraph:
    """Ordered layers plus the global fsr and a per-layer weight store."""

    layers: list[LayerSpec]
    fsr: int = 0
    weights: dict[int, Tensor] = field(default_factory=dict)

    def weight_array(self, idx: int) -> np.ndarray:
        """Float64 weights for a layer, dequantizing stored codes if needed."""
        if idx not in self.weights:
            raise ConfigError(f"layer {idx} has no stored weights")
        return self.weights[idx].real()

    def output_shapes(self, input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
        """End-to-end shape inference; raises on any incompatibility."""
        shape = tuple(input_shape)
        out: list[tuple[int, ...]] = []
        for i, layer in enumerate(self.layers):
            shape = self._layer_shape(i, layer, shape)
            out.append(shape)
        return out

    def _layer_shape(self, i: int, layer: LayerSpec, s: tuple[int, ...]) -> tuple[int, ...]:
        if layer.kind == CONV:
            if len(s) != 4 or s[1] != layer.in_channels:
                raise ConfigError(f"layer {i}: conv expects (N,{layer.in_channels},H,W), got {s}")
            oh = conv_output_size(s[2], layer.kernel, layer.stride, layer.pad)
            ow = conv_output_size(s[3], layer.kernel, layer.stride, layer.pad)
            self._check_weight_shape(i, (layer.out_channels, layer.in_channels,
                                         layer.kernel, layer.kernel))
            return (s[0], layer.out_channels, oh, ow)
        if layer.kind == FC:
            feat = int(np.prod(s[1:]))
            if feat != layer.in_features:
                raise ConfigError(f"layer {i}: fc expects {layer.in_features} features, got {feat}")
            self._check_weight_shape(i, (layer.out_features, layer.in_features))
            return (s[0], layer.out_features)
        if layer.kind == MAXPOOL:
            if len(s) != 4:
                raise ConfigError(f"layer {i}: maxpool expects rank-4 input, got {s}")
            oh = conv_output_size(s[2], layer.pool, layer.stride, 0)
            ow = conv_output_size(s[3], layer.pool, layer.stride, 0)
            return (s[0], s[1], oh, ow)
        if layer.kind == BATCHNORM:
            c = s[1] if len(s) == 4 else s[-1]
            if c != layer.channels:
                raise ConfigError(f"layer {i}: batchnorm over {layer.channels} channels, got {c}")
            self._check_weight_shape(i, (4, layer.channels))
            return s
        return s

    def act_config(self, layer: LayerSpec) -> QuantizerConfig:
        """A quantizer layer's activation config at its effective fsr."""
        return replace(layer.qconfig, fsr=self.fsr + layer.fsr_offset)

    def _check_weight_shape(self, i: int, want: tuple[int, ...]) -> None:
        if i not in self.weights:
            raise ConfigError(f"layer {i} is missing its weight tensor")
        got = self.weights[i].shape
        if tuple(got) != want:
            raise ConfigError(f"layer {i}: weight shape {got} != expected {want}")


# ---------------------------------------------------------------------------
# elementwise layers
# ---------------------------------------------------------------------------


def relu_array(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def maxpool_array(x: np.ndarray, k: int, stride: int,
                  argmax: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-window max and, with ``argmax``, the flat index of each window's
    max for gradient routing (else None).

    Ties break to the first index in window scan order.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, stride, 0)
    ow = conv_output_size(w, k, stride, 0)
    if not argmax:
        # a running max over the k*k strided slices copies no window; of
        # two equal operands (+0 and -0) np.maximum returns the second, so
        # the max so far goes second and a tie keeps the first index's value
        out = None
        for dy in range(k):
            for dx in range(k):
                s = x[:, :, dy:dy + stride * (oh - 1) + 1:stride,
                      dx:dx + stride * (ow - 1) + 1:stride]
                out = s.copy() if out is None else np.maximum(s, out, out=out)
        return out, None
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].reshape(n, c, oh, ow, k * k)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _maxpool_codes(op: QuantizedOperand, k: int, stride: int,
                   argmax: bool) -> tuple[QuantizedOperand, np.ndarray | None]:
    """``maxpool_array`` of a log-coded activation's values, run on its codes.

    Unsigned log wire codes order like their values, so they pool as they
    are.  Signed codes pool their dense value rank, read off the code table,
    and map back to the first code of each rank.  Equal values get equal
    keys, so the argmax indices and their first-index ties are those of
    pooling the values.
    """
    if not op.cfg.signed:
        codes, idx = maxpool_array(op.codes, k, stride, argmax)
    else:
        _, first, rank = np.unique(code_table(op.cfg).value, return_index=True,
                                   return_inverse=True)
        ranks, idx = maxpool_array(rank[op.codes], k, stride, argmax)
        codes = first.astype(op.codes.dtype)[ranks]
    return QuantizedOperand(codes, op.cfg, op.fb), idx


@dataclass
class BatchNormParams:
    """Scale, shift and the statistics a batchnorm layer normalizes with.

    Inference reads them from the stored (4, C) array; the trainer updates
    ``gamma``/``beta`` by its optimizer and ``mean``/``var`` as running
    statistics.
    """

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    @staticmethod
    def from_array(a: np.ndarray) -> "BatchNormParams":
        return BatchNormParams(a[0].copy(), a[1].copy(), a[2].copy(), a[3].copy())


def channel_axes(x: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduction axes and per-channel broadcast shape: channels are axis 1
    of rank-4 activations and the last axis of rank-2 ones."""
    return ((0, 2, 3), (1, -1, 1, 1)) if x.ndim == 4 else ((0,), (1, -1))


def bn_normalize(x: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) per channel: batchnorm before its affine map."""
    shape = channel_axes(x)[1]
    out = x - mean.reshape(shape)
    out /= np.sqrt(var.reshape(shape) + BN_EPS)
    return out


def batchnorm_array(x: np.ndarray, p: BatchNormParams) -> np.ndarray:
    """Per-channel normalization by ``p``'s statistics, in real arithmetic:
    gamma * (x - mean) / sqrt(var + eps) + beta, in that order, in one
    buffer."""
    shape = channel_axes(x)[1]
    out = bn_normalize(x, p.mean, p.var)
    out *= p.gamma.reshape(shape)
    out += p.beta.reshape(shape)
    return out


def softmax_array(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# quantized matmul kernels
# ---------------------------------------------------------------------------


def _pow2_steps(p_steps: np.ndarray, fb: int, scale: int = 0) -> np.ndarray:
    """2**(p_steps * 2**-fb + scale), a half step as the 1.5 shift-add mantissa."""
    mant = np.where((p_steps & 1).astype(bool), 1.5, 1.0) if fb else 1.0
    return np.ldexp(mant, (p_steps >> fb) + scale)


def _trunc_pow2_raw(p_steps: np.ndarray, fb: int, frac_bits: int) -> np.ndarray:
    """floor(2**(p_steps * 2**-fb) * 2**frac_bits) as exact float64 integers."""
    return np.floor(_pow2_steps(p_steps, fb, frac_bits))


def _check_exact_range(max_term_bits: int, n_terms: int,
                       int_bits: int, frac_bits: int) -> int:
    """Refuse sums that float64 or the word cannot hold exactly; returns the
    raw bits every partial sum of ``n_terms`` terms fits in."""
    need = max_term_bits + max(int(n_terms - 1).bit_length(), 0)
    if need > _EXACT_RAW_BITS:
        raise ConfigError(
            f"accumulation of {n_terms} terms at {max_term_bits} raw bits "
            f"exceeds the exact float64 range"
        )
    if max_term_bits > int_bits + frac_bits:
        raise AccumulatorOverflow(
            f"a single term can span {max_term_bits} raw bits, more than the "
            f"{int_bits}+{frac_bits} bit accumulator"
        )
    return need


def _sum_dtype(need: int, *factors: np.ndarray):
    """The float type a shift kernel computes its ``need``-bit sums in.

    float32 when every partial sum is an integer below 2**24 (``need`` <=
    23) and every nonzero factor is a normal float32 number: products of
    such factors that are integers below 2**24 are exact, and so is every
    sum of them, in any order, with no subnormal for a flush-to-zero mode to
    drop.  float64 otherwise.
    """
    if need > _EXACT_RAW_BITS_F32:
        return np.float64
    for f in factors:
        a = np.abs(f[f != 0])
        if a.size and not (_F32.tiny <= a.min() and a.max() <= _F32.max
                           and (a.astype(np.float32) == a).all()):
            return np.float64
    return np.float32


def _check_out(out_raw: np.ndarray, int_bits: int, frac_bits: int) -> np.ndarray:
    if out_raw.size and np.abs(out_raw).max() >= math.ldexp(1.0, int_bits + frac_bits):
        raise AccumulatorOverflow(
            f"accumulated value exceeds the {int_bits}+{frac_bits} bit word"
        )
    return out_raw


class QuantizedOperand:
    """Log wire codes with their config, grid-aligned for the shift kernels.

    ``table`` is the config's ``lognum.code_table`` with the exponent
    column lifted and biased; the kernels read the codes through it, and the
    per-element ``sign``, ``esteps`` and ``nonzero`` arrays are gathers from
    it on demand.  ``lift_fb`` is the exponent grid (fractional bits) the
    exponents are expressed on.  ``bias_steps`` subtracts a fixed exponent
    (in lifted grid steps) from every level, letting a caller hold the
    accumulator's binary point relative to the operands' full scale instead
    of at an absolute position; the caller rescales the raw result by the
    same amount.  ``values`` dequantizes the codes on first use.
    """

    def __init__(self, codes: np.ndarray, cfg: QuantizerConfig, lift_fb: int,
                 bias_steps: int = 0):
        if cfg.kind != KIND_LOG:
            raise ConfigError("quantized matmul operands must be log codes")
        self.codes = np.asarray(codes)
        self.cfg = cfg
        self.fb = lift_fb
        self.bias_steps = bias_steps
        table = code_table(cfg)
        self.table = table._replace(
            esteps=(table.esteps << (lift_fb - cfg.base_frac_bits)) - bias_steps)
        # one step above the top representable level, after the bias
        self.max_exp = cfg.fsr - math.ldexp(bias_steps, -lift_fb)
        self._values: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    @property
    def sign(self) -> np.ndarray:
        return self.table.sign[self.codes]

    @property
    def esteps(self) -> np.ndarray:
        return self.table.esteps[self.codes]

    @property
    def nonzero(self) -> np.ndarray:
        return self.table.nonzero[self.codes]

    @property
    def values(self) -> np.ndarray:
        """Float64 values of the codes, dequantized on first use."""
        if self._values is None:
            self._values = dequantize_array(self.codes, self.cfg)
        return self._values

    @property
    def T(self) -> "QuantizedOperand":
        """The transpose, over a view of the codes: its values gather in the
        transposed layout, so a float64 product with them sums in the same
        order as with the transposed values of ``self``."""
        return QuantizedOperand(self.codes.T, self.cfg, self.fb, self.bias_steps)

    def lifted(self, lift_fb: int, bias_steps: int = 0) -> "QuantizedOperand":
        """The same codes on another exponent grid and binary point."""
        return QuantizedOperand(self.codes, self.cfg, lift_fb, bias_steps)

    def present(self) -> np.ndarray:
        """Which wire codes occur in the operand, indexed by the code."""
        return np.bincount(self.codes.ravel(), minlength=self.table.sign.size) > 0


def quantize_operand(x: np.ndarray, cfg: QuantizerConfig):
    """``x`` quantized by ``cfg``, as the walker computes with it.

    Log codes become a ``QuantizedOperand`` on their own grid.  Linear codes
    come back as their float64 values: a product with them needs
    multipliers, so they enter every product as a real operand.
    """
    codes = quantize_array(x, cfg)
    if cfg.kind == KIND_LOG:
        return QuantizedOperand(codes, cfg, cfg.base_frac_bits)
    return dequantize_array(codes, cfg)


def lift_grid(cfg_a: QuantizerConfig, cfg_b: QuantizerConfig) -> int:
    return max(cfg_a.base_frac_bits, cfg_b.base_frac_bits)


# bytes in one one-hot block and in one block of term tables: a block fits
# L2, which measured faster than 8 MB blocks in float64; in float32, 2**17
# elements ran faster than 2**16 over the method1/method2 products of one
# 256-image infer pass per mode of the benchmark's reference net
_TABLE_BLOCK = 1 << 19


def _code_table_matmul(codes: np.ndarray, exact_val: np.ndarray,
                       w_exact: np.ndarray, trunc_codes: np.ndarray,
                       term_tables, o: int, dtype) -> np.ndarray:
    """exact_val[codes] @ w_exact plus the terms of the truncating codes.

    ``codes`` is (n, k); ``exact_val`` maps every code to its factor in the
    single matmul (0 for the others).  ``term_tables(ks)`` returns the
    (len(ks), L, o) terms of the L ``trunc_codes`` against rows ks of the
    other operand; a one-hot (rows, k*L) block, gathered from an
    identity-like (codes, L) table, picks them in one GEMM.  Rows and k are
    blocked so each one-hot and term block holds about ``_TABLE_BLOCK``
    bytes.  Everything is summed in ``dtype`` (``_sum_dtype``); the result
    is float64.
    """
    n, k = codes.shape
    out = np.zeros((n, o), dtype)
    if exact_val.any():
        out += exact_val.astype(dtype)[codes] @ w_exact.astype(dtype, copy=False)
    n_t = trunc_codes.size
    if n_t == 0 or o == 0:
        return out.astype(np.float64, copy=False)
    onehot = np.zeros((exact_val.size, n_t), dtype)
    onehot[trunc_codes, np.arange(n_t)] = 1.0
    block = _TABLE_BLOCK // onehot.itemsize
    k_step = max(1, min(k, block // (n_t * o)))
    rows = max(1, min(n, block // (k_step * n_t)))
    buf = np.empty(rows * k_step * n_t, dtype)
    for k0 in range(0, k, k_step):
        ks = slice(k0, k0 + k_step)
        table = term_tables(ks).reshape(-1, o).astype(dtype, copy=False)
        for lo in range(0, n, rows):
            c = codes[lo:lo + rows, ks]
            hot = buf[:c.size * n_t].reshape(*c.shape, n_t)
            np.take(onehot, c, axis=0, out=hot, mode="clip")
            out[lo:lo + rows] += hot.reshape(c.shape[0], -1) @ table
    return out.astype(np.float64, copy=False)


def method2_matmul(x: QuantizedOperand, w: QuantizedOperand,
                   int_bits: int = 32, frac_bits: int = 8) -> np.ndarray:
    """Raw accumulator values of x @ w with both operands log-coded.

    x has shape (n, k), w has shape (k, o).  Both operands are read through
    their code tables.  Each nonzero x code c, at exponent e_c in lifted
    grid steps, falls into one of three classes, decided from w's lowest
    and highest levels:

    * exact: e_c is on the base-2 grid and every term 2**(e_c + e_w) clears
      the accumulator's last fractional bit (a 1.5 mantissa one bit
      above it), so no term truncates.  All exact codes fold into one
      matmul of per-code powers of two against w's values.
    * dead: every term truncates to 0, even against w's top level; these
      codes are skipped.
    * truncating: the rest.  Each gets a (k, o) table of its exact
      truncated integer terms, sign_c * sign_w * floor(2**(e_c + e_w)
      * 2**frac_bits), gathered by w's codes from the code's terms against
      every w code; one one-hot GEMM over all of them sums them.

    One-hot entries are 0 or 1 and every table entry and every exact-class
    product is an integer term, so under the ``_check_exact_range`` bound
    every partial sum, in any BLAS order, is an integer below 2**53: the
    result equals the scalar ``lognum.dot_method2`` bit for bit.  The sums
    run in float32 where that bound is 2**24 and the per-code factors of
    the exact class and of w are normal float32 numbers (``_sum_dtype``).
    """
    n, k = x.shape
    o = w.shape[1]
    need = _check_exact_range(
        max_term_bits=int(math.ceil(x.max_exp + w.max_exp)) + frac_bits + 1,
        n_terms=k, int_bits=int_bits, frac_bits=frac_bits)
    xt, wt = x.table, w.table
    w_levels = wt.esteps[w.present() & wt.nonzero]
    if not w_levels.size:
        return np.zeros((n, o))
    fb = x.fb
    w_low, w_high = int(w_levels.min()), int(w_levels.max())
    live = xt.nonzero & (((xt.esteps + w_high) >> fb) + frac_bits >= 0)
    exact = (live & ((xt.esteps & ((1 << fb) - 1)) == 0)
             & ((xt.esteps >> fb) + (w_low >> fb) + frac_bits >= fb))
    exact_val = np.where(exact, xt.sign * _pow2_steps(xt.esteps, fb, frac_bits), 0.0)
    w_val = np.where(wt.nonzero, wt.sign * _pow2_steps(wt.esteps, fb), 0.0)
    dtype = _sum_dtype(need, exact_val, w_val)
    trunc = np.flatnonzero(live & ~exact)
    # terms[l, v]: truncating x code trunc[l] against w code v
    terms = np.where(wt.nonzero, xt.sign[trunc, None] * wt.sign, 0) * _trunc_pow2_raw(
        xt.esteps[trunc, None] + wt.esteps, fb, frac_bits)

    def term_tables(ks):
        return np.take(terms, w.codes[ks], axis=1).transpose(1, 0, 2)

    out = _code_table_matmul(x.codes, exact_val, w_val[w.codes], trunc, term_tables,
                             o, dtype)
    return _check_out(out, int_bits, frac_bits)


def method1_matmul(x: QuantizedOperand, w_real: np.ndarray,
                   int_bits: int = 32, frac_bits: int = 8) -> np.ndarray:
    """Raw accumulator values with real weights and log-coded activations.

    Each term is a bitshift of the fixed-point weight word by the
    activation exponent, truncating toward minus infinity like a two's
    complement shifter.  As in ``method2_matmul``, the kernel works per
    activation code: codes with e >= 0 shift left, never truncate, and fold
    into one matmul of 2**e against the weight words; each code with e < 0
    gets a (k, o) table floor(w_raw * 2**e) summed by one one-hot GEMM.
    Every entry is an integer and ``_check_exact_range`` keeps every partial
    sum below 2**53, so the result equals the scalar ``lognum.dot_method1``
    bit for bit.  The sums run in float32 where the bound is 2**24 and the
    factors 2**e and the weight words are normal float32 numbers
    (``_sum_dtype``).
    """
    if x.fb != 0:
        raise ConfigError("integer shifts require the base-2 exponent grid")
    xt = x.table
    if x.cfg.signed and (xt.nonzero & (xt.sign < 0))[x.codes].any():
        raise ConfigError("activation codes must be unsigned")
    n, k = x.shape
    w_raw = np.rint(np.ldexp(w_real, frac_bits))
    wbits = int(np.abs(w_raw).max()) if w_raw.size else 0
    need = _check_exact_range(
        max_term_bits=wbits.bit_length() + max(int(x.max_exp), 0),
        n_terms=k, int_bits=int_bits, frac_bits=frac_bits)
    exact_val = np.where(xt.nonzero & (xt.esteps >= 0), np.ldexp(1.0, xt.esteps), 0.0)
    trunc = np.flatnonzero(xt.nonzero & (xt.esteps < 0))
    t_exp = xt.esteps[trunc, None].astype(np.intc)  # numpy's native ldexp loop

    def term_tables(ks):
        return np.floor(np.ldexp(w_raw[ks, None, :], t_exp))

    out = _code_table_matmul(x.codes, exact_val, w_raw, trunc, term_tables,
                             w_real.shape[1], _sum_dtype(need, exact_val, w_raw))
    return _check_out(out, int_bits, frac_bits)


def shifted_input_matmul(x_real: np.ndarray, w: QuantizedOperand,
                         int_bits: int = 32, frac_bits: int = 8) -> np.ndarray:
    """Raw accumulator values of real inputs against log-coded weights.

    The mirror of ``method1_matmul``: the real operand is the shifted
    fixed-point word, the weight code supplies shift amount and sign (signs
    apply after truncation, as a hardware negate would).  Half-step weight
    exponents multiply by 1.5 via shift-add before the final truncation.
    Each weight level present adds one GEMM of its truncated shifted words
    against its sign indicators, all integers; the range bound keeps every
    partial sum below 2**53, so the result equals the scalar shifts bit for
    bit.  It runs in float32 where the bound is 2**24 and every level's
    2**pf is a normal float32 number (``_sum_dtype``).
    """
    n, k = x_real.shape
    x_raw = np.rint(np.ldexp(x_real, frac_bits))
    xbits = int(np.abs(x_raw).max()) if x_raw.size else 0
    need = _check_exact_range(
        max_term_bits=xbits.bit_length() + max(int(math.ceil(w.max_exp)), 0) + 1,
        n_terms=k, int_bits=int_bits, frac_bits=frac_bits)
    wt = w.table
    levels = np.unique(wt.esteps[w.present() & wt.nonzero])
    dtype = _sum_dtype(need, np.ldexp(1.0, levels >> w.fb))
    x_raw = x_raw.astype(dtype, copy=False)
    out = np.zeros((n, w.shape[1]), dtype)
    for e in levels:
        ind = np.where(wt.nonzero & (wt.esteps == e), wt.sign, 0).astype(dtype)[w.codes]
        pf = int(e) >> w.fb
        mant = 1.5 if w.fb and (int(e) & 1) else 1.0
        # x_raw * mant * 2**pf in one multiply: the factor is a normal
        # number and so is every nonzero product, so nothing rounds that the
        # shift-add and the shift would not
        out += np.floor(x_raw * math.ldexp(mant, pf)) @ ind
    return _check_out(out.astype(np.float64, copy=False), int_bits, frac_bits)


def _trunc_halfexp_raw(s_rel: np.ndarray, base: int, f: int, frac_bits: int) -> np.ndarray:
    """Raw accumulator value of 2**s for fixed-point exponents s = s_rel + base.

    ``s_rel`` is a narrow integer array with room for ``s_rel + 2**f - 1``;
    only the exponent of each value is widened to int64.
    """
    u = s_rel + (base & ((1 << f) - 1))
    mant = ((u & ((1 << f) - 1)) + (1 << f)).astype(np.float64)
    return np.floor(np.ldexp(mant, (u >> f).astype(np.int64) + ((base >> f) + frac_bits - f)))


# Running sums per row block of the log-domain walk.  On the benchmark's
# three products (best of 8 alternating runs), 2**14 to 2**16 ran alike at
# f = 4 (int16) and f = 10 (int32); 2**12 and 2**13 ran 1.2-1.6x slower
# (per-step call overhead), and 2**17 ran 1.2x slower at f = 10, where the
# step's arrays outgrow the L2 cache.
_LOG_BLOCK = 1 << 16


def _level_span(op: QuantizedOperand, shift: int) -> tuple[np.ndarray, int, int]:
    """Raw exponents of the operand's levels, its lowest nonzero level and
    the span from that level to its highest."""
    t = op.table
    e = t.esteps.astype(np.int64) << shift
    live = e[t.nonzero]
    if live.size == 0:
        return e, 0, 0
    return e, int(live.min()), int(live.max() - live.min())


def _walk_dtype(lo: int, hi: int):
    """The narrowest of int16, int32 and int64 holding [lo, hi]."""
    for dtype in (np.int16, np.int32, np.int64):
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
            return dtype
    raise ConfigError("log-domain exponents exceed the int64 range")


def method2_matmul_logaccum(x: QuantizedOperand, w: QuantizedOperand,
                            int_bits: int = 32, frac_bits: int = 8,
                            exp_frac_bits: int = 4) -> np.ndarray:
    """Like ``method2_matmul`` but accumulating in the log domain.

    Keeps two running log-domain sums per output (one per term sign),
    updated sequentially in index order k = 0, 1, ... as
    ``lognum.dot_method2(..., "log")`` does, and converts both to linear at
    the end; each converted sum is range-checked against the accumulator
    word, as the scalar walk checks it, and refused with ``ConfigError`` if
    it reaches 2**53, where the float64 difference of the two could round.
    An empty sum is 0.

    Schedules.  A term reaches the positive sum of output j when the signs
    of x[i, k] and w[k, j] agree, the negative one when they differ.  With
    unsigned activations the weight alone decides, so each of the 2o sums
    gets the k-ordered list of the k's whose weight has its sign.  With
    signed activations every nonzero-weight k is listed in both sums, and
    each step takes the larger of the positive- and the negative-activation
    candidate (the other one is a zero term).  Lists shorter than the
    longest are padded with zero terms.  Step t gathers, for every sum, the
    activation row of its t-th k and adds that entry's weight exponent.

    Relative exponents and the dtype bound.  The step
    ``max(s, p) + corr(|s - p|)`` is unchanged by a common shift of s and p,
    so exponents are held relative to each operand's lowest nonzero level
    and shifted back only for the conversion.  With f = ``exp_frac_bits``
    and cap = (f+1) * 2**f raw, corr(d) = 0 for d >= cap and
    d + corr(d) <= cap for 0 <= d <= cap, and the step is non-decreasing in
    both operands.  With Sx, Sw the spans of the two operands' level
    exponents, every real term lies in [0, P], P = Sx + Sw, so a running
    sum lies in [0, P + cap] (no higher than a walk of terms all P).

    Sentinels.  An empty sum is -cap, at least cap below every real term,
    so its first real term replaces it.  A zero activation enters as
    -(2 cap + Sw) and a zero or pad weight as -(2 cap + Sx), so every term
    with either lies at or below -2 cap, at least cap below every sum,
    empty or not, and leaves it unchanged.

    The step is ``q = p - cap``, ``h = g[clip(s - q, 0, 2 cap)] + q``,
    ``s = max(s, h)``, where one call of ``lognum.log_accumulate_raw``
    fills g for every difference in [-cap, cap]; a clipped difference is
    still exact, since corr(cap) = 0.  Every value this computes lies in
    [-(P + 5 cap), 2P + 6 cap], and the walk runs in the narrowest of
    int16, int32 and int64 that holds that range.
    """
    f = exp_frac_bits
    if f < x.fb:
        raise ConfigError("exponent word cannot hold the grid step")
    n, o = x.shape[0], w.shape[1]
    shift = f - x.fb
    cap = (f + 1) << f
    xe, x_lo, x_span = _level_span(x, shift)
    we, w_lo, w_span = _level_span(w, shift)
    p_max = x_span + w_span
    dtype = _walk_dtype(-(p_max + 5 * cap), 2 * p_max + 6 * cap)
    empty = -cap
    x_zero = -(2 * cap + w_span)
    w_zero = -(2 * cap + x_span)
    t = np.arange(-cap, cap + 1)
    g = (log_accumulate_raw(t, np.zeros_like(t), f) + cap).astype(dtype)

    xt, wt = x.table, w.table
    x_pos = np.where(xt.nonzero & (xt.sign > 0), xe - x_lo, x_zero).astype(dtype)
    x_neg = np.where(xt.nonzero & (xt.sign < 0), xe - x_lo, x_zero).astype(dtype)
    signed = bool(x.cfg.signed and (x.present() & xt.nonzero & (xt.sign < 0)).any())

    # sums [0, o) take the positive terms, [o, 2o) the negative ones; "on"
    # terms come from positive activations, "off" terms from negative ones
    w_sign = np.where(wt.nonzero, wt.sign, 0)[w.codes].T
    on = np.concatenate([w_sign > 0, w_sign < 0])
    off = np.concatenate([w_sign < 0, w_sign > 0])
    listed = on | off if signed else on
    steps = int(listed.sum(axis=1).max(initial=0))
    # each sum's listed k's in order, then unlisted ones as pads: neither
    # "on" nor "off", a pad's weight enters as a zero term
    order = np.argsort(~listed, axis=1, kind="stable")[:, :steps]
    ks = np.ascontiguousarray(order.T)
    w_rel = np.tile((we - w_lo)[w.codes].T, (2, 1))

    def step_weights(mask):
        # (steps, 2o, 1): each step's weight exponents less cap
        e = np.where(mask, w_rel, w_zero) - cap
        return np.ascontiguousarray(np.take_along_axis(e, order, axis=1).T, dtype=dtype)[:, :, None]

    w_on = step_weights(on)
    w_off = step_weights(off) if signed else None
    sums = np.empty((2 * o, n), dtype=dtype)
    rows = max(1, _LOG_BLOCK // max(2 * o, 1))
    for lo in range(0, n, rows):
        # the steps gather whole k rows of the block, so it is made k-major
        block = np.ascontiguousarray(x.codes[lo:lo + rows].T)
        xp = x_pos[block]
        xn = x_neg[block] if signed else None
        s = np.full((2 * o, block.shape[1]), empty, dtype=dtype)
        q = np.empty_like(s)
        h = np.empty_like(s)
        for ti in range(steps):
            np.take(xp, ks[ti], axis=0, out=q, mode="clip")
            q += w_on[ti]
            if signed:
                np.take(xn, ks[ti], axis=0, out=h, mode="clip")
                h += w_off[ti]
                np.maximum(q, h, out=q)
            np.subtract(s, q, out=h)
            np.clip(h, 0, 2 * cap, out=h)
            np.take(g, h, mode="clip", out=h)
            h += q
            np.maximum(s, h, out=s)
        sums[:, lo:lo + rows] = s
    converted = _trunc_halfexp_raw(sums, x_lo + w_lo, f, frac_bits)
    planes = _check_out(np.where(sums == empty, 0.0, converted), int_bits, frac_bits)
    if planes.size and planes.max() >= math.ldexp(1.0, _EXACT_RAW_BITS + 1):
        raise ConfigError("a converted log-domain sum exceeds the exact float64 range")
    return np.ascontiguousarray((planes[:o] - planes[o:]).T)


# ---------------------------------------------------------------------------
# the layer walker
# ---------------------------------------------------------------------------


def _real(a):
    """The float64 values of an activation or operand, coded or not."""
    return a.values if isinstance(a, QuantizedOperand) else a


@dataclass(frozen=True)
class Arithmetic:
    """How the conv/fc products of a walk compute.

    ``int_bits``/``frac_bits`` size the accumulator word and ``accum``
    selects linear or log-domain accumulation.  The binary point is
    absolute unless ``block_bias`` is set:

    * absolute: raw values count units of 2**-frac_bits and every product
      with a coded operand runs its shift kernel: coded activations against
      coded weights through ``method2_matmul`` (or
      ``method2_matmul_logaccum``), against real weights through
      ``method1_matmul``, and real inputs against coded weights through
      ``shifted_input_matmul``.  This is inference's arithmetic.
    * block-biased: the binary point floats with the operands' full scale
      (each operand's exponents biased by its config's fsr), so gradient
      tensors with very negative exponents keep their significant terms.
      Only coded x coded products run a kernel.  A product with a real
      operand is the float64 product of the values: the coded side is a
      dyadic value set, so that is the exact wide-accumulator sum, and
      truncating at the fractional width would only drop bits far below the
      smallest representable operand product.  This is training's
      arithmetic.
    """

    int_bits: int = 32
    frac_bits: int = 8
    accum: str = ACCUM_LINEAR
    block_bias: bool = False

    def dot(self, x, w) -> np.ndarray:
        """x (n, k) times w (k, o); either is float64 or a ``QuantizedOperand``."""
        ib, fb = self.int_bits, self.frac_bits
        coded_x = isinstance(x, QuantizedOperand)
        coded_w = isinstance(w, QuantizedOperand)
        if coded_x and coded_w:
            kernel = method2_matmul_logaccum if self.accum == ACCUM_LOG else method2_matmul
            grid = lift_grid(x.cfg, w.cfg)
            bx, bw = (x.cfg.fsr, w.cfg.fsr) if self.block_bias else (0, 0)
            raw = kernel(x.lifted(grid, bx << grid), w.lifted(grid, bw << grid), ib, fb)
            return np.ldexp(raw, bx + bw - fb)
        if self.block_bias or not (coded_x or coded_w):
            return _real(x) @ _real(w)
        if coded_x:
            return np.ldexp(method1_matmul(x, w, ib, fb), -fb)
        return np.ldexp(shifted_input_matmul(x, w, ib, fb), -fb)


def walk(graph: ModelGraph, x: np.ndarray, weights: dict, act_config,
         bn: dict[int, BatchNormParams], arith: Arithmetic,
         batch_stats: Optional[dict] = None, cache: Optional[dict] = None,
         capture: Optional[dict] = None):
    """Run every layer of ``graph`` on the float64 input ``x``.

    Returns the last layer's output.  An activation is a float64 array or,
    after a log quantizer, a ``QuantizedOperand`` whose values dequantize
    on first use; maxpool pools such an activation on its codes
    (``_maxpool_codes``) without dequantizing it.

    * ``weights[i]``: the (out, in) weight matrix of conv/fc layer i,
      float64 or a ``QuantizedOperand``; a conv's in is C*kh*kw.
    * ``act_config(layer)``: the config a quantizer layer applies.  When
      ``act_config`` is None, or returns None, the layer passes its input
      through.
    * ``bn[i]``: batchnorm layer i's parameters.
    * ``arith``: the arithmetic of every conv/fc product.
    * ``batch_stats``: when given, batchnorm normalizes with each batch's
      moments and records them here as {i: (mean, var)}.
    * ``cache``: when given, receives per layer what backward needs.
    * ``capture``: when given, receives the float64 input of each quantizer
      layer, keyed by layer index.
    """
    act = x
    for i, layer in enumerate(graph.layers):
        kind = layer.kind
        if kind in (CONV, FC):
            # the left operand is (rows, k): a conv lowers with im2col (codes
            # pad with the zero code) and its rows are the output positions
            coded = isinstance(act, QuantizedOperand)
            a = act.codes if coded else act
            if kind == CONV:
                rows, oh, ow = im2col_array(a, (layer.kernel,) * 2, layer.stride,
                                            layer.pad, fill=0 if coded else 0.0)
            else:
                rows = a.reshape(a.shape[0], -1)
            if coded:
                rows = QuantizedOperand(rows, act.cfg, act.fb)
            out = arith.dot(rows, weights[i].T)
            if cache is not None:
                cache[i] = {"x": rows, "in_shape": a.shape}
            if kind == CONV:
                out = out.reshape(a.shape[0], oh, ow, -1).transpose(0, 3, 1, 2)
            act = out
        elif kind == RELU:
            v = _real(act)
            if cache is not None:
                cache[i] = {"mask": v > 0}
            act = relu_array(v)
        elif kind == MAXPOOL:
            pool = _maxpool_codes if isinstance(act, QuantizedOperand) else maxpool_array
            pooled, idx = pool(act, layer.pool, layer.stride, cache is not None)
            if cache is not None:
                cache[i] = {"idx": idx, "in_shape": act.shape}
            act = pooled
        elif kind == BATCHNORM:
            v, p = _real(act), bn[i]
            if batch_stats is not None:
                axes = channel_axes(v)[0]
                p = replace(p, mean=v.mean(axis=axes), var=v.var(axis=axes))
                batch_stats[i] = (p.mean, p.var)
            if cache is not None:
                cache[i] = {"x": v, "mean": p.mean, "var": p.var}
            act = batchnorm_array(v, p)
        elif kind in (LOGQUANT, LINQUANT):
            v = _real(act)
            if capture is not None:
                capture[i] = v
            cfg = act_config(layer) if act_config is not None else None
            if cfg is None:
                continue
            act = quantize_operand(v, cfg)
        elif kind == SOFTMAX:
            act = softmax_array(_real(act))
        else:
            raise ConfigError(f"unknown layer kind {kind!r}")
    return act


def _mode_weight(layer: LayerSpec, w: np.ndarray, mode: str):
    """A stored weight matrix as ``mode`` computes with it."""
    if mode in (MODE_FLOAT, MODE_METHOD1):
        return w
    if layer.qconfig is None:
        raise ConfigError(
            f"{layer.kind} layer needs a weight quantizer config for {mode}")
    cfg = layer.qconfig
    if cfg.kind == KIND_LOG:
        cfg = replace(cfg, base_frac_bits=1 if mode == MODE_METHOD2_SQRT2 else 0)
    return quantize_operand(w, cfg)


def _stored_operands(graph: ModelGraph, mode: str) -> tuple[dict, dict]:
    """The weight matrices (as ``mode`` computes with them) and batchnorm
    parameters of a stored graph."""
    weights, bn = {}, {}
    for i, layer in enumerate(graph.layers):
        if layer.kind in (CONV, FC):
            w = graph.weight_array(i)
            weights[i] = _mode_weight(layer, w.reshape(w.shape[0], -1), mode)
        elif layer.kind == BATCHNORM:
            bn[i] = BatchNormParams.from_array(graph.weight_array(i))
    return weights, bn


def forward(graph: ModelGraph, x: Tensor, mode: str = MODE_FLOAT,
            accum: str = ACCUM_LINEAR, int_bits: int = 32,
            frac_bits: int = 8) -> Tensor:
    """Run the layer pipeline and return class scores.

    ``float32`` bypasses every quantizer.  ``method1`` consumes log-coded
    activations with real weights; the method2 modes quantize weights too
    (base 2 or sqrt(2)).  ``accum`` selects linear or log-domain
    accumulation inside the quantized dot products, which hold an absolute
    binary point (``Arithmetic``).
    """
    if mode not in FORWARD_MODES:
        raise ConfigError(f"unknown forward mode {mode!r}")
    if accum not in (ACCUM_LINEAR, ACCUM_LOG):
        raise ConfigError(f"unknown accumulation mode {accum!r}")
    if accum == ACCUM_LOG and mode in (MODE_FLOAT, MODE_METHOD1):
        raise ConfigError("log accumulation applies to the method2 modes")
    graph.output_shapes(x.shape)
    weights, bn = _stored_operands(graph, mode)
    act_config = None if mode == MODE_FLOAT else graph.act_config
    out = walk(graph, x.real(), weights, act_config, bn,
               Arithmetic(int_bits, frac_bits, accum))
    return Tensor.from_real(_real(out))


def collect_quantizer_inputs(graph: ModelGraph, x: Tensor) -> dict[int, np.ndarray]:
    """Float forward capturing the activations entering each quantizer layer.

    Used for FSR calibration: returns {layer index: float64 activations}.
    """
    captured: dict[int, np.ndarray] = {}
    weights, bn = _stored_operands(graph, MODE_FLOAT)
    walk(graph, x.real(), weights, None, bn, Arithmetic(), capture=captured)
    return captured
