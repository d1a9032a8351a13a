"""Layer kernels and the one layer walker.

``walk`` runs a layer graph for inference (``forward``), FSR calibration
(``collect_quantizer_inputs``) and training (``train._forward_train``).  The
graph says what a walk quantizes: its quantizer layers apply their configs
when the walk quantizes, and ``weight_operands`` quantizes each conv/fc
layer's weights by that layer's config, if it has one.  The three entries
differ only in that switch, in whether and on which grid the weights are
quantized, in the batchnorm rows (and whether batch statistics replace
them), the arithmetic of the products, and an optional backward cache
or capture of the quantizer inputs.  Each batchnorm layer's parameters are
the float64 (4, C) gamma/beta/mean/var rows its stored payload holds.  A
log-coded tensor, activation or weight, is a ``tensor.Tensor``, the type
of the stored weights too: wire codes, often a view, and their config.
What a code means comes from one table per config, ``lognum.code_table``:
the kernels read signs and exponents from it, dequantizing is a gather
from it, and maxpool compares the codes themselves (or, when signed, their
value rank from the table), so a pooled activation stays coded.

Layout.  Images, ``forward``'s input, ``output_shapes``, the stored
(O, C, kh, kw) weights and the activations ``collect_quantizer_inputs``
captures are NCHW.  Inside ``walk`` activations are channel-last (NHWC): it
transposes a rank-4 input once on entry and a rank-4 output back on exit,
so every layer between two products reads or writes one (rows, C) buffer;
batchnorm and ReLU write theirs in place when the walk made it.
Convolutions are lowered with im2col, one strided slice copy per kernel
tap, to k-major (output positions, C*kh*kw) rows, the transpose of one
(C*kh*kw, output positions) buffer, in the (C, kh, kw) patch order of the
stored weights, which the products read as they are; a conv's (rows, O)
product is its channel-last output, and an fc after a conv flattens its
input in (C, H, W) order.  Every conv/fc product is rows @ W^T, computed by
one of these kernels:

* a plain float64 matmul (reference path, also used for unquantized inputs),
* shift-weights: real weights held as fixed-point words, each term a single
  bitshift by the activation's exponent,
* exponent-sum: both operands log-coded, term exponents are integer adds
  and each term is a shifted power of two,
* exponent-sum with log-domain accumulation: the same terms folded into
  running log-domain sums, one per sign.

``Arithmetic`` holds the accumulator word, and a kernel's binary point is
absolute: its last fractional bit is 2**-frac_bits of the word it is
given.  Inference runs every product with a coded operand through its
shift kernel on the word (``Arithmetic.dot``).  Training runs every product
as one float64 GEMM of the terms the shift kernels form, a half step at 1.5
and two half steps adding exponents to a whole one (``exact_dot``).  Two
coded operands make each term an integer multiple of the product's lowest
unit, so float64 sums them exactly in any order while the bound
``_check_exact_sum`` checks holds: 53 bits over both operands' level spans,
mantissas and the term count, in float64's normal range.  Past it the
product raises ``ConfigError``: on base 2, two 6-bit log configs at any
term count, and a 6-bit signed config against a 4- or 5-bit one past 256
terms.

The quantized kernels reproduce the scalar fixed-point semantics bit for
bit: term magnitudes are truncated to the accumulator's fractional
precision before summation.  The kernels read an operand through its code
table: a b-bit operand has at most 2**b codes, so every term a code can
produce against a weight is known up front.  In the linear-accumulation
kernels, a code is dead when every term it can produce truncates to 0, and
is skipped; every live code gets a (k, o) table of its truncated integer
terms, and one GEMM of one-hot code indicators against the stacked tables
sums them.  All arithmetic stays on integers below 2**53, where float64 is
exact in any summation order.  Where the range bound keeps every partial
sum below 2**24 and every factor a GEMM reads is a normal float32 number,
the sums run in float32, which is exact there in any order too
(``_sum_dtype``): at the 32+8 inference word, every linear-accumulation
product of the benchmark's reference net does.
Log-domain accumulation is order dependent, so its kernel keeps the index
order within each running sum.  Each of the 2o sums (one per output and
term sign) gets its own k-ordered list of the k's it can receive a term at;
all sums step through their lists together, each step one gather, one add
and the scalar rule's max, mask, shift and add, in place on exponents held
relative to the operands' lowest levels, in the narrowest of int16, int32
and int64 that provably holds every intermediate value, and the finished
sums convert through one table.
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
    DomainError,
    QuantizerConfig,
    code_table,
    dequantize_array,
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
_F64 = np.finfo(np.float64)


# ---------------------------------------------------------------------------
# layer specs and the model graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network; geometry fields are meaningful per kind.

    ``qconfig`` holds the weight quantizer for conv/fc layers (absolute fsr)
    and the activation quantizer for logquant/linearquant layers, whose
    effective fsr is the graph's global fsr plus ``fsr_offset``.
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

    def weight_shape(self) -> tuple[int, ...]:
        """Stored parameter shape: (O, C, kh, kw), (out, in), batchnorm's
        (4, C) gamma/beta/mean/var rows, or () for none."""
        if self.kind == CONV:
            return (self.out_channels, self.in_channels, self.kernel, self.kernel)
        if self.kind == FC:
            return (self.out_features, self.in_features)
        if self.kind == BATCHNORM:
            return (4, self.channels)
        return ()


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
            want = layer.weight_shape()
            if want and i not in self.weights:
                raise ConfigError(f"layer {i} is missing its weight tensor")
            if want and tuple(self.weights[i].shape) != want:
                raise ConfigError(f"layer {i}: weight shape {self.weights[i].shape} "
                                  f"!= expected {want}")
            out.append(shape)
        return out

    def _layer_shape(self, i: int, layer: LayerSpec, s: tuple[int, ...]) -> tuple[int, ...]:
        if layer.kind == CONV:
            if len(s) != 4 or s[1] != layer.in_channels:
                raise ConfigError(f"layer {i}: conv expects (N,{layer.in_channels},H,W), got {s}")
            oh = conv_output_size(s[2], layer.kernel, layer.stride, layer.pad)
            ow = conv_output_size(s[3], layer.kernel, layer.stride, layer.pad)
            return (s[0], layer.out_channels, oh, ow)
        if layer.kind == FC:
            feat = int(np.prod(s[1:]))
            if feat != layer.in_features:
                raise ConfigError(f"layer {i}: fc expects {layer.in_features} features, got {feat}")
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
        return s

    def act_config(self, layer: LayerSpec) -> QuantizerConfig:
        """A quantizer layer's activation config at its effective fsr."""
        return replace(layer.qconfig, fsr=self.fsr + layer.fsr_offset)


# ---------------------------------------------------------------------------
# elementwise layers
# ---------------------------------------------------------------------------


def relu_array(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """max(x, 0) into ``out``, which may be ``x`` itself, or a new array."""
    return np.maximum(x, 0.0, out=out)


def pool_slices(k: int, stride: int, oh: int, ow: int):
    """(position dy*k + dx, index of the (N, oh, ow, C) strided slice of a
    channel-last input) for each of the k*k window positions, in window
    scan order."""
    for pos in range(k * k):
        dy, dx = divmod(pos, k)
        yield pos, (slice(None), slice(dy, dy + stride * (oh - 1) + 1, stride),
                    slice(dx, dx + stride * (ow - 1) + 1, stride))


def maxpool_array(x: np.ndarray, k: int, stride: int,
                  argmax: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-window max of a channel-last (N, H, W, C) array and, with
    ``argmax``, each window's max position dy*k + dx (else None), for
    gradient routing.

    A running max over the k*k strided slices copies no window.  A position
    is recorded only where its slice is strictly greater than the max so
    far, so ties break to the first index in window scan order; positions
    rise along the scan, so the last one recorded is the largest.
    """
    _, h, w, _ = x.shape
    oh = conv_output_size(h, k, stride, 0)
    ow = conv_output_size(w, k, stride, 0)
    out = idx = None
    for pos, sl in pool_slices(k, stride, oh, ow):
        s = x[sl]
        if out is None:
            out = s.copy()
            if argmax:
                idx = np.zeros(out.shape, np.min_scalar_type(k * k - 1))
            continue
        if argmax:
            np.maximum(idx, (s > out) * idx.dtype.type(pos), out=idx)
        # of two equal operands (+0 and -0) np.maximum returns the second, so
        # the max so far goes second and a tie keeps the first index's value
        np.maximum(s, out, out=out)
    return out, idx


def _maxpool_codes(op: Tensor, k: int, stride: int,
                   argmax: bool) -> tuple[Tensor, np.ndarray | None]:
    """``maxpool_array`` of a log-coded activation's values, run on its codes.

    Unsigned log wire codes order like their values, so they pool as they
    are.  Signed codes pool their dense value rank, read off the code table,
    and map back to the first code of each rank.  Equal values get equal
    keys, so the argmax indices and their first-index ties are those of
    pooling the values.
    """
    if not op.qconfig.signed:
        codes, idx = maxpool_array(op.data, k, stride, argmax)
    else:
        _, first, rank = np.unique(op.table.value, return_index=True, return_inverse=True)
        ranks, idx = maxpool_array(rank[op.data], k, stride, argmax)
        codes = first.astype(op.data.dtype)[ranks]
    return Tensor(codes, op.qconfig), idx


def bn_normalize(x: np.ndarray, mean: np.ndarray, var: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) per channel of a channel-last array:
    batchnorm before its affine map, into ``out`` or a new array."""
    out = np.subtract(x, mean, out=out)
    out /= np.sqrt(var + BN_EPS)
    return out


def batchnorm_array(x: np.ndarray, p: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel normalization of a channel-last array by the (4, C)
    gamma/beta/mean/var rows ``p``, in real arithmetic: gamma * (x - mean) /
    sqrt(var + eps) + beta, in that order, in one buffer: ``out``, which may
    be ``x`` itself, or a new array.

    On a rank-4 (N, H, W, C) array the rows are tiled across an image row,
    (W, C), so on a C-contiguous array every pass runs as over an
    (N*H, W*C) view, whole image rows at a time instead of C elements.
    """
    if x.ndim == 4:
        p = np.tile(p, x.shape[2]).reshape(4, x.shape[2], -1)
    gamma, beta, mean, var = p
    out = bn_normalize(x, mean, var, out)
    out *= gamma
    out += beta
    return out


def batchnorm_batch(x: np.ndarray, p: np.ndarray):
    """Batchnorm of a channel-last array by its own batch moments and the
    gamma/beta rows of ``p``, as training runs it: (output, x-hat, mean, var).

    On the (rows, C) view, the per-channel sums are BLAS products with a
    ones vector, and one centred buffer becomes x-hat, returned as (rows, C)
    for the backward pass; the output is gamma * x-hat + beta.
    """
    x2 = x.reshape(-1, x.shape[-1])
    ones = np.ones(x2.shape[0])
    mean = (ones @ x2) / x2.shape[0]
    xhat = x2 - mean
    var = (ones @ np.square(xhat)) / x2.shape[0]
    xhat /= np.sqrt(var + BN_EPS)
    out = xhat * p[0]
    out += p[1]
    return out.reshape(x.shape), xhat, mean, var


def softmax_array(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# quantized matmul kernels
# ---------------------------------------------------------------------------


def _pow2_steps(p_steps: np.ndarray, fb: int, scale: int = 0) -> np.ndarray:
    """2**(p_steps * 2**-fb + scale) as a shift-add: the mantissa
    2**fb + (p_steps & (2**fb - 1)) shifted by (p_steps >> fb) - fb + scale."""
    mant = ((p_steps & ((1 << fb) - 1)) + (1 << fb)).astype(np.float64)
    return np.ldexp(mant, (p_steps >> fb) - fb + scale)


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


def _words(real: np.ndarray, what: str, int_bits: int, frac_bits: int) -> tuple[np.ndarray, int]:
    """``real`` as raw words of the accumulator, rounded half-even as by
    ``lognum.AccumulatorWord.from_value``, and the largest |word|; like it,
    refuses a word the accumulator cannot hold."""
    raw = np.rint(np.ldexp(real, frac_bits))
    peak = int(np.abs(raw).max(initial=0.0))
    if peak.bit_length() > int_bits + frac_bits:
        raise AccumulatorOverflow(f"{what} word spans {peak.bit_length()} raw bits, more "
                                  f"than the {int_bits}+{frac_bits} bit accumulator")
    return raw, peak


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


# the name ``benchmarks/spans.py`` times operand construction under
QuantizedOperand = Tensor


def quantize_operand(x: np.ndarray, cfg: QuantizerConfig):
    """``x`` quantized by ``cfg``, as the walker computes with it.

    Log codes become a coded ``Tensor`` on their own grid.  Linear codes
    come back as their float64 values: a product with them needs
    multipliers, so they enter every product as a real operand.
    """
    codes = quantize_array(x, cfg)
    if cfg.kind == KIND_LOG:
        return Tensor(codes, cfg)
    return dequantize_array(codes, cfg)


def lift_grid(cfg_a: QuantizerConfig, cfg_b: QuantizerConfig) -> int:
    return max(cfg_a.base_frac_bits, cfg_b.base_frac_bits)


def _lifted_esteps(op: Tensor, fb: int) -> np.ndarray:
    """The exponents of the operand's codes on the grid of ``fb`` fractional
    bits, indexed by the code."""
    return op.table.esteps << (fb - op.qconfig.base_frac_bits)


# bytes in one one-hot block and in one block of term tables: a block fits
# L2, which measured faster than 8 MB blocks in float64; in float32, 2**17
# elements ran faster than 2**16 over the method1/method2 products of one
# 256-image infer pass per mode of the benchmark's reference net
_TABLE_BLOCK = 1 << 19


def _code_table_matmul(codes: np.ndarray, live: np.ndarray, term_tables,
                       o: int, dtype) -> np.ndarray:
    """The sum over k of each live code's terms, by one-hot GEMMs.

    ``codes`` is (n, k) and ``live`` marks the codes that can produce a
    nonzero term; the others add nothing.  ``term_tables(ks)`` returns the
    (len(ks), L, o) terms of the L live codes, in code order, against rows
    ks of the other operand; a one-hot (rows, k*L) block, gathered from an
    identity-like (codes, L) table, picks them in one GEMM.  Rows and k are
    blocked so each one-hot and term block holds about ``_TABLE_BLOCK``
    bytes.  Everything is summed in ``dtype`` (``_sum_dtype``); the result
    is float64.
    """
    n, k = codes.shape
    out = np.zeros((n, o), dtype)
    live_codes = np.flatnonzero(live)
    n_t = live_codes.size
    if n_t == 0 or o == 0:
        return out.astype(np.float64, copy=False)
    onehot = np.zeros((live.size, n_t), dtype)
    onehot[live_codes, np.arange(n_t)] = 1.0
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


def method2_matmul(x: Tensor, w: Tensor,
                   int_bits: int = 32, frac_bits: int = 8) -> np.ndarray:
    """Raw accumulator values of x @ w with both operands log-coded.

    x has shape (n, k), w has shape (k, o).  Both operands are read through
    their code tables.  A nonzero x code c, at exponent e_c in lifted grid
    steps, is dead when every term truncates to 0, even against w's top
    level; dead codes are skipped.  Every other nonzero code is live and
    gets a (k, o) table of its truncated integer terms, sign_c * sign_w *
    floor(2**(e_c + e_w) * 2**frac_bits), gathered by w's codes from the
    code's terms against every w code; one one-hot GEMM over all of them
    sums them.  A term that never truncates is the integer
    2**(e_c + e_w) * 2**frac_bits itself.

    One-hot entries are 0 or 1 and every table entry is an integer term, so
    under the ``_check_exact_range`` bound every partial sum, in any BLAS
    order, is an integer below 2**53: the result equals the scalar
    ``lognum.dot_method2`` bit for bit.  The sums run in float32 where that
    bound is 2**24 (``_sum_dtype``).
    """
    n, k = x.shape
    o = w.shape[1]
    xt, wt = x.table, w.table
    fb = lift_grid(x.qconfig, w.qconfig)
    xe, we = _lifted_esteps(x, fb), _lifted_esteps(w, fb)
    # no term exceeds the two top levels' floor(2**(e_x + e_w) * 2**frac_bits),
    # which is below 2**(((e_x + e_w) >> fb) + frac_bits + 1)
    need = _check_exact_range(
        max_term_bits=((int(xe.max()) + int(we.max())) >> fb) + frac_bits + 1,
        n_terms=k, int_bits=int_bits, frac_bits=frac_bits)
    w_levels = we[w.present() & wt.nonzero]
    if not w_levels.size:
        return np.zeros((n, o))
    live = xt.nonzero & (((xe + int(w_levels.max())) >> fb) + frac_bits >= 0)
    # terms[l, v]: live x code live_codes[l] against w code v
    live_codes = np.flatnonzero(live)
    terms = np.where(wt.nonzero, xt.sign[live_codes, None] * wt.sign, 0) * _trunc_pow2_raw(
        xe[live_codes, None] + we, fb, frac_bits)

    def term_tables(ks):
        return np.take(terms, w.data[ks], axis=1).transpose(1, 0, 2)

    out = _code_table_matmul(x.data, live, term_tables, o, _sum_dtype(need))
    return _check_out(out, int_bits, frac_bits)


def method1_matmul(x: Tensor, w_real: np.ndarray,
                   int_bits: int = 32, frac_bits: int = 8) -> np.ndarray:
    """Raw accumulator values with real weights and log-coded activations.

    Each term is a bitshift of the fixed-point weight word by the
    activation exponent, truncating toward minus infinity like a two's
    complement shifter.  As in ``method2_matmul``, the kernel works per
    activation code: each nonzero code e gets a (k, o) table
    floor(w_raw * 2**e), the shifted words themselves where e >= 0, and one
    one-hot GEMM sums them.  Every entry is an integer and
    ``_check_exact_range`` keeps every partial sum below 2**53, so the
    result equals the scalar ``lognum.dot_method1`` bit for bit.  The sums
    run in float32 where the bound is 2**24 (``_sum_dtype``).
    """
    if x.qconfig.base_frac_bits != 0:
        raise ConfigError("integer shifts require the base-2 exponent grid")
    xt = x.table
    if x.qconfig.signed and (xt.nonzero & (xt.sign < 0))[x.data].any():
        raise ConfigError("activation codes must be unsigned")
    w_raw, w_peak = _words(w_real, "a weight", int_bits, frac_bits)
    need = _check_exact_range(
        max_term_bits=w_peak.bit_length() + max(int(xt.esteps.max()), 0),
        n_terms=x.shape[1], int_bits=int_bits, frac_bits=frac_bits)
    t_exp = xt.esteps[xt.nonzero, None].astype(np.intc)  # numpy's native ldexp loop

    def term_tables(ks):
        return np.floor(np.ldexp(w_raw[ks, None, :], t_exp))

    out = _code_table_matmul(x.data, xt.nonzero, term_tables, w_real.shape[1],
                             _sum_dtype(need))
    return _check_out(out, int_bits, frac_bits)


def shifted_input_matmul(x_real: np.ndarray, w: Tensor,
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
    factor is a normal float32 number (``_sum_dtype``).
    """
    n, k = x_real.shape
    x_raw, x_peak = _words(x_real, "an input", int_bits, frac_bits)
    wt = w.table
    fb = w.qconfig.base_frac_bits
    # no term is wider than the largest word times the top level's factor
    # (two bits of mantissa, so the product is exact wherever the sum is)
    top = float(_pow2_steps(wt.esteps.max(), fb))
    need = _check_exact_range(max_term_bits=math.ceil(x_peak * top).bit_length(),
                              n_terms=k, int_bits=int_bits, frac_bits=frac_bits)
    levels = np.unique(wt.esteps[w.present() & wt.nonzero])
    factors = _pow2_steps(levels, fb)
    dtype = _sum_dtype(need, factors)
    x_raw = x_raw.astype(dtype, copy=False)
    out = np.zeros((n, w.shape[1]), dtype)
    for e, factor in zip(levels, factors):
        ind = np.where(wt.nonzero & (wt.esteps == e), wt.sign, 0).astype(dtype)[w.data]
        # x_raw times the shift-add factor in one multiply: the factor is a
        # normal number and so is every nonzero product, so nothing rounds
        # that the shift-add and the shift would not; as a Python float it
        # keeps float32 sums in float32
        out += np.floor(x_raw * float(factor)) @ ind
    return _check_out(out.astype(np.float64, copy=False), int_bits, frac_bits)


def _log_step(s: np.ndarray, p: np.ndarray, hi: np.ndarray, f: int) -> None:
    """One log-domain accumulation step, in place: s <- s (+) p.

    The integer rule of ``lognum.log_accumulate_raw``: with
    u = min(s, p) - max(s, p), s becomes
    max(s, p) + ((2**f + (u & (2**f - 1))) >> -(u >> f)), a mantissa
    shifted right by the ceiling of |u| / 2**f.  ``p`` and ``hi`` are
    scratch buffers of the same shape and integer type; the type must hold
    every u, its shift count and max(s, p).  A count at or past the type's
    bit width shifts the non-negative mantissa out to 0, as a count of
    f + 1 already does (numpy defines such shifts; C does not).
    """
    np.maximum(s, p, out=hi)
    np.minimum(s, p, out=p)
    p -= hi
    np.right_shift(p, f, out=s)
    np.negative(s, out=s)
    p &= (1 << f) - 1
    p += 1 << f
    np.right_shift(p, s, out=p)
    np.add(hi, p, out=s)


# Running sums per row block of the log-domain walk.  On the benchmark's
# three products (best of 8 alternating runs), 2**14 to 2**16 ran alike at
# f = 4 (int16) and f = 10 (int32); 2**12 and 2**13 ran 1.2-1.6x slower
# (per-step call overhead), and 2**17 ran 1.2x slower at f = 10, where the
# step's arrays outgrow the L2 cache.
_LOG_BLOCK = 1 << 16


def _level_span(op: Tensor, f: int) -> tuple[np.ndarray, int, int]:
    """Raw exponents of the operand's levels at exponent word f, its lowest
    nonzero level and the span from that level to its highest."""
    e = _lifted_esteps(op, f).astype(np.int64)
    live = e[op.table.nonzero]
    return e, int(live.min()), int(live.max() - live.min())


def _walk_dtype(lo: int, hi: int):
    """The narrowest of int16, int32 and int64 holding [lo, hi]."""
    for dtype in (np.int16, np.int32, np.int64):
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
            return dtype
    raise ConfigError("log-domain exponents exceed the int64 range")


def _walk_range(p_max: int, f: int) -> tuple[int, int]:
    """The least and the greatest value a walk over terms in [0, p_max]
    computes at exponent word f (``method2_matmul_logaccum``'s dtype bound)."""
    cap = (f + 1) << f
    lo = -(2 * p_max + 5 * cap)
    return lo, max(p_max + cap, -(lo >> f))


def method2_matmul_logaccum(x: Tensor, w: Tensor,
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

    Schedule.  A term reaches the positive sum of output j when the signs
    of x[i, k] and w[k, j] agree, the negative one when they differ.  Each
    of the 2o sums lists, in k order, the k's whose weight has its sign,
    and those whose weight has the other sign too when a negative
    activation code occurs; shorter lists are padded with zero terms.  A
    row block's exponents are gathered once, a (K, rows) block per
    activation sign that occurs, and step t reads, for every sum, row k of
    its t-th entry, or row k + K (negative activations) where the weight's
    sign differs from the sum's, and adds the weight's exponent.

    Relative exponents.  The step ``max(s, p) + corr(|s - p|)`` is
    unchanged by a common shift of s and p, so exponents are held relative
    to each operand's lowest nonzero level and shifted back only for the
    conversion.  With f = ``exp_frac_bits`` and cap = (f+1) * 2**f raw,
    corr(d) = 0 for d >= cap and d + corr(d) <= cap for 0 <= d <= cap, and
    the step is non-decreasing in both operands.  With Sx, Sw the spans of
    the two operands' level exponents, every real term lies in [0, P],
    P = Sx + Sw, so a running sum lies in [0, P + cap] (no higher than a
    walk of terms all P).

    Sentinels.  An empty sum is -cap, at least cap below every real term,
    so its first real term replaces it.  A zero activation, or one in the
    other sign's table row, enters as -(2 cap + Sw) and a zero or pad
    weight as -(2 cap + Sx), so every term with either lies in
    [-(4 cap + P), -2 cap], at least cap below every sum, empty or not,
    and leaves it unchanged.

    The step is ``_log_step``, the integer rule of
    ``lognum.log_accumulate_raw`` done in place: no multiplier and no
    table.  With s in [-cap, P + cap] and p in [-(4 cap + P), P],
    max(s, p) lies in [-cap, P + cap], u = min(s, p) - max(s, p) in
    [-(2P + 5 cap), 0], u >> f between them, its shift count -(u >> f) in
    [0, ceil((2P + 5 cap) / 2**f)], and the mantissa and the correction in
    [0, 2**(f+1) - 1], at most cap.  The walk runs in the narrowest of
    int16, int32 and int64 that holds [-(2P + 5 cap), max(P + cap, that
    count)] (``_walk_range``).  The finished sums convert through one table
    of raw values over [-cap, P + cap], whose entry for -cap is 0, indexed
    by s + cap in [0, P + 2 cap], below 2P + 5 cap.
    """
    f = exp_frac_bits
    if f < lift_grid(x.qconfig, w.qconfig):
        raise ConfigError("exponent word cannot hold the grid step")
    n, o = x.shape[0], w.shape[1]
    cap = (f + 1) << f
    xe, x_lo, x_span = _level_span(x, f)
    we, w_lo, w_span = _level_span(w, f)
    p_max = x_span + w_span
    dtype = _walk_dtype(*_walk_range(p_max, f))
    empty = -cap
    x_zero = -(2 * cap + w_span)
    w_zero = -(2 * cap + x_span)

    xt, wt = x.table, w.table
    signed = bool(x.qconfig.signed and (x.present() & xt.nonzero & (xt.sign < 0)).any())
    # one exponent row per activation sign that occurs: positive, then negative
    x_tab = np.stack([np.where(xt.nonzero & (xt.sign == sign), xe - x_lo, x_zero)
                      for sign in ((1, -1) if signed else (1,))]).astype(dtype)

    # sums [0, o) take the positive terms, [o, 2o) the negative ones; "on"
    # terms come from positive activations, "off" terms from negative ones
    w_sign = np.where(wt.nonzero, wt.sign, 0)[w.data].T
    on = np.concatenate([w_sign > 0, w_sign < 0])
    off = np.concatenate([w_sign < 0, w_sign > 0])
    listed = on | off if signed else on
    steps = int(listed.sum(axis=1).max(initial=0))
    # each sum's listed k's in order, then unlisted ones as pads, whose
    # weight enters as a zero term; an "off" entry reads row k + K, the
    # negative activations' exponents
    order = np.argsort(~listed, axis=1, kind="stable")[:, :steps]
    ks = (order + x.shape[1] * np.take_along_axis(off & listed, order, axis=1)).T.copy()
    w_rel = np.where(listed, np.tile((we - w_lo)[w.data].T, (2, 1)), w_zero)
    # (steps, 2o, 1): each step's weight exponents
    w_step = np.take_along_axis(w_rel, order, axis=1).T.astype(dtype, order="C")[:, :, None]
    sums = np.empty((2 * o, n), dtype=dtype)
    rows = max(1, _LOG_BLOCK // max(2 * o, 1))
    for lo in range(0, n, rows):
        # the steps gather whole k rows of the block, so it is read k-major:
        # a view of im2col's k-major rows, a copy of an fc's row-major ones
        block = np.ascontiguousarray(x.data[lo:lo + rows].T)
        xs = np.take(x_tab, block, axis=1).reshape(-1, block.shape[1])
        s = np.full((2 * o, block.shape[1]), empty, dtype=dtype)
        p = np.empty_like(s)
        h = np.empty_like(s)
        for ti in range(steps):
            np.take(xs, ks[ti], axis=0, out=p, mode="clip")
            p += w_step[ti]
            _log_step(s, p, h, f)
        sums[:, lo:lo + rows] = s
    # every sum lies in [-cap, P + cap]; the empty one converts to 0
    table = _trunc_pow2_raw(np.arange(empty, p_max + cap + 1) + (x_lo + w_lo),
                            f, frac_bits)
    table[0] = 0.0
    sums -= empty
    planes = _check_out(np.take(table, sums), int_bits, frac_bits)
    if planes.size and planes.max() >= math.ldexp(1.0, _EXACT_RAW_BITS + 1):
        raise ConfigError("a converted log-domain sum exceeds the exact float64 range")
    return np.ascontiguousarray((planes[:o] - planes[o:]).T)


# ---------------------------------------------------------------------------
# the layer walker
# ---------------------------------------------------------------------------


def _real(a):
    """The float64 values of an activation or operand, coded or not."""
    return a.real() if isinstance(a, Tensor) else a


def _nchw(a):
    """A channel-last rank-4 activation, coded or not, as an NCHW view."""
    if isinstance(a, Tensor):
        return Tensor(a.data.transpose(0, 3, 1, 2), a.qconfig)
    return a.transpose(0, 3, 1, 2)


@dataclass(frozen=True)
class Arithmetic:
    """How inference's conv/fc products compute, on one accumulator word.

    ``int_bits``/``frac_bits`` size the word and ``accum`` selects linear
    or log-domain accumulation.  A coded operand is a log-coded ``Tensor``,
    read through its ``data`` and ``qconfig``; a real one is a float64
    array.  Every product with a coded operand runs its shift kernel on the
    word, whose raw values count units of its last fractional bit: coded
    activations against coded weights through ``method2_matmul`` (or
    ``method2_matmul_logaccum``), against real weights through
    ``method1_matmul``, and real inputs against coded weights through
    ``shifted_input_matmul``.  Training computes with ``exact_dot`` instead.
    """

    int_bits: int = 32
    frac_bits: int = 8
    accum: str = ACCUM_LINEAR

    def dot(self, x, w) -> np.ndarray:
        """x (n, k) times w (k, o); either is float64 or a log-coded ``Tensor``."""
        ib, fb = self.int_bits, self.frac_bits
        coded_x = isinstance(x, Tensor)
        coded_w = isinstance(w, Tensor)
        if coded_x and coded_w:
            kernel = method2_matmul_logaccum if self.accum == ACCUM_LOG else method2_matmul
            return np.ldexp(kernel(x, w, ib, fb), -fb)
        if coded_x:
            return np.ldexp(method1_matmul(x, w, ib, fb), -fb)
        if coded_w:
            return np.ldexp(shifted_input_matmul(x, w, ib, fb), -fb)
        return x @ w


def _dyadic(a, half: float = 1.5) -> np.ndarray:
    """A product operand's float64 values: a real array as it is, coded
    ones as the shift kernels read them, sign * 2**n on a whole step n and
    sign * half * 2**n on a half step n + 1/2 (``Tensor.real`` reads sqrt(2))."""
    if not isinstance(a, Tensor):
        return a
    t, fb = a.table, a.qconfig.base_frac_bits
    mant = np.where(t.esteps & fb, half, 1.0)
    return np.where(t.nonzero, t.sign * mant * np.ldexp(1.0, t.esteps >> fb), 0.0)[a.data]


def _dyadic_span(cfg: QuantizerConfig) -> tuple[int, int]:
    """(u, m): every value of a log config is an integer multiple of 2**u,
    at most m of them in magnitude."""
    t = code_table(cfg)
    fb = cfg.base_frac_bits
    levels = t.esteps[t.nonzero]
    lo, hi = int(levels.min()), int(levels.max())
    u = (lo >> fb) - fb
    return u, int(_pow2_steps(np.int64(hi), fb, -u))


def _check_exact_sum(cx: QuantizerConfig, cw: QuantizerConfig, k: int) -> None:
    """Refuse a product of two coded operands of ``k`` terms that float64
    might not sum exactly in every order.

    Each term is an integer multiple of 2**(ux + uw), at most mx * mw of
    them (``_dyadic_span``), so every partial sum is such a multiple below
    2**need, need = bits(mx * mw) + bits(k - 1).  float64 holds all of them
    when need <= 53 and every nonzero one is normal: 2**(ux + uw) at least
    the smallest normal number and 2**(ux + uw + need) at most 2**1024.
    """
    (ux, mx), (uw, mw) = _dyadic_span(cx), _dyadic_span(cw)
    need = (mx * mw).bit_length() + max(k - 1, 0).bit_length()
    lo = ux + uw
    if need > _F64.nmant + 1 or lo < _F64.minexp or lo + need > _F64.maxexp:
        raise ConfigError(
            f"{cx.bitwidth}-bit x {cw.bitwidth}-bit log codes over {k} terms need {need} "
            f"bits from 2**{lo}; float64 sums exactly only {_F64.nmant + 1} bits between "
            f"2**{_F64.minexp} and 2**{_F64.maxexp}")


def exact_dot(x, w) -> np.ndarray:
    """x (n, k) times w (k, o) as one float64 GEMM; either is float64 or a
    log-coded ``Tensor``, read by ``_dyadic``.  With both coded, the terms
    are the shift kernels', from exponent sums (half steps n + 1/2 and
    m + 1/2 give 2**(n + m + 1), not 2.25 * 2**(n + m)), summed exactly in
    any BLAS order; a pair of configs past ``_check_exact_sum`` raises
    ``ConfigError``."""
    if isinstance(x, Tensor) and isinstance(w, Tensor):
        _check_exact_sum(x.qconfig, w.qconfig, x.shape[1])
        if x.qconfig.base_frac_bits and w.qconfig.base_frac_bits:
            # x's whole steps a and half steps h read 2**n, stacked along k
            # against w's a' + 1.5 h' and 1.5 a' + 2 h'
            xa, wa = _dyadic(x, 0.0), _dyadic(w, 0.0)
            return (np.hstack([xa, _dyadic(x, 1.0) - xa])
                    @ np.vstack([_dyadic(w), _dyadic(w, 2.0) + wa / 2]))
    return _dyadic(x) @ _dyadic(w)


def walk(graph: ModelGraph, x: np.ndarray, weights: dict, quantize: bool,
         bn: dict[int, np.ndarray], arith,
         batch_stats: Optional[dict] = None, cache: Optional[dict] = None,
         capture: Optional[dict] = None):
    """Run every layer of ``graph`` on the float64 input ``x``.

    Returns the last layer's output.  A rank-4 ``x`` is NCHW; the walk
    transposes it to channel-last once on entry and a rank-4 output back to
    NCHW on exit.  An activation is a float64 array or, after a log
    quantizer, a coded ``Tensor``; im2col lowers its codes, and maxpool
    pools them (``_maxpool_codes``), without dequantizing it.

    * ``weights[i]``: conv/fc layer i's weight operand from
      ``weight_operands``.
    * ``quantize``: whether the quantizer layers apply their configs
      (``ModelGraph.act_config``); when False they pass their input through.
    * ``bn[i]``: batchnorm layer i's float64 (4, C) gamma/beta/mean/var
      rows, the layout of its stored payload.
    * ``arith``: every conv/fc product, a function of its (rows, k) input
      and its (k, o) weight operand: ``Arithmetic(...).dot`` for inference,
      ``exact_dot`` for training.
    * ``batch_stats``: when given, batchnorm normalizes with each batch's
      moments (``batchnorm_batch``) and records them here as
      {i: (mean, var)}.
    * ``cache``: when given, receives per layer what backward needs, in the
      channel-last layout; a conv/fc layer's entry holds its input rows
      (``"x"``) and its weight operand (``"w"``).
    * ``capture``: when given, receives the float64 input of each quantizer
      layer, keyed by layer index, NCHW when rank 4.

    Batchnorm and ReLU write in place into float activations the walk made
    itself (a product's, batchnorm's or maxpool's output, or dequantized
    codes), never into ``x`` or an array it captured.
    """
    act = np.ascontiguousarray(x.transpose(0, 2, 3, 1)) if x.ndim == 4 else x
    # the float activation batchnorm and ReLU must not write: x (or a view of
    # it) on entry, then the last one captured
    kept = act if np.may_share_memory(act, x) else None
    for i, layer in enumerate(graph.layers):
        kind = layer.kind
        if kind in (CONV, FC):
            # the left operand is (rows, k): a conv lowers with im2col (codes
            # pad with the zero code) and its rows are the output positions
            coded = isinstance(act, Tensor)
            a = act.data if coded else act
            if kind == CONV:
                rows, oh, ow = im2col_array(a, (layer.kernel,) * 2, layer.stride, layer.pad)
            else:
                # a channel-last input flattens in (C, H, W) order, the
                # column order of stored fc weights
                rows = (a.transpose(0, 3, 1, 2) if a.ndim == 4 else a).reshape(
                    a.shape[0], math.prod(a.shape[1:]))
            if coded:
                rows = Tensor(rows, act.qconfig)
            out = arith(rows, weights[i].T)
            if cache is not None:
                cache[i] = {"x": rows, "w": weights[i], "in_shape": a.shape}
            act = out.reshape(a.shape[0], oh, ow, layer.out_channels) if kind == CONV else out
        elif kind == RELU:
            v = _real(act)
            if cache is not None:
                cache[i] = {"mask": v > 0}
            act = relu_array(v, out=None if v is kept else v)
        elif kind == MAXPOOL:
            pool = _maxpool_codes if isinstance(act, Tensor) else maxpool_array
            pooled, idx = pool(act, layer.pool, layer.stride, cache is not None)
            if cache is not None:
                cache[i] = {"idx": idx, "in_shape": act.shape}
            act = pooled
        elif kind == BATCHNORM:
            v, p = _real(act), bn[i]
            if batch_stats is None:
                act = batchnorm_array(v, p, out=None if v is kept else v)
                continue
            act, xhat, mean, var = batchnorm_batch(v, p)
            batch_stats[i] = (mean, var)
            if cache is not None:
                cache[i] = {"xhat": xhat, "var": var}
        elif kind in (LOGQUANT, LINQUANT):
            v = _real(act)
            if capture is not None:
                capture[i] = _nchw(v) if v.ndim == 4 else v
                kept = v
            if quantize:
                act = quantize_operand(v, graph.act_config(layer))
        elif kind == SOFTMAX:
            act = softmax_array(_real(act))
        else:
            raise ConfigError(f"unknown layer kind {kind!r}")
    return _nchw(act) if len(act.shape) == 4 else act


def weight_operands(graph: ModelGraph, arrays: dict,
                    grid: Optional[int] = None) -> dict:
    """Each conv/fc layer's parameters ``arrays[i]`` as the (out, in) weight
    operand its products read: quantized by the layer's ``qconfig``, a log
    config moved to the grid of ``grid`` fractional bits when one is given,
    or the float64 values when the layer has none."""
    out = {}
    for i, w in arrays.items():
        w2 = w.reshape(w.shape[0], -1)
        cfg = graph.layers[i].qconfig
        if cfg is not None and grid is not None and cfg.kind == KIND_LOG:
            cfg = replace(cfg, base_frac_bits=grid)
        out[i] = w2 if cfg is None else quantize_operand(w2, cfg)
    return out


# the weight grid of each method2 mode; the other modes compute with real weights
_MODE_GRID = {MODE_METHOD2_BASE2: 0, MODE_METHOD2_SQRT2: 1}


def _stored_operands(graph: ModelGraph, mode: str) -> tuple[dict, dict]:
    """The weight operands (as ``mode`` computes with them) and batchnorm
    rows of a stored graph."""
    arrays, bn = {}, {}
    for i, layer in enumerate(graph.layers):
        if layer.kind in (CONV, FC):
            if mode in _MODE_GRID and layer.qconfig is None:
                raise ConfigError(
                    f"{layer.kind} layer needs a weight quantizer config for {mode}")
            w = graph.weight_array(i)
            arrays[i] = w.reshape(w.shape[0], -1)
        elif layer.kind == BATCHNORM:
            bn[i] = graph.weight_array(i)
    return (weight_operands(graph, arrays, _MODE_GRID[mode]) if mode in _MODE_GRID
            else arrays), bn


def _input(graph: ModelGraph, x: np.ndarray) -> np.ndarray:
    """Images as a walk of ``graph`` reads them: finite float32 values, held
    in float64, of a shape its every layer takes (``output_shapes``)."""
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=np.float32)
    if not np.isfinite(x).all():
        raise DomainError("images must hold finite float32 values")
    graph.output_shapes(x.shape)
    return x.astype(np.float64, order="C")


def forward(graph: ModelGraph, x: np.ndarray, mode: str = MODE_FLOAT,
            accum: str = ACCUM_LINEAR) -> np.ndarray:
    """Run the layer pipeline on images ``x`` and return float32 class scores.

    ``x`` is read as float32; a value not finite there raises ``DomainError``.
    ``float32`` bypasses every quantizer.
    ``method1`` consumes log-coded activations with real weights; the
    method2 modes quantize weights too (base 2 or sqrt(2)).  ``accum``
    selects linear or log-domain accumulation inside the quantized dot
    products, which run on the 32+8 word with an absolute binary point
    (``Arithmetic()``).  Scores that float32 cannot hold raise
    ``OverflowError``.
    """
    if mode not in FORWARD_MODES:
        raise ConfigError(f"unknown forward mode {mode!r}")
    if accum not in (ACCUM_LINEAR, ACCUM_LOG):
        raise ConfigError(f"unknown accumulation mode {accum!r}")
    if accum == ACCUM_LOG and mode in (MODE_FLOAT, MODE_METHOD1):
        raise ConfigError("log accumulation applies to the method2 modes")
    x = _input(graph, x)
    weights, bn = _stored_operands(graph, mode)
    out = _real(walk(graph, x, weights, mode != MODE_FLOAT, bn, Arithmetic(accum=accum).dot))
    with np.errstate(over="ignore"):
        scores = np.ascontiguousarray(out, dtype=np.float32)
    if not np.isfinite(scores).all():
        raise OverflowError(f"class scores overflow float32: largest |score| is "
                            f"{float(np.abs(out).max()):.6g}")
    return scores


def collect_quantizer_inputs(graph: ModelGraph, x: np.ndarray) -> dict[int, np.ndarray]:
    """Float forward capturing the activations entering each quantizer layer.

    Used for FSR calibration: reads (and refuses) ``x`` as ``forward``
    does and returns {layer index: float64 activations}.
    """
    captured: dict[int, np.ndarray] = {}
    weights, bn = _stored_operands(graph, MODE_FLOAT)
    walk(graph, _input(graph, x), weights, False, bn, Arithmetic().dot, capture=captured)
    return captured
