"""Layer kernels and the quantized forward pass.

Convolutions are lowered with im2col and computed by one of these kernels:

* a plain float64 matmul (reference path, also used for unquantized inputs),
* shift-weights: real weights held as fixed-point words, each term a single
  bitshift by the activation's exponent,
* exponent-sum: both operands log-coded, term exponents are integer adds
  and each term is a shifted power of two,
* exponent-sum with log-domain accumulation: the same terms folded into
  running log-domain sums, one per sign.

The quantized kernels reproduce the scalar fixed-point semantics bit for
bit: term magnitudes are truncated to the accumulator's fractional
precision before summation.  The linear-accumulation kernels vectorize by
decomposing one operand into its (at most 2**bitwidth) exponent levels, one
masked matmul per level, so all arithmetic stays on integers below 2**53
where float64 is exact.  Log-domain accumulation is order dependent, so its
kernel walks the index sequentially, vectorized over every output and both
signs at once, with each step one table lookup on int64 exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .lognum import (
    KIND_LINEAR,
    KIND_LOG,
    AccumulatorOverflow,
    ConfigError,
    DomainError,
    QuantizerConfig,
    dequantize_array,
    exponents_array,
    linquant_array,
    log_accumulate_raw,
    logquant_array,
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
# could push raw accumulator values past this
_EXACT_RAW_BITS = 52


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


def softmax_layer() -> LayerSpec:
    return LayerSpec(SOFTMAX)


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

    def _check_weight_shape(self, i: int, want: tuple[int, ...]) -> None:
        if i not in self.weights:
            raise ConfigError(f"layer {i} is missing its weight tensor")
        got = self.weights[i].shape
        if tuple(got) != want:
            raise ConfigError(f"layer {i}: weight shape {got} != expected {want}")


# ---------------------------------------------------------------------------
# elementwise layers
# ---------------------------------------------------------------------------


def relu(t: Tensor) -> Tensor:
    """Elementwise max(0, x) on a real tensor."""
    if t.is_quantized:
        raise DomainError("relu operates on real tensors")
    return Tensor.from_real(np.maximum(t.data, 0))


def relu_array(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def maxpool_array(x: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-window max; also returns flat argmax indices for gradient routing.

    Ties break to the first index in window scan order.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, stride, 0)
    ow = conv_output_size(w, k, stride, 0)
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].reshape(n, c, oh, ow, k * k)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return out, idx


def maxpool(t: Tensor, k: int, stride: int = 0) -> Tensor:
    stride = stride or k
    if t.is_quantized:
        # codes order like their values, so pooling the dequantized view and
        # gathering codes keeps the payload quantized
        vals = t.real()
        _, idx = maxpool_array(vals, k, stride)
        win = _code_windows(t.data, k, stride)
        codes = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        return Tensor.from_codes(codes, t.qconfig)
    out, _ = maxpool_array(t.data.astype(np.float64), k, stride)
    return Tensor.from_real(out)


def _code_windows(codes: np.ndarray, k: int, stride: int) -> np.ndarray:
    n, c, h, w = codes.shape
    oh = conv_output_size(h, k, stride, 0)
    ow = conv_output_size(w, k, stride, 0)
    win = np.lib.stride_tricks.sliding_window_view(codes, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride].reshape(n, c, oh, ow, k * k)


@dataclass(frozen=True)
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    @staticmethod
    def identity(channels: int) -> "BatchNormParams":
        return BatchNormParams(np.ones(channels), np.zeros(channels),
                               np.zeros(channels), np.ones(channels))

    @staticmethod
    def from_array(a: np.ndarray) -> "BatchNormParams":
        return BatchNormParams(a[0].copy(), a[1].copy(), a[2].copy(), a[3].copy())

    def to_array(self) -> np.ndarray:
        return np.stack([self.gamma, self.beta, self.mean, self.var]).astype(np.float64)


def batchnorm_array(x: np.ndarray, p: BatchNormParams,
                    use_batch_stats: bool = False) -> np.ndarray:
    """Per-channel normalization in real arithmetic.

    Channel axis is 1 for rank-4 activations and the last axis for rank-2.
    """
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    if use_batch_stats:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
    else:
        mean, var = p.mean, p.var
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    xhat = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + BN_EPS)
    return p.gamma.reshape(shape) * xhat + p.beta.reshape(shape)


def batchnorm_forward(t: Tensor, params: BatchNormParams,
                      use_batch_stats: bool = False) -> Tensor:
    if t.is_quantized:
        raise DomainError("batchnorm operates on real tensors")
    return Tensor.from_real(batchnorm_array(t.data.astype(np.float64), params,
                                            use_batch_stats))


def softmax_array(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# quantized matmul kernels
# ---------------------------------------------------------------------------


def _trunc_pow2_raw(p_steps: np.ndarray, fb: int, frac_bits: int) -> np.ndarray:
    """floor(2**(p_steps * 2**-fb) * 2**frac_bits) as exact float64 integers."""
    pf = p_steps >> fb
    if fb:
        mant = np.where((p_steps & 1).astype(bool), 1.5, 1.0)
    else:
        mant = np.ones(p_steps.shape)
    return np.floor(np.ldexp(mant, pf + frac_bits))


def _check_exact_range(max_term_bits: int, n_terms: int,
                       int_bits: int, frac_bits: int) -> None:
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


def _check_out(out_raw: np.ndarray, int_bits: int, frac_bits: int) -> np.ndarray:
    if out_raw.size and np.abs(out_raw).max() >= math.ldexp(1.0, int_bits + frac_bits):
        raise AccumulatorOverflow(
            f"accumulated value exceeds the {int_bits}+{frac_bits} bit word"
        )
    return out_raw


class QuantizedOperand:
    """Sign/exponent decomposition of a wire-code array, grid-aligned.

    ``bias_steps`` subtracts a fixed exponent (in lifted grid steps) from
    every level, letting a caller hold the accumulator's binary point
    relative to the operands' full scale instead of at an absolute
    position; the caller rescales the raw result by the same amount.
    """

    def __init__(self, codes: np.ndarray, cfg: QuantizerConfig, lift_fb: int,
                 bias_steps: int = 0):
        if cfg.kind != KIND_LOG:
            raise ConfigError("quantized matmul operands must be log codes")
        sign, esteps, nonzero = exponents_array(codes, cfg)
        self.sign = sign.astype(np.int64)
        self.esteps = (esteps.astype(np.int64) << (lift_fb - cfg.base_frac_bits)) - bias_steps
        self.nonzero = nonzero
        self.fb = lift_fb
        # one step above the top representable level, after the bias
        self.max_exp = cfg.fsr - math.ldexp(bias_steps, -lift_fb)

    @property
    def signed_levels(self) -> np.ndarray:
        return np.unique(self.esteps[self.nonzero])


def lift_grid(cfg_a: QuantizerConfig, cfg_b: QuantizerConfig) -> int:
    return max(cfg_a.base_frac_bits, cfg_b.base_frac_bits)


def method2_matmul(x: QuantizedOperand, w: QuantizedOperand,
                   int_bits: int = 32, frac_bits: int = 8) -> np.ndarray:
    """Raw accumulator values of x @ w with both operands log-coded.

    x has shape (n, k), w has shape (k, o).  Terms whose exponent sum
    clears -frac_bits are exact powers of two, so every x level that cannot
    truncate against any w level folds into a single matmul; only the
    lowest levels (and the half-step grid, whose 1.5 mantissa does not
    factor) take the per-level masked path.
    """
    n, k = x.esteps.shape
    o = w.esteps.shape[1]
    _check_exact_range(
        max_term_bits=int(math.ceil(x.max_exp + w.max_exp)) + frac_bits + 1,
        n_terms=k, int_bits=int_bits, frac_bits=frac_bits)
    out = np.zeros((n, o))
    levels = x.signed_levels
    if x.fb == 0 and levels.size:
        w_low = int(w.esteps[w.nonzero].min()) if w.nonzero.any() else 0
        cut = -frac_bits - w_low  # x levels at or above never truncate
        high = x.nonzero & (x.esteps >= cut)
        if high.any():
            vx = np.where(high, x.sign * np.ldexp(1.0, x.esteps + frac_bits), 0.0)
            vw = np.where(w.nonzero, w.sign * np.ldexp(1.0, w.esteps), 0.0)
            out += vx @ vw
        levels = levels[levels < cut]
    wmag = np.where(w.nonzero, w.sign, 0)
    for e in levels:
        ind = np.where((x.esteps == e) & x.nonzero, x.sign, 0).astype(np.float64)
        t = _trunc_pow2_raw(w.esteps + e, x.fb, frac_bits)
        out += ind @ (wmag * t)
    return _check_out(out, int_bits, frac_bits)


def method1_matmul(x: QuantizedOperand, w_real: np.ndarray,
                   int_bits: int = 32, frac_bits: int = 8) -> np.ndarray:
    """Raw accumulator values with real weights and log-coded activations.

    Each term is a bitshift of the fixed-point weight word by the
    activation exponent, truncating toward minus infinity like a two's
    complement shifter.
    """
    if x.fb != 0:
        raise ConfigError("integer shifts require the base-2 exponent grid")
    if (x.sign[x.nonzero] < 0).any():
        raise ConfigError("activation codes must be unsigned")
    n, k = x.esteps.shape
    w_raw = np.rint(np.ldexp(w_real, frac_bits))
    wbits = int(np.abs(w_raw).max()) if w_raw.size else 0
    _check_exact_range(
        max_term_bits=wbits.bit_length() + max(int(x.max_exp), 0),
        n_terms=k, int_bits=int_bits, frac_bits=frac_bits)
    out = np.zeros((n, w_real.shape[1]))
    levels = x.signed_levels
    high = x.nonzero & (x.esteps >= 0)  # left shifts never truncate
    if high.any():
        out += np.where(high, np.ldexp(1.0, x.esteps), 0.0) @ w_raw
        levels = levels[levels < 0]
    for e in levels:
        ind = ((x.esteps == e) & x.nonzero).astype(np.float64)
        out += ind @ np.floor(np.ldexp(w_raw, int(e)))
    return _check_out(out, int_bits, frac_bits)


def shifted_input_matmul(x_real: np.ndarray, w: QuantizedOperand,
                         int_bits: int = 32, frac_bits: int = 8) -> np.ndarray:
    """Raw accumulator values of real inputs against log-coded weights.

    The mirror of ``method1_matmul``: the real operand is the shifted
    fixed-point word, the weight code supplies shift amount and sign (signs
    apply after truncation, as a hardware negate would).  Half-step weight
    exponents multiply by 1.5 via shift-add before the final truncation.
    """
    n, k = x_real.shape
    x_raw = np.rint(np.ldexp(x_real, frac_bits))
    xbits = int(np.abs(x_raw).max()) if x_raw.size else 0
    _check_exact_range(
        max_term_bits=xbits.bit_length() + max(int(math.ceil(w.max_exp)), 0) + 1,
        n_terms=k, int_bits=int_bits, frac_bits=frac_bits)
    out = np.zeros((n, w.esteps.shape[1]))
    for e in w.signed_levels:
        ind = np.where((w.esteps == e) & w.nonzero, w.sign, 0).astype(np.float64)
        pf = int(e) >> w.fb
        mant = 1.5 if w.fb and (int(e) & 1) else 1.0
        out += np.floor(np.ldexp(x_raw * mant, pf)) @ ind
    return _check_out(out, int_bits, frac_bits)


def _trunc_halfexp_raw(s_raw: np.ndarray, f: int, frac_bits: int) -> np.ndarray:
    """Raw accumulator value of 2**s for fixed-point exponents s (vectorized)."""
    pf = s_raw >> f
    mant = ((1 << f) + (s_raw & ((1 << f) - 1))).astype(np.float64)
    return np.floor(np.ldexp(mant, (pf + frac_bits - f).astype(np.int64)))


# Exponent of a log-domain running sum before its first term, and of a
# zero-coded term.  They lie far enough apart, and below every real exponent,
# that the step's correction vanishes between any two of them; a sum of two
# still fits int64.
_LOG_EMPTY = -(1 << 50)
_LOG_ZERO = -(1 << 60)
_LOG_BLOCK = 1 << 16  # running-sum elements per row block: three arrays fit L2


def _sign_planes(op: QuantizedOperand, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw term exponents of the positive and the negative codes, zero-filled."""
    e = op.esteps << shift
    return (np.where(op.nonzero & (op.sign > 0), e, _LOG_ZERO),
            np.where(op.nonzero & (op.sign < 0), e, _LOG_ZERO))


def method2_matmul_logaccum(x: QuantizedOperand, w: QuantizedOperand,
                            int_bits: int = 32, frac_bits: int = 8,
                            exp_frac_bits: int = 4) -> np.ndarray:
    """Like ``method2_matmul`` but accumulating in the log domain.

    Keeps two running log-domain sums per output (one per term sign),
    updated sequentially in index order k = 0, 1, ... as
    ``lognum.dot_method2(..., "log")`` does, and converts both to linear at
    the end; each converted sum is range-checked against the accumulator
    word, as the scalar walk checks it.  An empty sum is 0.

    Both sums live side by side in one (n, 2o) int64 array, walked in row
    blocks.  A sum starts at a sentinel far below any real exponent, and
    zero-coded terms enter at a lower one, so the first real term replaces
    the sentinel and a zero term changes nothing, with no masks.  The step
    ``max(s, p) + corr(|s - p|)`` is one lookup in a table that one call of
    ``lognum.log_accumulate_raw`` fills for every difference up to
    (f+1) * 2**f raw, f being ``exp_frac_bits``; ``corr`` is 0 beyond it.
    """
    f = exp_frac_bits
    if f < x.fb:
        raise ConfigError("exponent word cannot hold the grid step")
    n, k = x.esteps.shape
    o = w.esteps.shape[1]
    shift = f - x.fb
    # g[t + cap] = step(t, 0) + cap = max(t, 0) + corr(|t|) + cap, so with
    # q = p - cap, step(s, p) = q + g[s - q].  corr(cap) = 0, so a clipped
    # index is still exact: t = s - p < -cap gives p, and t > cap gives
    # p + cap < s, which the max with s discards.
    cap = (f + 1) << f
    t = np.arange(-cap, cap + 1)
    g = log_accumulate_raw(t, np.zeros_like(t), f) + cap
    xp, xn = _sign_planes(x, shift)
    wp, wn = _sign_planes(w, shift)
    # columns [0, o) sum the positive terms, [o, 2o) the negative ones;
    # q = x + w2 is the term exponent p - cap
    w2 = np.concatenate([wp, wn], axis=1) - cap
    signed = bool((x.sign[x.nonzero] < 0).any())
    if signed:
        w2_mirror = np.concatenate([wn, wp], axis=1) - cap
        xnT = np.ascontiguousarray(xn.T)
    xpT = np.ascontiguousarray(xp.T)
    s_all = np.full((n, 2 * o), _LOG_EMPTY, dtype=np.int64)
    rows = max(1, _LOG_BLOCK // max(2 * o, 1))
    for lo in range(0, n, rows):
        s = s_all[lo:lo + rows]
        q = np.empty_like(s)
        h = np.empty_like(s)
        for ki in range(k):
            np.add(xpT[ki, lo:lo + rows, None], w2[ki], out=q)
            if signed:
                np.maximum(q, xnT[ki, lo:lo + rows, None] + w2_mirror[ki], out=q)
            np.subtract(s, q, out=h)
            np.take(g, h, mode="clip", out=h)
            h += q
            np.maximum(s, h, out=s)
    planes = _check_out(_trunc_halfexp_raw(s_all, f, frac_bits), int_bits, frac_bits)
    return planes[:, :o] - planes[:, o:]


# ---------------------------------------------------------------------------
# the forward pass
# ---------------------------------------------------------------------------


def _mode_weight_config(layer: LayerSpec, mode: str) -> QuantizerConfig:
    if layer.qconfig is None:
        raise ConfigError(
            f"{layer.kind} layer needs a weight quantizer config for {mode}")
    if layer.qconfig.kind == KIND_LINEAR:
        return layer.qconfig
    fb = 1 if mode == MODE_METHOD2_SQRT2 else 0
    return replace(layer.qconfig, base_frac_bits=fb)


def _resolved_act_config(layer: LayerSpec, global_fsr: int) -> QuantizerConfig:
    return replace(layer.qconfig, fsr=global_fsr + layer.fsr_offset)


def forward(graph: ModelGraph, x: Tensor, mode: str = MODE_FLOAT,
            accum: str = ACCUM_LINEAR, int_bits: int = 32,
            frac_bits: int = 8) -> Tensor:
    """Run the layer pipeline and return class scores.

    ``float32`` bypasses every quantizer.  ``method1`` consumes log-coded
    activations with real weights; the method2 modes quantize weights too
    (base 2 or sqrt(2)).  ``accum`` selects linear or log-domain
    accumulation inside the quantized dot products.
    """
    if mode not in FORWARD_MODES:
        raise ConfigError(f"unknown forward mode {mode!r}")
    if accum not in (ACCUM_LINEAR, ACCUM_LOG):
        raise ConfigError(f"unknown accumulation mode {accum!r}")
    if accum == ACCUM_LOG and mode in (MODE_FLOAT, MODE_METHOD1):
        raise ConfigError("log accumulation applies to the method2 modes")
    graph.output_shapes(x.shape)

    value = x.real()
    codes: Optional[np.ndarray] = None
    qcfg: Optional[QuantizerConfig] = None

    for i, layer in enumerate(graph.layers):
        kind = layer.kind
        if kind == RELU:
            value, codes, qcfg = relu_array(value), None, None
        elif kind == SOFTMAX:
            value, codes, qcfg = softmax_array(value), None, None
        elif kind == MAXPOOL:
            pooled, idx = maxpool_array(value, layer.pool, layer.stride)
            if codes is not None:
                win = _code_windows(codes, layer.pool, layer.stride)
                codes = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
            value = pooled
        elif kind == BATCHNORM:
            params = BatchNormParams.from_array(graph.weight_array(i))
            value, codes, qcfg = batchnorm_array(value, params), None, None
        elif kind in (LOGQUANT, LINQUANT):
            if mode == MODE_FLOAT:
                continue
            cfg = _resolved_act_config(layer, graph.fsr)
            if kind == LINQUANT:
                wire = linquant_array(value, cfg)
                value = dequantize_array(wire, cfg)
                codes, qcfg = None, None  # linear codes do not feed shift kernels
            else:
                codes = logquant_array(value, cfg)
                qcfg = cfg
                value = dequantize_array(codes, cfg)
        elif kind in (CONV, FC):
            value, codes, qcfg = _dot_layer(graph, i, layer, value, codes, qcfg,
                                            mode, accum, int_bits, frac_bits)
        else:
            raise ConfigError(f"unknown layer kind {kind!r}")
    return Tensor.from_real(value)


def _dot_layer(graph, i, layer, value, codes, qcfg, mode, accum, int_bits, frac_bits):
    if layer.kind == CONV:
        n = value.shape[0]
        if codes is not None:
            cols, oh, ow = im2col_array(codes, (layer.kernel,) * 2, layer.stride,
                                        layer.pad, fill=0)
        else:
            cols, oh, ow = im2col_array(value, (layer.kernel,) * 2, layer.stride,
                                        layer.pad, fill=0.0)
        w = graph.weight_array(i).reshape(layer.out_channels, -1).T  # (k, o)
        out2d = _dot_dispatch(graph, layer, cols.T, codes is not None, qcfg, w,
                              mode, accum, int_bits, frac_bits)
        out = out2d.reshape(n, oh, ow, layer.out_channels).transpose(0, 3, 1, 2)
    else:
        flat = value.reshape(value.shape[0], -1)
        wire = codes.reshape(codes.shape[0], -1) if codes is not None else None
        w = graph.weight_array(i).T  # (in, out)
        out = _dot_dispatch(graph, layer, wire if wire is not None else flat,
                            codes is not None, qcfg, w, mode, accum,
                            int_bits, frac_bits)
    return out, None, None


def _dot_dispatch(graph, layer, x2d, x_is_coded, qcfg, w_real, mode, accum,
                  int_bits, frac_bits):
    """x2d: (n, k) codes or reals; w_real: (k, o) float64.  Returns float64."""
    if mode == MODE_FLOAT:
        return x2d @ w_real
    if mode == MODE_METHOD1:
        if not x_is_coded:  # nothing quantized ahead of this layer yet
            return x2d @ w_real
        xo = QuantizedOperand(x2d, qcfg, lift_fb=0)
        return np.ldexp(method1_matmul(xo, w_real, int_bits, frac_bits), -frac_bits)

    # method2 modes quantize the weights as well
    wcfg = _mode_weight_config(layer, mode)
    if wcfg.kind == KIND_LINEAR:
        # linear weight reference: values quantize but dots need multipliers,
        # so coded activations fall back to the shift-weights kernel
        wq = dequantize_array(linquant_array(w_real, wcfg), wcfg)
        if not x_is_coded:
            return x2d @ wq
        xo = QuantizedOperand(x2d, qcfg, lift_fb=0)
        return np.ldexp(method1_matmul(xo, wq, int_bits, frac_bits), -frac_bits)

    w_codes = logquant_array(w_real, wcfg)
    if not x_is_coded:
        wo = QuantizedOperand(w_codes, wcfg, lift_fb=wcfg.base_frac_bits)
        raw = shifted_input_matmul(x2d, wo, int_bits, frac_bits)
        return np.ldexp(raw, -frac_bits)
    fb = lift_grid(qcfg, wcfg)
    xo = QuantizedOperand(x2d, qcfg, lift_fb=fb)
    wo = QuantizedOperand(w_codes, wcfg, lift_fb=fb)
    if accum == ACCUM_LOG:
        raw = method2_matmul_logaccum(xo, wo, int_bits, frac_bits)
    else:
        raw = method2_matmul(xo, wo, int_bits, frac_bits)
    return np.ldexp(raw, -frac_bits)


def collect_quantizer_inputs(graph: ModelGraph, x: Tensor) -> dict[int, np.ndarray]:
    """Float forward capturing the activations entering each quantizer layer.

    Used for FSR calibration: returns {layer index: float64 activations}.
    """
    value = x.real()
    captured: dict[int, np.ndarray] = {}
    for i, layer in enumerate(graph.layers):
        kind = layer.kind
        if kind == RELU:
            value = relu_array(value)
        elif kind == SOFTMAX:
            value = softmax_array(value)
        elif kind == MAXPOOL:
            value, _ = maxpool_array(value, layer.pool, layer.stride)
        elif kind == BATCHNORM:
            value = batchnorm_array(value, BatchNormParams.from_array(graph.weight_array(i)))
        elif kind in (LOGQUANT, LINQUANT):
            captured[i] = value.copy()
        elif kind == CONV:
            cols, oh, ow = im2col_array(value, (layer.kernel,) * 2, layer.stride,
                                        layer.pad, fill=0.0)
            w = graph.weight_array(i).reshape(layer.out_channels, -1)
            value = (w @ cols).reshape(layer.out_channels, value.shape[0], oh, ow)
            value = value.transpose(1, 0, 2, 3)
        elif kind == FC:
            value = value.reshape(value.shape[0], -1) @ graph.weight_array(i).T
    return captured
