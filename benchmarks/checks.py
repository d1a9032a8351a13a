"""Output checks, each against a result computed apart from the code checked.

* ``float_forward``: a float64 forward written here with numpy (its own
  convolution, pooling and batchnorm); float32 logits must lie within one
  float32 ulp of it.
* ``scalar_logits``: a layer walk built from the scalar dot products
  ``lognum.dot_method1``/``dot_method2`` and scalar ``lognum.logquant``;
  the first conv's real-input terms are ``lognum.bitshift`` on
  ``AccumulatorWord``s.  Quantized logits must equal it bit for bit.
* the calibrate checks use the mpmath/rational quantizers of
  ``tests/oracles.py``.

Every check returns an error message, or None when the output is right.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import replace

import numpy as np

import common
from lognet import lognum, nn
from lognet.lognum import (AccumulatorWord, LogCode, QuantizerConfig, bitshift,
                           dot_method1, dot_method2)

sys.path.insert(0, common.TESTS_DIR)
import oracles  # noqa: E402

FRAC_BITS = 8  # the 32+8 accumulator nn.forward uses
LSB = math.ldexp(1.0, -FRAC_BITS)


# ---------------------------------------------------------------------------
# float64 reference forward
# ---------------------------------------------------------------------------


def _windows(x: np.ndarray, k: int, stride: int, pad: int, fill: float):
    """Yield (i, j, strided slice) for every kernel offset, after padding."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=fill)
    for i in range(k):
        for j in range(k):
            yield i, j, xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]


def _bn(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The batchnorm formula of ``nn.batchnorm_array``, in the same op order."""
    gamma, beta, mean, var = params
    shape = (-1, 1, 1) if x.ndim == 3 else (-1,)
    xhat = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + nn.BN_EPS)
    return gamma.reshape(shape) * xhat + beta.reshape(shape)


def float_forward(graph: nn.ModelGraph, images: np.ndarray,
                  capture: dict | None = None) -> np.ndarray:
    """float64 logits with every quantizer bypassed.

    ``capture`` (optional) receives the activations entering each quantizer
    layer, keyed by layer index.
    """
    v = images.astype(np.float64)
    for i, layer in enumerate(graph.layers):
        if layer.kind == nn.CONV:
            w = graph.weight_array(i)
            out = 0.0
            for a, b, win in _windows(v, layer.kernel, layer.stride, layer.pad, 0.0):
                out = out + np.einsum("nchw,oc->nohw", win, w[:, :, a, b])
            v = out
        elif layer.kind == nn.FC:
            v = v.reshape(len(v), -1) @ graph.weight_array(i).T
        elif layer.kind == nn.BATCHNORM:
            v = np.stack([_bn(s, graph.weight_array(i)) for s in v])
        elif layer.kind == nn.RELU:
            v = np.maximum(v, 0.0)
        elif layer.kind == nn.MAXPOOL:
            v = np.max([win for _, _, win in _windows(v, layer.pool, layer.stride, 0,
                                                        0.0)], axis=0)
        elif layer.kind in (nn.LOGQUANT, nn.LINQUANT):
            if capture is not None:
                capture[i] = v.copy()
        elif layer.kind == nn.SOFTMAX:
            z = np.exp(v - v.max(axis=-1, keepdims=True))
            v = z / z.sum(axis=-1, keepdims=True)
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
    return v


def check_float_logits(got: np.ndarray, ref64: np.ndarray) -> str | None:
    """float32 logits within one float32 ulp of the float64 reference."""
    if got.shape != ref64.shape:
        return f"float32 logits have shape {got.shape}, expected {ref64.shape}"
    tol = np.spacing(np.abs(ref64).astype(np.float32)).astype(np.float64)
    err = np.abs(got.astype(np.float64) - ref64)
    bad = np.argwhere(err > tol)
    if bad.size:
        r, c = bad[0]
        return (f"float32 logit [{r},{c}] = {got[r, c]!r} is {err[r, c]:.3g} from the "
                f"float64 reference {ref64[r, c]!r} (tolerance {tol[r, c]:.3g})")
    return None


# ---------------------------------------------------------------------------
# scalar reference walk for the quantized modes
# ---------------------------------------------------------------------------


def _weight_config(layer: nn.LayerSpec, mode: str) -> QuantizerConfig:
    fb = 1 if mode == nn.MODE_METHOD2_SQRT2 else 0
    return replace(layer.qconfig, base_frac_bits=fb)


def _codes(values: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Scalar ``lognum.logquant`` of every value, as an object array of LogCodes."""
    out = np.empty(values.shape, dtype=object)
    for idx, x in np.ndenumerate(values):
        out[idx] = lognum.logquant(float(x), cfg)
    return out


def _dequant(codes: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    return np.vectorize(lambda c: lognum.dequantize(c, cfg), otypes=[float])(codes)


def _shifted_input_dot(x: list[float], w: list[LogCode], cfg: QuantizerConfig) -> AccumulatorWord:
    """Real inputs against log-coded weights: each term a bitshift of the input
    word; half-step exponents shift 3 * x by one less (x * 1.5, shift-add)."""
    acc = AccumulatorWord(0, 32, FRAC_BITS)
    for xi, ci in zip(x, w):
        if ci.is_zero:
            continue
        word = AccumulatorWord.from_value(xi, 32, FRAC_BITS)
        e = cfg.level_exponent(ci.code)
        n = math.floor(e)
        if e == n:
            term = bitshift(word, n)
        else:
            term = bitshift(AccumulatorWord(3 * word.raw, 32, FRAC_BITS), n - 1)
        acc = acc.add(term.negate() if ci.sign < 0 else term)
    return acc


def scalar_logits(graph: nn.ModelGraph, image: np.ndarray, mode: str,
                  accum: str = "linear", weight_codes: dict | None = None) -> np.ndarray:
    """float32 logits of one (C, H, W) image, walked with scalar arithmetic.

    ``weight_codes`` caches the scalar weight codes between calls.
    """
    weight_codes = {} if weight_codes is None else weight_codes
    v = image.astype(np.float64)
    codes = None  # LogCodes of v when v was just log-quantized
    qcfg = None
    for i, layer in enumerate(graph.layers):
        kind = layer.kind
        if kind in (nn.CONV, nn.FC):
            w = graph.weight_array(i)
            wcfg = _weight_config(layer, mode) if mode.startswith("method2") else None
            wcodes = None
            if wcfg is not None:
                if (i, wcfg) not in weight_codes:
                    weight_codes[i, wcfg] = _codes(w, wcfg)
                wcodes = weight_codes[i, wcfg]
            if kind == nn.CONV:
                k, s, p = layer.kernel, layer.stride, layer.pad
                c, h, wd = v.shape
                oh, ow = (h + 2 * p - k) // s + 1, (wd + 2 * p - k) // s + 1
                vp = np.pad(v, ((0, 0), (p, p), (p, p)))
                cp = None
                if codes is not None:
                    cp = np.full(vp.shape, LogCode.zero(), dtype=object)
                    cp[:, p:p + h, p:p + wd] = codes
                out = np.empty((layer.out_channels, oh, ow))
                for y in range(oh):
                    for x in range(ow):
                        win = (slice(None), slice(y * s, y * s + k), slice(x * s, x * s + k))
                        xv = vp[win].ravel()
                        xc = cp[win].ravel() if cp is not None else None
                        for o in range(layer.out_channels):
                            out[o, y, x] = _dot(xv, xc, qcfg, w[o].ravel(),
                                                None if wcodes is None else wcodes[o].ravel(),
                                                wcfg, mode, accum)
            else:
                xv = v.ravel()
                xc = codes.ravel() if codes is not None else None
                out = np.array([_dot(xv, xc, qcfg, w[o], None if wcodes is None
                                     else wcodes[o], wcfg, mode, accum)
                                for o in range(layer.out_features)])
            v, codes, qcfg = out, None, None
        elif kind == nn.BATCHNORM:
            v, codes, qcfg = _bn(v, graph.weight_array(i)), None, None
        elif kind == nn.RELU:
            v, codes, qcfg = np.maximum(v, 0.0), None, None
        elif kind == nn.LOGQUANT:
            qcfg = replace(layer.qconfig, fsr=graph.fsr + layer.fsr_offset)
            codes = _codes(v, qcfg)
            v = _dequant(codes, qcfg)
        elif kind == nn.MAXPOOL:
            k, s = layer.pool, layer.stride
            c, h, wd = v.shape
            oh, ow = (h - k) // s + 1, (wd - k) // s + 1
            pv = np.empty((c, oh, ow))
            pc = np.empty((c, oh, ow), dtype=object) if codes is not None else None
            for ch in range(c):
                for y in range(oh):
                    for x in range(ow):
                        win = v[ch, y * s:y * s + k, x * s:x * s + k].ravel()
                        best = int(np.argmax(win))  # first maximum, as in scan order
                        pv[ch, y, x] = win[best]
                        if pc is not None:
                            pc[ch, y, x] = codes[ch, y * s:y * s + k, x * s:x * s + k].ravel()[best]
            v, codes = pv, pc
        else:
            raise ValueError(f"the scalar walk does not handle {kind!r} layers")
    return v.astype(np.float32)


def _dot(xv, xc, xcfg, w, wc, wcfg, mode, accum) -> float:
    if xc is None:  # real input: the first layer
        if mode == nn.MODE_METHOD1:
            return math.fsum(float(a) * float(b) for a, b in zip(xv, w))
        return _shifted_input_dot([float(a) for a in xv], list(wc), wcfg).value
    if mode == nn.MODE_METHOD1:
        return dot_method1([float(a) for a in w], list(xc), xcfg, 32, FRAC_BITS).value
    return dot_method2(list(wc), list(xc), wcfg, xcfg, accum, 32, FRAC_BITS).value


def check_quantized_logits(got: np.ndarray, ref: np.ndarray, label: str) -> str | None:
    """Bit-for-bit equality with the scalar walk."""
    if got.shape != ref.shape:
        return f"{label}: logits have shape {got.shape}, expected {ref.shape}"
    bad = np.argwhere(got.view(np.uint32) != ref.view(np.uint32))
    if bad.size:
        r, c = bad[0]
        return (f"{label}: logit [{r},{c}] = {got[r, c]!r}, the scalar walk gives "
                f"{ref[r, c]!r} ({len(bad)} of {ref.size} differ)")
    return None


def check_top1(scores: np.ndarray, labels: np.ndarray, floor: float,
               label: str) -> str | None:
    acc = float((scores.argmax(axis=1) == labels).mean())
    if not acc >= floor:
        return f"{label}: top-1 {acc:.4f} is below {floor}"
    return None


# ---------------------------------------------------------------------------
# training checks
# ---------------------------------------------------------------------------


def check_losses(history: list[dict], label: str) -> str | None:
    """Every epoch's mean loss is finite and the last is below the first."""
    losses = [row["loss"] for row in history]
    if not all(math.isfinite(x) for x in losses):
        return f"{label}: non-finite loss in {losses}"
    if not losses[-1] < losses[0]:
        return f"{label}: loss did not fall ({losses})"
    return None


def check_checkpoint_weights(params: dict, graph: nn.ModelGraph) -> str | None:
    """float32 weights read back equal the master weights rounded to float32."""
    for i, w in params.items():
        got = graph.weights[i].data
        want = w.astype(np.float32)
        if got.shape != want.shape or (got.view(np.uint32) != want.view(np.uint32)).any():
            return f"layer {i}: checkpoint weights differ from float32(master weights)"
    return None


def check_same_predictions(trainer_logits: np.ndarray, inferred: np.ndarray) -> str | None:
    """The checkpoint reproduces its trainer's per-image predictions."""
    a, b = trainer_logits.argmax(axis=1), inferred.argmax(axis=1)
    if (a != b).any():
        return (f"argmax differs on {int((a != b).sum())} of {len(a)} images; "
                f"max |dlogit| {float(np.abs(trainer_logits - inferred).max()):.4g}")
    return None


# ---------------------------------------------------------------------------
# calibrate checks
# ---------------------------------------------------------------------------


def check_report_argmin(report_csv: str, calibrated: nn.ModelGraph) -> str | None:
    """Each layer's chosen fsr is its report's argmin, ties to the smaller fsr."""
    rows: dict[int, list[tuple[int, float, int]]] = {}
    with open(report_csv, newline="") as f:
        for rec in csv.DictReader(f):
            rows.setdefault(int(rec["layer"]), []).append(
                (int(rec["fsr"]), float(rec["l1_error"]), int(rec["chosen"])))
    quant_layers = [i for i, l in enumerate(calibrated.layers)
                    if l.kind in (nn.LOGQUANT, nn.LINQUANT)]
    if sorted(rows) != quant_layers:
        return f"report covers layers {sorted(rows)}, the model has {quant_layers}"
    for i, recs in rows.items():
        best = min(recs, key=lambda r: (r[1], r[0]))[0]
        flagged = [r[0] for r in recs if r[2]]
        used = calibrated.fsr + calibrated.layers[i].fsr_offset
        if flagged != [best] or used != best:
            return (f"layer {i}: argmin fsr {best}, report marks {flagged}, "
                    f"model uses {used}")
    return None


def oracle_quant_sample(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """``tests/oracles.py`` quantized values of x under cfg."""
    if cfg.kind == lognum.KIND_LOG:
        return np.array([oracles.logquant_ref(float(v), cfg.bitwidth, cfg.signed, cfg.fsr,
                                              cfg.base_frac_bits, cfg.rounding)[1]
                         for v in x])
    return np.array([oracles.linquant_ref(float(v), cfg.bitwidth, cfg.signed, cfg.fsr)[1]
                     for v in x])


def check_quantizer_sample(x: np.ndarray, got: np.ndarray, cfg: QuantizerConfig,
                           label: str) -> str | None:
    """The library's quantized values ``got`` of x equal the oracle's exactly."""
    want = oracle_quant_sample(x, cfg)
    bad = np.flatnonzero(got != want)
    if bad.size:
        j = bad[0]
        return (f"{label}: {cfg.kind} quantizer maps {x[j]!r} to {got[j]!r}, "
                f"the oracle gives {want[j]!r}")
    return None


def library_quant(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Quantized values of x by the library's array quantizers."""
    quant = lognum.logquant_array if cfg.kind == lognum.KIND_LOG else lognum.linquant_array
    return lognum.dequantize_array(quant(x, cfg), cfg)


def packed_oracle(float_graph: nn.ModelGraph, packed: nn.ModelGraph) -> dict[int, np.ndarray]:
    """Oracle value of every weight under the config its packed layer records."""
    out = {}
    for i, layer in enumerate(packed.layers):
        if layer.kind in (nn.CONV, nn.FC):
            w = float_graph.weight_array(i)
            out[i] = oracle_quant_sample(w.ravel(), layer.qconfig).reshape(w.shape)
    return out


def check_packed(packed: nn.ModelGraph, want: dict[int, np.ndarray]) -> str | None:
    """Every packed weight dequantizes to its oracle value."""
    for i, ref in want.items():
        t = packed.weights[i]
        if not t.is_quantized:
            return f"layer {i}: weights were not packed"
        got = lognum.dequantize_array(t.data, t.qconfig)
        bad = np.argwhere(got != ref)
        if bad.size:
            return (f"layer {i}: packed weight {tuple(bad[0])} dequantizes to "
                    f"{got[tuple(bad[0])]!r}, the oracle gives {ref[tuple(bad[0])]!r}")
    return None
