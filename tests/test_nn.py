"""Forward-pass and kernel tests for the layer graph."""

import numpy as np
import pytest

from lognet import AccumulatorOverflow, ConfigError, QuantizerConfig, Tensor
from lognet.lognum import dot_method2, logquant_array, LogCode, dequantize_array
from lognet import nn
from lognet.nn import (
    BatchNormParams,
    ModelGraph,
    QuantizedOperand,
    act_quant_layer,
    batchnorm_forward,
    conv,
    fc,
    forward,
    maxpool,
    method1_matmul,
    method2_matmul,
    method2_matmul_logaccum,
    relu,
    relu_layer,
    shifted_input_matmul,
)

ACT4 = QuantizerConfig("log", 4, False, 5)
W5 = QuantizerConfig("log", 5, True, 1)


def simple_graph(weights, layers, fsr=0):
    g = ModelGraph(layers=layers, fsr=fsr)
    for i, w in weights.items():
        g.weights[i] = Tensor.from_real(np.asarray(w))
    return g


# ---------------------------------------------------------------------------
# elementwise layers
# ---------------------------------------------------------------------------

def test_relu_examples():
    t = Tensor.from_real(np.array([-1.0, 2.0]))
    assert relu(t).data.tolist() == [0.0, 2.0]
    allneg = Tensor.from_real(-np.ones(4))
    assert (relu(allneg).data == 0).all()
    x = Tensor.from_real(np.array([-3.0, 0.5]))
    assert np.array_equal(relu(relu(x)).data, relu(x).data)


def test_maxpool_examples():
    const = Tensor.from_real(np.full((1, 1, 4, 4), 2.5))
    assert (maxpool(const, 2).data == 2.5).all()
    t = Tensor.from_real(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    assert maxpool(t, 2).data.item() == 4.0
    big = Tensor.from_real(np.zeros((2, 3, 8, 6)))
    assert maxpool(big, 2).shape == (2, 3, 4, 3)


def test_maxpool_keeps_codes():
    vals = np.array([0.0, 1.0, 4.0, 16.0]).reshape(1, 1, 2, 2)
    q = Tensor.from_real(vals)
    from lognet import quantize_tensor
    qt = quantize_tensor(q, ACT4)
    pooled = maxpool(qt, 2)
    assert pooled.is_quantized
    assert pooled.real().item() == 16.0


def test_batchnorm_examples():
    rng = np.random.default_rng(41)
    x = Tensor.from_real(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)))
    p = BatchNormParams.identity(4)
    out = batchnorm_forward(x, p, use_batch_stats=True).data.astype(np.float64)
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-6)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-3)

    zero_gamma = BatchNormParams(np.zeros(4), np.full(4, 0.75), np.zeros(4), np.ones(4))
    out2 = batchnorm_forward(x, zero_gamma).data
    assert np.allclose(out2, 0.75)

    # inference mode is a fixed affine map of the stored stats
    p3 = BatchNormParams(np.ones(4), np.zeros(4), np.full(4, 1.0), np.full(4, 4.0))
    out3 = batchnorm_forward(x, p3).data.astype(np.float64)
    want = (x.data.astype(np.float64) - 1.0) / np.sqrt(4.0 + nn.BN_EPS)
    assert np.allclose(out3, want, atol=1e-6)


# ---------------------------------------------------------------------------
# kernels against the scalar ops
# ---------------------------------------------------------------------------

def codes_from(vals, cfg):
    return logquant_array(np.asarray(vals, dtype=np.float64), cfg)


def test_method2_matmul_matches_scalar_dot():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n, k, o = rng.integers(1, 6), int(rng.integers(1, 24)), rng.integers(1, 5)
        x = rng.uniform(0, 40, size=(n, k))
        w = rng.normal(0, 1.5, size=(k, o))
        xc = codes_from(x, ACT4)
        wc = codes_from(w, W5)
        xo = QuantizedOperand(xc, ACT4, 0)
        wo = QuantizedOperand(wc, W5, 0)
        raw = method2_matmul(xo, wo)
        for i in range(n):
            for j in range(o):
                want = dot_method2(
                    [LogCode.from_wire(int(c), W5) for c in wc[:, j]],
                    [LogCode.from_wire(int(c), ACT4) for c in xc[i]],
                    W5, ACT4, "linear")
                assert raw[i, j] == want.raw


def _scalar_logaccum(xc, wc, cx, cw, i, j, int_bits=32, frac_bits=8, f=4):
    return dot_method2([LogCode.from_wire(int(c), cw) for c in wc[:, j]],
                       [LogCode.from_wire(int(c), cx) for c in xc[i]],
                       cw, cx, "log", int_bits, frac_bits, f).raw


def test_method2_logaccum_matches_scalar_dot():
    rng = np.random.default_rng(47)
    for _ in range(15):
        k = int(rng.integers(1, 16))
        x = rng.uniform(0, 40, size=(2, k))
        w = rng.normal(0, 1.5, size=(k, 3))
        xc, wc = codes_from(x, ACT4), codes_from(w, W5)
        raw = method2_matmul_logaccum(QuantizedOperand(xc, ACT4, 0),
                                      QuantizedOperand(wc, W5, 0))
        for i in range(2):
            for j in range(3):
                assert raw[i, j] == _scalar_logaccum(xc, wc, ACT4, W5, i, j)

    # long sums over terms spread across more octaves than the correction
    # reaches, signed activations, the sqrt2 grid (also lifted from base 2
    # activations), every exponent word from the grid step up, all-zero
    # rows and columns, and more rows than one block of the kernel
    act5s = QuantizerConfig("log", 5, True, 4)
    act4_sqrt2 = QuantizerConfig("log", 4, False, 5, 1)
    w5_sqrt2 = QuantizerConfig("log", 5, True, 1, 1)
    n, k, o = 1100, 48, 64
    rows = nn._LOG_BLOCK // (2 * o)
    assert n > 2 * rows
    for cx, cw in ((ACT4, W5), (act5s, W5), (act4_sqrt2, w5_sqrt2), (ACT4, w5_sqrt2)):
        sign = rng.choice([-1.0, 1.0], size=(n, k)) if cx.signed else 1.0
        x = sign * 2.0 ** rng.uniform(-12, 6, size=(n, k))
        x[rng.random((n, k)) < 0.3] = 0.0
        x[3] = 0.0
        x[:, 7] = 0.0
        w = rng.normal(0, 1.5, size=(k, o))
        w[:, 5] = 0.0
        xc, wc = codes_from(x, cx), codes_from(w, cw)
        fb = max(cx.base_frac_bits, cw.base_frac_bits)
        sample_i = [0, 3, rows - 1, rows, 2 * rows - 1, 2 * rows, n - 1,
                    *rng.integers(0, n, size=3)]
        sample_j = [0, 5, o - 1, int(rng.integers(0, o))]
        for f in (fb, 2, 5):
            raw = method2_matmul_logaccum(QuantizedOperand(xc, cx, fb),
                                          QuantizedOperand(wc, cw, fb),
                                          exp_frac_bits=f)
            assert (raw[3] == 0).all() and (raw[:, 5] == 0).all()
            for i in sample_i:
                for j in sample_j:
                    want = _scalar_logaccum(xc, wc, cx, cw, i, j, f=f)
                    assert raw[i, j] == want, (cx, cw, f, i, j)


def test_method2_logaccum_range_checks_each_sign_plane():
    # the planes cancel to 0, but each converts to 2048 = 2**(3+8) raw
    cx = QuantizerConfig("log", 4, False, 3)
    cw = QuantizerConfig("log", 5, True, 2)
    xc = codes_from([[4.0, 4.0]], cx)
    wc = codes_from([[2.0], [-2.0]], cw)
    with pytest.raises(AccumulatorOverflow):
        _scalar_logaccum(xc, wc, cx, cw, 0, 0, int_bits=3, frac_bits=8)
    with pytest.raises(AccumulatorOverflow):
        method2_matmul_logaccum(QuantizedOperand(xc, cx, 0),
                                QuantizedOperand(wc, cw, 0), 3, 8)


def test_method1_matmul_matches_scalar_dot():
    from lognet.lognum import dot_method1
    rng = np.random.default_rng(53)
    for _ in range(20):
        k = int(rng.integers(1, 24))
        x = rng.uniform(0, 40, size=(3, k))
        w = rng.normal(0, 2.0, size=(k, 2))
        xc = codes_from(x, ACT4)
        raw = method1_matmul(QuantizedOperand(xc, ACT4, 0), w)
        for i in range(3):
            for j in range(2):
                want = dot_method1(
                    [float(v) for v in w[:, j]],
                    [LogCode.from_wire(int(c), ACT4) for c in xc[i]],
                    ACT4)
                assert raw[i, j] == want.raw


def test_shifted_input_matmul_base2_and_sqrt2():
    rng = np.random.default_rng(59)
    x = rng.normal(0, 4.0, size=(4, 10))
    w = rng.normal(0, 1.0, size=(10, 3))
    for fb in (0, 1):
        cfg = QuantizerConfig("log", 5, True, 1, base_frac_bits=fb)
        wc = logquant_array(w, cfg)
        op = QuantizedOperand(wc, cfg, fb)
        raw = shifted_input_matmul(x, op)
        # reference weight factors use the same shift-add mantissa (1.5 for
        # half-step exponents); truncation then spans <= one raw unit per term
        mant = np.where((op.esteps & 1).astype(bool), 1.5, 1.0) if fb else 1.0
        w_factor = np.where(op.nonzero, op.sign * mant * np.ldexp(1.0, op.esteps >> fb), 0.0)
        approx = np.rint(np.ldexp(x, 8)) @ w_factor
        assert np.all(np.abs(raw - approx) <= x.shape[1])


# ---------------------------------------------------------------------------
# full forward passes
# ---------------------------------------------------------------------------

def test_identity_conv_float_mode():
    g = simple_graph(
        {0: np.eye(3).reshape(3, 3, 1, 1)},
        [conv(3, 3, 1)],
    )
    x = Tensor.from_real(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
    out = forward(g, x, "float32")
    assert np.allclose(out.data, x.data, atol=1e-6)


def test_single_fc_method2_unit_terms():
    # two weights at exponent 0 (+) and inputs dequantizing to 1 -> score 2
    g = simple_graph(
        {1: np.ones((1, 2))},
        [act_quant_layer("log", 4), fc(1, 2, wq=QuantizerConfig("log", 5, True, 2))],
        fsr=5,
    )
    x = Tensor.from_real(np.ones((1, 2)))
    out = forward(g, x, "method2_base2")
    assert out.data.item() == 2.0


def test_forward_method2_matches_float_on_dequantized():
    # single dot layer: the quantized output tracks the float product of the
    # dequantized operands within the accumulator truncation per term
    rng = np.random.default_rng(61)
    wq = QuantizerConfig("log", 5, True, 1)
    k = 48
    layers = [act_quant_layer("log", 4, fsr_offset=0), fc(5, k, wq=wq)]
    g = ModelGraph(layers=layers, fsr=4)
    g.weights[1] = Tensor.from_real(rng.normal(0, 0.3, size=(5, k)))
    x = Tensor.from_real(np.abs(rng.normal(0, 3, size=(16, k))))
    got = forward(g, x, "method2_base2").data.astype(np.float64)

    acfg = QuantizerConfig("log", 4, False, 4)
    xq = dequantize_array(logquant_array(x.real(), acfg), acfg)
    wq_vals = dequantize_array(logquant_array(g.weight_array(1), W5), W5)
    ref = xq @ wq_vals.T
    assert np.abs(got - ref).max() <= k * 2.0**-8


def test_forward_pipeline_matches_manual_kernel_walk():
    # multi-layer graph: forward() must agree exactly with composing the
    # public kernels by hand, including the unquantized first conv
    from lognet.tensor import im2col_array
    from dataclasses import replace as rep

    rng = np.random.default_rng(62)
    wq = QuantizerConfig("log", 5, True, 1)
    layers = [
        conv(4, 2, 3, pad=1, wq=wq),
        relu_layer(),
        act_quant_layer("log", 4, fsr_offset=2),
        conv(3, 4, 3, pad=1, wq=wq),
        relu_layer(),
        act_quant_layer("log", 4, fsr_offset=2),
        fc(5, 3 * 4 * 4, wq=wq),
    ]
    g = ModelGraph(layers=layers, fsr=2)
    g.weights[0] = Tensor.from_real(rng.normal(0, 0.5, size=(4, 2, 3, 3)))
    g.weights[3] = Tensor.from_real(rng.normal(0, 0.4, size=(3, 4, 3, 3)))
    g.weights[6] = Tensor.from_real(rng.normal(0, 0.3, size=(5, 48)))
    x = Tensor.from_real(np.abs(rng.normal(0, 2, size=(3, 2, 4, 4))))

    got = forward(g, x, "method2_base2").data.astype(np.float64)

    value = x.real()
    n = value.shape[0]
    # conv1 on real input: shifted-input kernel against the quantized weights
    w0 = logquant_array(g.weight_array(0).reshape(4, -1).T, wq)
    cols, oh, ow = im2col_array(value, (3, 3), 1, 1)
    raw = shifted_input_matmul(cols.T, QuantizedOperand(w0, wq, 0))
    value = np.ldexp(raw, -8).reshape(n, oh, ow, 4).transpose(0, 3, 1, 2)
    value = np.maximum(value, 0)
    acfg = rep(layers[2].qconfig, fsr=g.fsr + 2)
    codes = logquant_array(value, acfg)
    # conv2 on coded input
    w3 = logquant_array(g.weight_array(3).reshape(3, -1).T, wq)
    ccols, oh, ow = im2col_array(codes, (3, 3), 1, 1, fill=0)
    raw = method2_matmul(QuantizedOperand(ccols.T, acfg, 0), QuantizedOperand(w3, wq, 0))
    value = np.ldexp(raw, -8).reshape(n, oh, ow, 3).transpose(0, 3, 1, 2)
    value = np.maximum(value, 0)
    codes = logquant_array(value, acfg).reshape(n, -1)
    # final fc
    w6 = logquant_array(g.weight_array(6).T, wq)
    raw = method2_matmul(QuantizedOperand(codes, acfg, 0), QuantizedOperand(w6, wq, 0))
    want = np.ldexp(raw, -8)
    assert np.array_equal(got, want.astype(np.float32).astype(np.float64))


def test_zero_activation_annihilates_every_mode():
    wq = QuantizerConfig("log", 5, True, 3)
    layers = [act_quant_layer("log", 4), fc(2, 4, wq=wq)]
    g = ModelGraph(layers=layers, fsr=3)
    g.weights[1] = Tensor.from_real(np.array([[1.0, -2.0, 0.5, 4.0]] * 2))
    x = Tensor.from_real(np.zeros((2, 4)))
    for mode in ("method1", "method2_base2", "method2_sqrt2"):
        out = forward(g, x, mode)
        assert (out.data == 0).all()
    out = forward(g, x, "method2_base2", accum="log")
    assert (out.data == 0).all()


def test_log_accum_close_to_linear_accum():
    rng = np.random.default_rng(67)
    wq = QuantizerConfig("log", 5, True, 2)
    layers = [act_quant_layer("log", 4, fsr_offset=0), fc(3, 16, wq=wq)]
    g = ModelGraph(layers=layers, fsr=4)
    # non-negative weights keep each output on the single-accumulator path
    g.weights[1] = Tensor.from_real(np.abs(rng.normal(0, 1, size=(3, 16))))
    x = Tensor.from_real(np.abs(rng.normal(0, 4, size=(8, 16))))
    lin = forward(g, x, "method2_base2", accum="linear").data.astype(np.float64)
    log = forward(g, x, "method2_base2", accum="log").data.astype(np.float64)
    # per-step bound 0.15 in the exponent, compounded over the dot length
    ratio = np.ones_like(lin)
    mask = lin != 0
    ratio[mask] = log[mask] / lin[mask]
    assert (ratio > 0).all()
    assert np.abs(np.log2(ratio)).max() <= 0.15 * 16


def test_forward_mode_validation():
    g = ModelGraph(layers=[fc(1, 2)], fsr=0)
    g.weights[0] = Tensor.from_real(np.ones((1, 2)))
    x = Tensor.from_real(np.ones((1, 2)))
    with pytest.raises(ConfigError):
        forward(g, x, "method3")
    with pytest.raises(ConfigError):
        forward(g, x, "float32", accum="log")
    with pytest.raises(ConfigError):
        forward(g, x, "method2_base2")  # fc lacks a weight quantizer


def test_forward_shape_validation():
    g = ModelGraph(layers=[conv(2, 3, 3)], fsr=0)
    g.weights[0] = Tensor.from_real(np.zeros((2, 3, 3, 3)))
    with pytest.raises(ConfigError):
        forward(g, Tensor.from_real(np.zeros((1, 4, 6, 6))))
    g2 = ModelGraph(layers=[fc(2, 8)], fsr=0)
    with pytest.raises(ConfigError):
        forward(g2, Tensor.from_real(np.zeros((1, 8))))  # missing weights


def test_collect_quantizer_inputs():
    g = simple_graph(
        {0: np.ones((2, 2))},
        [fc(2, 2), relu_layer(), act_quant_layer("log", 4)],
    )
    x = Tensor.from_real(np.array([[1.0, -1.0], [2.0, 0.0]]))
    captured = nn.collect_quantizer_inputs(g, x)
    assert list(captured) == [2]
    assert np.allclose(captured[2], np.maximum(x.data.sum(axis=1, keepdims=True) @ np.ones((1, 2)), 0))
