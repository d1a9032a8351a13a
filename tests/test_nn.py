"""Forward-pass and kernel tests for the layer graph."""

import numpy as np
import pytest

from lognet import AccumulatorOverflow, ConfigError, QuantizerConfig, Tensor
from lognet.lognum import (AccumulatorWord, bitshift, code_table, dot_method2, logquant_array,
                           LogCode, dequantize_array, log_accumulate_raw)
from lognet import nn
from lognet.nn import (
    Arithmetic,
    BatchNormParams,
    ModelGraph,
    QuantizedOperand,
    act_quant_layer,
    batchnorm_array,
    batchnorm_layer,
    conv,
    fc,
    forward,
    maxpool_array,
    maxpool_layer,
    method1_matmul,
    method2_matmul,
    method2_matmul_logaccum,
    relu_array,
    relu_layer,
    shifted_input_matmul,
    walk,
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
    assert relu_array(np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]
    assert (relu_array(-np.ones(4)) == 0).all()
    x = np.array([-3.0, 0.5])
    assert np.array_equal(relu_array(relu_array(x)), relu_array(x))


def test_maxpool_examples():
    const = np.full((1, 1, 4, 4), 2.5)
    assert (maxpool_array(const, 2, 2)[0] == 2.5).all()
    t = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out, idx = maxpool_array(t, 2, 2)
    assert out.item() == 4.0 and idx.item() == 3
    assert maxpool_array(np.zeros((2, 3, 8, 6)), 2, 2)[0].shape == (2, 3, 4, 3)
    # ties break to the first index in window scan order
    assert maxpool_array(np.zeros((1, 1, 2, 2)), 2, 2)[1].item() == 0

    # without the argmax, the running max keeps the same values bit for
    # bit, the first of tied +0 and -0 included
    rng = np.random.default_rng(43)
    x = rng.choice([-0.0, 0.0, -1.0, 0.5, 2.0], size=(3, 2, 9, 11))
    x[0, 0, :2, :4] = [[-0.0, 0.0, 0.0, -0.0], [-1.0, -0.0, -1.0, 0.0]]
    for k, stride, h, w in ((2, 2, 8, 10), (2, 1, 9, 11), (3, 2, 9, 11)):
        xs = x[:, :, :h, :w]
        for a in (xs, xs.astype(np.float32), (xs * 2 + 2).astype(np.uint8)):
            out, idx = maxpool_array(a, k, stride, argmax=False)
            want = maxpool_array(a, k, stride)[0]
            assert idx is None and out.dtype == a.dtype
            assert np.array_equal(out.view(np.uint8), want.view(np.uint8)), (k, stride, a.dtype)


def test_maxpool_keeps_codes():
    # the walker pools a quantized activation by its codes and keeps them
    vals = np.array([0.0, 1.0, 4.0, 16.0, 2.0, 8.0, 1.0, 0.5, 0.0]).reshape(1, 1, 3, 3)
    g = ModelGraph(layers=[act_quant_layer("log", 4), maxpool_layer(2, 1)], fsr=5)
    assert g.act_config(g.layers[0]) == ACT4
    pooled = walk(g, vals, {}, g.act_config, {}, Arithmetic())
    assert isinstance(pooled, QuantizedOperand) and pooled.cfg == ACT4
    assert np.array_equal(pooled.codes, codes_from([[[[16.0, 8.0], [16.0, 8.0]]]], ACT4))
    assert np.array_equal(pooled.values, [[[[16.0, 8.0], [16.0, 8.0]]]])

    # signed codes pool as their values would: windows of negatives, zeros
    # and positives, with ties kept at the first index
    windows = [[-4, -1, -2, -0.5], [-2, 0, -1, 0], [1, -8, 2, 2],
               [0, 0, 0, 0], [-8, 0.5, 0, -0.25], [0.25, 8, -8, 8]]
    vals = np.array(windows, dtype=np.float64).reshape(2, 3, 2, 2)
    vals = vals.transpose(0, 2, 1, 3).reshape(1, 1, 4, 6)
    s4 = QuantizerConfig("log", 4, True, 4)
    g = ModelGraph(layers=[nn.LayerSpec(nn.LOGQUANT, qconfig=QuantizerConfig("log", 4, True, 0)),
                           maxpool_layer(2)], fsr=4)
    cache: dict = {}
    pooled = walk(g, vals, {}, g.act_config, {}, Arithmetic(), cache=cache)
    want, want_idx = maxpool_array(dequantize_array(logquant_array(vals, s4), s4), 2, 2)
    assert want_idx.ravel().tolist() == [3, 1, 2, 0, 1, 1]
    assert pooled.cfg == s4 and np.array_equal(pooled.codes, logquant_array(want, s4))
    assert np.array_equal(pooled.values, want)
    assert np.array_equal(cache[1]["idx"], want_idx)
    # the walk without a cache pools without the argmax, to the same codes
    uncached = walk(g, vals, {}, g.act_config, {}, Arithmetic())
    assert np.array_equal(uncached.codes, pooled.codes)


def test_batchnorm_examples():
    rng = np.random.default_rng(41)
    x = rng.normal(3.0, 2.0, size=(8, 4, 5, 5))
    identity = BatchNormParams(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
    # with batch statistics, the walker normalizes each channel of the batch
    # and reports the moments it used
    g = ModelGraph(layers=[batchnorm_layer(4)])
    stats: dict = {}
    out = walk(g, x, {}, None, {0: identity}, Arithmetic(), batch_stats=stats)
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-6)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-3)
    assert np.array_equal(stats[0][0], x.mean(axis=(0, 2, 3)))
    assert np.array_equal(stats[0][1], x.var(axis=(0, 2, 3)))

    zero_gamma = BatchNormParams(np.zeros(4), np.full(4, 0.75), np.zeros(4), np.ones(4))
    assert np.allclose(batchnorm_array(x, zero_gamma), 0.75)

    # inference mode is a fixed affine map of the stored stats
    p3 = BatchNormParams(np.ones(4), np.zeros(4), np.full(4, 1.0), np.full(4, 4.0))
    want = (x - 1.0) / np.sqrt(4.0 + nn.BN_EPS)
    assert np.allclose(batchnorm_array(x, p3), want, atol=1e-6)
    assert np.allclose(walk(g, x, {}, None, {0: p3}, Arithmetic()), want, atol=1e-6)


def test_batchnorm_is_its_expression_bit_for_bit():
    # one buffer, the same operations in the same order as the expression
    rng = np.random.default_rng(71)
    c = 5
    p = BatchNormParams(rng.normal(1.0, 0.5, c), rng.normal(0.0, 1.0, c),
                        rng.normal(0.0, 1.0, c), rng.uniform(0.0, 4.0, c))
    p.var[0] = 0.0
    for shape, bshape in (((37, c), (1, -1)), ((6, c, 7, 3), (1, -1, 1, 1))):
        x = rng.normal(2.0, 3.0, size=shape)
        x_in = x.copy()
        mean, var = p.mean.reshape(bshape), p.var.reshape(bshape)
        xhat = (x - mean) / np.sqrt(var + nn.BN_EPS)
        want = p.gamma.reshape(bshape) * xhat + p.beta.reshape(bshape)
        assert nn.bn_normalize(x, p.mean, p.var).tobytes() == xhat.tobytes()
        assert batchnorm_array(x, p).tobytes() == want.tobytes()
        assert x.tobytes() == x_in.tobytes()


# ---------------------------------------------------------------------------
# kernels against the scalar ops
# ---------------------------------------------------------------------------

def codes_from(vals, cfg):
    return logquant_array(np.asarray(vals, dtype=np.float64), cfg)


def _block_elems(dtype):
    """Elements of ``dtype`` in one of ``_code_table_matmul``'s blocks."""
    return nn._TABLE_BLOCK // np.dtype(dtype).itemsize


def _run_recording_dtype(kernel, *args):
    """``kernel(*args)`` and the float type it chose to sum in."""
    seen = []
    choose = nn._sum_dtype
    nn._sum_dtype = lambda *a: seen.append(choose(*a)) or seen[-1]
    try:
        out = kernel(*args)
    finally:
        nn._sum_dtype = choose
    assert len(seen) == 1
    return out, seen[0]


def test_sum_dtype_rule():
    # float32 while every partial sum stays below 2**24 and every nonzero
    # factor is a normal float32 number; float64 otherwise
    tiny, top = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)
    assert nn._sum_dtype(23) is np.float32
    assert nn._sum_dtype(24) is np.float64
    ok = np.array([0.0, -tiny, 1.5, -top, 2.0 ** 100])
    assert nn._sum_dtype(23, ok, np.ones(3)) is np.float32
    assert nn._sum_dtype(24, ok) is np.float64
    for bad in (tiny / 2, 2.0 ** -150, 2.0 ** 128, 1.0 + 2.0 ** -30):
        assert nn._sum_dtype(23, ok, np.array([-1.0, bad])) is np.float64, bad

    # through a kernel: method1 over k = 2 at the activation's full scale 1
    # needs one bit more than its largest weight word
    cx = QuantizerConfig("log", 4, False, 0)
    xc = codes_from([[0.5, 0.25], [0.125, 0.5], [0.0, 2.0 ** -14]], cx)
    for word_bits, want in ((22, np.float32), (23, np.float64)):
        top_w = (2.0 ** word_bits - 1) / 2 ** 8
        w = np.array([[top_w, -3.0], [1.5, -top_w]])
        raw, dtype = _run_recording_dtype(method1_matmul, QuantizedOperand(xc, cx, 0), w)
        assert dtype is want
        for i in range(3):
            for j in range(2):
                assert raw[i, j] == _scalar_method1(xc, w, cx, i, j)


# operand layouts the kernels meet: C-ordered, and the Fortran-ordered views
# of transposed operands (``weights[i].T`` in the walk, ``QuantizedOperand.T``
# in the backward products)
LAYOUTS = (np.ascontiguousarray, lambda a: np.ascontiguousarray(a.T).T)


def _scalar_linear(xc, wc, cx, cw, i, j, int_bits=32, frac_bits=8):
    return dot_method2([LogCode.from_wire(int(c), cw) for c in wc[:, j]],
                       [LogCode.from_wire(int(c), cx) for c in xc[i]],
                       cw, cx, "linear", int_bits, frac_bits).raw


def _code_classes(xo, wo, frac_bits):
    """Counts of the x levels that are exact, dead and truncating (base 2)."""
    lv = np.unique(xo.esteps[xo.nonzero])
    w_lo, w_hi = wo.esteps[wo.nonzero].min(), wo.esteps[wo.nonzero].max()
    dead = lv + w_hi + frac_bits < 0
    exact = lv + w_lo + frac_bits >= 0
    return int(exact.sum()), int(dead.sum()), int((~dead & ~exact).sum())


def test_method2_matmul_matches_scalar_dot():
    for laid in LAYOUTS:
        _check_method2_matmul(laid)


def _check_method2_matmul(laid):
    rng = np.random.default_rng(43)
    for _ in range(30):
        n, k, o = rng.integers(1, 6), int(rng.integers(1, 24)), rng.integers(1, 5)
        x = rng.uniform(0, 40, size=(n, k))
        w = rng.normal(0, 1.5, size=(k, o))
        xc = codes_from(x, ACT4)
        wc = codes_from(w, W5)
        xo = QuantizedOperand(laid(xc), ACT4, 0)
        wo = QuantizedOperand(laid(wc), W5, 0)
        raw = method2_matmul(xo, wo)
        for i in range(n):
            for j in range(o):
                assert raw[i, j] == _scalar_linear(xc, wc, ACT4, W5, i, j)

    # the code classes of the kernel: activations over more octaves than the
    # weights span, so one call has exact, dead and truncating codes; signed
    # activations (the gradient operand of training); the sqrt2 grid, also
    # lifted from base 2 activations; the trainer's 24+28 word, also with
    # its block bias, whose oracle is the scalar dot of the same codes under
    # fsr-zeroed configs; all-zero rows and columns, and all-zero weights
    from dataclasses import replace as rep
    act5s = QuantizerConfig("log", 5, True, 2)
    act4_sqrt2 = QuantizerConfig("log", 4, False, 5, 1)
    w5_sqrt2 = QuantizerConfig("log", 5, True, 1, 1)
    n, k, o = 40, 30, 6
    for cx, cw in ((ACT4, W5), (act5s, W5), (act4_sqrt2, w5_sqrt2), (ACT4, w5_sqrt2)):
        sign = rng.choice([-1.0, 1.0], size=(n, k)) if cx.signed else 1.0
        x = sign * 2.0 ** rng.uniform(cx.fsr - 16, cx.fsr, size=(n, k))
        x[rng.random((n, k)) < 0.2] = 0.0
        x[3] = 0.0
        x[:, 7] = 0.0
        w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(-3, 0.5, size=(k, o))
        w[:, 2] = 0.0
        xc, wc = codes_from(x, cx), codes_from(w, cw)
        fb = max(cx.base_frac_bits, cw.base_frac_bits)
        cases = [(0, 0, cx, cw, 32, 8), (0, 0, cx, cw, 24, 28), (0, 0, cx, cw, 32, 3),
                 (cx.fsr << fb, cw.fsr << fb, rep(cx, fsr=0), rep(cw, fsr=0), 24, 28)]
        for bx, bw, ocx, ocw, ib, frac in cases:
            xo, wo = QuantizedOperand(laid(xc), cx, fb, bx), QuantizedOperand(laid(wc), cw, fb, bw)
            if fb == 0 and (bx, frac) == (0, 8):
                assert min(_code_classes(xo, wo, frac)) > 0
            raw = method2_matmul(xo, wo, ib, frac)
            assert (raw[3] == 0).all() and (raw[:, 2] == 0).all()
            for i in (0, 3, n - 1, *rng.integers(0, n, size=4)):
                for j in range(o):
                    want = _scalar_linear(xc, wc, ocx, ocw, i, j, ib, frac)
                    assert raw[i, j] == want, (cx, cw, bx, frac, i, j)
        zero_w = QuantizedOperand(laid(np.zeros_like(wc)), cw, fb)
        assert (method2_matmul(QuantizedOperand(laid(xc), cx, fb), zero_w) == 0).all()

    # 14 truncating codes against 40 outputs need more than one k block of
    # term tables and several row blocks of the one-hot matrix
    cx = QuantizerConfig("log", 6, False, 5)
    cw = QuantizerConfig("log", 5, True, 3)
    n, k, o, frac = 100, 300, 40, 28
    x = 2.0 ** rng.uniform(-58, 5, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(-12, 3, size=(k, o))
    xc, wc = codes_from(x, cx), codes_from(w, cw)
    xo, wo = QuantizedOperand(laid(xc), cx, 0), QuantizedOperand(laid(wc), cw, 0)
    n_exact, n_dead, n_trunc = _code_classes(xo, wo, frac)
    assert min(n_exact, n_dead) > 0 and n_trunc == 14
    k_step = _block_elems(np.float64) // (n_trunc * o)
    assert k > k_step and n > 2 * (_block_elems(np.float64) // (k_step * n_trunc))
    raw, dtype = _run_recording_dtype(method2_matmul, xo, wo, 24, frac)
    assert dtype is np.float64
    for i in (0, 39, 40, 41, n - 1, *rng.integers(0, n, size=2)):
        for j in (0, o - 1, int(rng.integers(0, o))):
            assert raw[i, j] == _scalar_linear(xc, wc, cx, cw, i, j, 24, frac)

    # the same blocking in float32: the 32+8 word and full scales 2**5 and
    # 2**0 put every partial sum over k = 300 below 2**23, and weights over
    # 11 octaves leave 2 exact and 10 truncating activation codes
    cw = QuantizerConfig("log", 5, True, 0)
    n, k, o, frac = 100, 300, 48, 8
    x = 2.0 ** rng.uniform(-58, 5, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(-11, 0, size=(k, o))
    xc, wc = codes_from(x, cx), codes_from(w, cw)
    xo, wo = QuantizedOperand(laid(xc), cx, 0), QuantizedOperand(laid(wc), cw, 0)
    n_exact, n_dead, n_trunc = _code_classes(xo, wo, frac)
    assert (n_exact, n_trunc) == (2, 10) and n_dead > 0
    k_step = _block_elems(np.float32) // (n_trunc * o)
    assert k > k_step and n > 2 * (_block_elems(np.float32) // (k_step * n_trunc))
    raw, dtype = _run_recording_dtype(method2_matmul, xo, wo, 32, frac)
    assert dtype is np.float32 and raw.dtype == np.float64
    for i in (0, 47, 48, 49, 96, n - 1, *rng.integers(0, n, size=2)):
        for j in (0, o - 1, int(rng.integers(0, o))):
            assert raw[i, j] == _scalar_linear(xc, wc, cx, cw, i, j, 32, frac)


def test_method2_matmul_sums_out_of_float32_range_factors_in_float64():
    # sums far below 2**24, but the exact class's per-code factors reach
    # 2**147 and the weights' 2**-139 and below: float32 cannot hold either
    cx = QuantizerConfig("log", 4, False, 140)
    cw = QuantizerConfig("log", 5, True, -138)
    rng = np.random.default_rng(61)
    n, k, o = 6, 8, 3
    x = 2.0 ** rng.uniform(124, 140, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(-143, -138, size=(k, o))
    xc, wc = codes_from(x, cx), codes_from(w, cw)
    xo, wo = QuantizedOperand(xc, cx, 0), QuantizedOperand(wc, cw, 0)
    assert min(_code_classes(xo, wo, 8)) > 0
    raw, dtype = _run_recording_dtype(method2_matmul, xo, wo)
    assert dtype is np.float64 and (raw != 0).any()
    for i in range(n):
        for j in range(o):
            assert raw[i, j] == _scalar_linear(xc, wc, cx, cw, i, j)


def _scalar_logaccum(xc, wc, cx, cw, i, j, int_bits=32, frac_bits=8, f=4):
    return dot_method2([LogCode.from_wire(int(c), cw) for c in wc[:, j]],
                       [LogCode.from_wire(int(c), cx) for c in xc[i]],
                       cw, cx, "log", int_bits, frac_bits, f).raw


def _check_logaccum(xc, wc, cx, cw, f=4, rows=None, cols=None, int_bits=32, frac_bits=8,
                    laid=np.ascontiguousarray):
    fb = max(cx.base_frac_bits, cw.base_frac_bits)
    raw = method2_matmul_logaccum(QuantizedOperand(laid(xc), cx, fb),
                                  QuantizedOperand(laid(wc), cw, fb),
                                  int_bits, frac_bits, exp_frac_bits=f)
    assert raw.shape == (xc.shape[0], wc.shape[1])
    for i in range(xc.shape[0]) if rows is None else rows:
        for j in range(wc.shape[1]) if cols is None else cols:
            want = _scalar_logaccum(xc, wc, cx, cw, i, j, int_bits, frac_bits, f)
            assert raw[i, j] == want, (cx, cw, f, i, j)
    return raw


def test_method2_logaccum_matches_scalar_dot():
    for laid in LAYOUTS:
        _check_method2_logaccum(laid)


def _check_method2_logaccum(laid):
    rng = np.random.default_rng(47)
    for _ in range(15):
        k = int(rng.integers(1, 16))
        x = rng.uniform(0, 40, size=(2, k))
        w = rng.normal(0, 1.5, size=(k, 3))
        _check_logaccum(codes_from(x, ACT4), codes_from(w, W5), ACT4, W5, laid=laid)

    # long sums over terms spread across more octaves than the correction
    # reaches, signed activations, the sqrt2 grid (also lifted from base 2
    # activations), every exponent word from the grid step up, all-zero
    # rows and columns, and rows over more than three blocks of the kernel
    # (a block holds _LOG_BLOCK running sums, 2o per row), sampled at every
    # block edge
    act5s = QuantizerConfig("log", 5, True, 4)
    act4_sqrt2 = QuantizerConfig("log", 4, False, 5, 1)
    w5_sqrt2 = QuantizerConfig("log", 5, True, 1, 1)
    n, k, o = 1600, 48, 64
    rows = nn._LOG_BLOCK // (2 * o)
    assert n > 3 * rows
    edges = [i for b in range(1, n // rows + 1) for i in (b * rows - 1, b * rows) if i < n]
    for cx, cw in ((ACT4, W5), (act5s, W5), (act4_sqrt2, w5_sqrt2), (ACT4, w5_sqrt2)):
        sign = rng.choice([-1.0, 1.0], size=(n, k)) if cx.signed else 1.0
        x = sign * 2.0 ** rng.uniform(-12, 6, size=(n, k))
        x[rng.random((n, k)) < 0.3] = 0.0
        x[3] = 0.0
        x[:, 7] = 0.0
        w = rng.normal(0, 1.5, size=(k, o))
        w[:, 5] = 0.0
        xc, wc = codes_from(x, cx), codes_from(w, cw)
        sample_i = [0, 3, *edges, n - 1, *rng.integers(0, n, size=3)]
        sample_j = [0, 5, o - 1, int(rng.integers(0, o))]
        fb = max(cx.base_frac_bits, cw.base_frac_bits)
        for f in (fb, 2, 5):
            raw = _check_logaccum(xc, wc, cx, cw, f, sample_i, sample_j, laid=laid)
            assert (raw[3] == 0).all() and (raw[:, 5] == 0).all()


def test_method2_logaccum_per_sign_lists():
    # each running sum walks only the k's whose terms it can receive: weight
    # columns that are all positive, all negative or all zero leave one or
    # both lists empty, and one positive weight at the last k makes a list of
    # length 1 next to lists of length k
    rng = np.random.default_rng(53)
    act5s = QuantizerConfig("log", 5, True, 4)
    for cx in (ACT4, act5s):
        for k in (1, 2, 23):
            n = 7
            x = 2.0 ** rng.uniform(-8, 5, size=(n, k))
            if cx.signed:
                x *= rng.choice([-1.0, 1.0], size=(n, k))
            x[rng.random((n, k)) < 0.2] = 0.0
            w = np.stack([2.0 ** rng.uniform(-10, 0, size=k),
                          -(2.0 ** rng.uniform(-10, 0, size=k)),
                          np.zeros(k),
                          np.r_[np.zeros(k - 1), 0.5],
                          -np.r_[0.25, np.zeros(k - 1)],
                          rng.normal(0, 1.5, size=k)], axis=1)
            raw = _check_logaccum(codes_from(x, cx), codes_from(w, W5), cx, W5)
            assert (raw[:, 2] == 0).all()
            if not cx.signed:
                assert (raw[:, 0] >= 0).all() and (raw[:, 1] <= 0).all()

    # a sum whose only term sits at both operands' lowest level: the empty
    # sum must lie far enough below it that the step returns the term itself
    x = np.full((2, 3), 2.0 ** (ACT4.fsr - ACT4.num_codes + 1))
    w = np.zeros((3, 2))
    w[0, 0] = 2.0 ** (W5.fsr - W5.num_codes + 1)
    w[2, 1] = -w[0, 0]
    for f in (0, 4, 8):
        raw = _check_logaccum(codes_from(x, ACT4), codes_from(w, W5), ACT4, W5, f,
                              int_bits=16, frac_bits=30)
        assert raw[0, 0] == 2 ** (30 - 24) and raw[0, 1] == -(2 ** (30 - 24))


def test_method2_logaccum_wide_exponent_words():
    # 8-bit operands covering their whole level span at exp_frac_bits 8 and
    # 10: relative term exponents reach (254 + 126) * 2**f raw, more than an
    # int16 holds, so the walk needs a wider integer type
    cx = QuantizerConfig("log", 8, False, 6)
    cw = QuantizerConfig("log", 8, True, 2)
    span_x, span_w = cx.num_codes - 2, cw.num_codes - 2
    assert (span_x, span_w) == (254, 126)
    rng = np.random.default_rng(59)
    n, k, o = 6, 40, 5
    x = 2.0 ** rng.uniform(cx.fsr - cx.num_codes, cx.fsr, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(
        cw.fsr - cw.num_codes, cw.fsr, size=(k, o))
    x[:, 0] = 2.0 ** (cx.fsr - cx.num_codes + 1)
    x[:, 1] = 2.0 ** (cx.fsr - 1)
    w[0] = 2.0 ** (cw.fsr - cw.num_codes + 1)
    w[1] = -(2.0 ** (cw.fsr - 1))
    xc, wc = codes_from(x, cx), codes_from(w, cw)
    # both operands reach their lowest and highest levels
    assert {1, cx.max_code} <= set(np.unique(xc).tolist())
    assert {1, cw.num_codes + cw.max_code} <= set(np.unique(wc).tolist())
    for f in (8, 10):
        assert (span_x + span_w) << f > np.iinfo(np.int16).max
        _check_logaccum(xc, wc, cx, cw, f)
    # signed activations over the same spans
    xs = np.where(rng.random((n, k)) < 0.5, -x, x)
    for f in (8, 10):
        _check_logaccum(codes_from(xs, cw), wc, cw, cw, f)


def test_log_step_bounds_behind_the_walk_dtype():
    # what the kernel's sentinels and integer type rest on: with
    # cap = (f+1) * 2**f, corr(d) = 0 for d >= cap, d + corr(d) <= cap below
    # it, and the step is non-decreasing (in s; p is symmetric)
    for f in range(11):
        cap = (f + 1) << f
        d = np.arange(2 * cap)
        corr = log_accumulate_raw(d, np.zeros_like(d), f) - d
        assert (corr[cap:] == 0).all()
        assert (d[:cap + 1] + corr[:cap + 1] <= cap).all()
        t = np.arange(-2 * cap, 2 * cap)
        assert (np.diff(log_accumulate_raw(t, np.zeros_like(t), f)) >= 0).all()


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


def test_method2_logaccum_refuses_planes_past_exact_float64():
    # the positive plane converts to 2**58 raw and the negative one to 1; the
    # float64 difference of the two would round to 2**58
    cx = QuantizerConfig("log", 7, False, 52)
    cw = QuantizerConfig("log", 5, True, 2)
    xc = codes_from([[2.0 ** 50, 2.0 ** -8]], cx)
    wc = codes_from([[1.0], [-1.0]], cw)
    assert _scalar_logaccum(xc, wc, cx, cw, 0, 0, 60, 8) == 2 ** 58 - 1
    xo, wo = QuantizedOperand(xc, cx, 0), QuantizedOperand(wc, cw, 0)
    with pytest.raises(ConfigError):
        method2_matmul_logaccum(xo, wo, 60, 8)
    with pytest.raises(ConfigError):
        method2_matmul(xo, wo, 60, 8)


def _scalar_method1(xc, w, cx, i, j, int_bits=32, frac_bits=8):
    from lognet.lognum import dot_method1
    return dot_method1([float(v) for v in w[:, j]],
                       [LogCode.from_wire(int(c), cx) for c in xc[i]],
                       cx, int_bits, frac_bits).raw


def test_method1_matmul_matches_scalar_dot():
    for laid in LAYOUTS:
        _check_method1_matmul(laid)


def _check_method1_matmul(laid):
    rng = np.random.default_rng(53)
    for _ in range(20):
        k = int(rng.integers(1, 24))
        x = rng.uniform(0, 40, size=(3, k))
        w = rng.normal(0, 2.0, size=(k, 2))
        xc = codes_from(x, ACT4)
        raw = method1_matmul(QuantizedOperand(laid(xc), ACT4, 0), laid(w))
        for i in range(3):
            for j in range(2):
                assert raw[i, j] == _scalar_method1(xc, w, ACT4, i, j)

    # left shifts (exact) and right shifts (truncating) in one call, several
    # words, all-zero weights, rows and columns, and enough truncating codes
    # (levels -57..-1 of a 6-bit activation) to cross the kernel's row and
    # k blocks
    cx = QuantizerConfig("log", 6, False, 5)
    n, k, o = 80, 200, 32
    x = 2.0 ** rng.uniform(-58, 5, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    x[3] = 0.0
    x[:, 7] = 0.0
    w = rng.normal(0, 2.0, size=(k, o))
    w[:, 2] = 0.0
    xc = codes_from(x, cx)
    xo = QuantizedOperand(laid(xc), cx, 0)
    lv = np.unique(xo.esteps[xo.nonzero])
    n_trunc = int((lv < 0).sum())
    assert (lv >= 0).any() and n_trunc > 50
    k_step = _block_elems(np.float64) // (n_trunc * o)
    assert k > k_step and n > 2 * (_block_elems(np.float64) // (k_step * n_trunc))
    for ib, frac in ((32, 8), (24, 20)):
        raw, dtype = _run_recording_dtype(method1_matmul, xo, laid(w), ib, frac)
        assert dtype is np.float64
        assert (raw[3] == 0).all() and (raw[:, 2] == 0).all()
        for i in (0, 3, 40, n - 1, *rng.integers(0, n, size=2)):
            for j in (0, 2, o - 1, int(rng.integers(0, o))):
                assert raw[i, j] == _scalar_method1(xc, w, cx, i, j, ib, frac)
    assert (method1_matmul(xo, laid(np.zeros((k, o)))) == 0).all()

    # the same blocking in float32: weight words below 2**10 at the 32+8
    # word keep every partial sum below 2**23
    w = np.clip(rng.normal(0, 1.0, size=(k, o)), -3.99, 3.99)
    w[:, 2] = 0.0
    k_step = _block_elems(np.float32) // (n_trunc * o)
    assert k > k_step and n > 2 * (_block_elems(np.float32) // (k_step * n_trunc))
    raw, dtype = _run_recording_dtype(method1_matmul, xo, laid(w))
    assert dtype is np.float32 and raw.dtype == np.float64
    assert (raw[3] == 0).all() and (raw[:, 2] == 0).all()
    for i in (0, 3, 31, 32, 33, 64, n - 1, *rng.integers(0, n, size=2)):
        for j in (0, 2, o - 1, int(rng.integers(0, o))):
            assert raw[i, j] == _scalar_method1(xc, w, cx, i, j)


def test_method1_matmul_refusals():
    # integer shifts need the base-2 grid and unsigned activation codes; a
    # signed config is accepted as long as no code is negative
    x = np.array([[1.0, 4.0, 0.0]])
    w = np.array([[1.0], [-2.0], [3.0]])
    sqrt2 = QuantizerConfig("log", 4, False, 3, 1)
    with pytest.raises(ConfigError):
        method1_matmul(QuantizedOperand(codes_from(x, sqrt2), sqrt2, 1), w)
    signed = QuantizerConfig("log", 5, True, 3)
    with pytest.raises(ConfigError):
        method1_matmul(QuantizedOperand(codes_from(-x, signed), signed, 0), w)
    raw = method1_matmul(QuantizedOperand(codes_from(x, signed), signed, 0), w)
    # the scalar op takes unsigned configs only; 4 magnitude bits either way
    unsigned = QuantizerConfig("log", 4, False, 3)
    assert raw[0, 0] == _scalar_method1(codes_from(x, unsigned), w, unsigned, 0, 0) == -7 * 2 ** 8

    # a method1 forward pass over sqrt2-grid activations is refused, not
    # computed with every exponent read on the base-2 grid
    g = simple_graph({1: w.T}, [act_quant_layer("log", 4, base_frac_bits=1), fc(1, 3)],
                     fsr=3)
    with pytest.raises(ConfigError):
        forward(g, Tensor.from_real(x), "method1")


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

    # exactly the scalar shifts, with negative and zero inputs and zero
    # weights, on both grids and layouts, at the 32+8 word (float32 sums)
    # and the 24+20 word (float64 sums)
    x = rng.normal(0, 4.0, size=(12, 10))
    x[:, 3] = 0.0
    x[:, 4] = -np.abs(x[:, 4])
    w[2] = 0.0
    for laid in LAYOUTS:
        for fb in (0, 1):
            cfg = QuantizerConfig("log", 5, True, 1, base_frac_bits=fb)
            wc = logquant_array(w, cfg)
            for ib, frac, want in ((32, 8, np.float32), (24, 20, np.float64)):
                raw, dtype = _run_recording_dtype(
                    shifted_input_matmul, laid(x), QuantizedOperand(laid(wc), cfg, fb), ib, frac)
                assert dtype is want
                for i in range(x.shape[0]):
                    for j in range(w.shape[1]):
                        assert raw[i, j] == _scalar_shifted(x, wc, cfg, i, j, ib, frac)

    # weight levels below 2**-149 (float32's smallest subnormal) against
    # negative inputs: every such term truncates to -1 before its sign,
    # which float32 would flush to -0; the kernel sums in float64
    cfg = QuantizerConfig("log", 5, True, -140)
    w = rng.choice([-1.0, 1.0], size=(10, 3)) * 2.0 ** rng.uniform(-156, -140, size=(10, 3))
    wc = logquant_array(w, cfg)
    raw, dtype = _run_recording_dtype(shifted_input_matmul, x, QuantizedOperand(wc, cfg, 0))
    assert dtype is np.float64 and (raw != 0).any()
    for i in range(x.shape[0]):
        for j in range(w.shape[1]):
            assert raw[i, j] == _scalar_shifted(x, wc, cfg, i, j)


def _scalar_shifted(x, wc, cw, i, j, int_bits=32, frac_bits=8):
    """Output (i, j) of ``shifted_input_matmul`` by scalar shifts: each input
    word shifts by its weight's exponent (a half step shifts 3 * raw by one
    less), truncates, and then takes the weight's sign."""
    t = code_table(cw)
    acc = 0
    for kk in range(x.shape[1]):
        c = int(wc[kk, j])
        if not t.nonzero[c]:
            continue
        word = AccumulatorWord.from_value(float(x[i, kk]), int_bits, frac_bits)
        e = int(t.esteps[c])
        if cw.base_frac_bits and e & 1:
            word = bitshift(AccumulatorWord(3 * word.raw, int_bits, frac_bits), (e >> 1) - 1)
        else:
            word = bitshift(word, e >> cw.base_frac_bits)
        acc += int(t.sign[c]) * word.raw
    return acc


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
    raw = shifted_input_matmul(cols, QuantizedOperand(w0, wq, 0))
    value = np.ldexp(raw, -8).reshape(n, oh, ow, 4).transpose(0, 3, 1, 2)
    value = np.maximum(value, 0)
    acfg = rep(layers[2].qconfig, fsr=g.fsr + 2)
    codes = logquant_array(value, acfg)
    # conv2 on coded input
    w3 = logquant_array(g.weight_array(3).reshape(3, -1).T, wq)
    ccols, oh, ow = im2col_array(codes, (3, 3), 1, 1, fill=0)
    raw = method2_matmul(QuantizedOperand(ccols, acfg, 0), QuantizedOperand(w3, wq, 0))
    value = np.ldexp(raw, -8).reshape(n, oh, ow, 3).transpose(0, 3, 1, 2)
    value = np.maximum(value, 0)
    codes = logquant_array(value, acfg).reshape(n, -1)
    # final fc
    w6 = logquant_array(g.weight_array(6).T, wq)
    raw = method2_matmul(QuantizedOperand(codes, acfg, 0), QuantizedOperand(w6, wq, 0))
    want = np.ldexp(raw, -8)
    assert np.array_equal(got, want.astype(np.float32).astype(np.float64))


def test_forward_linear_activation_layer_matches_manual_kernel_walk():
    # a linear activation quantizer hands on dequantized values, so the conv
    # after it runs the shifted-input kernel as on the real network input
    from lognet.lognum import linquant_array
    from lognet.tensor import im2col_array

    rng = np.random.default_rng(63)
    wq = QuantizerConfig("log", 5, True, 1)
    layers = [
        conv(3, 2, 3, pad=1, wq=wq),
        relu_layer(),
        act_quant_layer("linear", 4, fsr_offset=1),
        conv(2, 3, 3, pad=1, wq=wq),
        relu_layer(),
        act_quant_layer("log", 4, fsr_offset=2),
        fc(4, 2 * 4 * 4, wq=wq),
    ]
    g = ModelGraph(layers=layers, fsr=2)
    g.weights[0] = Tensor.from_real(rng.normal(0, 0.5, size=(3, 2, 3, 3)))
    g.weights[3] = Tensor.from_real(rng.normal(0, 0.4, size=(2, 3, 3, 3)))
    g.weights[6] = Tensor.from_real(rng.normal(0, 0.3, size=(4, 32)))
    x = Tensor.from_real(np.abs(rng.normal(0, 2, size=(3, 2, 4, 4))))

    got = forward(g, x, "method2_base2").data.astype(np.float64)

    n = 3
    value = x.real()
    for i, cout in ((0, 3), (3, 2)):
        wc = logquant_array(g.weight_array(i).reshape(cout, -1).T, wq)
        cols, oh, ow = im2col_array(value, (3, 3), 1, 1)
        raw = shifted_input_matmul(cols, QuantizedOperand(wc, wq, 0))
        value = np.maximum(np.ldexp(raw, -8).reshape(n, oh, ow, cout).transpose(0, 3, 1, 2), 0)
        if i == 0:
            lcfg = QuantizerConfig("linear", 4, False, 3)
            assert g.act_config(layers[2]) == lcfg
            value = dequantize_array(linquant_array(value, lcfg), lcfg)
    acfg = g.act_config(layers[5])
    codes = logquant_array(value, acfg).reshape(n, -1)
    w6 = logquant_array(g.weight_array(6).T, wq)
    raw = method2_matmul(QuantizedOperand(codes, acfg, 0), QuantizedOperand(w6, wq, 0))
    want = np.ldexp(raw, -8)
    assert np.array_equal(got, want.astype(np.float32).astype(np.float64))


def test_forward_linear_weight_quantizer_matches_manual_kernel_walk():
    # method2 with a linear weight quantizer: the weights are the dequantized
    # linear codes, a float product against the real input and the
    # shift-weights kernel against log-coded activations
    from lognet.lognum import linquant_array
    from lognet.tensor import im2col_array

    rng = np.random.default_rng(64)
    lq = QuantizerConfig("linear", 6, True, 1)
    layers = [
        conv(3, 2, 3, pad=1, wq=lq),
        relu_layer(),
        act_quant_layer("log", 4, fsr_offset=2),
        fc(4, 3 * 4 * 4, wq=lq),
    ]
    g = ModelGraph(layers=layers, fsr=1)
    g.weights[0] = Tensor.from_real(rng.normal(0, 0.5, size=(3, 2, 3, 3)))
    g.weights[3] = Tensor.from_real(rng.normal(0, 0.3, size=(4, 48)))
    x = Tensor.from_real(np.abs(rng.normal(0, 2, size=(3, 2, 4, 4))))

    got = forward(g, x, "method2_base2").data.astype(np.float64)

    def linear_weights(i, cout):
        w = g.weight_array(i).reshape(cout, -1)
        return dequantize_array(linquant_array(w, lq), lq).T

    cols, oh, ow = im2col_array(x.real(), (3, 3), 1, 1)
    value = (cols @ linear_weights(0, 3)).reshape(3, oh, ow, 3).transpose(0, 3, 1, 2)
    acfg = g.act_config(layers[2])
    codes = logquant_array(np.maximum(value, 0), acfg).reshape(3, -1)
    raw = method1_matmul(QuantizedOperand(codes, acfg, 0), linear_weights(3, 4))
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
