"""Forward-pass and kernel tests for the layer graph."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from lognet import AccumulatorOverflow, ConfigError, DomainError, QuantizerConfig, Tensor
from lognet.lognum import (AccumulatorWord, bitshift, code_table, dot_method2, logquant_array,
                           LogCode, dequantize_array, log_accumulate_raw)
from lognet import nn
from lognet.nn import (
    Arithmetic,
    ModelGraph,
    act_quant_layer,
    batchnorm_array,
    batchnorm_layer,
    conv,
    exact_dot,
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
    # maxpool_array reads channel-last (N, H, W, C) arrays
    const = np.full((1, 4, 4, 1), 2.5)
    assert (maxpool_array(const, 2, 2)[0] == 2.5).all()
    t = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    out, idx = maxpool_array(t, 2, 2)
    assert out.item() == 4.0 and idx.item() == 3
    assert maxpool_array(np.zeros((2, 8, 6, 3)), 2, 2)[0].shape == (2, 4, 3, 3)
    # ties break to the first index in window scan order
    assert maxpool_array(np.zeros((1, 2, 2, 1)), 2, 2)[1].item() == 0

    # without the argmax, the running max keeps the same values bit for
    # bit, the first of tied +0 and -0 included
    rng = np.random.default_rng(43)
    x = rng.choice([-0.0, 0.0, -1.0, 0.5, 2.0], size=(3, 9, 11, 2))
    x[0, :2, :4, 0] = [[-0.0, 0.0, 0.0, -0.0], [-1.0, -0.0, -1.0, 0.0]]
    for k, stride, h, w in ((2, 2, 8, 10), (2, 1, 9, 11), (3, 2, 9, 11)):
        xs = x[:, :h, :w]
        for a in (xs, xs.astype(np.float32), (xs * 2 + 2).astype(np.uint8)):
            out, idx = maxpool_array(a, k, stride, argmax=False)
            want = maxpool_array(a, k, stride)[0]
            assert idx is None and out.dtype == a.dtype
            assert np.array_equal(out.view(np.uint8), want.view(np.uint8)), (k, stride, a.dtype)


def _maxpool_oracle(x, k, stride):
    """Scalar loop over channel-last x: each window's first maximum (by a
    strict > in window scan order) and its position dy*k + dx."""
    n, h, w, c = x.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.empty((n, oh, ow, c), x.dtype)
    pos = np.empty((n, oh, ow, c), np.int64)
    for b, i, j, ch in np.ndindex(n, oh, ow, c):
        best = None
        for dy in range(k):
            for dx in range(k):
                v = x[b, i * stride + dy, j * stride + dx, ch]
                if best is None or v > best:
                    best, at = v, dy * k + dx
        out[b, i, j, ch], pos[b, i, j, ch] = best, at
    return out, pos


def _maxpool_backward_oracle(g, pos, in_shape, k, stride):
    """Scalar loop: each window adds its gradient at its max position."""
    back = np.zeros(in_shape)
    for b, i, j, ch in np.ndindex(*g.shape):
        dy, dx = divmod(int(pos[b, i, j, ch]), k)
        back[b, i * stride + dy, j * stride + dx, ch] += g[b, i, j, ch]
    return back


def test_maxpool_matches_scalar_oracle():
    # pooled values (bit for bit, +0/-0 included), routes and the backward
    # scatter, on values and on codes, for k == stride and overlapping
    # stride < k; the gradients are small integers, so the scatter's sums
    # are exact in any order
    from lognet.train import _maxpool_backward

    rng = np.random.default_rng(47)
    s4 = QuantizerConfig("log", 4, True, 2)
    for k, stride, h, w in ((2, 2, 6, 8), (3, 3, 6, 9), (2, 1, 5, 6), (3, 2, 7, 9)):
        vals = rng.choice([-0.0, 0.0, -1.0, 0.5, 2.0, 2.0], size=(2, h, w, 3))
        vals[0, :k, :k, 0] = 0.0
        vals[0, :k, :k, 0].flat[1::2] = -0.0  # a window of tied +0/-0
        codes = logquant_array(vals, s4)
        for a in (vals, (vals * 2 + 2).astype(np.uint8), codes):
            want, want_pos = _maxpool_oracle(a, k, stride)
            out, idx = maxpool_array(a, k, stride)
            assert out.dtype == a.dtype and idx.dtype == np.uint8
            assert np.array_equal(out.view(np.uint8), want.view(np.uint8)), (k, stride)
            assert np.array_equal(idx, want_pos), (k, stride)
            g = rng.integers(-4, 5, size=out.shape).astype(np.float64)
            back = _maxpool_backward(g, {"idx": idx, "in_shape": a.shape}, k, stride)
            assert back.tobytes() == _maxpool_backward_oracle(
                g, want_pos, a.shape, k, stride).tobytes(), (k, stride)
        # signed codes pool by value: the codes pooled are those of the
        # values pooled, at the same routes
        op = Tensor(codes, s4)
        pooled, idx = nn._maxpool_codes(op, k, stride, True)
        want, want_pos = _maxpool_oracle(op.real(), k, stride)
        assert np.array_equal(pooled.real(), want) and np.array_equal(idx, want_pos)


def test_maxpool_keeps_codes():
    # the walker pools a quantized activation by its codes and keeps them
    vals = np.array([0.0, 1.0, 4.0, 16.0, 2.0, 8.0, 1.0, 0.5, 0.0]).reshape(1, 1, 3, 3)
    g = ModelGraph(layers=[act_quant_layer("log", 4), maxpool_layer(2, 1)], fsr=5)
    assert g.act_config(g.layers[0]) == ACT4
    pooled = walk(g, vals, {}, True, {}, Arithmetic().dot)
    assert isinstance(pooled, Tensor) and pooled.qconfig == ACT4
    assert np.array_equal(pooled.data, codes_from([[[[16.0, 8.0], [16.0, 8.0]]]], ACT4))
    assert np.array_equal(pooled.real(), [[[[16.0, 8.0], [16.0, 8.0]]]])

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
    pooled = walk(g, vals, {}, True, {}, Arithmetic().dot, cache=cache)
    # the walk returns NCHW; its cache holds the channel-last routes
    nhwc = vals.transpose(0, 2, 3, 1)
    want, want_idx = maxpool_array(dequantize_array(logquant_array(nhwc, s4), s4), 2, 2)
    assert want_idx.ravel().tolist() == [3, 1, 2, 0, 1, 1]
    want = want.transpose(0, 3, 1, 2)
    assert pooled.qconfig == s4 and np.array_equal(pooled.data, logquant_array(want, s4))
    assert np.array_equal(pooled.real(), want)
    assert np.array_equal(cache[1]["idx"], want_idx)
    # the walk without a cache pools without the argmax, to the same codes
    uncached = walk(g, vals, {}, True, {}, Arithmetic().dot)
    assert np.array_equal(uncached.data, pooled.data)


def test_batchnorm_examples():
    rng = np.random.default_rng(41)
    x = rng.normal(3.0, 2.0, size=(8, 4, 5, 5))
    # batchnorm parameters are (4, C) gamma/beta/mean/var rows
    identity = np.array([np.ones(4), np.zeros(4), np.zeros(4), np.ones(4)])
    # with batch statistics, the walker normalizes each channel of the batch
    # and reports the moments it used
    g = ModelGraph(layers=[batchnorm_layer(4)])
    stats: dict = {}
    out = walk(g, x, {}, False, {0: identity}, Arithmetic().dot, batch_stats=stats)
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-6)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-3)
    # the moments are float64 sums of m terms in an unspecified order; each
    # lies within the standard summation bound of an fsum reference
    m = x.size // 4
    u = 2.0**-53

    def gamma(n):
        return n * u / (1 - n * u)

    for c in range(4):
        xc = x[:, c].ravel()
        mean_ref = math.fsum(xc) / m
        # mean: m - 1 additions and a division, against a correctly rounded
        # sum and a division
        mean_bound = gamma(m + 2) * math.fsum(np.abs(xc)) / m
        assert abs(stats[0][0][c] - mean_ref) <= mean_bound
        # var: a mean off by e adds e**2 to the centred sum of squares; per
        # term a subtraction and a square, then m - 1 additions and a
        # division (m + 3 roundings), against 5 on the reference's side
        d2 = (xc - mean_ref) ** 2
        var_ref = math.fsum(d2) / m
        var_bound = mean_bound**2 + gamma(m + 9) * (math.fsum(d2) / m + mean_bound**2)
        assert abs(stats[0][1][c] - var_ref) <= var_bound

    zero_gamma = np.array([np.zeros(4), np.full(4, 0.75), np.zeros(4), np.ones(4)])
    x_last = x.transpose(0, 2, 3, 1)  # batchnorm_array reads channel-last
    assert np.allclose(batchnorm_array(x_last, zero_gamma), 0.75)

    # inference mode is a fixed affine map of the stored stats
    p3 = np.array([np.ones(4), np.zeros(4), np.full(4, 1.0), np.full(4, 4.0)])
    want = (x - 1.0) / np.sqrt(4.0 + nn.BN_EPS)
    assert np.allclose(batchnorm_array(x_last, p3), want.transpose(0, 2, 3, 1), atol=1e-6)
    assert np.allclose(walk(g, x, {}, False, {0: p3}, Arithmetic().dot), want, atol=1e-6)


def test_batchnorm_is_its_expression_bit_for_bit():
    # one buffer, the same operations in the same order as the expression
    rng = np.random.default_rng(71)
    c = 5
    p = np.array([rng.normal(1.0, 0.5, c), rng.normal(0.0, 1.0, c),
                  rng.normal(0.0, 1.0, c), rng.uniform(0.0, 4.0, c)])
    p[3, 0] = 0.0
    gamma, beta, mean_c, var_c = p
    for shape, bshape in (((37, c), (1, -1)), ((6, 7, 3, c), (1, 1, 1, -1))):
        x = rng.normal(2.0, 3.0, size=shape)  # channel-last
        x_in = x.copy()
        mean, var = mean_c.reshape(bshape), var_c.reshape(bshape)
        xhat = (x - mean) / np.sqrt(var + nn.BN_EPS)
        want = gamma.reshape(bshape) * xhat + beta.reshape(bshape)
        assert nn.bn_normalize(x, mean_c, var_c).tobytes() == xhat.tobytes()
        assert batchnorm_array(x, p).tobytes() == want.tobytes()
        assert x.tobytes() == x_in.tobytes()


def test_batchnorm_into_its_input_is_the_default_bit_for_bit():
    # the walk normalizes a buffer it made in place, with out=x
    rng = np.random.default_rng(73)
    c = 5
    p = np.array([rng.normal(1.0, 0.5, c), rng.normal(0.0, 1.0, c),
                  rng.normal(0.0, 1.0, c), rng.uniform(0.0, 4.0, c)])
    for x in (rng.normal(2.0, 3.0, size=(37, c)), rng.normal(2.0, 3.0, size=(6, 7, 3, c)),
              rng.normal(2.0, 3.0, size=(6, c, 7, 3)).transpose(0, 2, 3, 1)):
        want = batchnorm_array(x, p)
        assert batchnorm_array(x, p, out=x) is x
        assert x.tobytes() == want.tobytes()


# a signed activation quantizer, so that every walk below may quantize
SQ4 = nn.LayerSpec(nn.LOGQUANT, qconfig=QuantizerConfig("log", 4, True, 0))

# graphs whose batchnorm or ReLU reads the walk's input (a C = 1 image's
# channel-last view is the caller's array, as is a rank-2 input) or the
# array a quantizer layer captured; (layers, input shape)
INPUT_READERS = {
    "relu_first": ([relu_layer(), conv(2, 1, 3, pad=1), SQ4], (3, 1, 5, 5)),
    "batchnorm_first": ([batchnorm_layer(1), relu_layer(), conv(2, 1, 3, pad=1)], (3, 1, 5, 5)),
    "relu_first_rank2": ([relu_layer(), fc(3, 6)], (4, 6)),
    "batchnorm_first_rank2": ([batchnorm_layer(6), fc(3, 6), relu_layer()], (4, 6)),
    "relu_after_quantizer": ([SQ4, relu_layer(), conv(2, 1, 3, pad=1)], (3, 1, 5, 5)),
    "batchnorm_after_quantizer": ([conv(2, 1, 3, pad=1), SQ4, batchnorm_layer(2), relu_layer(),
                                   SQ4, relu_layer(), fc(3, 50)], (3, 1, 5, 5)),
    "batchnorm_after_quantizer_rank2": ([SQ4, batchnorm_layer(6), SQ4, relu_layer(),
                                         fc(3, 6)], (4, 6)),
}


@pytest.mark.parametrize("case", sorted(INPUT_READERS))
def test_the_walk_writes_only_into_arrays_it_made(case, monkeypatch):
    # batchnorm and ReLU write in place, but never into the caller's images
    # or a captured activation: each walk equals, byte for byte, the same
    # walk with batchnorm and ReLU that always copy
    layers, shape = INPUT_READERS[case]
    rng = np.random.default_rng(83)
    weights = {}
    for i, layer in enumerate(layers):
        if layer.kind == nn.BATCHNORM:
            c = layer.channels
            weights[i] = [rng.normal(1.0, 0.3, c), rng.normal(0.0, 1.0, c),
                          rng.normal(0.0, 1.0, c), rng.uniform(0.5, 2.0, c)]
        elif layer.weight_shape():
            weights[i] = rng.normal(0.0, 0.5, size=layer.weight_shape())
    g = simple_graph(weights, layers, fsr=2)
    operands, bn = nn._stored_operands(g, nn.MODE_FLOAT)
    x = rng.normal(0.0, 1.5, size=shape)
    x_in = x.copy()

    def walks():
        out = []
        for quantize in (False, True):
            captured: dict = {}
            last = walk(g, x, operands, quantize, bn, Arithmetic().dot, capture=captured)
            out.append((nn._real(last), captured))
        # a training walk: batch statistics and a backward cache
        last = walk(g, x, operands, True, bn, exact_dot, batch_stats={}, cache={})
        out.append((nn._real(last), {}))
        out.append((np.empty(0), nn.collect_quantizer_inputs(g, x)))
        return out

    with monkeypatch.context() as m:
        m.setattr(nn, "relu_array", lambda v, out=None: np.maximum(v, 0.0))
        m.setattr(nn, "batchnorm_array", lambda v, p, out=None: batchnorm_array(v, p))
        want = walks()
    assert x.tobytes() == x_in.tobytes()
    got = walks()
    assert x.tobytes() == x_in.tobytes()
    for (out, captured), (want_out, want_captured) in zip(got, want):
        assert out.tobytes() == want_out.tobytes()
        assert sorted(captured) == sorted(want_captured)
        for i, a in captured.items():
            assert a.tobytes() == want_captured[i].tobytes(), i


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
        raw, dtype = _run_recording_dtype(method1_matmul, Tensor(xc, cx), w)
        assert dtype is want
        for i in range(3):
            for j in range(2):
                assert raw[i, j] == _scalar_method1(xc, w, cx, i, j)


# operand layouts the kernels meet: C-ordered, and the Fortran-ordered views
# of transposed operands (``weights[i].T`` in the walk, ``Tensor.T`` in the
# backward products)
LAYOUTS = (np.ascontiguousarray, lambda a: np.ascontiguousarray(a.T).T)


def _scalar_linear(xc, wc, cx, cw, i, j, int_bits=32, frac_bits=8):
    return dot_method2([LogCode.from_wire(int(c), cw) for c in wc[:, j]],
                       [LogCode.from_wire(int(c), cx) for c in xc[i]],
                       cw, cx, "linear", int_bits, frac_bits).raw


def _code_classes(xo, wo, frac_bits):
    """Counts of x's nonzero codes that are live and dead (base 2), as
    ``method2_matmul`` sorts them: a dead code's terms all truncate to 0,
    even against w's top level; every live code gets its own term table."""
    xt, wt = xo.table, wo.table
    w_hi = wt.esteps[wo.present() & wt.nonzero].max()
    dead = xt.esteps[xt.nonzero] + w_hi + frac_bits < 0
    return int((~dead).sum()), int(dead.sum())


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
        xo = Tensor(laid(xc), ACT4)
        wo = Tensor(laid(wc), W5)
        raw = method2_matmul(xo, wo)
        for i in range(n):
            for j in range(o):
                assert raw[i, j] == _scalar_linear(xc, wc, ACT4, W5, i, j)

    # the code classes of the kernel: activations over more octaves than the
    # weights span, so one call has live and dead codes; signed
    # activations; the sqrt2 grid, also
    # lifted from base 2 activations; the 24+28 word, also moved by the
    # operands' full scales, whose oracle is the scalar dot of the same
    # codes under fsr-zeroed configs at 24+28; all-zero rows and columns,
    # and all-zero weights
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
        cases = [(0, cx, cw, 32, 8), (0, cx, cw, 24, 28), (0, cx, cw, 32, 3),
                 (cx.fsr + cw.fsr, replace(cx, fsr=0), replace(cw, fsr=0), 24, 28)]
        for shift, ocx, ocw, ib, frac in cases:
            xo, wo = Tensor(laid(xc), cx), Tensor(laid(wc), cw)
            if fb == 0 and (shift, frac) == (0, 8):
                assert min(_code_classes(xo, wo, frac)) > 0
            raw = method2_matmul(xo, wo, ib + shift, frac - shift)
            assert (raw[3] == 0).all() and (raw[:, 2] == 0).all()
            for i in (0, 3, n - 1, *rng.integers(0, n, size=4)):
                for j in range(o):
                    want = _scalar_linear(xc, wc, ocx, ocw, i, j, ib, frac)
                    assert raw[i, j] == want, (cx, cw, shift, frac, i, j)
        zero_w = Tensor(laid(np.zeros_like(wc)), cw)
        assert (method2_matmul(Tensor(laid(xc), cx), zero_w) == 0).all()

    # 35 live codes against 40 outputs need more than one k block of term
    # tables and several row blocks of the one-hot matrix
    cx = QuantizerConfig("log", 6, False, 5)
    cw = QuantizerConfig("log", 5, True, 3)
    n, k, o, frac = 100, 300, 40, 28
    x = 2.0 ** rng.uniform(-58, 5, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(-12, 3, size=(k, o))
    xc, wc = codes_from(x, cx), codes_from(w, cw)
    xo, wo = Tensor(laid(xc), cx), Tensor(laid(wc), cw)
    n_live, n_dead = _code_classes(xo, wo, frac)
    assert (n_live, n_dead) == (35, 28)
    k_step = _block_elems(np.float64) // (n_live * o)
    assert k > k_step and n > 2 * (_block_elems(np.float64) // (k_step * n_live))
    raw, dtype = _run_recording_dtype(method2_matmul, xo, wo, 24, frac)
    assert dtype is np.float64
    for i in (0, 39, 40, 41, n - 1, *rng.integers(0, n, size=2)):
        for j in (0, o - 1, int(rng.integers(0, o))):
            assert raw[i, j] == _scalar_linear(xc, wc, cx, cw, i, j, 24, frac)

    # the same blocking in float32: the 32+8 word and full scales 2**5 and
    # 2**0 put every partial sum over k = 300 below 2**23, and weights over
    # 11 octaves leave 12 live activation codes
    cw = QuantizerConfig("log", 5, True, 0)
    n, k, o, frac = 100, 300, 48, 8
    x = 2.0 ** rng.uniform(-58, 5, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(-11, 0, size=(k, o))
    xc, wc = codes_from(x, cx), codes_from(w, cw)
    xo, wo = Tensor(laid(xc), cx), Tensor(laid(wc), cw)
    n_live, n_dead = _code_classes(xo, wo, frac)
    assert n_live == 12 and n_dead > 0
    k_step = _block_elems(np.float32) // (n_live * o)
    assert k > k_step and n > 2 * (_block_elems(np.float32) // (k_step * n_live))
    raw, dtype = _run_recording_dtype(method2_matmul, xo, wo, 32, frac)
    assert dtype is np.float32 and raw.dtype == np.float64
    for i in (0, 47, 48, 49, 96, n - 1, *rng.integers(0, n, size=2)):
        for j in (0, o - 1, int(rng.integers(0, o))):
            assert raw[i, j] == _scalar_linear(xc, wc, cx, cw, i, j, 32, frac)


def test_method2_matmul_sums_far_full_scales_as_integer_terms():
    # full scales 2**140 and 2**-138, whose values float32 cannot hold, give
    # integer terms far below 2**24: the GEMM reads only those and 0/1
    # indicators, so it sums them in float32
    cx = QuantizerConfig("log", 4, False, 140)
    cw = QuantizerConfig("log", 5, True, -138)
    rng = np.random.default_rng(61)
    n, k, o = 6, 8, 3
    x = 2.0 ** rng.uniform(124, 140, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(-143, -138, size=(k, o))
    xc, wc = codes_from(x, cx), codes_from(w, cw)
    xo, wo = Tensor(xc, cx), Tensor(wc, cw)
    assert min(_code_classes(xo, wo, 8)) > 0
    raw, dtype = _run_recording_dtype(method2_matmul, xo, wo)
    assert dtype is np.float32 and (raw != 0).any()
    for i in range(n):
        for j in range(o):
            assert raw[i, j] == _scalar_linear(xc, wc, cx, cw, i, j)


def _scalar_logaccum(xc, wc, cx, cw, i, j, int_bits=32, frac_bits=8, f=4):
    return dot_method2([LogCode.from_wire(int(c), cw) for c in wc[:, j]],
                       [LogCode.from_wire(int(c), cx) for c in xc[i]],
                       cw, cx, "log", int_bits, frac_bits, f).raw


def _check_logaccum(xc, wc, cx, cw, f=4, rows=None, cols=None, int_bits=32, frac_bits=8,
                    laid=np.ascontiguousarray):
    raw = method2_matmul_logaccum(Tensor(laid(xc), cx),
                                  Tensor(laid(wc), cw),
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

        # the in-place step's intermediates: its mantissa lies in
        # [2**f, 2**(f+1) - 1], no more than cap, and is shifted out to 0 by
        # every count past f, so counts need no clamp
        u = -np.arange(3 * cap)
        mant = (1 << f) + (u & ((1 << f) - 1))
        assert mant.min() == 1 << f and mant.max() == (2 << f) - 1 <= cap
        assert (mant[-(u >> f) > f] >> (f + 1) == 0).all()

        # _walk_range is exactly the least and the greatest max(s, p),
        # u = min(s, p) - max(s, p) and shift count -(u >> f) over the ends
        # of the sum range {-cap} + [0, P + cap] and the term range
        # [-(4 cap + P), P]
        for p_max in (0, 1, 5 << f, 1 << 15):
            s, p = np.meshgrid([-cap, 0, p_max + cap],
                               [-(4 * cap + p_max), -2 * cap, 0, p_max])
            hi = np.maximum(s, p)
            u = np.minimum(s, p) - hi
            assert nn._walk_range(p_max, f) == (u.min(), max(hi.max(), (-(u >> f)).max()))

        # int16 holds the walk up to the widest term span whose least value
        # -(2P + 5 cap) is -2**15 (none from f = 10); int32 the next one up
        widest = (2 ** 15 - 5 * cap) // 2
        if widest >= 0:
            assert nn._walk_dtype(*nn._walk_range(widest, f)) is np.int16
        assert nn._walk_dtype(*nn._walk_range(widest + 1, f)) is np.int32


def _step_pairs(p_max, f):
    """(s, p) pairs of a log walk over terms in [0, p_max]: every pair of a
    sum in {-cap} + [0, P + cap] and a term in [-(4 cap + P), P] when there
    are at most 2**20, otherwise every value of each range against the ends
    and sentinels of the other, and the band where the correction is
    nonzero at three sums."""
    cap = (f + 1) << f
    sums = np.r_[-cap, 0:p_max + cap + 1]
    terms = np.arange(-(4 * cap + p_max), p_max + 1)
    if sums.size * terms.size <= 1 << 20:
        s, p = np.meshgrid(sums, terms)
        return s.ravel(), p.ravel()
    edge_s = np.r_[sums[:3], sums[-2:]]
    edge_p = np.r_[terms[:2], -2 * cap - 1, -2 * cap, -cap, -1, 0, 1, terms[-2:]]
    band = np.arange(-cap - 1, cap + 2)
    s = [np.repeat(sums, edge_p.size), np.tile(edge_s, terms.size)]
    p = [np.tile(edge_p, sums.size), np.repeat(terms, edge_s.size)]
    for s0 in (0, p_max // 2, p_max + cap):
        s.append(np.full(band.size, s0))
        p.append(np.clip(s0 + band, terms[0], terms[-1]))
    return np.concatenate(s), np.concatenate(p)


def test_log_step_matches_scalar_rule():
    # the walk's in-place step against lognum.log_accumulate_raw in int16 and
    # int32 at every exponent word f = 0..10, over the sums and terms of walks
    # at a one-octave term span, at the widest span int16 holds, and (int32
    # only) at 2**15, wider than any int16 holds.  The wide spans shift the
    # mantissa by every count up to and past the type's bit width, which
    # numpy defines as 0 for a non-negative operand
    for dtype in (np.int16, np.int32):
        bits = np.iinfo(dtype).bits
        mant = np.arange(1, 1 << 11).astype(dtype)
        for count in (bits - 1, bits, bits + 1, 2 * bits, np.iinfo(dtype).max):
            assert (np.right_shift(mant, np.full_like(mant, count)) == 0).all()
    for f in range(11):
        cap = (f + 1) << f
        widest = (2 ** 15 - 5 * cap) // 2
        runs = [(np.int32, 1 << f, False), (np.int32, 1 << 15, True)]
        if widest >= 1 << f:
            runs.append((np.int16, 1 << f, False))
        if widest >= 0:
            runs += [(np.int16, widest, True), (np.int32, widest, True)]
        for dtype, p_max, wide in runs:
            lo, hi = nn._walk_range(p_max, f)
            assert np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max
            s64, p64 = _step_pairs(p_max, f)
            s, p = s64.astype(dtype), p64.astype(dtype)
            nn._log_step(s, p, np.empty_like(s), f)
            assert s.dtype == dtype
            assert np.array_equal(s, log_accumulate_raw(s64, p64, f)), (dtype, f, p_max)
            counts = -((np.minimum(s64, p64) - np.maximum(s64, p64)) >> f)
            if wide:
                assert counts.max() > np.iinfo(dtype).bits


def _run_recording_walk(xc, wc, cx, cw, f):
    """``_check_logaccum`` and the (least value, integer type) of its walk."""
    seen = []
    choose = nn._walk_dtype
    nn._walk_dtype = lambda lo, hi: seen.append((lo, choose(lo, hi))) or seen[-1][1]
    try:
        _check_logaccum(xc, wc, cx, cw, f)
    finally:
        nn._walk_dtype = choose
    assert len(seen) == 1
    return seen[0]


def test_method2_logaccum_at_the_int16_limit():
    # f = 9 on the sqrt2 grid (cap = 5120): 4-bit activations against 2-bit
    # weights span 14 half steps, so the walk's least value -(2P + 5 cap) is
    # exactly -2**15 and it runs in int16; against 3-bit weights they span
    # 16, the next span up, 1024 past the limit, and it runs in int32.
    # Column 0 has top-level weights at every k, column 1 only below k = 30,
    # so its positive sum pads its list with the zero activations there
    cx = QuantizerConfig("log", 4, False, 5, 1)
    rng = np.random.default_rng(67)
    n, k, o = 5, 40, 4
    x = 2.0 ** rng.uniform(cx.fsr - 8, cx.fsr, size=(n, k))
    x[:2] = 2.0 ** (cx.fsr - 0.5)
    x[1:3, 30:] = 0.0
    for bits, want in ((2, (-(2 ** 15), np.int16)), (3, (-(2 ** 15) - 1024, np.int32))):
        cw = QuantizerConfig("log", bits, True, 1, 1)
        w = rng.choice([-1.0, 1.0], size=(k, o)) * 2.0 ** rng.uniform(-3, 1, size=(k, o))
        w[:, :2] = 2.0 ** (cw.fsr - 0.5)
        w[30:, 1] *= -1
        assert _run_recording_walk(codes_from(x, cx), codes_from(w, cw), cx, cw, 9) == want


def test_method2_logaccum_range_checks_each_sign_plane():
    # the planes cancel to 0, but each converts to 2048 = 2**(3+8) raw
    cx = QuantizerConfig("log", 4, False, 3)
    cw = QuantizerConfig("log", 5, True, 2)
    xc = codes_from([[4.0, 4.0]], cx)
    wc = codes_from([[2.0], [-2.0]], cw)
    with pytest.raises(AccumulatorOverflow):
        _scalar_logaccum(xc, wc, cx, cw, 0, 0, int_bits=3, frac_bits=8)
    with pytest.raises(AccumulatorOverflow):
        method2_matmul_logaccum(Tensor(xc, cx),
                                Tensor(wc, cw), 3, 8)


def test_method2_logaccum_refuses_planes_past_exact_float64():
    # the positive plane converts to 2**58 raw and the negative one to 1; the
    # float64 difference of the two would round to 2**58
    cx = QuantizerConfig("log", 7, False, 52)
    cw = QuantizerConfig("log", 5, True, 2)
    xc = codes_from([[2.0 ** 50, 2.0 ** -8]], cx)
    wc = codes_from([[1.0], [-1.0]], cw)
    assert _scalar_logaccum(xc, wc, cx, cw, 0, 0, 60, 8) == 2 ** 58 - 1
    xo, wo = Tensor(xc, cx), Tensor(wc, cw)
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
        raw = method1_matmul(Tensor(laid(xc), ACT4), laid(w))
        for i in range(3):
            for j in range(2):
                assert raw[i, j] == _scalar_method1(xc, w, ACT4, i, j)

    # left shifts (exact) and right shifts (truncating) in one call, several
    # words, all-zero weights, rows and columns, and enough live codes (the
    # 63 nonzero levels -58..4 of a 6-bit activation) to cross the kernel's
    # row and k blocks
    cx = QuantizerConfig("log", 6, False, 5)
    n, k, o = 80, 200, 32
    x = 2.0 ** rng.uniform(-58, 5, size=(n, k))
    x[rng.random((n, k)) < 0.2] = 0.0
    x[3] = 0.0
    x[:, 7] = 0.0
    w = rng.normal(0, 2.0, size=(k, o))
    w[:, 2] = 0.0
    xc = codes_from(x, cx)
    xo = Tensor(laid(xc), cx)
    lv = np.unique(xo.table.esteps[xo.present() & xo.table.nonzero])
    assert (lv >= 0).any() and (lv < 0).sum() > 50
    n_live = int(xo.table.nonzero.sum())
    k_step = _block_elems(np.float64) // (n_live * o)
    assert k > k_step and n > 2 * (_block_elems(np.float64) // (k_step * n_live))
    # weight words below 2**11 (2**23) at 32+8 (24+20) and the top level 2**4
    # give 23-bit (35-bit) partial sums over k = 200 terms
    for ib, frac, want in ((32, 8, np.float32), (24, 20, np.float64)):
        raw, dtype = _run_recording_dtype(method1_matmul, xo, laid(w), ib, frac)
        assert dtype is want
        assert (raw[3] == 0).all() and (raw[:, 2] == 0).all()
        for i in (0, 3, 40, n - 1, *rng.integers(0, n, size=2)):
            for j in (0, 2, o - 1, int(rng.integers(0, o))):
                assert raw[i, j] == _scalar_method1(xc, w, cx, i, j, ib, frac)
    assert (method1_matmul(xo, laid(np.zeros((k, o)))) == 0).all()

    # the same blocking in float32: weight words below 2**10 at the 32+8
    # word keep every partial sum below 2**23
    w = np.clip(rng.normal(0, 1.0, size=(k, o)), -3.99, 3.99)
    w[:, 2] = 0.0
    k_step = _block_elems(np.float32) // (n_live * o)
    assert k > k_step and n > 2 * (_block_elems(np.float32) // (k_step * n_live))
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
        method1_matmul(Tensor(codes_from(x, sqrt2), sqrt2), w)
    signed = QuantizerConfig("log", 5, True, 3)
    with pytest.raises(ConfigError):
        method1_matmul(Tensor(codes_from(-x, signed), signed), w)
    raw = method1_matmul(Tensor(codes_from(x, signed), signed), w)
    # the scalar op takes unsigned configs only; 4 magnitude bits either way
    unsigned = QuantizerConfig("log", 4, False, 3)
    assert raw[0, 0] == _scalar_method1(codes_from(x, unsigned), w, unsigned, 0, 0) == -7 * 2 ** 8

    # a method1 forward pass over sqrt2-grid activations is refused, not
    # computed with every exponent read on the base-2 grid
    g = simple_graph({1: w.T}, [act_quant_layer("log", 4, base_frac_bits=1), fc(1, 3)],
                     fsr=3)
    with pytest.raises(ConfigError):
        forward(g, x, "method1")


def test_shifted_input_matmul_base2_and_sqrt2():
    rng = np.random.default_rng(59)
    x = rng.normal(0, 4.0, size=(4, 10))
    w = rng.normal(0, 1.0, size=(10, 3))
    for fb in (0, 1):
        cfg = QuantizerConfig("log", 5, True, 1, base_frac_bits=fb)
        wc = logquant_array(w, cfg)
        op = Tensor(wc, cfg)
        raw = shifted_input_matmul(x, op)
        # reference weight factors use the same shift-add mantissa (1.5 for
        # half-step exponents); truncation then spans <= one raw unit per term
        mant = np.where((op.table.esteps & 1).astype(bool), 1.5, 1.0) if fb else 1.0
        t = op.table
        w_factor = np.where(t.nonzero, t.sign * mant * np.ldexp(1.0, t.esteps >> fb), 0.0)[wc]
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
                    shifted_input_matmul, laid(x), Tensor(laid(wc), cfg), ib, frac)
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
    raw, dtype = _run_recording_dtype(shifted_input_matmul, x, Tensor(wc, cfg))
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


@st.composite
def _coded_operands(draw, fsr=40):
    """Coded x (n, k) and w (k, o) of 3-5 bits on either grid, x signed or
    unsigned, at full scales up to ``fsr`` octaves either way."""
    n, k, o = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 3))

    def operand(signed, shape):
        cfg = QuantizerConfig("log", draw(st.integers(3, 5)), signed,
                              draw(st.integers(-fsr, fsr)),
                              base_frac_bits=draw(st.integers(0, 1)))
        # every wire code but negative zero, which no quantizer writes
        valid = [c for c in range(1 << cfg.bitwidth) if not signed or c != 1 << cfg.bitwidth_mag]
        codes = draw(arrays(np.uint8, shape, elements=st.sampled_from(valid)))
        return Tensor(codes, cfg)

    return operand(draw(st.booleans()), (n, k)), operand(True, (k, o))


def _dyadic_term(wx: int, cx: QuantizerConfig, ww: int, cw: QuantizerConfig) -> float:
    """The term of two wire codes as the shift kernels form it: the sign
    product times 2**e for the exponent sum e, a half step e = n + 1/2 as
    1.5 * 2**n."""
    a, b = LogCode.from_wire(wx, cx), LogCode.from_wire(ww, cw)
    if a.is_zero or b.is_zero:
        return 0.0
    e = cx.level_exponent(a.code) + cw.level_exponent(b.code)
    return a.sign * b.sign * math.ldexp(1.5 if e != math.floor(e) else 1.0, math.floor(e))


@given(ops=_coded_operands())
def test_exact_dot_is_the_exact_sum_of_the_dyadic_terms(ops):
    # the trainer's coded x coded product: one float64 GEMM whose every
    # partial sum is exact, so it equals the correctly rounded (here exact)
    # sum of the scalar terms, bit for bit
    x, w = ops
    got = exact_dot(x, w)
    for i in range(x.shape[0]):
        for j in range(w.shape[1]):
            terms = [_dyadic_term(int(a), x.qconfig, int(b), w.qconfig)
                     for a, b in zip(x.data[i], w.data[:, j])]
            assert got[i, j] == math.fsum(terms), (i, j)


@given(ops=_coded_operands(fsr=4))
def test_exact_dot_is_the_scalar_dot_on_a_word_that_never_truncates(ops):
    # at 24+40 no term of these operands truncates, so the scalar linear dot
    # is the exact sum; two half steps add exponents: code 15 of a 5-bit
    # sqrt2 config is 2**-0.5, read 1.5 * 2**-1, and against itself 2**-1
    half = QuantizerConfig("log", 5, True, 0, 1)
    code15 = Tensor(np.array([[15]], np.uint8), half)
    assert exact_dot(code15, code15)[0, 0] == 0.5
    x, w = ops
    got = exact_dot(x, w)
    for i in range(x.shape[0]):
        for j in range(w.shape[1]):
            want = _scalar_linear(x.data, w.data, x.qconfig, w.qconfig, i, j, 24, 40)
            assert got[i, j] == math.ldexp(want, -40), (i, j)


def test_exact_dot_refuses_sums_float64_cannot_hold():
    # 8-bit log codes span 127 levels each, so two of them pass 53 bits at
    # any k; narrower codes pass the bound on k, or near the ends of the
    # exponent range, where the lowest term falls below float64's normal
    # numbers or the largest sum past 2**1024
    def coded(cfg, shape=(2, 3)):
        return Tensor(np.full(shape, cfg.max_code, np.uint8), cfg)

    w8 = QuantizerConfig("log", 8, True, 0)
    with pytest.raises(ConfigError, match="8-bit x 8-bit log codes over 3 terms"):
        exact_dot(coded(QuantizerConfig("log", 8, False, 0)), coded(w8, (3, 2)))
    w5 = QuantizerConfig("log", 5, True, 0)
    # 4-bit unsigned x 5-bit signed spans 29 bits, so 2**24 terms fit
    a4 = QuantizerConfig("log", 4, False, 3)
    assert nn._check_exact_sum(a4, w5, 1 << 24) is None
    with pytest.raises(ConfigError, match="need 54 bits"):
        nn._check_exact_sum(a4, w5, (1 << 24) + 1)
    # 5-bit x 5-bit over 3 terms: 31 bits from 2**(fsr_x + fsr_w - 30)
    for fsr_x, fsr_w, past in ((-944, -48, -1), (900, 123, 1)):
        x = coded(replace(w5, fsr=fsr_x))
        assert np.isfinite(exact_dot(x, coded(replace(w5, fsr=fsr_w), (3, 2)))).all()
        with pytest.raises(ConfigError, match="float64 sums exactly only 53 bits"):
            exact_dot(x, coded(replace(w5, fsr=fsr_w + past), (3, 2)))


# ---------------------------------------------------------------------------
# full forward passes
# ---------------------------------------------------------------------------

def test_identity_conv_float_mode():
    g = simple_graph(
        {0: np.eye(3).reshape(3, 3, 1, 1)},
        [conv(3, 3, 1)],
    )
    x = np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
    out = forward(g, x, "float32")
    assert np.allclose(out, x, atol=1e-6)


def test_single_fc_method2_unit_terms():
    # two weights at exponent 0 (+) and inputs dequantizing to 1 -> score 2
    g = simple_graph(
        {1: np.ones((1, 2))},
        [act_quant_layer("log", 4), fc(1, 2, wq=QuantizerConfig("log", 5, True, 2))],
        fsr=5,
    )
    x = np.ones((1, 2))
    out = forward(g, x, "method2_base2")
    assert out.item() == 2.0


def test_forward_method2_matches_float_on_dequantized():
    # single dot layer: the quantized output tracks the float product of the
    # dequantized operands within the accumulator truncation per term
    rng = np.random.default_rng(61)
    wq = QuantizerConfig("log", 5, True, 1)
    k = 48
    layers = [act_quant_layer("log", 4, fsr_offset=0), fc(5, k, wq=wq)]
    g = ModelGraph(layers=layers, fsr=4)
    g.weights[1] = Tensor.from_real(rng.normal(0, 0.3, size=(5, k)))
    x = np.abs(rng.normal(0, 3, size=(16, k))).astype(np.float32)
    got = forward(g, x, "method2_base2").astype(np.float64)

    acfg = QuantizerConfig("log", 4, False, 4)
    xq = dequantize_array(logquant_array(x.astype(np.float64), acfg), acfg)
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
    x = np.abs(rng.normal(0, 2, size=(3, 2, 4, 4))).astype(np.float32)

    got = forward(g, x, "method2_base2").astype(np.float64)

    value = x.astype(np.float64)
    n = value.shape[0]
    # conv1 on real input: shifted-input kernel against the quantized weights
    w0 = logquant_array(g.weight_array(0).reshape(4, -1).T, wq)
    cols, oh, ow = im2col_array(value.transpose(0, 2, 3, 1), (3, 3), 1, 1)
    raw = shifted_input_matmul(cols, Tensor(w0, wq))
    value = np.ldexp(raw, -8).reshape(n, oh, ow, 4).transpose(0, 3, 1, 2)
    value = np.maximum(value, 0)
    acfg = rep(layers[2].qconfig, fsr=g.fsr + 2)
    codes = logquant_array(value, acfg)
    # conv2 on coded input
    w3 = logquant_array(g.weight_array(3).reshape(3, -1).T, wq)
    ccols, oh, ow = im2col_array(codes.transpose(0, 2, 3, 1), (3, 3), 1, 1)
    raw = method2_matmul(Tensor(ccols, acfg), Tensor(w3, wq))
    value = np.ldexp(raw, -8).reshape(n, oh, ow, 3).transpose(0, 3, 1, 2)
    value = np.maximum(value, 0)
    codes = logquant_array(value, acfg).reshape(n, -1)
    # final fc
    w6 = logquant_array(g.weight_array(6).T, wq)
    raw = method2_matmul(Tensor(codes, acfg), Tensor(w6, wq))
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
    x = np.abs(rng.normal(0, 2, size=(3, 2, 4, 4))).astype(np.float32)

    got = forward(g, x, "method2_base2").astype(np.float64)

    n = 3
    value = x.astype(np.float64)
    for i, cout in ((0, 3), (3, 2)):
        wc = logquant_array(g.weight_array(i).reshape(cout, -1).T, wq)
        cols, oh, ow = im2col_array(value.transpose(0, 2, 3, 1), (3, 3), 1, 1)
        raw = shifted_input_matmul(cols, Tensor(wc, wq))
        value = np.maximum(np.ldexp(raw, -8).reshape(n, oh, ow, cout).transpose(0, 3, 1, 2), 0)
        if i == 0:
            lcfg = QuantizerConfig("linear", 4, False, 3)
            assert g.act_config(layers[2]) == lcfg
            value = dequantize_array(linquant_array(value, lcfg), lcfg)
    acfg = g.act_config(layers[5])
    codes = logquant_array(value, acfg).reshape(n, -1)
    w6 = logquant_array(g.weight_array(6).T, wq)
    raw = method2_matmul(Tensor(codes, acfg), Tensor(w6, wq))
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
    x = np.abs(rng.normal(0, 2, size=(3, 2, 4, 4))).astype(np.float32)

    got = forward(g, x, "method2_base2").astype(np.float64)

    def linear_weights(i, cout):
        w = g.weight_array(i).reshape(cout, -1)
        return dequantize_array(linquant_array(w, lq), lq).T

    cols, oh, ow = im2col_array(x.astype(np.float64).transpose(0, 2, 3, 1), (3, 3), 1, 1)
    value = (cols @ linear_weights(0, 3)).reshape(3, oh, ow, 3).transpose(0, 3, 1, 2)
    acfg = g.act_config(layers[2])
    codes = logquant_array(np.maximum(value, 0), acfg).reshape(3, -1)
    raw = method1_matmul(Tensor(codes, acfg), linear_weights(3, 4))
    want = np.ldexp(raw, -8)
    assert np.array_equal(got, want.astype(np.float32).astype(np.float64))


def test_zero_activation_annihilates_every_mode():
    wq = QuantizerConfig("log", 5, True, 3)
    layers = [act_quant_layer("log", 4), fc(2, 4, wq=wq)]
    g = ModelGraph(layers=layers, fsr=3)
    g.weights[1] = Tensor.from_real(np.array([[1.0, -2.0, 0.5, 4.0]] * 2))
    x = np.zeros((2, 4))
    for mode in ("method1", "method2_base2", "method2_sqrt2"):
        out = forward(g, x, mode)
        assert (out == 0).all()
    out = forward(g, x, "method2_base2", accum="log")
    assert (out == 0).all()


def test_log_accum_close_to_linear_accum():
    rng = np.random.default_rng(67)
    wq = QuantizerConfig("log", 5, True, 2)
    layers = [act_quant_layer("log", 4, fsr_offset=0), fc(3, 16, wq=wq)]
    g = ModelGraph(layers=layers, fsr=4)
    # non-negative weights keep each output on the single-accumulator path
    g.weights[1] = Tensor.from_real(np.abs(rng.normal(0, 1, size=(3, 16))))
    x = np.abs(rng.normal(0, 4, size=(8, 16))).astype(np.float32)
    lin = forward(g, x, "method2_base2", accum="linear").astype(np.float64)
    log = forward(g, x, "method2_base2", accum="log").astype(np.float64)
    # per-step bound 0.15 in the exponent, compounded over the dot length
    ratio = np.ones_like(lin)
    mask = lin != 0
    ratio[mask] = log[mask] / lin[mask]
    assert (ratio > 0).all()
    assert np.abs(np.log2(ratio)).max() <= 0.15 * 16


def _rounding_graph():
    rng = np.random.default_rng(65)
    wq = QuantizerConfig("log", 5, True, 1)
    layers = [
        conv(3, 2, 3, pad=1, wq=wq),
        batchnorm_layer(3),
        relu_layer(),
        act_quant_layer("log", 4, fsr_offset=2),
        maxpool_layer(2),
        fc(4, 3 * 2 * 2, wq=wq),
    ]
    g = ModelGraph(layers=layers, fsr=1)
    g.weights[0] = Tensor.from_real(rng.normal(0, 0.5, size=(3, 2, 3, 3)))
    g.weights[1] = Tensor.from_real(np.stack([rng.uniform(0.5, 2, 3), rng.normal(0, 1, 3),
                                              rng.normal(0, 1, 3), rng.uniform(0.5, 2, 3)]))
    g.weights[5] = Tensor.from_real(rng.normal(0, 0.3, size=(4, 12)))
    # float64 images whose float32 rounding changes most values, as a
    # Fortran-ordered copy so the layout differs from the rounding's too
    x = np.asfortranarray(np.abs(rng.normal(0, 2, size=(5, 2, 4, 4))) + 2.0**-30)
    return g, x


def test_forward_reads_images_as_float32():
    # forward takes plain arrays: a float64 input gives the scores of its
    # float32 rounding, bit for bit, as a C-contiguous float32 array
    g, x = _rounding_graph()
    x32 = x.astype(np.float32)
    assert (x32 != x).any()
    for mode, accum in (("float32", "linear"), ("method1", "linear"),
                        ("method2_base2", "linear"), ("method2_sqrt2", "linear"),
                        ("method2_base2", "log")):
        got = forward(g, x, mode, accum)
        want = forward(g, x32, mode, accum)
        assert got.dtype == np.float32 and got.flags["C_CONTIGUOUS"]
        assert got.shape == (5, 4)
        assert got.tobytes() == want.tobytes(), (mode, accum)


def test_collect_quantizer_inputs_reads_images_as_float32():
    g, x = _rounding_graph()
    got = nn.collect_quantizer_inputs(g, x)
    want = nn.collect_quantizer_inputs(g, x.astype(np.float32))
    assert list(got) == list(want) == [3]
    assert got[3].dtype == np.float64
    assert got[3].tobytes() == want[3].tobytes()


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39], ids=["nan", "-inf", "past_float32"])
def test_forward_and_capture_refuse_non_finite_images(bad):
    # one value that is not finite as float32 is refused in every mode,
    # before any kernel sees it
    g, x = _rounding_graph()
    x[1, 0, 2, 2] = bad
    for mode, accum in (("float32", "linear"), ("method1", "linear"),
                        ("method2_base2", "linear"), ("method2_sqrt2", "linear"),
                        ("method2_base2", "log")):
        with pytest.raises(DomainError, match="images must hold finite float32 values"):
            forward(g, x, mode, accum)
    with pytest.raises(DomainError, match="images must hold finite float32 values"):
        nn.collect_quantizer_inputs(g, x)


def test_forward_mode_validation():
    g = ModelGraph(layers=[fc(1, 2)], fsr=0)
    g.weights[0] = Tensor.from_real(np.ones((1, 2)))
    x = np.ones((1, 2))
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
        forward(g, np.zeros((1, 4, 6, 6)))
    g2 = ModelGraph(layers=[fc(2, 8)], fsr=0)
    with pytest.raises(ConfigError):
        forward(g2, np.zeros((1, 8)))  # missing weights


def test_collect_quantizer_inputs():
    g = simple_graph(
        {0: np.ones((2, 2))},
        [fc(2, 2), relu_layer(), act_quant_layer("log", 4)],
    )
    x = np.array([[1.0, -1.0], [2.0, 0.0]])
    captured = nn.collect_quantizer_inputs(g, x)
    assert list(captured) == [2]
    assert np.allclose(captured[2], np.maximum(x.sum(axis=1, keepdims=True) @ np.ones((1, 2)), 0))


# ---------------------------------------------------------------------------
# empty batches and refusals
# ---------------------------------------------------------------------------

MODE_PAIRS = [("float32", "linear"), ("method1", "linear"),
              ("method2_base2", "linear"), ("method2_base2", "log"),
              ("method2_sqrt2", "linear"), ("method2_sqrt2", "log")]


@pytest.mark.parametrize("mode,accum", MODE_PAIRS)
def test_forward_and_capture_take_an_empty_batch(mode, accum):
    # conv on real inputs, conv on codes, an fc flattening a rank-4 input:
    # zero images give (0, classes) scores and empty captures
    rng = np.random.default_rng(67)
    wq = QuantizerConfig("log", 5, True, 1)
    g = simple_graph(
        {0: rng.normal(0, 0.5, size=(3, 2, 3, 3)), 3: rng.normal(0, 0.5, size=(2, 3, 3, 3)),
         7: rng.normal(0, 0.5, size=(4, 8))},
        [conv(3, 2, 3, pad=1, wq=wq), relu_layer(), act_quant_layer("log", 4),
         conv(2, 3, 3, pad=1, wq=wq), relu_layer(), act_quant_layer("log", 4),
         maxpool_layer(2), fc(4, 8, wq=wq)], fsr=2)
    empty = np.zeros((0, 2, 4, 4), dtype=np.float32)
    scores = forward(g, empty, mode, accum)
    assert scores.shape == (0, 4) and scores.dtype == np.float32
    captured = nn.collect_quantizer_inputs(g, empty)
    assert {i: a.shape for i, a in captured.items()} == {2: (0, 3, 4, 4), 5: (0, 2, 4, 4)}


@pytest.mark.parametrize("kernel", ["method2", "method1", "shifted_input"])
def test_a_term_wider_than_the_word_overflows(kernel):
    # k = 1 and every sum fits float64: a 5-bit top code, at 2**(fsr - 1),
    # against a unit operand.  The kernels bound the one term by each
    # operand's top level, so they compute it exactly wherever the scalar
    # oracle's 32+8 word holds it, and refuse it one fsr higher, where the
    # oracle's word overflows too
    def code(fsr, signed):
        cfg = QuantizerConfig("log", 5, signed, fsr)
        return Tensor(np.full((1, 1), cfg.max_code, np.uint8), cfg)

    one, w12 = np.ones((1, 1)), code(12, True)

    def both(fsr):  # the kernel and its scalar oracle on the top code at fsr
        if kernel == "shifted_input":
            w = code(fsr, True)
            return (lambda: shifted_input_matmul(one, w),
                    lambda: _scalar_shifted(one, w.data, w.qconfig, 0, 0))
        x = code(fsr, False)
        if kernel == "method1":
            return (lambda: method1_matmul(x, one),
                    lambda: _scalar_method1(x.data, one, x.qconfig, 0, 0))
        return (lambda: method2_matmul(x, w12),
                lambda: _scalar_linear(x.data, w12.data, x.qconfig, w12.qconfig, 0, 0))

    lo = 20 if kernel == "method2" else 31  # a 39-bit term: 2**30 at 32+8
    for fsr, raw in ((lo, 1 << 38), (lo + 1, 1 << 39)):
        run, scalar = both(fsr)
        assert run()[0, 0] == scalar() == raw, fsr
    run, scalar = both(lo + 2)
    with pytest.raises(AccumulatorOverflow):
        scalar()
    with pytest.raises(AccumulatorOverflow, match="a single term can span 41 raw bits"):
        run()


def test_a_half_step_term_is_bounded_by_its_own_width():
    # a unit input (raw 256) against the 5-bit sqrt2 top code at fsr 32,
    # 2**31.5 shifted in as 1.5 * 2**31: the term is 3 * 2**38, 40 bits,
    # which the 32+8 word holds; one fsr higher it is 41 bits, and the
    # kernel and the scalar shifts both overflow
    one = np.ones((1, 1))

    def top(fsr):
        cfg = QuantizerConfig("log", 5, True, fsr, base_frac_bits=1)
        return Tensor(np.full((1, 1), cfg.max_code, np.uint8), cfg)

    w = top(32)
    assert shifted_input_matmul(one, w)[0, 0] == _scalar_shifted(one, w.data, w.qconfig, 0, 0) \
        == 3 << 38
    w = top(33)
    with pytest.raises(AccumulatorOverflow):
        _scalar_shifted(one, w.data, w.qconfig, 0, 0)
    with pytest.raises(AccumulatorOverflow, match="a single term can span 41 raw bits"):
        shifted_input_matmul(one, w)


@pytest.mark.parametrize("kernel", ["method1", "shifted_input"])
def test_a_real_word_past_the_accumulator_overflows(kernel):
    # the real operand becomes 32+8 words as AccumulatorWord.from_value
    # makes them, and a word the word cannot hold is refused as there, with
    # AccumulatorOverflow, before the float64 range check can refuse its sum
    one = QuantizerConfig("log", 4, False, 1)  # the top code is 2**(fsr - 1) = 1
    x = Tensor(np.full((1, 1), one.max_code, np.uint8), one)
    top = 2.0 ** 32
    for value in (1.0, top / 4 - 2.0 ** -8, -(top / 4 - 2.0 ** -8),
                  top - 2.0 ** -9, top, -top, 1e30, -1e30):
        try:
            AccumulatorWord.from_value(value)
            refused = False
        except AccumulatorOverflow:
            refused = True
        real = np.array([[value]])
        if kernel == "method1":
            run = functools.partial(method1_matmul, x, real)
        else:
            run = functools.partial(shifted_input_matmul, real, x)
        if not refused:
            assert run()[0, 0] == value * 2 ** 8, value
            continue
        operand = "a weight" if kernel == "method1" else "an input"
        with pytest.raises(AccumulatorOverflow,
                           match=f"^{operand} word spans .* the 32\\+8 bit accumulator$"):
            run()
    assert refused  # the last value is no word


def test_kernels_refuse_linear_codes():
    # a linear-coded Tensor is a valid stored weight, but no kernel operand:
    # its codes carry no exponent to shift by
    lin = QuantizerConfig("linear", 4, True, 0)
    log = QuantizerConfig("log", 4, True, 0)
    codes = np.array([[1, 2], [3, 9]], np.uint8)
    coded_lin, coded_log, real = Tensor.from_codes(codes, lin), Tensor(codes, log), np.ones((2, 2))
    assert np.array_equal(coded_lin.real(), dequantize_array(codes, lin))
    calls = [(method1_matmul, coded_lin, real), (shifted_input_matmul, real, coded_lin)]
    for kernel in (method2_matmul, method2_matmul_logaccum):
        calls += [(kernel, coded_lin, coded_log), (kernel, coded_log, coded_lin)]
    for kernel, *operands in calls:
        with pytest.raises(ConfigError, match="quantized matmul operands must be log codes"):
            kernel(*operands)


def test_forward_runs_a_softmax_tail():
    rng = np.random.default_rng(69)
    w = rng.normal(0, 1, size=(3, 4))
    g = simple_graph({0: w}, [fc(3, 4), nn.LayerSpec(nn.SOFTMAX)])
    x = rng.normal(0, 1, size=(5, 4)).astype(np.float32)
    scores = forward(g, x, "float32")
    logits = x.astype(np.float64) @ w.astype(np.float32).astype(np.float64).T
    assert np.allclose(scores, nn.softmax_array(logits), atol=1e-6)
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-6)
