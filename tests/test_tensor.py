"""Tensor construction, elementwise quantization, and im2col lowering."""

import numpy as np
import pytest

from lognet import ConfigError, DomainError, QuantizerConfig, Tensor, quantize_tensor
from lognet.lognum import dequantize, logquant
from lognet.tensor import im2col_array

from oracles import conv2d_ref

U3F5 = QuantizerConfig("log", 3, False, 5)


def test_tensor_payload_rules():
    t = Tensor.from_real(np.zeros((2, 3)))
    assert t.shape == (2, 3) and not t.is_quantized
    with pytest.raises(ConfigError):
        Tensor(np.zeros((2, 2)))  # float64 payload without quantizing config
    q = quantize_tensor(t, U3F5)
    assert q.is_quantized and q.data.dtype == np.uint8
    with pytest.raises(ConfigError):
        quantize_tensor(q, U3F5)  # already quantized
    with pytest.raises(ConfigError):  # wire code beyond the config's bitwidth
        Tensor.from_codes(np.array([200], np.uint8), QuantizerConfig("log", 5, True, 0))
    with pytest.raises(ConfigError):
        Tensor.from_codes(np.array([0, 8], np.uint8), U3F5)
    assert Tensor.from_codes(np.array([0, 7], np.uint8), U3F5).real().tolist() == [0.0, 16.0]


def test_quantize_tensor_examples():
    zeros = quantize_tensor(Tensor.from_real(np.zeros((4,))), U3F5)
    assert (zeros.data == 0).all()
    assert (zeros.real() == 0).all()

    got = quantize_tensor(Tensor.from_real(np.array([4.0, 0.9])), U3F5)
    assert got.real().tolist() == [4.0, 1.0]

    shaped = quantize_tensor(Tensor.from_real(np.zeros((2, 3))), U3F5)
    assert shaped.shape == (2, 3)


def test_quantize_tensor_rejects_negative_into_unsigned():
    with pytest.raises(DomainError):
        quantize_tensor(Tensor.from_real(np.array([1.0, -0.5])), U3F5)


def test_quantize_tensor_matches_scalar_path_exactly():
    rng = np.random.default_rng(31)
    configs = [
        U3F5,
        QuantizerConfig("log", 5, True, 2, base_frac_bits=1),
        QuantizerConfig("log", 6, True, -1, rounding="floor_msb"),
        QuantizerConfig("linear", 4, True, 3),
    ]
    for cfg in configs:
        x = rng.normal(0, 8, size=512)
        if not cfg.signed:
            x = np.abs(x)
        t = quantize_tensor(Tensor.from_real(x), cfg)
        vals = t.real()
        x32 = x.astype(np.float32).astype(np.float64)  # storage rounds to f32 first
        if cfg.kind == "log":
            want = [dequantize(logquant(float(v), cfg), cfg) for v in x32]
        else:
            from lognet import linquant
            want = [linquant(float(v), cfg).value for v in x32]
        assert vals.tolist() == want


def test_im2col_1x1_is_reshape():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(2, 4, 4, 3))  # channel-last
    cols, oh, ow = im2col_array(x, (1, 1))
    assert (oh, ow) == (4, 4)
    assert cols.shape == (2 * 16, 3)
    assert np.array_equal(cols, x.reshape(-1, 3))


def test_im2col_3x3_geometry():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    cols, oh, ow = im2col_array(x, (3, 3))
    assert (oh, ow) == (2, 2)
    assert cols.shape == (4, 9)
    # first row is the top-left receptive field in row-major order
    assert cols[0].tolist() == [0, 1, 2, 4, 5, 6, 8, 9, 10]


def test_im2col_zero_pad_uses_zero_codes():
    q = quantize_tensor(Tensor.from_real(np.full((1, 1, 2, 2), 4.0)), U3F5)
    cols, _, _ = im2col_array(q.data.transpose(0, 2, 3, 1), (3, 3), stride=1, pad=1)
    assert cols.dtype == np.uint8
    corner = cols[0]  # receptive field centered at (0, 0)
    assert corner[0] == 0  # padded position carries the zero code
    assert corner[4] == q.data.flat[0]
    assert (Tensor.from_codes(cols, U3F5).real() >= 0).all()


def test_im2col_conv_equals_bruteforce():
    rng = np.random.default_rng(37)
    for stride, pad, hw in [(1, 0, 6), (1, 1, 6), (2, 1, 7)]:
        x = rng.normal(size=(2, 3, hw, hw))
        w = rng.normal(size=(4, 3, 3, 3))
        cols, oh, ow = im2col_array(x.transpose(0, 2, 3, 1), (3, 3), stride=stride,
                                    pad=pad)
        got = (cols @ w.reshape(4, -1).T).reshape(2, oh, ow, 4).transpose(0, 3, 1, 2)
        want = conv2d_ref(x, w, stride=stride, pad=pad)
        assert np.allclose(got, want, atol=1e-12)


def _im2col_loop(x, k, stride, pad):
    """im2col one entry at a time: row (n, y, x), column (c, i, j)."""
    n, h, w, c = x.shape
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    out = np.zeros((n * oh * ow, c * k * k), x.dtype)
    for b in range(n):
        for y in range(oh):
            for xo in range(ow):
                for ch in range(c):
                    for i in range(k):
                        for j in range(k):
                            yy, xx = y * stride + i - pad, xo * stride + j - pad
                            if 0 <= yy < h and 0 <= xx < w:
                                out[(b * oh + y) * ow + xo, (ch * k + i) * k + j] = x[b, yy, xx, ch]
    return out


def test_im2col_equals_the_entry_by_entry_loop():
    # every geometry of kernel 1-3, stride 1-2 and pad 0-2 on the two
    # smallest extents it tiles, values from 1 so that only padding is 0;
    # the result is the k-major view of one buffer
    rng = np.random.default_rng(39)
    padded_taps = 0
    for k in (1, 2, 3):
        for stride in (1, 2):
            for pad in (0, 1, 2):
                sizes = [e for e in range(1, 9)
                         if e + 2 * pad >= k and (e + 2 * pad - k) % stride == 0][:2]
                h, w = sizes[0], sizes[-1]
                oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
                # a tap row i that reads only padding, at every output row
                padded_taps += sum(all(not 0 <= y * stride + i - pad < h for y in range(oh))
                                   for i in range(k))
                for c in (1, 3):
                    for dtype in (np.float64, np.uint8):
                        for n in (0, 2):
                            x = rng.integers(1, 16, size=(n, h, w, c)).astype(dtype)
                            cols, oh_, ow_ = im2col_array(x, (k, k), stride, pad)
                            want = _im2col_loop(x, k, stride, pad)
                            assert (oh_, ow_) == (oh, ow)
                            assert cols.dtype == dtype and cols.T.flags["C_CONTIGUOUS"]
                            assert cols.shape == want.shape
                            assert np.array_equal(cols, want), (k, stride, pad, c, dtype, n)
    assert padded_taps > 0


def test_im2col_incompatible_geometry():
    x = np.zeros((1, 4, 4, 1))
    with pytest.raises(DomainError):
        im2col_array(x, (3, 3), stride=2, pad=0)  # 4 - 3 = 1 not divisible by 2
