"""Independent high-precision reference implementations used by the tests.

These deliberately avoid the library's bit-twiddling code paths: they work
from first principles with mpmath (60 significant digits) and exact rational
arithmetic, so agreement with the production kernels is meaningful.  The
last two are loop forms of vectorized set-up code: one sample, or one fsr,
at a time.
"""

from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np

from lognet.datasets import _smooth
from lognet.lognum import (KIND_LOG, DomainError, code_table, linquant_array, log_codes,
                           log_grid_index)

mpmath.mp.dps = 60


def _exact_log2_int(x: float) -> int | None:
    """The integer n with x == 2**n, or None when x is not an exact power."""
    p, q = float(x).as_integer_ratio()
    if p & (p - 1):
        return None
    return p.bit_length() - q.bit_length()


def grid_exponent_ref(x: float, step: Fraction, rounding: str) -> Fraction:
    """Reference exponent rounding of log2(x) onto a grid of the given step.

    "nearest_sqrt2" rounds to the closest grid exponent (the linear-domain
    cut is the geometric midpoint); "floor_msb" rounds down.
    """
    n = _exact_log2_int(x)
    if n is not None:
        return Fraction(n)  # integer exponents lie on both supported grids
    t = mpmath.log(mpmath.mpf(x), 2) / (mpmath.mpf(step.numerator) / step.denominator)
    if rounding == "nearest_sqrt2":
        j = mpmath.floor(t + mpmath.mpf(1) / 2)
    else:
        j = mpmath.floor(t)
    return Fraction(int(j)) * step


def logquant_ref(x: float, bitwidth: int, signed: bool, fsr: int,
                 base_frac_bits: int, rounding: str) -> tuple[int, float]:
    """Reference log quantizer: returns (signed code index, dequantized value).

    Code index 0 means zero; positive indices count grid levels from the
    bottom of the representable range, negated for negative inputs.
    """
    if x == 0:
        return 0, 0.0
    bw_mag = bitwidth - 1 if signed else bitwidth
    m = 1 << bw_mag
    step = Fraction(1, 1 << base_frac_bits)
    e = grid_exponent_ref(abs(x), step, rounding)
    lo = fsr - m * step  # exponents at or below this flush to zero
    if e <= lo:
        return 0, 0.0
    top = fsr - step
    if e > top:
        e = top
    code = m - int((fsr - e) / step)
    value = float(mpmath.power(2, mpmath.mpf(e.numerator) / e.denominator))
    sign = -1 if x < 0 else 1
    return sign * code, sign * value


def linquant_ref(x: float, bitwidth: int, signed: bool, fsr: int) -> tuple[int, float]:
    """Reference uniform quantizer via exact rational arithmetic."""
    bw_mag = bitwidth - 1 if signed else bitwidth
    step = Fraction(2) ** (fsr - bitwidth)
    t = Fraction(x) / step
    code = round(t)  # Fraction rounds half to even, exactly
    lo = -((1 << bw_mag) - 1) if signed else 0
    code = min(max(code, lo), (1 << bw_mag) - 1)
    return code, float(code * step)


def log2_round_ref(x: float, m: int) -> int:
    """Reference of the m-bit mantissa rounding rule for log2."""
    p, q = float(x).as_integer_ratio()
    n = p.bit_length() - q.bit_length()
    frac_m = mpmath.floor((Fraction(x) / Fraction(2) ** n - 1) * (1 << m))
    threshold = mpmath.ceil((mpmath.sqrt(2) - 1) * (1 << m))
    return n + (1 if frac_m >= threshold else 0)


def log2_sum_ref(exponents) -> float:
    """Exact log2 of a sum of powers of two, to float64 precision."""
    acc = mpmath.mpf(0)
    for e in exponents:
        acc += mpmath.power(2, e)
    return float(mpmath.log(acc, 2))


def dot_ref(w, x) -> Fraction:
    """Exact rational dot product."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(w, x)), Fraction(0))


def conv2d_ref(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Brute-force nested-loop convolution, float64.

    x: (N, C, H, W), w: (O, C, kh, kw) -> (N, O, oh, ow).
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    patch = x[ni, :, yi * stride:yi * stride + kh, xi * stride:xi * stride + kw]
                    out[ni, oi, yi, xi] = np.sum(patch * w[oi])
    return out


def pattern_dataset_ref(n: int, classes: int = 10, size: int = 12, seed: int = 0,
                        shift: int = 2, noise: float = 0.1,
                        template_seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``datasets.make_pattern_dataset`` drawing one noise field per sample."""
    rng = np.random.default_rng(seed)
    trng = np.random.default_rng(seed if template_seed is None else template_seed)
    big = size + 2 * shift
    templates = _smooth(trng.uniform(0.0, 1.0, size=(classes, big, big)))
    templates -= templates.min(axis=(1, 2), keepdims=True)
    templates /= templates.max(axis=(1, 2), keepdims=True)
    labels = rng.integers(0, classes, size=n)
    dx = rng.integers(0, 2 * shift + 1, size=n)
    dy = rng.integers(0, 2 * shift + 1, size=n)
    amp = rng.uniform(0.8, 1.2, size=n)
    images = np.empty((n, 1, size, size), dtype=np.float32)
    for i in range(n):
        crop = templates[labels[i], dy[i]:dy[i] + size, dx[i]:dx[i] + size]
        img = amp[i] * crop + rng.normal(0.0, noise, size=(size, size))
        images[i, 0] = np.maximum(img, 0.0)
    return images, labels.astype(np.int64)


def fsr_error_profile_ref(x, cfg_template, fsr_grid) -> list[tuple[int, float]]:
    """``calib.fsr_error_profile`` quantizing at one fsr at a time, each
    with its own config and code table."""
    vals = np.asarray(x, dtype=np.float64).ravel()
    if vals.size == 0:
        raise DomainError("cannot analyze an empty sample")
    grid = log_grid_index(vals, cfg_template) if cfg_template.kind == KIND_LOG else None
    profile = []
    for f in fsr_grid:
        cfg = replace(cfg_template, fsr=int(f))
        codes = linquant_array(vals, cfg) if grid is None else log_codes(grid, cfg)
        err = np.abs(code_table(cfg).value[codes] - vals).mean()
        profile.append((int(f), float(err)))
    if not profile:
        raise DomainError("fsr grid is empty")
    return profile
