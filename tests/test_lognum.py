"""Unit tests for the log-domain numeric kernel."""

import itertools
import math
import sys

import mpmath
import numpy as np
import pytest

from lognet import (
    AccumulatorOverflow,
    AccumulatorWord,
    ConfigError,
    DomainError,
    ExponentWord,
    LogCode,
    QuantizerConfig,
    bitshift,
    dequantize,
    dot_method1,
    dot_method2,
    linquant,
    log2_floor,
    log2_round,
    log_accumulate,
    logquant,
    quantize_value,
    shift_mul_halfexp,
)
from lognet.lognum import (
    ROUND_FLOOR,
    ROUND_NEAREST,
    _log_accumulate_step,
    code_table,
    dequantize_array,
    linear_values_at,
    linquant_array,
    log_accumulate_raw,
    log_grid_index,
    log_values_at,
    logquant_array,
    quantize_array,
)

from oracles import log2_round_ref, log2_sum_ref, logquant_ref, linquant_ref

U3F5 = QuantizerConfig("log", 3, False, 5)
U4F5 = QuantizerConfig("log", 4, False, 5)
S5F3 = QuantizerConfig("log", 5, True, 3)
LIN3F5 = QuantizerConfig("linear", 3, False, 5)


def code_for(cfg, exponent, sign=1):
    c = cfg.num_codes - round((cfg.fsr - exponent) / cfg.step)
    return LogCode.of(sign, c)


# ---------------------------------------------------------------------------
# config and code invariants
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        QuantizerConfig("log", 1, True, 0)  # signed needs >= 2 bits
    with pytest.raises(ConfigError):
        QuantizerConfig("log", 0, False, 0)
    with pytest.raises(ConfigError):
        QuantizerConfig("log", 4, False, 0, base_frac_bits=2)
    with pytest.raises(ConfigError):
        QuantizerConfig("linear", 4, False, 0, base_frac_bits=1)
    with pytest.raises(ConfigError):
        QuantizerConfig("log", 4, False, 0, rounding="stochastic")
    with pytest.raises(ConfigError):
        QuantizerConfig("gaussian", 4, False, 0)
    with pytest.raises(ConfigError):
        QuantizerConfig("log", 8, False, 2000)


def test_bitwidth_mag_counts_sign_bit():
    assert QuantizerConfig("log", 5, True, 0).bitwidth_mag == 4
    assert QuantizerConfig("log", 5, False, 0).bitwidth_mag == 5


def test_logcode_invariants():
    assert LogCode.zero().sign == 1
    with pytest.raises(ConfigError):
        LogCode(-1, 0, True)  # zero must be positive
    with pytest.raises(ConfigError):
        LogCode(1, 0, False)  # code 0 is the zero value
    with pytest.raises(ConfigError):
        LogCode(1, 3, True)


def test_wire_round_trip():
    cfg = S5F3
    for sign in (1, -1):
        for code in range(1, cfg.num_codes):
            c = LogCode.of(sign, code)
            assert LogCode.from_wire(c.wire(cfg), cfg) == c
    assert LogCode.from_wire(LogCode.zero().wire(cfg), cfg) == LogCode.zero()
    with pytest.raises(DomainError):
        LogCode.from_wire(1 << cfg.bitwidth_mag, cfg)  # negative zero
    with pytest.raises(DomainError):
        LogCode.of(-1, 2).wire(U3F5)  # negative into unsigned


# ---------------------------------------------------------------------------
# log2 floor / round
# ---------------------------------------------------------------------------

def test_log2_floor_examples():
    assert log2_floor(1) == 0
    assert log2_floor(8) == 3
    assert log2_floor(5) == 2


def test_log2_floor_matches_exact_floor():
    rng = np.random.default_rng(7)
    for x in rng.uniform(1e-6, 1e6, size=2000):
        assert log2_floor(float(x)) == math.floor(math.log2(x))
    for k in range(-40, 41):
        assert log2_floor(math.ldexp(1.0, k)) == k
        assert log2_floor(math.ldexp(1.0, k) * 1.999) == k


def test_log2_floor_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            log2_floor(bad)


def test_log2_round_examples():
    assert log2_round(1.0, 4) == 0
    assert log2_round(1.5, 4) == 1
    assert log2_round(1.375, 4) == 0


def test_log2_round_matches_reference():
    rng = np.random.default_rng(11)
    for m in (1, 2, 4, 6, 8):
        for x in rng.uniform(0.01, 100.0, size=400):
            assert log2_round(float(x), m) == log2_round_ref(float(x), m)


def test_log2_round_disagreement_characterized():
    # exhaustive sweep of all m-bit mantissas for m <= 8: the rule may differ
    # from true round-to-nearest only when truncating the mantissa fraction
    # crosses the sqrt(2)-1 cut
    for m in range(1, 9):
        extra = 6  # mantissa bits beyond the examined ones
        for k in range(1 << (m + extra)):
            x = 1.0 + k / (1 << (m + extra))
            got = log2_round(x, m)
            exact = round(math.log2(x))
            if got != exact:
                f_trunc = math.floor((x - 1.0) * (1 << m)) / (1 << m)
                assert f_trunc < math.sqrt(2) - 1 <= (x - 1.0)


# ---------------------------------------------------------------------------
# quantizers
# ---------------------------------------------------------------------------

def test_logquant_examples():
    assert logquant(0.0, U3F5).is_zero
    c = logquant(5.0, U3F5)
    assert dequantize(c, U3F5) == 4.0
    assert dequantize(logquant(1000.0, U3F5), U3F5) == 16.0
    assert logquant(0.001, U3F5).is_zero


def test_logquant_domain_errors():
    with pytest.raises(DomainError):
        logquant(-1.0, U3F5)
    with pytest.raises(DomainError):
        logquant(math.nan, U3F5)
    with pytest.raises(ConfigError):
        logquant(1.0, LIN3F5)


def test_logquant_signed():
    c = logquant(-5.0, S5F3)
    assert c.sign == -1
    assert dequantize(c, S5F3) == -4.0
    assert logquant(-1e-12, S5F3).is_zero  # flushed negatives become +0


def test_dequantize_examples():
    assert dequantize(LogCode.zero(), U3F5) == 0.0
    s5f5 = QuantizerConfig("log", 5, True, 5)
    assert dequantize(code_for(s5f5, 3, -1), s5f5) == -8.0
    half = QuantizerConfig("log", 5, False, 4, base_frac_bits=1)
    got = dequantize(code_for(half, 2.5), half)
    assert got == pytest.approx(2**2.5, rel=1e-15)


def test_linquant_examples():
    assert linquant(0.0, LIN3F5) == (0, 0.0)
    assert linquant(5.9, LIN3F5) == (1, 4.0)
    assert linquant(100.0, LIN3F5) == (7, 28.0)


def test_linquant_signed_mirror():
    cfg = QuantizerConfig("linear", 4, True, 3)
    code, value = linquant(-100.0, cfg)
    assert (code, value) == (-7, -3.5)
    assert linquant(0.25, cfg) == (0, 0.0)  # below half a step


@pytest.mark.parametrize("cfg", [
    U3F5, U4F5, S5F3, LIN3F5,
    QuantizerConfig("log", 5, True, 3, base_frac_bits=1),
    QuantizerConfig("log", 4, False, -2, rounding=ROUND_FLOOR),
    QuantizerConfig("linear", 5, True, 2),
])
def test_round_trip_idempotence(cfg):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-80, 80, size=500)
    if not cfg.signed:
        xs = np.abs(xs)
    for x in xs:
        q1 = quantize_value(float(x), cfg)
        q2 = quantize_value(q1, cfg)
        assert q1 == q2


@pytest.mark.parametrize("cfg", [
    U3F5, U4F5, LIN3F5,
    QuantizerConfig("log", 4, False, 5, base_frac_bits=1),
    QuantizerConfig("log", 4, False, 5, rounding=ROUND_FLOOR),
])
def test_monotone_on_nonnegatives(cfg):
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0, 100, size=800))
    qs = [quantize_value(float(x), cfg) for x in xs]
    assert all(a <= b for a, b in zip(qs, qs[1:]))


def test_logquant_against_reference_oracle():
    rng = np.random.default_rng(13)
    configs = [
        ("log", 3, False, 5, 0, "nearest_sqrt2"),
        ("log", 4, False, -1, 0, "floor_msb"),
        ("log", 5, True, 3, 1, "nearest_sqrt2"),
        ("log", 6, True, 0, 1, "floor_msb"),
    ]
    for kind, bw, signed, fsr, fb, mode in configs:
        cfg = QuantizerConfig(kind, bw, signed, fsr, base_frac_bits=fb, rounding=mode)
        lo = 2.0 ** (fsr - cfg.num_codes * cfg.step - 2)
        xs = np.exp(rng.uniform(np.log(lo), np.log(2.0 ** (fsr + 2)), size=300))
        if signed:
            xs = np.concatenate([xs, -xs])
        for x in xs:
            _, want = logquant_ref(float(x), bw, signed, fsr, fb, mode)
            assert quantize_value(float(x), cfg) == want, (x, cfg)


def test_linquant_against_reference_oracle():
    rng = np.random.default_rng(17)
    for bw, signed, fsr in [(3, False, 5), (4, True, 2), (6, False, -3), (5, True, 8)]:
        cfg = QuantizerConfig("linear", bw, signed, fsr)
        xs = rng.uniform(0, 2.0 ** (fsr + 1), size=400)
        if signed:
            xs = np.concatenate([xs, -xs])
        for x in xs:
            code, want = linquant_ref(float(x), bw, signed, fsr)
            got = linquant(float(x), cfg)
            assert (got.code, got.value) == (code, want)


def test_array_paths_match_scalar_paths():
    rng = np.random.default_rng(19)
    configs = [
        U3F5, S5F3, LIN3F5,
        QuantizerConfig("log", 5, True, 2, base_frac_bits=1),
        QuantizerConfig("log", 4, False, 5, rounding=ROUND_FLOOR),
        QuantizerConfig("linear", 5, True, 4),
    ]
    for cfg in configs:
        xs = rng.uniform(-40, 40, size=1000)
        if not cfg.signed:
            xs = np.abs(xs)
        # include exact grid points and the zero neighborhood
        xs = np.concatenate([xs, [0.0, 1.0, 2.0, 4.0, 0.5, 2.0**cfg.fsr]])
        if cfg.kind == "log":
            codes = logquant_array(xs, cfg)
            scalars = [logquant(float(x), cfg) for x in xs]
            assert all(int(cw) == s.wire(cfg) for cw, s in zip(codes, scalars))
            vals = dequantize_array(codes, cfg)
            assert all(v == dequantize(s, cfg) for v, s in zip(vals, scalars))
        else:
            codes = linquant_array(xs, cfg)
            vals = dequantize_array(codes, cfg)
            for cw, v, x in zip(codes, vals, xs):
                assert v == linquant(float(x), cfg).value

    # the code table, which dequantize_array gathers from, row by row
    # against the scalar decoders, at the lowest and highest fsr accepted
    def fsr_range(**kw):
        ok = []
        for f in range(-960, 961):
            try:
                ok.append(QuantizerConfig(fsr=f, **kw).fsr)
            except ConfigError:
                pass
        return ok[0], ok[-1]

    # every decision cut of a log config, from the flush-to-zero cut to the
    # saturation cut: the float nearest the true cut and its neighbours on
    # both sides straddle it, whichever way it rounds
    def cut_points(cfg):
        den = 1 << (cfg.base_frac_bits + 1)
        half = 1 if cfg.rounding == ROUND_NEAREST else 0
        bottom = cfg.fsr * (1 << cfg.base_frac_bits) - cfg.num_codes
        pts = []
        for j in range(bottom, bottom + cfg.num_codes + 2):
            cut = float(mpmath.power(2, mpmath.mpf(2 * j - half) / den))
            pts += [math.nextafter(cut, 0.0), cut, math.nextafter(cut, math.inf)]
        return pts

    tiny = math.ldexp(1.0, -1022)
    specials = [0.0, -0.0, 5e-324, tiny, math.nextafter(tiny, 0.0),
                math.nextafter(tiny, 1.0), sys.float_info.max]

    for kind, bw, signed, fb, rounding in itertools.product(
            ("log", "linear"), (1, 2, 5, 8), (False, True), (0, 1),
            (ROUND_FLOOR, ROUND_NEAREST)):
        if (signed and bw == 1) or (kind == "linear" and fb):
            continue
        kw = dict(kind=kind, bitwidth=bw, signed=signed, base_frac_bits=fb, rounding=rounding)
        for fsr in (*fsr_range(**kw), 0):
            cfg = QuantizerConfig(fsr=fsr, **kw)
            if kind == "log":
                xs = np.array(cut_points(cfg) + specials)
                if signed:
                    xs = np.concatenate([xs, -xs])
                codes = logquant_array(xs, cfg)
                vals = dequantize_array(codes, cfg)
                for x, cw, v in zip(xs.tolist(), codes.tolist(), vals.tolist()):
                    lc = logquant(x, cfg)
                    ref_code, ref_value = logquant_ref(x, bw, signed, fsr, fb, rounding)
                    assert cw == lc.wire(cfg) and lc.sign * lc.code == ref_code, (cfg, x)
                    assert v.hex() == dequantize(lc, cfg).hex() and v == ref_value, (cfg, x)
            t = code_table(cfg)
            assert all(col.shape == (1 << bw,) and not col.flags.writeable for col in t)
            for c in range(1 << bw):
                mag, neg = c & cfg.max_code, signed and c >> cfg.bitwidth_mag
                if neg and mag == 0:
                    continue  # negative zero is not a valid wire code
                if kind == "log":
                    lc = LogCode.from_wire(c, cfg)
                    want = dequantize(lc, cfg)
                    if mag:
                        assert t.esteps[c] * cfg.step == cfg.level_exponent(mag), (cfg, c)
                else:
                    want = (-mag if neg else mag) * cfg.linear_step
                assert float(t.value[c]).hex() == want.hex(), (cfg, c)
                assert t.sign[c] == (-1 if neg else 1) and t.nonzero[c] == (mag != 0)
            assert dequantize_array(np.arange(1 << bw), cfg).tolist() == t.value.tolist()
            with pytest.raises(DomainError):
                dequantize_array(np.array([0, 1 << bw]), cfg)
            with pytest.raises(DomainError):
                dequantize_array(np.array([1, -1]), cfg)  # not the top code


def test_values_at_fsrs_match_per_fsr_quantizers():
    rng = np.random.default_rng(29)
    tiny = math.ldexp(1.0, -1022)
    xs = np.concatenate([rng.lognormal(0.0, 8.0, size=500), np.ldexp(1.0, np.arange(-1074, 1024)),
                         [0.0, 5e-324, tiny, math.nextafter(tiny, 0.0), sys.float_info.max]])
    for kind, bw, signed, fb, rounding in itertools.product(
            ("log", "linear"), (1, 2, 5, 8), (False, True), (0, 1),
            (ROUND_FLOOR, ROUND_NEAREST)):
        if (signed and bw == 1) or (kind == "linear" and (fb or rounding == ROUND_FLOOR)):
            continue
        kw = dict(kind=kind, bitwidth=bw, signed=signed, base_frac_bits=fb, rounding=rounding)
        accepted = []
        for f in range(-970, 971):
            try:
                accepted.append(QuantizerConfig(fsr=f, **kw).fsr)
            except ConfigError:
                pass
        # one interval, so a list of fsrs is refused or accepted by its ends
        assert accepted == list(range(accepted[0], accepted[-1] + 1)), kw
        fsrs = [accepted[-1], -3, accepted[0], 0, 7, accepted[0] + 1]
        template = QuantizerConfig(fsr=0, **kw)
        sample = np.concatenate([xs, -xs]) if signed else xs
        with np.errstate(over="ignore"):  # sys.float_info.max over a linear step
            if kind == "log":
                got = log_values_at(log_grid_index(sample, template), template, fsrs)
            else:
                got = linear_values_at(sample, template, fsrs)
            assert got.shape == (len(fsrs), sample.size)
            for row, f in zip(got, fsrs):
                cfg = QuantizerConfig(fsr=f, **kw)
                want = dequantize_array(quantize_array(sample, cfg), cfg)
                # a linear zero level keeps the sign of the input it rounds from
                assert np.array_equal(row, want), (cfg, f)
                if kind == "log":
                    assert row.tobytes() == want.tobytes(), (cfg, f)
        for bad in ([0, accepted[-1] + 1], [accepted[0] - 1, 0]):
            with pytest.raises(ConfigError):
                (log_values_at(log_grid_index(sample, template), template, bad) if kind == "log"
                 else linear_values_at(sample, template, bad))


# ---------------------------------------------------------------------------
# fixed-point words and shifts
# ---------------------------------------------------------------------------

def test_bitshift_examples():
    a = AccumulatorWord.from_value(3.0)
    assert bitshift(a, 2).value == 12.0
    assert bitshift(AccumulatorWord.from_value(4.0), -1).value == 2.0
    assert bitshift(AccumulatorWord.from_value(1.0), -2).value == 0.25


def test_bitshift_truncates_toward_minus_inf():
    # raw two's complement shift: -1 raw stays -1 raw, not 0
    w = AccumulatorWord(-1, frac_bits=8)
    assert bitshift(w, -3).raw == -1
    assert bitshift(AccumulatorWord(1, frac_bits=8), -3).raw == 0


def test_bitshift_overflow():
    big = AccumulatorWord.from_value(2.0**30)
    with pytest.raises(AccumulatorOverflow):
        bitshift(big, 12)


def test_accumulator_word_range_check():
    with pytest.raises(AccumulatorOverflow):
        AccumulatorWord(1 << 40)
    AccumulatorWord((1 << 40) - 1)  # just inside


def test_exponent_word_representability():
    assert ExponentWord.from_value(3.25).raw == 52
    assert ExponentWord.from_value(-1.5).value == -1.5
    with pytest.raises(DomainError):
        ExponentWord.from_value(0.3)


def test_shift_mul_halfexp_examples():
    assert shift_mul_halfexp(ExponentWord.from_value(3.0)).value == 8.0
    assert shift_mul_halfexp(ExponentWord.from_value(0.5)).value == 1.5
    # floor decomposition: 2**floor(-1.5) * (1 + 0.5) = 0.25 * 1.5
    assert shift_mul_halfexp(ExponentWord.from_value(-1.5)).value == 0.375


def test_shift_mul_halfexp_error_bound():
    # |log2(result) - e| <= 0.0861 + 2**-f over a dense sweep
    f = 4
    bound = 0.0861 + 2.0**-f
    for raw in range(-12 << f, (12 << f) + 1):
        e = ExponentWord(raw, f)
        got = shift_mul_halfexp(e, frac_bits=16)
        assert got.value > 0
        assert abs(math.log2(got.value) - e.value) <= bound


# ---------------------------------------------------------------------------
# log-domain accumulation
# ---------------------------------------------------------------------------

def ew(v):
    return ExponentWord.from_value(v)


def test_log_accumulate_examples():
    assert log_accumulate([ew(3), ew(3)]).value == 4.0
    assert log_accumulate([ew(3), ew(1)]).value == 3.25
    assert log_accumulate([ew(0)]).value == 0.0
    with pytest.raises(DomainError):
        log_accumulate([])


def test_log_accumulate_pair_error_bound():
    rng = np.random.default_rng(23)
    f = 4
    worst = 0.0
    for _ in range(20000):
        a, b = rng.integers(-8 << f, 8 << f, size=2)
        if abs(int(a) - int(b)) > 16 << f:
            continue
        s = log_accumulate([ExponentWord(int(a), f), ExponentWord(int(b), f)])
        exact = log2_sum_ref([int(a) / (1 << f), int(b) / (1 << f)])
        worst = max(worst, abs(s.value - exact))
    assert worst <= 0.15


def test_log_accumulate_raw_matches_scalar_step():
    # every difference up to one octave past where the correction vanishes
    for f in range(7):
        lim = (f + 2) << f
        d = np.arange(-lim, lim + 1)
        for p in (0, -37, 1000):
            got = log_accumulate_raw(d + p, np.full_like(d, p), f)
            assert got.tolist() == [_log_accumulate_step(int(v) + p, p, f) for v in d]


def test_log_accumulate_order_sensitivity_is_bounded():
    # the recursion is order dependent, but every order stays within the
    # per-step bound times the sequence length
    vals = [3.0, -1.25, 0.5, 2.0, 2.0, -4.0]
    exact = log2_sum_ref(vals)
    for perm in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [2, 0, 5, 1, 4, 3]):
        s = log_accumulate([ew(vals[i]) for i in perm])
        assert abs(s.value - exact) <= 0.15 * len(vals)


# ---------------------------------------------------------------------------
# dot products
# ---------------------------------------------------------------------------

def test_dot_method1_examples():
    assert dot_method1([3.0], [code_for(U4F5, 2)], U4F5).value == 12.0
    assert dot_method1([1.0, 1.0], [code_for(U4F5, 0)] * 2, U4F5).value == 2.0
    assert dot_method1([2.5], [LogCode.zero()], U4F5).value == 0.0


def test_dot_method1_errors():
    with pytest.raises(DomainError):
        dot_method1([1.0, 2.0], [LogCode.zero()], U4F5)
    with pytest.raises(ConfigError):
        dot_method1([1.0], [code_for(S5F3, 1)], S5F3)  # signed codes rejected


def test_dot_method2_examples():
    assert dot_method2([code_for(S5F3, 1)], [code_for(U4F5, 2)], S5F3, U4F5).value == 8.0
    assert dot_method2([code_for(S5F3, 1, -1)], [code_for(U4F5, 2)], S5F3, U4F5).value == -8.0
    assert dot_method2([code_for(S5F3, 0)] * 2, [code_for(U4F5, 0)] * 2, S5F3, U4F5).value == 2.0


def test_dot_method2_log_mode_subtracts_sign_planes():
    w = [code_for(S5F3, 1, -1), code_for(S5F3, 1)]
    x = [code_for(U4F5, 2)] * 2
    assert dot_method2(w, x, S5F3, U4F5, "log").value == 0.0
    only_neg = dot_method2([code_for(S5F3, 2, -1)], [code_for(U4F5, 1)], S5F3, U4F5, "log")
    assert only_neg.value == -8.0


def test_dot_methods_power_of_two_exactness():
    rng = np.random.default_rng(29)
    cfg_x = QuantizerConfig("log", 4, False, 5)
    cfg_w = QuantizerConfig("log", 6, True, 5)
    for _ in range(200):
        n = int(rng.integers(1, 48))
        xe = rng.integers(-4, 5, size=n)
        we = rng.integers(-4, 5, size=n)
        ws = rng.choice([-1, 1], size=n)
        x_codes = [code_for(cfg_x, int(e)) for e in xe]
        w_codes = [code_for(cfg_w, int(e), int(s)) for e, s in zip(we, ws)]
        w_real = [float(s) * 2.0 ** int(e) for e, s in zip(we, ws)]
        x_real = [2.0 ** int(e) for e in xe]
        exact = float(np.dot(w_real, x_real))
        assert dot_method1(w_real, x_codes, cfg_x).value == exact
        assert dot_method2(w_codes, x_codes, cfg_w, cfg_x, "linear").value == exact


def test_dot_method2_zero_annihilation():
    w = [code_for(S5F3, 2), code_for(S5F3, 1, -1)]
    x = [LogCode.zero(), LogCode.zero()]
    for mode in ("linear", "log"):
        assert dot_method2(w, x, S5F3, U4F5, mode).value == 0.0
