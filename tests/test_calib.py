"""Calibration and error-analysis tests."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lognet import QuantizerConfig, io, nn
from lognet.calib import (
    PROFILE_BLOCK,
    calibrate_fsr,
    calibrate_layers,
    error_histogram,
    fsr_error_profile,
    quant_error_l1,
)
from lognet.datasets import make_pattern_dataset
from lognet.lognum import ConfigError, DomainError
from oracles import fsr_error_profile_ref

REF_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "ref"

LOG3 = QuantizerConfig("log", 3, False, 0)
LOG5S = QuantizerConfig("log", 5, True, 0)


def test_calibrate_powers_of_two_reaches_zero_error():
    sample = np.array([2.0**k for k in range(7)])
    best = calibrate_fsr(sample, LOG3, range(-10, 21))
    cfg = QuantizerConfig("log", 3, False, best)
    assert quant_error_l1(sample, cfg) == 0.0
    assert best == 7  # levels 2^0..2^6 exactly cover the sample


def test_calibrate_all_zero_sample_ties_to_grid_minimum():
    assert calibrate_fsr(np.zeros(16), LOG3, range(-3, 4)) == -3


def test_calibrate_scaling_shifts_fsr_by_one():
    rng = np.random.default_rng(97)
    sample = rng.exponential(2.0, size=4000)
    f1 = calibrate_fsr(sample, LOG3)
    f2 = calibrate_fsr(2.0 * sample, LOG3)
    assert f2 == f1 + 1


def test_calibrate_permutation_invariant():
    rng = np.random.default_rng(101)
    sample = rng.exponential(1.0, size=1000)
    shuffled = sample[rng.permutation(1000)]
    assert calibrate_fsr(sample, LOG3) == calibrate_fsr(shuffled, LOG3)


def test_quant_error_l1_examples():
    exact = np.array([1.0, 4.0, 16.0])
    assert quant_error_l1(exact, QuantizerConfig("log", 3, False, 5)) == 0.0
    got = quant_error_l1(np.array([1.5]), QuantizerConfig("log", 3, False, 5))
    assert got == 0.5  # 1.5 rounds up to 2 on the sqrt2 cut
    with pytest.raises(DomainError):
        quant_error_l1(np.array([]), LOG3)


def test_fsr_error_profile_matches_quant_error_l1():
    # the sweep derives every fsr's codes from one grid index per array;
    # each point must equal quantizing at that fsr on its own, bit for bit
    rng = np.random.default_rng(127)
    x = rng.lognormal(0.0, 3.0, size=5000) * rng.choice([-1.0, 1.0], size=5000)
    x[::7] = 0.0
    x[:4] = [5e-324, -5e-324, 2.0**-1022, -1.5]
    grid = [-900, *range(-10, 21), 900]
    for cfg in (QuantizerConfig("log", 4, False, 0), LOG5S,
                QuantizerConfig("log", 5, True, 0, base_frac_bits=1),
                QuantizerConfig("log", 3, False, 0, rounding="floor_msb"),
                QuantizerConfig("linear", 4, False, 0),
                QuantizerConfig("linear", 5, True, 0)):
        sample = x if cfg.signed else np.abs(x)
        profile = fsr_error_profile(sample, cfg, grid)
        assert [f for f, _ in profile] == grid
        for f, err in profile:
            want = quant_error_l1(sample, replace(cfg, fsr=f))
            assert err.hex() == want.hex(), (cfg, f)
    with pytest.raises(DomainError):
        fsr_error_profile(-np.ones(3), LOG3)


# every template kind the sweep serves: log base 2 and sqrt2, nearest and
# floor, signed and unsigned, and linear signed and unsigned, at 3-5 bits
PROFILE_TEMPLATES = [
    *(QuantizerConfig("log", bits, signed, 0, fb, rounding)
      for bits in (3, 4, 5) for signed in (False, True) for fb in (0, 1)
      for rounding in ("nearest_sqrt2", "floor_msb")),
    *(QuantizerConfig("linear", bits, signed, 0) for bits in (3, 4, 5)
      for signed in (False, True)),
]


def _profile_sample(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    x[::7] = 0.0
    specials = [5e-324, -5e-324, 2.0**-1022, -1.5, 1e300, -2.0**40]
    x[:len(specials)] = specials[:n]
    return x


def _assert_profile_matches_oracle(x, cfg, grid):
    sample = x if cfg.signed else np.abs(x)
    with np.errstate(over="ignore"):  # 1e300 over a linear step of 2**-903
        got = fsr_error_profile(sample, cfg, grid)
        want = fsr_error_profile_ref(sample, cfg, grid)
    assert got == want, (cfg, sample.size, grid)
    assert [np.float64(e).tobytes() for _, e in got] == \
        [np.float64(e).tobytes() for _, e in want]


@pytest.mark.parametrize("cfg", PROFILE_TEMPLATES, ids=str)
def test_fsr_error_profile_matches_per_fsr_oracle(cfg):
    # samples of one, a few, a many-row block and a two-row block; the
    # default grid and the widest accepted fsrs
    for n, seed in ((1, 1), (7, 2), (1000, 3), (PROFILE_BLOCK // 2, 4)):
        x = _profile_sample(n, seed)
        for grid in (range(-10, 21), [-900, -3, 0, 4, 900]):
            _assert_profile_matches_oracle(x, cfg, list(grid))


@pytest.mark.parametrize("n", [PROFILE_BLOCK - 1, PROFILE_BLOCK, PROFILE_BLOCK + 1])
def test_fsr_error_profile_matches_oracle_at_block_edges(n):
    x = _profile_sample(n, n)
    for cfg in (QuantizerConfig("log", 5, True, 0), QuantizerConfig("log", 4, False, 0, 1),
                QuantizerConfig("linear", 4, True, 0)):
        _assert_profile_matches_oracle(x, cfg, list(range(-10, 21)))


def test_fsr_error_profile_matches_oracle_on_captures():
    # the float reference net's activations over 200 images: 230,400,
    # 115,200 and 12,800 values, one fsr per block and then five
    graph = io.read_model(REF_DIR / "float.lgn")
    images, _ = make_pattern_dataset(200, seed=4, template_seed=100)
    captured = nn.collect_quantizer_inputs(graph, images)
    assert sorted(a.size for a in captured.values()) == [12800, 115200, 230400]
    for acts in captured.values():
        for cfg in (QuantizerConfig("log", 4, False, 0), QuantizerConfig("linear", 4, False, 0)):
            _assert_profile_matches_oracle(acts, cfg, list(range(-10, 21)))


def test_fsr_error_profile_keeps_grid_order():
    x = _profile_sample(3000, 5)
    for cfg in (QuantizerConfig("log", 5, True, 0), QuantizerConfig("linear", 5, True, 0)):
        for grid in ([4], [7, -3, 12, 0, -10, 3, 3]):
            _assert_profile_matches_oracle(x, cfg, grid)
            assert [f for f, _ in fsr_error_profile(x, cfg, grid)] == grid


@pytest.mark.parametrize("sample, cfg, grid, error", [
    (np.ones(3), LOG3, [], DomainError),
    (np.ones(3), QuantizerConfig("linear", 4, False, 0), [], DomainError),
    (np.array([]), LOG3, [0, 1], DomainError),
    (np.array([1.0, np.nan]), LOG3, [0, 1], DomainError),
    (np.array([1.0, np.inf]), QuantizerConfig("linear", 4, False, 0), [0, 1], DomainError),
    (np.array([1.0, -2.0]), LOG3, [0], DomainError),
    (np.array([1.0, -2.0]), QuantizerConfig("linear", 4, False, 0), [0, 1], DomainError),
    (np.array([1.0, np.nan]), QuantizerConfig("linear", 4, True, 0), [0, 961], DomainError),
    (np.array([1.0, -2.0]), QuantizerConfig("linear", 4, False, 0), [961, 0], ConfigError),
    (np.ones(3), QuantizerConfig("linear", 4, False, 0), [0, 4, -961], ConfigError),
    (np.ones(3), LOG3, [0, 961], ConfigError),
    (np.ones(3), QuantizerConfig("log", 5, True, 0), [-950, 0], ConfigError),
])
def test_fsr_error_profile_refusals_match_oracle(sample, cfg, grid, error):
    with pytest.raises(error) as want:
        fsr_error_profile_ref(sample, cfg, grid)
    with pytest.raises(error) as got:
        fsr_error_profile(sample, cfg, grid)
    assert str(got.value) == str(want.value)


def test_error_histogram_conservation_and_zero_bin():
    rng = np.random.default_rng(103)
    x = rng.exponential(1.0, size=500)
    edges, counts = error_histogram(x, QuantizerConfig("log", 3, False, 2))
    assert counts.sum() == 500
    assert len(edges) == 257

    exact = np.array([1.0, 2.0, 4.0])
    edges, counts = error_histogram(exact, QuantizerConfig("log", 3, False, 3))
    nz = np.nonzero(counts)[0]
    assert len(nz) == 1
    assert edges[nz[0]] <= 0.0 <= edges[nz[0] + 1]


def test_log_beats_linear_on_heavy_tailed_activations():
    # activation-like samples spanning many octaves: the log quantizer's
    # relative-error profile wins over any uniform step at 3 and 4 bits
    rng = np.random.default_rng(107)
    x = rng.lognormal(0.0, 2.0, size=10**6)
    for bw in (3, 4):
        log_cfg = QuantizerConfig("log", bw, False, 0)
        lin_cfg = QuantizerConfig("linear", bw, False, 0)
        e_log = min(e for _, e in fsr_error_profile(x, log_cfg))
        e_lin = min(e for _, e in fsr_error_profile(x, lin_cfg))
        assert e_log < e_lin


def test_sqrt2_base_halves_weight_error():
    rng = np.random.default_rng(109)
    w = rng.normal(0.0, 1.0, size=10**6)
    base2 = QuantizerConfig("log", 5, True, 0)
    sqrt2 = QuantizerConfig("log", 5, True, 0, base_frac_bits=1)
    e2 = min(e for _, e in fsr_error_profile(w, base2))
    es = min(e for _, e in fsr_error_profile(w, sqrt2))
    assert es <= 0.6 * e2


def test_calibrate_layers_report():
    rng = np.random.default_rng(113)
    samples = {2: rng.exponential(4.0, size=2000), 5: rng.exponential(0.5, size=2000)}
    template = QuantizerConfig("log", 4, False, 0)
    report = calibrate_layers(samples, template, global_fsr=3, fsr_grid=range(-6, 10))
    assert [lc.layer_index for lc in report.layers] == [2, 5]
    for lc in report.layers:
        # both errors are those of quantizing the sample at the chosen fsr
        acts = samples[lc.layer_index]
        assert lc.l1_log == quant_error_l1(acts, replace(template, fsr=lc.chosen_fsr))
        assert lc.l1_linear == quant_error_l1(
            acts, QuantizerConfig("linear", 4, False, lc.chosen_fsr))
        # stored profile re-checks the choice
        best = min(lc.profile, key=lambda t: (t[1], t[0]))
        assert lc.chosen_fsr == best[0]
        assert lc.fsr_offset == lc.chosen_fsr - 3
    # the hotter layer needs a larger full-scale range
    assert report.layers[0].chosen_fsr > report.layers[1].chosen_fsr
    assert "layer 2" in report.summary()
