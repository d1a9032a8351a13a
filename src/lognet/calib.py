"""Full-scale-range calibration and quantization-error analysis.

The calibration criterion is the mean L1 quantization error over a grid of
candidate full-scale exponents; ties break toward the smaller fsr.  Error
histograms use signed errors Q(x) - x over symmetric uniform bins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .lognum import (KIND_LINEAR, KIND_LOG, DomainError, QuantizerConfig, dequantize_array,
                     linear_values_at, log_grid_index, log_level_positions, log_values_at,
                     quantize_array)

DEFAULT_FSR_GRID = range(-10, 21)
# (fsr rows) x (sample values) that one block of ``fsr_error_profile`` holds
PROFILE_BLOCK = 1 << 16


def _quantized_values(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    return dequantize_array(quantize_array(x, cfg), cfg)


def _as_array(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        raise DomainError("cannot analyze an empty sample")
    return x


def quant_errors(x, cfg: QuantizerConfig) -> np.ndarray:
    """Signed elementwise quantization errors Q(x) - x, flattened."""
    vals = _as_array(x)
    return _quantized_values(vals, cfg) - vals


def quant_error_l1(x, cfg: QuantizerConfig) -> float:
    """Mean absolute elementwise quantization error (1/N) * sum |Q(x) - x|."""
    return float(np.abs(quant_errors(x, cfg)).mean())


def counterpart(cfg: QuantizerConfig) -> QuantizerConfig:
    """The quantizer of the other kind at ``cfg``'s bitwidth, sign and fsr,
    on the base-2 grid with the default rounding: what a log-vs-linear L1
    comparison holds ``cfg`` against."""
    other = KIND_LINEAR if cfg.kind == KIND_LOG else KIND_LOG
    return QuantizerConfig(other, cfg.bitwidth, cfg.signed, cfg.fsr)


def log_linear_l1(x, cfg: QuantizerConfig, own_l1: float) -> tuple[float, float]:
    """The (log, linear) pair of mean L1 errors on ``x``: ``own_l1``, the
    error ``cfg`` leaves, and the error of its ``counterpart``."""
    other = quant_error_l1(x, counterpart(cfg))
    return (own_l1, other) if cfg.kind == KIND_LOG else (other, own_l1)


def fsr_error_profile(x, cfg_template: QuantizerConfig,
                      fsr_grid: Iterable[int] = DEFAULT_FSR_GRID) -> list[tuple[int, float]]:
    """Mean L1 error for every candidate fsr in the grid, in grid order.

    A log element's quantized value depends only on its grid index and
    sign, so the log sweep builds one (len(grid), positions) table of
    quantized values for every fsr (``lognum.log_values_at`` on the levels
    of ``lognum.log_level_positions``) and gathers each row at the
    elements' fixed positions.  Linear rows come from
    ``lognum.linear_values_at``.  The grid is evaluated in blocks of
    max(1, ``PROFILE_BLOCK`` // N) fsr rows, N being the sample size; each
    block is one (rows, N) array whose row holds the values that fsr's own
    quantizer gives.  ``np.take`` along axis 1 makes each row C-contiguous,
    so ``mean(axis=1)`` sums it in the same pairwise order as the 1-D mean
    of a single fsr's errors: the errors depend neither on the table nor on
    the block size.
    """
    vals = _as_array(x)
    grid = log_grid_index(vals, cfg_template) if cfg_template.kind == KIND_LOG else None
    fsrs = [int(f) for f in fsr_grid]
    if not fsrs:
        raise DomainError("fsr grid is empty")
    if grid is not None:
        positions, levels = log_level_positions(grid, cfg_template, fsrs)
        table = log_values_at(levels, cfg_template, fsrs)
    rows = max(1, PROFILE_BLOCK // vals.size)
    profile = []
    for lo in range(0, len(fsrs), rows):
        block = fsrs[lo:lo + rows]
        q = (linear_values_at(vals, cfg_template, block) if grid is None
             else np.take(table[lo:lo + rows], positions, axis=1, mode="clip"))
        q -= vals
        profile += zip(block, np.abs(q, out=q).mean(axis=1).tolist())
    return profile


def _best_fsr(profile: list[tuple[int, float]]) -> int:
    """The fsr of least error in an ascending profile; ``min`` keeps the
    first of equal errors, so ties go to the smaller fsr."""
    return min(profile, key=lambda fe: fe[1])[0]


def calibrate_fsr(sample, cfg_template: QuantizerConfig,
                  fsr_grid: Iterable[int] = DEFAULT_FSR_GRID) -> int:
    """The grid fsr minimizing mean L1 error, ties toward smaller fsr."""
    return _best_fsr(fsr_error_profile(sample, cfg_template, sorted(fsr_grid)))


def error_histogram(x, cfg: QuantizerConfig, bins: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of signed errors Q(x) - x (``signed_error_histogram``)."""
    return signed_error_histogram(quant_errors(x, cfg), bins)


def signed_error_histogram(errs: np.ndarray, bins: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of signed errors, as ``quant_errors`` returns them.

    Bins are uniform over [-max|err|, +max|err|]; an all-exact sample
    degenerates to a unit window so everything lands in the zero bin.
    Returns (edges, counts) with len(edges) == bins + 1.
    """
    if bins < 1:
        raise DomainError("need at least one histogram bin")
    peak = float(np.abs(errs).max())
    if peak == 0.0:
        peak = 0.5
    counts, edges = np.histogram(errs, bins=bins, range=(-peak, peak))
    return edges, counts


@dataclass
class LayerCalibration:
    """Calibration outcome for one quantizer layer."""

    layer_index: int
    chosen_fsr: int
    fsr_offset: int
    l1_log: float
    l1_linear: float
    profile: list[tuple[int, float]]


def calibrate_layers(samples: dict[int, np.ndarray], configs: dict[int, QuantizerConfig],
                     global_fsr: int,
                     fsr_grid: Iterable[int] = DEFAULT_FSR_GRID) -> list[LayerCalibration]:
    """Calibrate every captured quantizer input under its own quantizer.

    ``samples`` maps layer index to the activations seen entering that
    quantizer (from a float reference forward over calibration images), and
    ``configs`` maps it to the layer's quantizer; its fsr is the one thing
    calibration sets.  Returns one ``LayerCalibration`` per layer, in layer
    order.  A config's own L1 error at the chosen fsr is that fsr's profile
    entry; only its counterpart quantizes the sample again.
    """
    grid = sorted(fsr_grid)
    layers = []
    for idx in sorted(samples):
        profile = fsr_error_profile(samples[idx], configs[idx], grid)
        chosen = _best_fsr(profile)
        l1_log, l1_linear = log_linear_l1(samples[idx], replace(configs[idx], fsr=chosen),
                                          dict(profile)[chosen])
        layers.append(LayerCalibration(idx, chosen, chosen - global_fsr,
                                       l1_log, l1_linear, profile))
    return layers
