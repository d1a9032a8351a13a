"""Full-scale-range calibration and quantization-error analysis.

The calibration criterion is the mean L1 quantization error over a grid of
candidate full-scale exponents; ties break toward the smaller fsr.  Error
histograms use signed errors Q(x) - x over symmetric uniform bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .lognum import (KIND_LINEAR, KIND_LOG, DomainError, QuantizerConfig, dequantize_array,
                     linear_values_at, log_grid_index, log_values_at, quantize_array)

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


def fsr_error_profile(x, cfg_template: QuantizerConfig,
                      fsr_grid: Iterable[int] = DEFAULT_FSR_GRID) -> list[tuple[int, float]]:
    """Mean L1 error for every candidate fsr in the grid, in grid order.

    The grid is evaluated in blocks of max(1, ``PROFILE_BLOCK`` // N) fsr
    rows, N being the sample size: each block is one (rows, N) array of
    quantized values (``lognum.log_values_at``, ``linear_values_at``), each
    row the values that fsr's own quantizer gives.  Each row is
    C-contiguous, so ``mean(axis=1)`` sums it in the same pairwise order as
    the 1-D mean of a single fsr's errors: the errors do not depend on the
    block size.
    """
    vals = _as_array(x)
    grid = log_grid_index(vals, cfg_template) if cfg_template.kind == KIND_LOG else None
    fsrs = [int(f) for f in fsr_grid]
    if not fsrs:
        raise DomainError("fsr grid is empty")
    rows = max(1, PROFILE_BLOCK // vals.size)
    profile = []
    for lo in range(0, len(fsrs), rows):
        block = fsrs[lo:lo + rows]
        q = (linear_values_at(vals, cfg_template, block) if grid is None
             else log_values_at(grid, cfg_template, block))
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


@dataclass
class CalibrationReport:
    """Per-layer chosen offsets plus the evidence they were chosen from."""

    global_fsr: int
    layers: list[LayerCalibration] = field(default_factory=list)

    def csv_rows(self) -> list[tuple]:
        rows = []
        for lc in self.layers:
            for f, err in lc.profile:
                rows.append((lc.layer_index, f, err, int(f == lc.chosen_fsr)))
        return rows

    def summary(self) -> str:
        lines = [f"global fsr: {self.global_fsr}"]
        for lc in self.layers:
            lines.append(
                f"layer {lc.layer_index}: fsr {lc.chosen_fsr} "
                f"(offset {lc.fsr_offset:+d}), L1 log {lc.l1_log:.6g}, "
                f"L1 linear {lc.l1_linear:.6g}"
            )
        return "\n".join(lines)


def calibrate_layers(samples: dict[int, np.ndarray], cfg_template: QuantizerConfig,
                     global_fsr: int,
                     fsr_grid: Iterable[int] = DEFAULT_FSR_GRID) -> CalibrationReport:
    """Calibrate every captured quantizer input and report offsets.

    ``samples`` maps layer index to the activations seen entering that
    quantizer (from a float reference forward over calibration images).
    The template kind's L1 error at the chosen fsr is that fsr's profile
    entry; only the other kind quantizes the sample again.
    """
    report = CalibrationReport(global_fsr=global_fsr)
    grid = sorted(fsr_grid)
    for idx in sorted(samples):
        acts = samples[idx]
        profile = fsr_error_profile(acts, cfg_template, grid)
        chosen = _best_fsr(profile)
        other = counterpart(replace(cfg_template, fsr=chosen))
        l1 = {cfg_template.kind: dict(profile)[chosen],
              other.kind: quant_error_l1(acts, other)}
        report.layers.append(LayerCalibration(
            layer_index=idx,
            chosen_fsr=chosen,
            fsr_offset=chosen - global_fsr,
            l1_log=l1[KIND_LOG],
            l1_linear=l1[KIND_LINEAR],
            profile=profile,
        ))
    return report
