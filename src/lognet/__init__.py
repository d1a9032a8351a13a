"""Logarithmic data representation for neural networks.

Quantizers that encode values as powers of 2 (or sqrt(2)), dot-product
kernels that replace every multiply with a bitshift, log-domain
accumulation, FSR calibration utilities, and end-to-end quantized training
of small CNNs.
"""

from .lognum import (
    KIND_LINEAR,
    KIND_LOG,
    ROUND_FLOOR,
    ROUND_NEAREST,
    AccumulatorOverflow,
    AccumulatorWord,
    ConfigError,
    DomainError,
    ExponentWord,
    LinearCode,
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
from .tensor import Tensor, quantize_tensor

__all__ = [
    "KIND_LINEAR",
    "KIND_LOG",
    "ROUND_FLOOR",
    "ROUND_NEAREST",
    "AccumulatorOverflow",
    "AccumulatorWord",
    "ConfigError",
    "DomainError",
    "ExponentWord",
    "LinearCode",
    "LogCode",
    "QuantizerConfig",
    "Tensor",
    "bitshift",
    "dequantize",
    "dot_method1",
    "dot_method2",
    "linquant",
    "log2_floor",
    "log2_round",
    "log_accumulate",
    "logquant",
    "quantize_tensor",
    "quantize_value",
    "shift_mul_halfexp",
]

__version__ = "0.1.0"
