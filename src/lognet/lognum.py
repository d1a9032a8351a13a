"""Core log-domain numeric kernel.

Values are encoded as a sign plus a small unsigned code that selects an
exponent on a power-of-two (or power-of-sqrt(2)) grid.  Dot products then
reduce to bitshifts and integer adds; no multiplier is ever needed.

Everything here is exact: scalar quantization runs on integer arithmetic
derived from ``float.as_integer_ratio``; the vectorized path reads each
octave off ``np.frexp`` and compares the mantissa against cuts pre-rounded
to the smallest float not below the true (irrational) boundary, so scalar
and array results agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

SQRT2 = math.sqrt(2.0)

KIND_LOG = "log"
KIND_LINEAR = "linear"

#: round an exponent down, i.e. keep the position of the leading one bit
ROUND_FLOOR = "floor_msb"
#: round to the nearest exponent; the linear-domain cut sits at sqrt(2) * 2^n
ROUND_NEAREST = "nearest_sqrt2"

_ROUNDINGS = (ROUND_FLOOR, ROUND_NEAREST)

# exponents beyond this leave float64 range once dequantized
_MAX_ABS_EXPONENT = 960


class ConfigError(ValueError):
    """Invalid quantizer or word configuration."""


class DomainError(ValueError):
    """Operand outside an operation's domain (non-positive, wrong sign, ...)."""


class AccumulatorOverflow(OverflowError):
    """A fixed-point word exceeded its declared range."""


# ---------------------------------------------------------------------------
# quantizer configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantizerConfig:
    """Full description of a quantizer; two values quantize identically if
    their configs compare equal (linear configs that differ only in
    ``rounding`` quantize identically too: linear rounding is fixed).

    ``fsr`` is the full-scale exponent: the top of the representable range in
    the linear domain is 2**fsr.  ``base_frac_bits`` selects the exponent
    grid: 0 gives integer exponents (base 2), 1 gives half-integer exponents
    (base sqrt(2)).  ``bitwidth`` counts the sign bit when ``signed``.
    """

    kind: str
    bitwidth: int
    signed: bool
    fsr: int
    base_frac_bits: int = 0
    rounding: str = ROUND_NEAREST

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LOG, KIND_LINEAR):
            raise ConfigError(f"unknown quantizer kind {self.kind!r}")
        min_bits = 2 if self.signed else 1
        if not isinstance(self.bitwidth, int) or self.bitwidth < min_bits:
            raise ConfigError(
                f"bitwidth must be an integer >= {min_bits} "
                f"({'signed' if self.signed else 'unsigned'}), got {self.bitwidth!r}"
            )
        if self.bitwidth > 8:
            raise ConfigError("bitwidth > 8 not supported (codes are stored one per byte)")
        if self.base_frac_bits not in (0, 1):
            raise ConfigError("base_frac_bits must be 0 (base 2) or 1 (base sqrt2)")
        if self.rounding not in _ROUNDINGS:
            raise ConfigError(f"unknown rounding mode {self.rounding!r}")
        if not isinstance(self.fsr, int) or isinstance(self.fsr, bool):
            raise ConfigError(f"fsr must be an integer, got {self.fsr!r}")
        if self.kind == KIND_LINEAR and self.base_frac_bits != 0:
            raise ConfigError("linear quantizers support base 2 only")
        if abs(self.fsr) > _MAX_ABS_EXPONENT or (
            self.kind == KIND_LOG
            and self.fsr - self.num_codes * self.step < -_MAX_ABS_EXPONENT
        ):
            raise ConfigError("fsr places the exponent grid outside float64 range")

    @property
    def bitwidth_mag(self) -> int:
        return self.bitwidth - 1 if self.signed else self.bitwidth

    @property
    def num_codes(self) -> int:
        return 1 << self.bitwidth_mag

    @property
    def max_code(self) -> int:
        return self.num_codes - 1

    @property
    def step(self) -> float:
        """Exponent grid step: 1.0 for base 2, 0.5 for base sqrt(2)."""
        return math.ldexp(1.0, -self.base_frac_bits)

    @property
    def linear_step(self) -> float:
        """Linear quantizer step size 2**(fsr - bitwidth)."""
        return math.ldexp(1.0, self.fsr - self.bitwidth)

    def level_exponent(self, code: int) -> float:
        """Grid exponent represented by a nonzero magnitude code."""
        if not 1 <= code <= self.max_code:
            raise DomainError(f"code {code} outside 1..{self.max_code}")
        return (self.fsr * (1 << self.base_frac_bits) - (self.num_codes - code)) * self.step


# ---------------------------------------------------------------------------
# scalar log codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogCode:
    """Sign + magnitude code on the exponent grid.  Code 0 is reserved for
    exact zero (it always carries a positive sign)."""

    sign: int
    code: int
    is_zero: bool

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ConfigError(f"sign must be +1 or -1, got {self.sign!r}")
        if self.code < 0:
            raise ConfigError("code must be non-negative")
        if self.is_zero != (self.code == 0):
            raise ConfigError("zero flag inconsistent with code 0")
        if self.is_zero and self.sign != 1:
            raise ConfigError("the zero code carries a positive sign")

    @staticmethod
    def zero() -> "LogCode":
        return LogCode(1, 0, True)

    @staticmethod
    def of(sign: int, code: int) -> "LogCode":
        return LogCode(1 if code == 0 else sign, code, code == 0)

    def wire(self, cfg: QuantizerConfig) -> int:
        """Code packed into cfg.bitwidth bits, sign bit (1 = negative) first."""
        if self.code > cfg.max_code:
            raise DomainError(f"code {self.code} overflows {cfg.bitwidth_mag} magnitude bits")
        if not cfg.signed:
            if self.sign < 0:
                raise DomainError("negative code in unsigned config")
            return self.code
        return ((self.sign < 0) << cfg.bitwidth_mag) | self.code

    @staticmethod
    def from_wire(word: int, cfg: QuantizerConfig) -> "LogCode":
        if not 0 <= word < (1 << cfg.bitwidth):
            raise DomainError(f"wire word {word} overflows {cfg.bitwidth} bits")
        mag = word & cfg.max_code
        neg = cfg.signed and bool(word >> cfg.bitwidth_mag)
        if neg and mag == 0:
            raise DomainError("negative zero is not a valid wire code")
        return LogCode.of(-1 if neg else 1, mag)


class LinearCode(NamedTuple):
    """Result of linear quantization: integer code and dequantized value."""

    code: int
    value: float


# ---------------------------------------------------------------------------
# exact bit-level log2 helpers
# ---------------------------------------------------------------------------


def _as_ratio(x: float) -> tuple[int, int]:
    p, q = float(x).as_integer_ratio()
    return p, q  # q is always a power of two for binary floats


def log2_floor(x: float) -> int:
    """floor(log2(x)) read off the bit position of the leading one.

    The input is treated as an exact fixed-point word (every float is a
    dyadic rational), so the result is always the true floor.
    """
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"log2_floor requires a positive finite input, got {x!r}")
    p, q = _as_ratio(x)
    # q = 2**k, so floor(log2(p/q)) = (position of p's MSB) - k
    return p.bit_length() - q.bit_length()


def _sqrt2_threshold(m: int) -> int:
    """Smallest integer T with T/2**m >= sqrt(2) - 1."""
    return math.isqrt(1 << (2 * m + 1)) + 1 - (1 << m)


def log2_round(x: float, m: int = 4) -> int:
    """Round log2(x) to the nearest integer using the m-bit mantissa test.

    The m bits following the leading one form a fraction F; the result is
    rounded up exactly when F >= sqrt(2) - 1, with the threshold held as the
    smallest m-bit value not below the true constant.
    """
    if m < 1:
        raise DomainError("at least one mantissa bit is required")
    n = log2_floor(x)
    p, _ = _as_ratio(x)
    # truncate the mantissa fraction to m bits: F = p / 2**(bitlen-1) - 1
    frac = ((p << m) >> (p.bit_length() - 1)) - (1 << m)
    return n + (1 if frac >= _sqrt2_threshold(m) else 0)


def _grid_index(x: float, base_frac_bits: int, rounding: str) -> int:
    """Index j of the grid exponent j * 2**-base_frac_bits nearest/below x.

    Exact for every positive float: works on the integer ratio of x (and of
    x**2 for the half-step grid), comparing squares to decide the
    round-to-nearest cut at 2**(j + step/2).
    """
    p, q = _as_ratio(x)
    if base_frac_bits:
        p, q = p * p, q * q
    j = p.bit_length() - q.bit_length()
    if rounding == ROUND_NEAREST:
        # round up iff y >= 2**(j + 1/2), i.e. y^2 >= 2**(2j + 1)
        s = 2 * j + 1
        if s >= 0:
            if p * p >= (q * q) << s:
                j += 1
        elif (p * p) << (-s) >= q * q:
            j += 1
    return j


# ---------------------------------------------------------------------------
# scalar quantizers
# ---------------------------------------------------------------------------


def _check_input(x: float, cfg: QuantizerConfig) -> None:
    if not math.isfinite(x):
        raise DomainError(f"cannot quantize non-finite value {x!r}")
    if not cfg.signed and x < 0:
        raise DomainError(f"negative input {x!r} into unsigned quantizer")


def logquant(x: float, cfg: QuantizerConfig) -> LogCode:
    """Quantize onto the log grid.

    The magnitude's exponent is rounded per ``cfg.rounding``, then clipped:
    exponents at or below fsr - num_codes * step flush to the zero code,
    exponents at or above fsr saturate to the top code (fsr - step).
    """
    if cfg.kind != KIND_LOG:
        raise ConfigError("logquant requires a log-kind config")
    _check_input(x, cfg)
    if x == 0:
        return LogCode.zero()
    sign = -1 if x < 0 else 1
    j = _grid_index(abs(x), cfg.base_frac_bits, cfg.rounding)
    # steps below full scale; code c sits (num_codes - c) steps below fsr
    code = cfg.num_codes - (cfg.fsr * (1 << cfg.base_frac_bits) - j)
    if code <= 0:
        return LogCode.zero()
    if code > cfg.max_code:
        code = cfg.max_code
    return LogCode(sign, code, False)


def dequantize(c: LogCode, cfg: QuantizerConfig) -> float:
    """Map a log code back to a real value: sign * 2**exponent.

    Exact for integer exponents; half-integer exponents use the correctly
    rounded sqrt(2) (the shift-add hardware path lives in
    ``shift_mul_halfexp``).
    """
    if c.is_zero:
        return 0.0
    e = cfg.level_exponent(c.code)
    n = math.floor(e)
    scale = 1.0 if e == n else SQRT2
    return c.sign * math.ldexp(scale, n)


def linquant(x: float, cfg: QuantizerConfig) -> LinearCode:
    """Uniform quantizer with step 2**(fsr - bitwidth).

    The code is round-half-even of x/step, clipped to the magnitude range
    (2**bitwidth_mag - 1); signed configs mirror the range to negatives.
    """
    if cfg.kind != KIND_LINEAR:
        raise ConfigError("linquant requires a linear-kind config")
    _check_input(x, cfg)
    t = x / cfg.linear_step
    lo = -cfg.max_code if cfg.signed else 0
    if math.isfinite(t):
        code = min(max(round(t), lo), cfg.max_code)
    else:  # x finite but the step is tiny enough to overflow the quotient
        code = cfg.max_code if t > 0 else lo
    return LinearCode(code, math.ldexp(float(code), cfg.fsr - cfg.bitwidth))


def quantize_value(x: float, cfg: QuantizerConfig) -> float:
    """Quantize-dequantize convenience for either kind."""
    if cfg.kind == KIND_LOG:
        return dequantize(logquant(x, cfg), cfg)
    return linquant(x, cfg).value


# ---------------------------------------------------------------------------
# vectorized quantizers (bit-identical to the scalar paths)
# ---------------------------------------------------------------------------


def _ceil_float_pow2(num: int, den_bits: int) -> float:
    """Smallest float >= 2**(num / 2**den_bits), by exact integer comparison."""
    d = 1 << den_bits
    if num % d == 0:
        return math.ldexp(1.0, num // d)
    b = 2.0 ** (num / d)

    def at_least(f: float) -> bool:
        pf, qf = f.as_integer_ratio()
        lhs, rhs = pf**d, qf**d
        if num >= 0:
            rhs <<= num
        else:
            lhs <<= -num
        return lhs >= rhs

    while not at_least(b):
        b = math.nextafter(b, math.inf)
    while True:
        lower = math.nextafter(b, 0.0)
        if lower > 0.0 and at_least(lower):
            b = lower
        else:
            return b


# steps by which zero's grid index is pushed down: below the bottom
# fsr * 2**fb - num_codes >= -2 * _MAX_ABS_EXPONENT of every accepted grid,
# so zero flushes to code 0 at every fsr
_ZERO_INDEX_DROP = 4 * _MAX_ABS_EXPONENT


@lru_cache(maxsize=8)
def _octave_cuts(base_frac_bits: int, rounding: str) -> tuple[float, ...]:
    """Cuts on the doubled frexp mantissa 2m in [1, 2) where the grid index
    steps up within an octave.

    For nearest rounding the cuts are 2**((2i + 1) / 2**(fb + 1)), for floor
    2**(i / 2**fb), i > 0.  Each is the smallest float not below the true
    cut, so plain float comparison reproduces the exact decision.
    """
    first = 1 if rounding == ROUND_NEAREST else 2
    return tuple(_ceil_float_pow2(num, base_frac_bits + 1)
                 for num in range(first, 2 << base_frac_bits, 2))


class LogGridIndex(NamedTuple):
    """Where every element of an array falls on a log grid, for any fsr.

    ``index`` is the int32 grid index j of each magnitude (the exponent
    j * step it rounds to), with zeros far below every grid; ``negative``
    flags negative elements of a signed config's input (None if unsigned).
    """

    index: np.ndarray
    negative: np.ndarray | None


def log_grid_index(x: np.ndarray, cfg: QuantizerConfig) -> LogGridIndex:
    """The unclipped grid index of ``x`` on ``cfg``'s grid and rounding.

    ``np.frexp`` gives each magnitude's octave exactly, subnormals
    included; the doubled mantissa is compared against the octave's cuts.
    The result does not depend on ``cfg.fsr``.
    """
    if cfg.kind != KIND_LOG:
        raise ConfigError("log_grid_index requires a log-kind config")
    x = _checked_array(x, cfg)
    m, e = np.frexp(np.abs(x))
    m *= 2.0
    j = e - 1
    j <<= cfg.base_frac_bits
    for cut in _octave_cuts(cfg.base_frac_bits, cfg.rounding):
        j += m >= cut
    j -= (m == 0.0) * np.int32(_ZERO_INDEX_DROP)
    return LogGridIndex(j, x < 0 if cfg.signed else None)


def log_codes(grid: LogGridIndex, cfg: QuantizerConfig) -> np.ndarray:
    """Wire codes (uint8) of a grid index under ``cfg``'s fsr and bitwidth.

    Code c sits num_codes - c steps below fsr: the index less
    fsr * 2**fb - num_codes, clipped to [0, max_code], so exponents at or
    below the grid flush to zero and those at or above fsr saturate.
    """
    return _log_codes_at(grid, cfg, cfg.fsr)


def _log_codes_at(grid: LogGridIndex, cfg: QuantizerConfig, fsr) -> np.ndarray:
    """``log_codes`` at ``fsr``: an int, or an int column giving one row of
    codes per fsr."""
    bottom = fsr * (1 << cfg.base_frac_bits) - cfg.num_codes
    code = np.clip(grid.index, bottom, bottom + cfg.max_code)
    code -= bottom
    code = code.astype(np.uint8)
    if cfg.signed:
        code |= (grid.negative & (code != 0)).view(np.uint8) << np.uint8(cfg.bitwidth_mag)
    return code


def _checked_array(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DomainError("cannot quantize non-finite values")
    if not cfg.signed and (x < 0).any():
        raise DomainError("negative input into unsigned quantizer")
    return x


def logquant_array(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Elementwise ``logquant``; returns wire codes as uint8."""
    return log_codes(log_grid_index(x, cfg), cfg)


def linquant_array(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Elementwise ``linquant``; returns wire codes (sign bit first) as uint8."""
    if cfg.kind != KIND_LINEAR:
        raise ConfigError("linquant_array requires a linear-kind config")
    code = _linear_levels(_checked_array(x, cfg), cfg, cfg.linear_step)
    if not cfg.signed:
        return code.astype(np.uint8)
    neg = code < 0
    return (np.abs(code).astype(np.uint8) | (neg << cfg.bitwidth_mag).astype(np.uint8))


def _linear_levels(x: np.ndarray, cfg: QuantizerConfig, step) -> np.ndarray:
    """Signed magnitudes (float64) of ``x`` on a linear grid of ``step``: a
    float, or a column giving one row per step."""
    code = np.rint(x / step)
    return np.clip(code, -cfg.max_code if cfg.signed else 0, cfg.max_code, out=code)


def quantize_array(x: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Elementwise quantization by ``cfg``'s kind; returns wire codes as uint8."""
    return (logquant_array if cfg.kind == KIND_LOG else linquant_array)(x, cfg)


class CodeTable(NamedTuple):
    """What every wire code of a config means, indexed by the code.

    ``sign`` is -1 or +1, ``esteps`` the log exponent in grid steps (0 for
    linear codes), ``nonzero`` flags a nonzero magnitude and ``value`` is
    the dequantized float64 value.
    """

    sign: np.ndarray
    esteps: np.ndarray
    nonzero: np.ndarray
    value: np.ndarray


@lru_cache(maxsize=256)
def code_table(cfg: QuantizerConfig) -> CodeTable:
    """The read-only table of all 2**bitwidth wire codes of ``cfg``."""
    codes = np.arange(1 << cfg.bitwidth)
    mag = codes & cfg.max_code
    sign = np.where(codes >> cfg.bitwidth_mag, -1, 1) if cfg.signed else np.ones_like(codes)
    if cfg.kind == KIND_LINEAR:
        esteps = np.zeros_like(codes)
        value = np.ldexp(sign * mag.astype(np.float64), cfg.fsr - cfg.bitwidth)
    else:
        fb = cfg.base_frac_bits
        esteps = cfg.fsr * (1 << fb) - (cfg.num_codes - mag)
        frac = (esteps & 1).astype(bool) if fb else np.zeros(mag.shape, dtype=bool)
        value = np.where(mag == 0, 0.0, sign * np.ldexp(np.where(frac, SQRT2, 1.0), esteps >> fb))
    table = CodeTable(sign, esteps, mag != 0, value)
    for column in table:
        column.setflags(write=False)
    return table


def dequantize_array(codes: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Elementwise dequantization of wire codes to float64, by table lookup."""
    codes = np.asarray(codes)
    try:
        # a negative index would count from the end of the table
        if codes.dtype.kind == "i" and codes.size and codes.min() < 0:
            raise IndexError
        return code_table(cfg).value[codes]
    except IndexError:
        raise DomainError(f"wire code outside the {cfg.bitwidth}-bit range") from None


def _fsr_column(cfg: QuantizerConfig, fsrs: Sequence[int]) -> np.ndarray:
    """``fsrs`` as an int32 column, each refused as ``cfg``'s fsr would be.
    The accepted fsrs of a config form an interval, so the ends decide."""
    for f in (min(fsrs), max(fsrs)):
        replace(cfg, fsr=f)
    return np.array(fsrs, dtype=np.int32)[:, None]


def log_level_positions(grid: LogGridIndex, cfg: QuantizerConfig,
                        fsrs: Sequence[int]) -> tuple[np.ndarray, LogGridIndex]:
    """Each element's position among the levels ``cfg`` at any of ``fsrs``
    can tell apart, and the grid index of every position:
    ``log_values_at(levels, cfg, fsrs)[:, positions]`` equals
    ``log_values_at(grid, cfg, fsrs)``.

    The index is clipped to the band [lowest bottom, highest top + 1]: below
    the lowest bottom every fsr flushes to zero, and from the highest top up
    every fsr saturates, so no code changes.  Negative elements of a signed
    config sit one band width further on.  The positions (intp) are in
    range, so a gather may use ``mode="clip"``.
    """
    fsr = _fsr_column(cfg, fsrs)
    lo = int(fsr.min()) * (1 << cfg.base_frac_bits) - cfg.num_codes
    hi = int(fsr.max()) * (1 << cfg.base_frac_bits)
    positions = np.clip(grid.index, lo, hi).astype(np.intp)
    positions -= lo
    band = np.arange(lo, hi + 1, dtype=np.int32)
    if grid.negative is None:
        return positions, LogGridIndex(band, None)
    np.add(positions, band.size, out=positions, where=grid.negative)
    return positions, LogGridIndex(np.tile(band, 2), np.arange(2 * band.size) >= band.size)


def log_values_at(grid: LogGridIndex, cfg: QuantizerConfig, fsrs: Sequence[int]) -> np.ndarray:
    """What ``cfg`` at each of ``fsrs`` quantizes a grid index to: a
    (len(fsrs), N) float64 array, row i bit-identical to
    ``dequantize_array(log_codes(grid, replace(cfg, fsr=fsrs[i])), ...)``.

    Each row's codes are clipped at that fsr's bounds.  Its values are the
    fsr-0 table's scaled by 2**fsr: every table value is a normal float and
    2**fsr is exact for every accepted fsr, so the product is the value
    that fsr's own table holds.
    """
    fsr = _fsr_column(cfg, fsrs)
    values = code_table(replace(cfg, fsr=0)).value[_log_codes_at(grid, cfg, fsr)]
    values *= np.ldexp(1.0, fsr)
    return values


def linear_values_at(x: np.ndarray, cfg: QuantizerConfig, fsrs: Sequence[int]) -> np.ndarray:
    """What ``cfg`` at each of ``fsrs`` quantizes ``x`` to: a (len(fsrs), N)
    float64 array, row i equal to
    ``dequantize_array(linquant_array(x, replace(cfg, fsr=fsrs[i])), ...)``
    since a table value is its code's signed magnitude times the step (a
    zero level keeps the sign of the input it rounds from).
    Refusals come in a per-fsr loop's order: the first fsr, the sample,
    then the other fsrs.
    """
    if cfg.kind != KIND_LINEAR:
        raise ConfigError("linear_values_at requires a linear-kind config")
    replace(cfg, fsr=fsrs[0])
    x = _checked_array(x, cfg)
    step = np.ldexp(1.0, _fsr_column(cfg, fsrs) - cfg.bitwidth)
    values = _linear_levels(x, cfg, step)
    values *= step
    return values


# ---------------------------------------------------------------------------
# fixed-point words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentWord:
    """Signed fixed-point exponent with ``frac_bits`` fractional bits.

    Backed by an unbounded integer raw value; the fixed-point format only
    determines where truncation happens, never the range.
    """

    raw: int
    frac_bits: int = 4

    def __post_init__(self) -> None:
        if self.frac_bits < 0:
            raise ConfigError("frac_bits must be non-negative")

    @staticmethod
    def from_value(value: float, frac_bits: int = 4) -> "ExponentWord":
        scaled = value * (1 << frac_bits)
        if scaled != int(scaled):
            raise DomainError(
                f"{value!r} is not representable with {frac_bits} fractional bits"
            )
        return ExponentWord(int(scaled), frac_bits)

    @property
    def value(self) -> float:
        return math.ldexp(self.raw, -self.frac_bits)

    def floor(self) -> int:
        return self.raw >> self.frac_bits

    def frac_raw(self) -> int:
        return self.raw & ((1 << self.frac_bits) - 1)


@dataclass(frozen=True)
class AccumulatorWord:
    """Wide signed fixed-point word for linear-domain sums.

    ``int_bits`` + ``frac_bits`` bound the magnitude; every construction and
    arithmetic result is range-checked.
    """

    raw: int
    int_bits: int = 32
    frac_bits: int = 8

    def __post_init__(self) -> None:
        if self.int_bits < 1 or self.frac_bits < 0:
            raise ConfigError("invalid accumulator word format")
        if abs(self.raw) >= 1 << (self.int_bits + self.frac_bits):
            raise AccumulatorOverflow(
                f"raw value {self.raw} exceeds {self.int_bits}+{self.frac_bits} bit word"
            )

    @staticmethod
    def from_value(value: float, int_bits: int = 32, frac_bits: int = 8) -> "AccumulatorWord":
        """Round-half-even onto the word's grid."""
        if not math.isfinite(value):
            raise DomainError(f"cannot represent non-finite value {value!r}")
        return AccumulatorWord(round(value * (1 << frac_bits)), int_bits, frac_bits)

    @property
    def value(self) -> float:
        return math.ldexp(self.raw, -self.frac_bits)

    def _like(self, raw: int) -> "AccumulatorWord":
        return AccumulatorWord(raw, self.int_bits, self.frac_bits)

    def add(self, other: "AccumulatorWord") -> "AccumulatorWord":
        if (other.int_bits, other.frac_bits) != (self.int_bits, self.frac_bits):
            raise ConfigError("accumulator words must share a fixed-point format")
        return self._like(self.raw + other.raw)

    def negate(self) -> "AccumulatorWord":
        return self._like(-self.raw)


def bitshift(a: AccumulatorWord, b: int) -> AccumulatorWord:
    """a * 2**b as a pure shift of the raw word.

    Right shifts drop bits below the word's precision; on the two's
    complement raw value that truncates toward minus infinity, matching a
    hardware arithmetic shifter.
    """
    raw = a.raw << b if b >= 0 else a.raw >> -b
    return AccumulatorWord(raw, a.int_bits, a.frac_bits)


def shift_mul_halfexp(e: ExponentWord, int_bits: int = 32, frac_bits: int = 8) -> AccumulatorWord:
    """Shift-add approximation of 2**e: 2**floor(e) * (1 + frac(e)).

    Exact when frac(e) = 0; otherwise overshoots by at most the log2(1+x)=x
    gap (0.0861 in the exponent).  The word (1 + frac) is shifted into the
    accumulator's fixed-point format, truncating anything below its
    precision.
    """
    mantissa = (1 << e.frac_bits) + e.frac_raw()
    shift = e.floor() + frac_bits - e.frac_bits
    raw = mantissa << shift if shift >= 0 else mantissa >> -shift
    return AccumulatorWord(raw, int_bits, frac_bits)


def log_accumulate(terms: Sequence[ExponentWord]) -> ExponentWord:
    """Running log-domain sum: result approximates log2(sum of 2**t).

    Each step takes the running max and adds a correction 2**(-|delta|)
    realized with the same shift-add trick as ``shift_mul_halfexp``,
    truncated to the word's fractional precision.  All terms must represent
    positive addends (signs are handled by the caller with two accumulators).
    """
    terms = list(terms)
    if not terms:
        raise DomainError("log_accumulate requires at least one term")
    f = terms[0].frac_bits
    s = terms[0].raw
    for t in terms[1:]:
        if t.frac_bits != f:
            raise ConfigError("exponent words must share a fixed-point format")
        s = _log_accumulate_step(s, t.raw, f)
    return ExponentWord(s, f)


def _log_accumulate_step(s_raw: int, p_raw: int, f: int) -> int:
    hi = s_raw if s_raw >= p_raw else p_raw
    neg_d = -abs(s_raw - p_raw)
    shift = -(neg_d >> f)  # -floor(-d) >= 0
    mantissa = (1 << f) + (neg_d & ((1 << f) - 1))
    return hi + (mantissa >> shift if shift < mantissa.bit_length() else 0)


def log_accumulate_raw(s_raw: np.ndarray, p_raw: np.ndarray, f: int) -> np.ndarray:
    """Vectorized ``log_accumulate`` step on raw int64 exponent arrays."""
    hi = np.maximum(s_raw, p_raw)
    d = np.abs(s_raw - p_raw)
    shift = -((-d) >> f)
    mantissa = (1 << f) + ((-d) & ((1 << f) - 1))
    corr = np.where(shift <= f + 1, mantissa >> np.minimum(shift, f + 1), 0)
    return hi + corr


# ---------------------------------------------------------------------------
# dot products
# ---------------------------------------------------------------------------


def dot_method1(
    w: Sequence[float],
    x_codes: Sequence[LogCode],
    cfg_x: QuantizerConfig,
    int_bits: int = 32,
    frac_bits: int = 8,
) -> AccumulatorWord:
    """Dot product of real weights with log-coded activations.

    Every term is Bitshift(w_i, e_i) with w_i held as a fixed-point word, so
    the result equals sum(w_i * 2**e_i) up to the bits each right shift
    drops.  Zero codes contribute nothing.
    """
    if len(w) != len(x_codes):
        raise DomainError(f"length mismatch: {len(w)} weights vs {len(x_codes)} codes")
    if cfg_x.signed:
        raise ConfigError("activation codes must be unsigned")
    if cfg_x.base_frac_bits != 0:
        raise ConfigError("integer shifts require the base-2 exponent grid")
    acc = AccumulatorWord(0, int_bits, frac_bits)
    for wi, ci in zip(w, x_codes):
        if ci.is_zero:
            continue
        e = int(cfg_x.level_exponent(ci.code))
        acc = acc.add(bitshift(AccumulatorWord.from_value(wi, int_bits, frac_bits), e))
    return acc


def dot_method2(
    w_codes: Sequence[LogCode],
    x_codes: Sequence[LogCode],
    cfg_w: QuantizerConfig,
    cfg_x: QuantizerConfig,
    accum_mode: str = "linear",
    int_bits: int = 32,
    frac_bits: int = 8,
    exp_frac_bits: int = 4,
) -> AccumulatorWord:
    """Dot product with both operands log-coded.

    Term exponents are the sums w~ + x~ (plain fixed-point adds); each term
    is materialized with ``shift_mul_halfexp``.  ``accum_mode`` "linear" sums
    terms in the accumulator; "log" keeps two running log-domain sums (one
    per sign) and converts both at the end.
    """
    if len(w_codes) != len(x_codes):
        raise DomainError(f"length mismatch: {len(w_codes)} vs {len(x_codes)} codes")
    if accum_mode not in ("linear", "log"):
        raise ConfigError(f"unknown accumulation mode {accum_mode!r}")
    fb = max(cfg_w.base_frac_bits, cfg_x.base_frac_bits)
    if exp_frac_bits < fb:
        raise ConfigError("exponent word cannot hold the grid step")

    signs: list[int] = []
    exps: list[ExponentWord] = []
    for cw, cx in zip(w_codes, x_codes):
        if cw.is_zero or cx.is_zero:
            continue
        e = cfg_w.level_exponent(cw.code) + cfg_x.level_exponent(cx.code)
        signs.append(cw.sign * cx.sign)
        exps.append(ExponentWord.from_value(e, exp_frac_bits))

    if accum_mode == "linear":
        acc = AccumulatorWord(0, int_bits, frac_bits)
        for s, p in zip(signs, exps):
            term = shift_mul_halfexp(p, int_bits, frac_bits)
            acc = acc.add(term.negate() if s < 0 else term)
        return acc

    pos = [p for s, p in zip(signs, exps) if s > 0]
    neg = [p for s, p in zip(signs, exps) if s < 0]
    acc = AccumulatorWord(0, int_bits, frac_bits)
    if pos:
        acc = acc.add(shift_mul_halfexp(log_accumulate(pos), int_bits, frac_bits))
    if neg:
        acc = acc.add(shift_mul_halfexp(log_accumulate(neg), int_bits, frac_bits).negate())
    return acc
