"""Bit-exact streaming CIC decimator and its unbounded-integer reference.

The streaming engine uses the Hogenauer arrangement: N integrators running
at the input rate, a 1-of-R downsampler, then N combs with differential
delay M running at the output rate.  All internal registers are W-bit
two's-complement and wrap on overflow; W is sized so the final output
always fits, which makes the wrapping lossless (the engine agrees exactly
with `reference_decimate`, which uses Python's unbounded integers).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np


class ConfigError(ValueError):
    """A filter parameter is out of its allowed range."""


class WidthError(ValueError):
    """A register width override is too small for the configuration."""


class InputRangeError(ValueError):
    """An input sample does not fit the configured signed input width."""


class DifferentialDelayWarning(UserWarning):
    """Differential delay outside the usual {1, 2} design range."""


@dataclass(frozen=True)
class CicConfig:
    """CIC design tuple: stage count, rate change, differential delay, input bits.

    Construction is the only validation: the fields are checked here once
    and the frozen instance is trusted after that (`dataclasses.replace`
    builds, and so checks, a new one).  A differential delay above 2 is
    accepted but warned about, at the caller's line, since such designs are
    unusual (the nulls bunch up inside the would-be passband).
    """

    stages: int
    rate: int
    diff_delay: int = 1
    input_bits: int = 16

    def __post_init__(self):
        for name in ("stages", "rate", "diff_delay", "input_bits"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.diff_delay > 2:
            warnings.warn(
                f"diff_delay={self.diff_delay} is outside the usual design range "
                "{1, 2}; the response nulls move into the passband",
                DifferentialDelayWarning,
                stacklevel=3,  # past the dataclass __init__ to its caller
            )

    @property
    def kernel_length(self) -> int:
        """Length R*M of the single-stage boxcar kernel (the composite rate change)."""
        return self.rate * self.diff_delay


def gain(config: CicConfig) -> int:
    """DC gain (R*M)**N, exact."""
    return config.kernel_length ** config.stages


def required_width(config: CicConfig) -> int:
    """Register/output width W = B + ceil(log2(gain)), in bits.

    Any W-bit two's-complement register chain is then lossless for every
    B-bit signed input sequence: the worst-case output magnitude is
    gain * 2**(B-1), which is exactly the negative end of the W-bit range.
    """
    g = gain(config)
    return config.input_bits + (g - 1).bit_length()


def _is_sample_type(t: type) -> bool:
    """Samples are Python or numpy integers; bool is not a sample."""
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


class DecimatorState:
    """Live state of a streaming Hogenauer decimator.

    One instance owns its accumulators and comb delay lines; feed it from a
    single thread.  `push` consumes one input sample and returns an output
    sample on every R-th call, None otherwise; `process_block` consumes a
    whole block at once.  Both share the same state, so calls to them may be
    interleaved freely.
    """

    def __init__(self, config: CicConfig, width: int | None = None):
        min_width = required_width(config)
        if width is None:
            width = min_width
        elif width < min_width:
            raise WidthError(
                f"width {width} is below the {min_width} bits required for "
                f"N={config.stages} R={config.rate} M={config.diff_delay} "
                f"B={config.input_bits}"
            )
        self.config = config
        self.width = width
        self._in_min = -(1 << (config.input_bits - 1))
        self._in_max = (1 << (config.input_bits - 1)) - 1
        # One W-bit wrap rule, ((v + half) & mask) - half, for ints and arrays.
        # Blocks run in int64 while W fits it (wrapping mod 2**64, then to W
        # bits, is wrapping to W bits), and on Python ints in object arrays above.
        self._half = 1 << (width - 1)
        self._mask = (1 << width) - 1
        self._dtype = np.int64 if width <= 64 else object
        self.reset()

    def reset(self) -> None:
        """Zero accumulators, delay lines, phase and sample counters."""
        n, m = self.config.stages, self.config.diff_delay
        self._integrators = [0] * n
        self._combs = [[0] * m for _ in range(n)]  # comb inputs, oldest first
        self.phase = 0
        self.samples_in = 0
        self.samples_out = 0

    def _range_error(self, x: int) -> InputRangeError:
        return InputRangeError(
            f"sample {x} outside signed {self.config.input_bits}-bit range "
            f"[{self._in_min}, {self._in_max}]"
        )

    def push(self, x: int) -> int | None:
        """Consume one input sample; return an output on every R-th push.

        `x` is a Python or numpy integer within the signed B-bit input range;
        anything else raises InputRangeError and leaves the state unchanged.
        """
        if type(x) is not int:
            if not _is_sample_type(type(x)):
                raise InputRangeError(f"sample {x!r} is not an integer")
            x = int(x)
        if not self._in_min <= x <= self._in_max:
            raise self._range_error(x)
        half, mask = self._half, self._mask
        acc = self._integrators
        v = x
        for i in range(len(acc)):
            v = ((acc[i] + v + half) & mask) - half
            acc[i] = v

        self.samples_in += 1
        self.phase += 1
        if self.phase < self.config.rate:
            return None
        self.phase = 0

        for line in self._combs:
            line.append(v)
            v = ((v - line.pop(0) + half) & mask) - half
        self.samples_out += 1
        return v

    def process_block(self, samples) -> list[int]:
        """Consume every sample of `samples`; return the outputs emitted.

        `samples` is a sequence of Python or numpy integers, or a 1-D numpy
        array of any integer dtype (int8 to int64, uint8 to uint64).  The
        whole block is checked against the signed B-bit input range before
        any state changes, so a bad sample anywhere raises InputRangeError
        and leaves the state as it was.  The result is the same as pushing
        the samples one by one, computed on whole arrays: N running sums, a
        1-of-R slice and N lag-M differences, each wrapped to W bits.
        """
        x = self._block_array(samples)
        if not len(x):
            return []
        acc = self._integrators
        v = x
        for i in range(len(acc)):
            v = np.cumsum(v)
            v += acc[i]
            self._wrap_array(v)
            acc[i] = int(v[-1])

        r, m = self.config.rate, self.config.diff_delay
        v = v[r - 1 - self.phase :: r]
        self.phase = (self.phase + len(x)) % r
        for line in self._combs:
            ext = np.concatenate((np.array(line, dtype=self._dtype), v))
            line[:] = ext[-m:].tolist()
            v = self._wrap_array(ext[m:] - ext[:-m])
        self.samples_in += len(x)
        self.samples_out += len(v)
        return v.tolist()

    def _block_array(self, samples) -> np.ndarray:
        """Check a whole block; return it as a 1-D array of the block dtype."""
        if isinstance(samples, np.ndarray) and samples.dtype.kind in "iu":
            if samples.ndim != 1:
                raise InputRangeError(f"a block must be 1-D, got shape {samples.shape}")
            values = samples
            # min/max in the array's own dtype, compared as Python ints:
            # exact for every dtype, so uint64 2**64-1 is out of range, not -1.
            lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
        elif isinstance(samples, np.ndarray) and samples.dtype != object:
            raise InputRangeError(f"samples of dtype {samples.dtype} are not integers")
        else:
            values = list(samples)
            types = set(map(type, values))
            for t in types:
                if not _is_sample_type(t):
                    bad = next(x for x in values if type(x) is t)
                    raise InputRangeError(f"sample {bad!r} is not an integer")
            if types != {int}:
                values = list(map(int, values))
            lo, hi = (min(values), max(values)) if values else (0, 0)
        if lo < self._in_min or hi > self._in_max:
            first_bad = next(int(x) for x in values
                             if not self._in_min <= int(x) <= self._in_max)
            raise self._range_error(first_bad)
        return np.asarray(values, dtype=self._dtype)

    def _wrap_array(self, v: np.ndarray) -> np.ndarray:
        """Wrap `v` in place into W-bit two's complement; return it.

        int64 sums wrap mod 2**64, which keeps the low W bits the mask takes
        and leaves nothing to do at W = 64.
        """
        if v.dtype == object or self.width < 64:
            v += self._half
            v &= self._mask
            v -= self._half
        return v


def boxcar_power(length: int, order: int) -> list[int]:
    """`order`-fold self-convolution of a length-`length` all-ones kernel.

    These are the exact integer taps of the full-rate CIC impulse response:
    order*(length-1)+1 of them, palindromic, summing to length**order.
    Each pass is a moving sum of `length` taps, taken as differences of
    running sums over the zero-padded taps, so it is linear in the tap
    count and stays exact in Python integers at any width.
    """
    taps = [1]
    pad = [0] * (length - 1)
    for _ in range(order):
        sums = [0, *accumulate(pad + taps + pad)]
        taps = [hi - lo for lo, hi in zip(sums, sums[length:])]
    return taps


def reference_decimate(config: CicConfig, samples) -> list[int]:
    """Brute-force oracle: full-rate convolution in unbounded integers.

    Convolves the input with the exact CIC kernel and keeps the full-rate
    outputs at indices m*R + R - 1, i.e. one output after every R inputs.
    No wrapping anywhere; results are exact Python integers.
    """
    samples = list(samples)
    taps = boxcar_power(config.kernel_length, config.stages)
    r = config.rate
    out = []
    for i in range(r - 1, len(samples), r):
        acc = 0
        for k, t in enumerate(taps):
            j = i - k
            if j < 0:
                break
            acc += t * samples[j]
        out.append(acc)
    return out
