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


class InputRangeError(ValueError):
    """An input sample does not fit the configured signed input width."""


class DifferentialDelayWarning(UserWarning):
    """Differential delay outside the usual {1, 2} design range."""


def _integer(value, name: str, error: type[ValueError]) -> int:
    """The integer rule for every public argument: a Python or numpy integer,
    never bool, becomes a Python int; anything else raises `error`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def _integers(values: list, name: str, error: type[ValueError]) -> list[int]:
    """`_integer` on each of `values`; a list of Python ints is returned as it is."""
    return values if set(map(type, values)) <= {int} else [_integer(x, name, error) for x in values]


def _sequence(values, name: str, error: type[ValueError]) -> list:
    """`values` as a list; a value that is not iterable raises `error`."""
    try:
        return list(values)
    except TypeError:
        raise error(f"{name} must be a sequence, got {values!r}") from None


def _real(value, name: str, error: type[ValueError]) -> float:
    """The real-number rule for every public argument: a Python or numpy integer
    or float, never bool, becomes a float (an int past the doubles an infinity,
    which every range check rejects); anything else raises `error`."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return float("inf") if value > 0 else float("-inf")
    raise error(f"{name} must be a number, got {value!r}")


def _signed_range(bits: int) -> tuple[int, int]:
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


@dataclass(frozen=True)
class CicConfig:
    """CIC design tuple: stage count, rate change, differential delay, input bits.

    Construction is the only validation: the fields are checked here once
    and the frozen instance is trusted after that (`dataclasses.replace`
    builds, and so checks, a new one): each field is a Python or numpy
    integer (not bool), kept as a Python int, and at least 1, or ConfigError
    is raised.  A differential delay above 2 is
    accepted but warned about, at the caller's line, since such designs are
    unusual (the nulls bunch up inside the would-be passband).
    """

    stages: int
    rate: int
    diff_delay: int = 1
    input_bits: int = 16

    def __post_init__(self):
        for name in ("stages", "rate", "diff_delay", "input_bits"):
            value = _integer(getattr(self, name), name, ConfigError)
            if value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, value)  # a numpy int is kept as a Python int
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


class DecimatorState:
    """Live state of a streaming Hogenauer decimator.

    One instance owns its accumulators and comb delay lines; feed it from a
    single thread.  `push` consumes one input sample and returns an output
    sample on every R-th call, None otherwise; `process_block` consumes a
    whole block at once.  Both share the same state, so calls to them may be
    interleaved freely.
    """

    def __init__(self, config: CicConfig):
        self.config = config
        self.width = width = required_width(config)
        self._in_min, self._in_max = _signed_range(config.input_bits)
        # One W-bit wrap rule, ((v + half) & mask) - half, in `push` and `_ints`.
        # Blocks run unwrapped on K = ceil(W/64) limbs of 64 bits, exact mod 2**W:
        # a (K, n) array, int64 while W <= 64 (K = 1), else uint64.
        self._half = 1 << (width - 1)
        self._mask = (1 << width) - 1
        self._k = -(-width // 64)
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
        x = _integer(x, "sample", InputRangeError)
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

        `samples` is a sequence of Python or numpy integers, or a 1-D numpy array of
        any integer dtype (int8 to int64, uint8 to uint64); anything else raises
        InputRangeError.  The whole block is checked against the signed B-bit input
        range before any state changes, so a bad sample anywhere raises InputRangeError
        and leaves the state as it was.  The result is the same as pushing the samples
        one by one, computed on whole arrays: N running sums, a 1-of-R slice and N
        lag-M differences, exact mod 2**W, each value leaving the arrays wrapped to W bits.
        """
        values = self._checked_block(samples)
        n, k = len(values), self._k
        v = np.empty((k, n + 1), np.int64 if k == 1 else np.uint64)  # column 0: a stage's register
        if values.dtype.kind == "O":  # past int64 (so K > 1): split from Python ints
            v[:, 1:] = self._limbs(values.tolist())
        else:
            v[0, 1:] = values
            if k > 1:  # the limbs above the low one: its sign for a signed dtype, else 0
                v[1:, 1:] = v[0, 1:].view(np.int64) >> 63 if values.dtype.kind == "i" else 0
        acc = self._limbs(self._integrators)
        for i in range(acc.shape[1]):
            v[:, 0], carry = acc[:, i], None
            for j, row in enumerate(v):
                if carry is not None:  # an addend below 2**64, or 2**64 that wraps to 0
                    row[1:] += carry
                row.cumsum(out=row)
                if j + 1 < k:  # it carries where its sum fell, or held on a wrapped addend
                    s, t = row[1:], row[:-1]
                    carry = s < t if carry is None else (s < t) | ((s == t) & carry)
            acc[:, i] = v[:, -1]
        self._integrators[:] = self._ints(acc)
        r, m = self.config.rate, self.config.diff_delay
        v = v[:, r - self.phase :: r]
        self.phase = (self.phase + n) % r
        for line in self._combs if v.shape[1] else ():  # no outputs, no comb work
            ext = np.concatenate((self._limbs(line), v), axis=1)
            line[:] = self._ints(ext[:, -m:])
            v, borrow = ext[:, m:] - ext[:, :-m], None
            for j in range(1, k):  # a limb borrows where a < b, or a == b and it was borrowed from
                a, b = ext[j - 1, m:], ext[j - 1, :-m]
                borrow = a < b if borrow is None else (a < b) | ((a == b) & borrow)
                v[j] -= borrow
        self.samples_in += n
        self.samples_out += v.shape[1]
        # The carried state is off by multiples of 2**W: a polynomial of degree < N
        # after the integrators, which the N combs cancel past the first N*M outputs.
        return self._ints(v, self.config.stages * m)

    def _checked_block(self, samples) -> np.ndarray:
        """Check a whole block, or raise InputRangeError; return it 1-D: an integer array as
        given, any other sequence converted once (int64 where its values fit, else Python ints)."""
        if isinstance(samples, np.ndarray) and samples.dtype.kind in "iu":
            if samples.ndim != 1:
                raise InputRangeError(f"a block must be 1-D, got shape {samples.shape}")
            values = samples
        elif isinstance(samples, np.ndarray) and samples.dtype.kind != "O":
            raise InputRangeError(f"samples of dtype {samples.dtype} are not integers")
        else:
            values = _integers(_sequence(samples, "samples", InputRangeError), "sample",
                               InputRangeError)  # so no np.uint64 wraps
            try:  # a value past int64 is in range only at B > 64: the check below decides
                values = np.array(values, dtype=np.int64)
            except OverflowError:
                values = np.array(values, dtype=object)
        # min/max compared as Python ints: exact for every dtype (uint64 2**64-1 is not -1)
        lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
        if lo < self._in_min or hi > self._in_max:
            bad = (x for x in values.tolist() if not self._in_min <= x <= self._in_max)
            raise self._range_error(next(bad))
        return values

    def _limbs(self, values: list[int]) -> np.ndarray:
        """W-bit Python ints as a (K, n) limb array, low limb first: int64 at K = 1, else
        uint64, each int split from its bytes."""
        if self._k == 1:
            return np.array([values], dtype=np.int64)
        data = b"".join(v.to_bytes(8 * self._k, "little", signed=True) for v in values)
        return np.frombuffer(data, "<u8").reshape(-1, self._k).T.copy()

    def _ints(self, v: np.ndarray, head: int | None = None) -> list[int]:
        """The signed ints a (K, n) limb array holds, each column read as one 64K-bit
        word (the int64 at K = 1); the first `head` (default all) wrapped to W bits."""
        if self._k == 1:
            values = v[0].tolist()
        else:
            rows = np.ascontiguousarray(v.T, dtype="<u8").view(f"V{8 * self._k}").ravel()
            values = [int.from_bytes(row, "little", signed=True) for row in rows.tolist()]
        half, mask = self._half, self._mask
        values[:head] = [((x + half) & mask) - half for x in values[:head]]
        return values


def boxcar_power(length: int, order: int) -> list[int]:
    """`order`-fold self-convolution of a length-`length` all-ones kernel.

    These are the exact integer taps of the full-rate CIC impulse response:
    order*(length-1)+1 of them, palindromic, summing to length**order.
    Each pass is a moving sum of `length` taps, taken as differences of
    running sums over the zero-padded taps, so it is linear in the tap
    count and stays exact in Python integers at any width.
    """
    length, order = _integer(length, "length", ConfigError), _integer(order, "order", ConfigError)
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
    samples = _integers(_sequence(samples, "samples", InputRangeError), "sample", InputRangeError)
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
