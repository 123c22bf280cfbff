"""Cycle-accurate pin-level model of a CIC decimator chip.

Pins follow the usual ready/valid convention: a sample on `din` is consumed
on a rising edge when both `nd` (new data) and the chip's `rfd` (ready for
data) are high.  Outputs appear on `dout` with a one-cycle `rdy` pulse after
a fixed pipeline latency.  Chips built with a programmable rate range accept
a new decimation factor through `ldin`/`we`; a load takes effect
immediately, resets the filter core and deasserts `rfd` for that one cycle.

`ChipModel.tick` advances one clock edge and `run_trace` folds it over a
trace; they are the oracle.  `ChipModel.run` takes whole pin arrays and
gives the same pins and state: between two rate loads the core is one plain
CIC stream, so each such segment is one `process_block` call.  `run` checks
every cycle first, with `tick`'s load rule and the core's block check, runs
the cycles before the first that fails them, and `tick` raises on that one.
"""

from __future__ import annotations

import bisect
import warnings
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import CicConfig, DecimatorState, DifferentialDelayWarning, _integer, _integers
from .core import _sequence, required_width


class ProtocolError(ValueError):
    """The pin trace violates the chip's handshake contract."""


def _at_rate(config: CicConfig, rate: int) -> CicConfig:
    """`config` with another rate, without repeating the warning its M gave."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DifferentialDelayWarning)
        return replace(config, rate=rate)


def _pin_values(values, name: str) -> np.ndarray:
    """An array as given; any other sequence as Python objects, exactly."""
    if isinstance(values, np.ndarray):
        return values
    return np.array(_sequence(values, name, ProtocolError), dtype=object)


@dataclass(frozen=True)
class PinInputs:
    """One cycle of input pins: data/new-data plus the rate-load pair."""

    din: int = 0
    nd: bool = False
    ldin: int = 0
    we: bool = False


@dataclass(frozen=True)
class PinOutputs:
    """One cycle of output pins; `rdy` marks `dout` as a fresh output sample."""

    dout: int = 0
    rdy: bool = False
    rfd: bool = True


class ChipModel:
    """Pin-level wrapper around a DecimatorState with pipeline latency.

    `latency` models the registers between comb-chain completion and `dout`
    visibility; it defaults to one register per stage plus an output
    register.  `latency` and `rate_range`'s two bounds are Python or numpy
    integers (not bool), kept as Python ints, or ProtocolError is raised.
    Outputs in flight are held as (exit cycle, value) pairs, so latency has
    no upper bound and costs the model no memory.  `width` is the register
    width the chip is built with: sized for the largest allowed rate when
    the rate is programmable.  The core runs at each loaded rate's own
    `required_width`, which gives the same outputs.
    """

    def __init__(
        self,
        config: CicConfig,
        latency: int | None = None,
        rate_range: tuple[int, int] | None = None,
    ):
        latency = _integer(config.stages + 1 if latency is None else latency, "latency",
                           ProtocolError)
        if latency < 1:
            raise ProtocolError(f"latency must be >= 1, got {latency}")
        self.latency = latency
        r_max = config.rate
        if rate_range is not None:
            bounds = list(rate_range) if np.iterable(rate_range) else []
            if len(bounds) != 2:
                raise ProtocolError(f"rate_range must be a pair of integers, got {rate_range!r}")
            r_min, r_max = _integers(bounds, "a rate_range bound", ProtocolError)
            if not 1 <= r_min <= r_max:
                raise ProtocolError(f"bad rate range {rate_range}")
            if not r_min <= config.rate <= r_max:
                raise ProtocolError(
                    f"initial rate {config.rate} outside range {rate_range}"
                )
            rate_range = (r_min, r_max)
        self.rate_range = rate_range
        self.width = required_width(_at_rate(config, r_max))
        self.core = DecimatorState(config)
        # outputs in flight as (exit cycle, value), oldest first
        self._pending = deque()
        self._cycle = 0
        self._dout = 0

    @property
    def programmable(self) -> bool:
        return self.rate_range is not None

    def _rate(self, ldin) -> int:
        """The rate that a load of `ldin` sets, or ProtocolError: the load rule."""
        if not self.programmable:
            raise ProtocolError("write-enable asserted on a fixed-rate chip")
        rate = _integer(ldin, "rate load", ProtocolError)
        r_min, r_max = self.rate_range
        if not r_min <= rate <= r_max:
            raise ProtocolError(f"rate load {rate} outside range [{r_min}, {r_max}]")
        return rate

    def tick(self, pins: PinInputs) -> PinOutputs:
        """Advance one clock edge and return the resulting output pins."""
        emitted = None
        rfd = True
        if pins.we:
            # Load beats nd this cycle; the core flushes but in-flight
            # outputs keep draining through the delay queue.
            self.core = DecimatorState(_at_rate(self.core.config, self._rate(pins.ldin)))
            rfd = False
        elif pins.nd:
            emitted = self.core.push(pins.din)

        rdy = bool(self._pending) and self._pending[0][0] == self._cycle
        if rdy:
            self._dout = self._pending.popleft()[1]
        if emitted is not None:
            self._pending.append((self._cycle + self.latency, emitted))
        self._cycle += 1
        return PinOutputs(dout=self._dout, rdy=rdy, rfd=rfd)

    def run(self, nd, din, we, ldin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one clock edge per element of the pin arrays.

        `nd` and `we` are boolean arrays; `din` and `ldin` are integer
        arrays or sequences of Python or numpy ints, all of one length, or
        ProtocolError is raised.  Returns the `(rdy, dout, rfd)` arrays
        (`dout` is int64 while `width` fits it, Python ints above) and leaves
        the state that folding `tick` over the same cycles would, so a trace
        may be split over several calls and interleaved with `tick`.  Before
        any state changes, each load meets `tick`'s load rule and the accepted
        samples the core's block check, which converts a sequence once; if one
        fails, the earlier cycles run and `tick` raises on the first faulty one.
        """
        try:
            nd, we = np.asarray(nd, dtype=bool), np.asarray(we, dtype=bool)
        except ValueError:  # a ragged sequence
            raise ProtocolError("nd and we must be 1-D sequences of flags") from None
        din, ldin = _pin_values(din, "din"), _pin_values(ldin, "ldin")
        if any(p.ndim != 1 for p in (nd, din, we, ldin)):
            shapes = [p.shape for p in (nd, din, we, ldin)]
            raise ProtocolError(f"pins must be 1-D, got shapes {shapes}")
        n = len(nd)
        if not len(din) == len(we) == len(ldin) == n:
            raise ProtocolError("pin arrays differ in length")
        accepted = nd & ~we
        checked = self._checked(accepted, din, we, ldin)
        if checked is None:  # a prefix fails iff a cycle in it does: loads keep B
            k = bisect.bisect_left(range(n), True, key=lambda i: self._checked(
                accepted[:i + 1], din[:i + 1], we[:i + 1], ldin[:i + 1]) is None)
            self.run(nd[:k], din[:k], we[:k], ldin[:k])
            try:  # pins as Python scalars, as a trace gives them: 2.0, not np.float64(2.0)
                self.tick(PinInputs(din.item(k), nd.item(k), ldin.item(k), we.item(k)))
            except ValueError as exc:  # tick checks before it changes any state
                raise ProtocolError(f"cycle {k}: {exc}") from exc
        rates, samples = checked

        # Each segment between loads is one block of the accepted samples; an
        # output is emitted on the nd cycle of its segment's R-th, 2R-th, ...
        # accepted sample, counted from the core's phase.
        taken = np.flatnonzero(accepted)
        emit_cycles, emitted = [], []
        lo, rates = 0, iter(rates)
        for end in [*np.flatnonzero(we).tolist(), n]:
            hi = np.searchsorted(taken, end)
            rate, phase = self.core.config.rate, self.core.phase
            emit_cycles += taken[lo:hi][rate - 1 - phase :: rate].tolist()
            emitted += self.core.process_block(samples[lo:hi])
            if end < n:
                self.core = DecimatorState(_at_rate(self.core.config, next(rates)))
            lo = hi  # a load cycle takes no sample, so the next segment starts here

        # An output emitted on cycle c exits on c + latency, in Python ints so
        # no latency wraps; cycles count from this call's first.  dout holds
        # the last exit.
        base = self._cycle
        exits = [e - base for e, _ in self._pending]
        exits += [c + self.latency for c in emit_cycles]
        values = [self._dout, *(y for _, y in self._pending), *emitted]
        done = bisect.bisect_left(exits, n)
        rdy = np.zeros(n, dtype=bool)
        rdy[exits[:done]] = True
        dout = np.array(values[:done + 1], np.int64 if self.width <= 64 else object)[np.cumsum(rdy)]
        self._dout = values[done]
        self._pending = deque(zip([base + e for e in exits[done:]], values[done + 1:]))
        self._cycle = base + n
        return rdy, dout, ~we

    def _checked(self, accepted, din, we, ldin):
        """`tick`'s load rule and the core's block check: (rates, samples), or None."""
        try:
            rates = [self._rate(rate) for rate in ldin[we]]
            # one B-bit range at every rate; with no sample taken, tick reads no din
            return rates, self.core._checked_block(din[accepted] if accepted.any() else [])
        except ValueError:
            return None


def run_trace(chip: ChipModel, trace) -> list[PinOutputs]:
    """Fold `tick` over a pin trace; errors carry the offending cycle index."""
    outputs = []
    for cycle, pins in enumerate(trace):
        try:
            outputs.append(chip.tick(pins))
        except ValueError as exc:
            raise ProtocolError(f"cycle {cycle}: {exc}") from exc
    return outputs
