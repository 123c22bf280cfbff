"""Cycle-accurate pin-level model of a CIC decimator chip.

Pins follow the usual ready/valid convention: a sample on `din` is consumed
on a rising edge when both `nd` (new data) and the chip's `rfd` (ready for
data) are high.  Outputs appear on `dout` with a one-cycle `rdy` pulse after
a fixed pipeline latency.  Chips built with a programmable rate range accept
a new decimation factor through `ldin`/`we`; a load takes effect
immediately, resets the filter core and deasserts `rfd` for that one cycle.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, replace

from .core import CicConfig, DecimatorState, DifferentialDelayWarning, required_width


class ProtocolError(ValueError):
    """The pin trace violates the chip's handshake contract."""


def _at_rate(config: CicConfig, rate: int) -> CicConfig:
    """`config` with another rate, without repeating the warning its M gave."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DifferentialDelayWarning)
        return replace(config, rate=rate)


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
    register.  With a programmable rate range the register width is sized
    for the largest allowed rate, so rate changes never need a resize.
    """

    def __init__(
        self,
        config: CicConfig,
        latency: int | None = None,
        rate_range: tuple[int, int] | None = None,
    ):
        if latency is None:
            latency = config.stages + 1
        if latency < 1:
            raise ProtocolError(f"latency must be >= 1, got {latency}")
        self.latency = latency
        self.rate_range = rate_range
        r_max = config.rate
        if rate_range is not None:
            r_min, r_max = rate_range
            if not 1 <= r_min <= r_max:
                raise ProtocolError(f"bad rate range {rate_range}")
            if not r_min <= config.rate <= r_max:
                raise ProtocolError(
                    f"initial rate {config.rate} outside range {rate_range}"
                )
        self.width = required_width(_at_rate(config, r_max))
        self.core = DecimatorState(config, width=self.width)
        # outputs in flight, newest on the left; a full deque drops the
        # rightmost (oldest) entry on each appendleft
        self._queue = deque([None] * latency, maxlen=latency)
        self._dout = 0

    @property
    def programmable(self) -> bool:
        return self.rate_range is not None

    def tick(self, pins: PinInputs) -> PinOutputs:
        """Advance one clock edge and return the resulting output pins."""
        emitted = None
        rfd = True
        if pins.we:
            if not self.programmable:
                raise ProtocolError("write-enable asserted on a fixed-rate chip")
            r_min, r_max = self.rate_range
            if not r_min <= pins.ldin <= r_max:
                raise ProtocolError(
                    f"rate load {pins.ldin} outside range [{r_min}, {r_max}]"
                )
            # Load beats nd this cycle; the core flushes but in-flight
            # outputs keep draining through the delay queue.
            self.core = DecimatorState(_at_rate(self.core.config, pins.ldin), self.width)
            rfd = False
        elif pins.nd:
            emitted = self.core.push(pins.din)

        exiting = self._queue[-1]
        self._queue.appendleft(emitted)
        if exiting is not None:
            self._dout = exiting
        return PinOutputs(dout=self._dout, rdy=exiting is not None, rfd=rfd)


def run_trace(chip: ChipModel, trace) -> list[PinOutputs]:
    """Fold `tick` over a pin trace; errors carry the offending cycle index."""
    outputs = []
    for cycle, pins in enumerate(trace):
        try:
            outputs.append(chip.tick(pins))
        except ValueError as exc:
            raise ProtocolError(f"cycle {cycle}: {exc}") from exc
    return outputs
