"""Toy first-order sigma-delta modulator, used as decimator test stimulus.

Emits a +-1 bitstream whose running mean tracks the input level; the bits
are declared as 2-bit signed samples so the full scale stays symmetric.
Not a serious converter model, just enough to drive the filter end to end.
"""

from __future__ import annotations

from .core import _integer, _real

#: Signed sample width the +-1 output bits are declared as.
OUTPUT_BITS = 2


class SigmaDeltaModulator:
    """First-order loop: accumulate the error against the fed-back bit."""

    def __init__(self):
        self.accumulator = 0.0
        self.last_bit = 1

    def step(self, level: float) -> int:
        """Advance one clock with input `level` in [-1, 1]; return the +-1 bit."""
        return self.stream(level, 1)[0]

    def stream(self, level: float, count: int) -> list[int]:
        """Run `count` clocks at a constant input level, checked once: a Python
        or numpy number in [-1, 1] and integer >= 0 (not bool), or ValueError."""
        checked = _real(level, "input level", ValueError)
        if not -1.0 <= checked <= 1.0:
            raise ValueError(f"input level {level} outside [-1, 1]")
        if (count := _integer(count, "count", ValueError)) < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        bits = []
        for _ in range(count):
            self.accumulator += checked - self.last_bit
            self.last_bit = 1 if self.accumulator >= 0 else -1
            bits.append(self.last_bit)
        return bits
