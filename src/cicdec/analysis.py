"""Closed-form CIC response evaluation: magnitude, phase, nulls, droop, aliasing.

All frequencies are normalized to the *input* sample rate (cycles per input
sample, 0..0.5).  Magnitudes are DC-normalized, so the response is exactly 1
at f=0 regardless of the filter gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CicConfig, boxcar_power, validate


class DomainError(ValueError):
    """A frequency argument is outside its allowed range."""


#: Reported dB level for exact response zeros (log of 0 is -inf; curves and
#: attenuation figures clamp here so they stay finite and plottable).
DB_FLOOR = -300.0


def to_db(magnitude_linear: float) -> float:
    """20*log10 with exact zeros (and anything beneath the floor) at DB_FLOOR."""
    if magnitude_linear <= 10.0 ** (DB_FLOOR / 20.0):
        return DB_FLOOR
    return max(20.0 * math.log10(magnitude_linear), DB_FLOOR)


@dataclass(frozen=True)
class ImpulseResponse:
    """Exact integer taps of the full-rate CIC impulse response."""

    taps: list[int]

    def __len__(self) -> int:
        return len(self.taps)

    @property
    def tap_sum(self) -> int:
        return sum(self.taps)


@dataclass(frozen=True)
class ResponseCurve:
    """Sampled response: parallel frequency / magnitude-dB / phase-radian lists."""

    freqs: list[float]
    mag_db: list[float]
    phase_rad: list[float]

    def rows(self):
        return zip(self.freqs, self.mag_db, self.phase_rad)


def impulse_response(config: CicConfig) -> ImpulseResponse:
    """N-fold self-convolution of the length-(R*M) all-ones kernel, exact."""
    validate(config)
    return ImpulseResponse(boxcar_power(config.kernel_length, config.stages))


def magnitude(config: CicConfig, f: float) -> float:
    """DC-normalized magnitude |sin(pi*D*f) / (D*sin(pi*f))|**N at frequency f.

    The removable singularity at f=0 evaluates to 1.  The numerator argument
    is reduced modulo 1 so that response nulls at multiples of 1/D come out
    as exact zeros whenever D*f is an integer.  Near a null the float
    product D*f, off by up to D*f*2**-53, would swamp the small residual,
    so there the residual is recomputed exactly from f's binary fraction.
    """
    if not 0.0 <= f <= 0.5:
        raise DomainError(f"frequency {f} outside [0, 0.5]")
    if f == 0.0:
        return 1.0
    d = config.kernel_length
    u = d * f
    nearest = round(u)
    frac = u - nearest
    if abs(frac) < u * 2.0**-16:
        p, q = f.as_integer_ratio()
        frac = (d * p - nearest * q) / q  # exact integers, one rounding
    if frac == 0.0:
        return 0.0
    num = abs(math.sin(math.pi * frac))
    den = d * math.sin(math.pi * f)
    return min((num / den) ** config.stages, 1.0)


def phase(config: CicConfig, f: float) -> float:
    """Linear-phase term -2*pi*f*N*(D-1)/2 in radians, without modular reduction."""
    if not 0.0 <= f <= 0.5:
        raise DomainError(f"frequency {f} outside [0, 0.5]")
    return -math.pi * f * config.stages * (config.kernel_length - 1)


def null_frequencies(config: CicConfig) -> list[float]:
    """Response zeros k/D for k = 1..floor(D/2), within (0, 0.5]."""
    validate(config)
    d = config.kernel_length
    return [k / d for k in range(1, d // 2 + 1)]


def response_curve(config: CicConfig, grid_size: int) -> ResponseCurve:
    """Magnitude/phase sampled on a uniform grid over [0, 0.5] inclusive."""
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    freqs, mags, phases = [], [], []
    for i in range(grid_size):
        f = 0.5 * i / (grid_size - 1)
        freqs.append(f)
        mags.append(to_db(magnitude(config, f)))
        phases.append(phase(config, f))
    return ResponseCurve(freqs, mags, phases)


def passband_droop(config: CicConfig, fp: float) -> float:
    """Attenuation in dB at the passband edge fp (input-rate normalized)."""
    _check_passband_edge(config, fp)
    return -to_db(magnitude(config, fp))


def alias_attenuation(config: CicConfig, fp: float) -> float:
    """Worst-case rejection of the bands that fold onto [0, fp] after decimation.

    After the rate drop, the regions within +-fp of every multiple of 1/R
    alias into the passband.  The CIC magnitude peaks at the edges of each
    such band, so the minimum attenuation over the edge frequencies
    {k/R - fp, k/R + fp} is the worst-case alias rejection.  Capped at
    -DB_FLOOR when every edge sits on an exact null (or R = 1, where no
    aliasing occurs at all).
    """
    _check_passband_edge(config, fp)
    r = config.rate
    worst = 0.0
    for k in range(1, r // 2 + 1):
        for edge in (k / r - fp, k / r + fp):
            edge = min(max(edge, 0.0), 0.5)
            worst = max(worst, magnitude(config, edge))
    return -to_db(worst)


def _check_passband_edge(config: CicConfig, fp: float) -> None:
    limit = 1.0 / (2 * config.rate)
    if not 0.0 < fp < limit:
        raise DomainError(
            f"passband edge {fp} outside (0, {limit}) for rate {config.rate}"
        )
