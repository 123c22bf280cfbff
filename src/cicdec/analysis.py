"""Closed-form CIC response evaluation: magnitude, phase, nulls, droop, aliasing.

All frequencies are normalized to the *input* sample rate (cycles per input
sample, 0..0.5).  Magnitudes are DC-normalized, so the response is exactly 1
at f=0 regardless of the filter gain.

`magnitude`, `phase` and `to_db` take a float or a numpy array of any shape.
A scalar gives a Python float back, an array an array of the same shape; the
scalar call is the array code run on one element, so both give the same
value.  Curves, droop and alias figures are single array expressions over
these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CicConfig


class DomainError(ValueError):
    """A frequency argument is outside its allowed range."""


#: Reported dB level for exact response zeros (log of 0 is -inf; curves and
#: attenuation figures clamp here so they stay finite and plottable).
DB_FLOOR = -300.0


def _shaped_like(arg, values: np.ndarray):
    """`values` as a Python scalar for a scalar `arg`, else in `arg`'s shape."""
    if np.ndim(arg) == 0:
        return values[0].item()  # float or complex, as `values` holds
    return values.reshape(np.shape(arg))


def _frequencies(f) -> np.ndarray:
    """`f` flattened to float64, every element checked against [0, 0.5]."""
    fa = np.asarray(f, dtype=np.float64).ravel()
    bad = ~((fa >= 0.0) & (fa <= 0.5))  # NaN fails both sides
    if bad.any():
        raise DomainError(f"frequency {fa[bad][0]} outside [0, 0.5]")
    return fa


def to_db(magnitude_linear: float | np.ndarray) -> float | np.ndarray:
    """20*log10 with exact zeros (and anything beneath the floor) at DB_FLOOR."""
    m = np.asarray(magnitude_linear, dtype=np.float64).ravel()
    floor = 10.0 ** (DB_FLOOR / 20.0)
    db = np.where(m <= floor, DB_FLOOR,
                  np.maximum(20.0 * np.log10(np.maximum(m, floor)), DB_FLOOR))
    return _shaped_like(magnitude_linear, db)


@dataclass(frozen=True)
class ResponseCurve:
    """Sampled response: parallel frequency / magnitude-dB / phase-radian arrays."""

    freqs: np.ndarray
    mag_db: np.ndarray
    phase_rad: np.ndarray

    def rows(self):
        """(f, mag_db, phase_rad) tuples of Python floats."""
        return zip(self.freqs.tolist(), self.mag_db.tolist(), self.phase_rad.tolist())


def magnitude(config: CicConfig, f: float | np.ndarray) -> float | np.ndarray:
    """DC-normalized magnitude |sin(pi*D*f) / (D*sin(pi*f))|**N at frequency f.

    The removable singularity at f=0 evaluates to 1.  The numerator argument
    is reduced modulo 1 so that response nulls at multiples of 1/D come out
    as exact zeros whenever D*f is an integer.  Near a null the float
    product D*f, off by up to D*f*2**-53, would swamp the small residual,
    so there (on the few elements within D*f*2**-16 of an integer) the
    residual is recomputed exactly from f's binary fraction.
    """
    fa = _frequencies(f)
    d = config.kernel_length
    u = d * fa
    nearest = np.rint(u)
    frac = u - nearest
    for i in np.flatnonzero(np.abs(frac) < u * 2.0**-16):
        p, q = float(fa[i]).as_integer_ratio()
        frac[i] = (d * p - int(nearest[i]) * q) / q  # exact integers, one rounding
    num = np.abs(np.sin(math.pi * frac))
    den = d * np.sin(math.pi * fa)
    ratio = np.divide(num, den, out=np.ones_like(fa), where=fa != 0.0)
    return _shaped_like(f, np.minimum(ratio**config.stages, 1.0))


def phase(config: CicConfig, f: float | np.ndarray) -> float | np.ndarray:
    """Linear-phase term -2*pi*f*N*(D-1)/2 in radians, without modular reduction."""
    fa = _frequencies(f)
    return _shaped_like(f, -math.pi * fa * config.stages * (config.kernel_length - 1))


def null_frequencies(config: CicConfig) -> list[float]:
    """Response zeros k/D for k = 1..floor(D/2), within (0, 0.5]."""
    d = config.kernel_length
    return [k / d for k in range(1, d // 2 + 1)]


def uniform_grid(stop: float, size: int) -> np.ndarray:
    """`size` >= 2 points stop*i/(size-1), i = 0..size-1, in that rounding order."""
    if size < 2:
        raise DomainError(f"grid_size must be >= 2, got {size}")
    return stop * np.arange(size) / (size - 1)


def response_curve(config: CicConfig, grid_size: int) -> ResponseCurve:
    """Magnitude/phase sampled on a uniform grid over [0, 0.5] inclusive."""
    freqs = uniform_grid(0.5, grid_size)
    return ResponseCurve(freqs, to_db(magnitude(config, freqs)), phase(config, freqs))


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
    centers = np.arange(1, config.rate // 2 + 1) / config.rate
    edges = np.clip(np.concatenate((centers - fp, centers + fp)), 0.0, 0.5)
    return -to_db(magnitude(config, edges).max(initial=0.0))


def _check_passband_edge(config: CicConfig, fp: float) -> None:
    limit = 1.0 / (2 * config.rate)
    if not 0.0 < fp < limit:
        raise DomainError(
            f"passband edge {fp} outside (0, {limit}) for rate {config.rate}"
        )
