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

from .core import CicConfig, _integer, _real


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


def _floats(x, name: str) -> np.ndarray:
    """`x`, a number (the real rule) or an int or float array, flattened to float64."""
    try:
        xa = np.asarray(x)
    except ValueError:  # a ragged sequence
        raise DomainError(f"{name} must be a number or an array of numbers, "
                          f"got a ragged sequence") from None
    if xa.ndim == 0 and not isinstance(x, np.ndarray):
        xa = np.asarray(_real(x, name, DomainError))
    if xa.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a number, got an array of {xa.dtype}")
    return xa.astype(np.float64, copy=False).ravel()


def _frequencies(f) -> np.ndarray:
    """`f` flattened to float64, every element checked against [0, 0.5]."""
    fa = _floats(f, "frequency")
    bad = ~((fa >= 0.0) & (fa <= 0.5))  # NaN fails both sides
    if bad.any():
        raise DomainError(f"frequency {fa[bad][0]} outside [0, 0.5]")
    return fa


def to_db(magnitude_linear: float | np.ndarray) -> float | np.ndarray:
    """20*log10 with exact zeros (and anything beneath the floor) at DB_FLOOR."""
    m = _floats(magnitude_linear, "magnitude")
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
    product's rounding error is added back: `u - rint(u)` is exact there,
    so the residual is exact, rounded once.  That needs D < 2**53, where
    float(D) is exact; above it the residual is float(D)*f's, not D*f's.
    """
    fa = _frequencies(f)
    d = config.kernel_length
    u = d * fa
    frac = u - np.rint(u)
    near = np.abs(frac) < u * 2.0**-16
    frac[near] += _product_error(float(d), fa[near], u[near])
    num = np.abs(np.sin(math.pi * frac))
    den = d * np.sin(math.pi * fa)
    ratio = np.divide(num, den, out=np.ones_like(fa), where=fa != 0.0)
    return _shaped_like(f, np.minimum(ratio**config.stages, 1.0))


def _split(a):
    """Veltkamp's split of doubles into two halves of at most 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a: float, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a*b - p exactly for p = fl(a*b): Dekker's TwoProduct (Numer. Math. 18, 1971)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def phase(config: CicConfig, f: float | np.ndarray) -> float | np.ndarray:
    """Linear-phase term -2*pi*f*N*(D-1)/2 in radians, without modular reduction."""
    fa = _frequencies(f)
    return _shaped_like(f, -math.pi * fa * config.stages * (config.kernel_length - 1))


def null_frequencies(config: CicConfig) -> list[float]:
    """Response zeros k/D for k = 1..floor(D/2), within (0, 0.5]."""
    d = config.kernel_length
    return [k / d for k in range(1, d // 2 + 1)]


def uniform_grid(stop: float, size: int) -> np.ndarray:
    """`size` >= 2 points stop*i/(size-1), i = 0..size-1, in that rounding order;
    `size` is a Python or numpy integer (not bool), or DomainError names grid_size."""
    size = _integer(size, "grid_size", DomainError)
    if size < 2:
        raise DomainError(f"grid_size must be >= 2, got {size}")
    limit = np.iinfo(np.intp).max // 8  # the doubles an array can hold
    if size > limit:
        raise DomainError(f"grid_size must be <= {limit}, got {size}")
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

    After the rate drop, the bands within +-fp of every multiple k/R of the
    output rate alias into the passband (Hogenauer, 1981).  |sin(pi*D*f)| is
    the same at f and f - k/R (D*k/R = k*M is an integer) while sin(pi*f)
    grows up to f = 0.5, so the band around 1/R holds the worst case.  The
    magnitude does not peak at a band's edges: between two adjacent nulls
    j/D and (j+1)/D it has one peak, where D*tan(pi*f) = tan(pi*D*f), and
    once M >= 2 a band is wider than 1/D and holds whole sidelobes.  So the
    worst case is the largest magnitude over the band's edges and the peak
    of each lobe that meets the band, clipped to the band.  Capped at
    -DB_FLOOR when that is below the floor (or R = 1, where no aliasing
    occurs at all).
    """
    fp = _check_passband_edge(config, fp)
    if config.rate == 1:
        return -DB_FLOOR
    d = config.kernel_length
    lo, hi = 1 / config.rate - fp, min(1 / config.rate + fp, 0.5)
    # lobes 1 <= j < D/2 (lobe 0 peaks at f = 0, below the band; [0, 0.5] ends in lobe (D-1)//2)
    j = np.arange(max(math.floor(lo * d), 1), min(math.floor(hi * d), (d - 1) // 2) + 1)
    f = np.concatenate(([lo, hi], np.clip(_lobe_peaks(d, j), lo, hi)))
    return -to_db(magnitude(config, f).max())


def _lobe_peaks(d: int, j: np.ndarray) -> np.ndarray:
    """The peak of |sin(pi*d*f) / sin(pi*f)| between the nulls j/d and (j+1)/d,
    for integers 1 <= j < d/2.

    With f = (j + theta/pi)/d and phi = pi*f the peak solves
    theta = atan2(d*sin(phi), cos(phi)), which is d*tan(pi*f) = tan(pi*d*f);
    four Newton steps from the lobe's middle, kept within it, find it to a
    few ulps (the slope of the residual in theta is (d**2 - 1)*sin(phi)**2 /
    (d**2*sin(phi)**2 + cos(phi)**2), in [0.85, 1] for these lobes).
    """
    theta = np.full(j.shape, math.pi / 2)
    for _ in range(4):
        phi = (math.pi * j + theta) / d
        s, c = d * np.sin(phi), np.cos(phi)
        q = s * s + c * c
        np.clip(theta - (theta - np.arctan2(s, c)) * q / (q - 1), 0.0, math.pi, out=theta)
    return (j + theta / math.pi) / d


def _check_passband_edge(config: CicConfig, fp: float) -> float:
    limit = 1.0 / (2 * config.rate)
    if not 0.0 < (edge := _real(fp, "passband edge", DomainError)) < limit:
        raise DomainError(
            f"passband edge {fp} outside (0, {limit}) for rate {config.rate}"
        )
    return edge
