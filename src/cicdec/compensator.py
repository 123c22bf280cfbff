"""Least-squares FIR design that flattens CIC passband droop.

The compensator runs at the decimated rate, so its frequencies are
normalized to the *output* sample rate; an output-rate frequency g sees the
CIC response at the input-rate frequency g/R.  Taps are symmetric (linear
phase, odd length), parameterized by their independent half and fit so that
FIR(g) * CIC(g/R) tracks 1 over the requested passband.

`FirFilter.response_at` takes a float or an array of frequencies, like
`analysis.magnitude`; the design grid, the composite response and the
passband deviation are each evaluated as one array expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CicConfig, ConfigError
from .analysis import (
    DomainError,
    ResponseCurve,
    _shaped_like,
    magnitude,
    phase,
    to_db,
    uniform_grid,
)


@dataclass(frozen=True)
class FirFilter:
    """Real FIR coefficients operating at the decimated (output) rate."""

    taps: list[float]

    def __len__(self) -> int:
        return len(self.taps)

    def dc_gain(self) -> float:
        return float(sum(self.taps))

    def response_at(self, g: float | np.ndarray) -> complex | np.ndarray:
        """Complex frequency response at output-rate frequency g.

        A float gives a complex back; an array of g gives an array, computed
        as one exp(-2*pi*i*g*k) @ taps product over the whole grid.
        """
        gs = np.asarray(g, dtype=np.float64).ravel()
        kernel = np.exp(-2j * math.pi * np.multiply.outer(gs, np.arange(len(self.taps))))
        return _shaped_like(g, kernel @ np.asarray(self.taps))


def design_compensator(
    config: CicConfig, tap_count: int, fp_out: float, grid_size: int = 201
) -> FirFilter:
    """Fit a symmetric `tap_count`-tap FIR so the cascade is flat on [0, fp_out].

    Unweighted least squares on a uniform grid: minimize the sum over grid
    frequencies g of (A(g) * cic(g/R) - 1)**2, where A is the zero-phase
    amplitude of the symmetric FIR.  Solved by SVD (numpy lstsq); the cosine
    design matrix is too ill-conditioned for normal equations once the tap
    count grows.  The tap_count//2 + 1 free taps need at least as many grid
    points; fewer would leave the fit underdetermined.
    """
    if tap_count < 1 or tap_count % 2 == 0:
        raise ConfigError(f"tap_count must be odd and >= 1, got {tap_count}")
    if not 0.0 < fp_out < 0.5:
        raise DomainError(f"fp_out {fp_out} outside (0, 0.5)")
    grid = uniform_grid(fp_out, grid_size)
    half = tap_count // 2
    if half + 1 > grid_size:
        raise DomainError(
            f"{tap_count} taps have {half + 1} free coefficients, more than "
            f"the {grid_size} grid points that would fit them"
        )

    cic_mag = magnitude(config, grid / config.rate)

    # Zero-phase amplitude A(g) = p[0] + sum_j 2*p[j]*cos(2*pi*g*j); columns
    # carry the CIC magnitude so the target is the flat cascade, not 1/cic.
    basis = 2.0 * np.cos(2.0 * math.pi * grid[:, None] * np.arange(half + 1))
    basis[:, 0] = 1.0
    design = basis * cic_mag[:, None]

    p, *_ = np.linalg.lstsq(design, np.ones(grid_size), rcond=None)

    taps = [float(p[abs(k - half)]) for k in range(tap_count)]
    return FirFilter(taps)


def composite_response(
    config: CicConfig, fir: FirFilter, grid_size: int
) -> ResponseCurve:
    """Cascade response sampled over output-rate frequencies [0, 0.5].

    Magnitude is cic(g/R) * |FIR(g)| in dB; phase is the CIC linear-phase
    term at g/R plus the symmetric FIR's group-delay term.
    """
    g = uniform_grid(0.5, grid_size)
    f = g / config.rate
    delay = (len(fir.taps) - 1) / 2.0
    return ResponseCurve(
        g,
        to_db(magnitude(config, f) * np.abs(fir.response_at(g))),
        phase(config, f) - 2.0 * math.pi * g * delay,
    )


def passband_deviation_db(
    config: CicConfig, fir: FirFilter, fp_out: float, grid_size: int = 1001
) -> float:
    """Max |dB| of the cascade over [0, fp_out] at the output rate."""
    if not 0.0 < fp_out < 0.5:
        raise DomainError(f"fp_out {fp_out} outside (0, 0.5)")
    g = uniform_grid(fp_out, grid_size)
    level = magnitude(config, g / config.rate) * np.abs(fir.response_at(g))
    return float(np.abs(to_db(level)).max())
