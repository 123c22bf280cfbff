"""Shared test oracles, kept independent of the library's evaluation paths."""

import warnings

import mpmath as mp

from cicdec import CicConfig, DifferentialDelayWarning, boxcar_power

mp.mp.dps = 30


def poly_response(config, f):
    """DC-normalized response as the literal tap polynomial at z = e^{-2j*pi*f}.

    Evaluated by Horner in 30-digit arithmetic so cancellation deep in the
    stopband cannot pollute the comparison against the closed form.
    """
    taps = boxcar_power(config.kernel_length, config.stages)
    z = mp.expjpi(-2 * mp.mpf(f))
    acc = mp.mpc(0)
    for t in reversed(taps):
        acc = acc * z + t
    return acc / sum(taps)


def direct_boxcar_power(length, order):
    """`order`-fold self-convolution of `length` ones, as a literal double loop."""
    taps = [1]
    for _ in range(order):
        acc = [0] * (len(taps) + length - 1)
        for i, t in enumerate(taps):
            for j in range(length):
                acc[i + j] += t
        taps = acc
    return taps


def poly_mag(config, f) -> float:
    return float(abs(poly_response(config, f)))


def poly_phase(config, f) -> float:
    return float(mp.arg(poly_response(config, f)))


def quiet_config(stages, rate, diff_delay=1, input_bits=16) -> CicConfig:
    """Build a config without surfacing the large-diff-delay warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DifferentialDelayWarning)
        return CicConfig(stages, rate, diff_delay, input_bits)


def signed_range(bits):
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
