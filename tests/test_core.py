"""Bit-exact engine tests: config validation, widths, streaming, and the
unbounded-integer reference path."""

import dataclasses
import random
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cicdec import (
    ChipModel,
    CicConfig,
    ConfigError,
    DecimatorState,
    DifferentialDelayWarning,
    InputRangeError,
    PinInputs,
    WidthError,
    boxcar_power,
    design_compensator,
    gain,
    null_frequencies,
    reference_decimate,
    required_width,
)
from helpers import direct_boxcar_power, quiet_config, signed_range


# ---------------------------------------------------------------- config


def test_config_defaults_and_kernel_length():
    cfg = CicConfig(stages=2, rate=50)
    assert cfg.diff_delay == 1
    assert cfg.input_bits == 16
    assert cfg.kernel_length == 50
    assert quiet_config(4, 8, 4).kernel_length == 32


@pytest.mark.parametrize(
    "kwargs",
    [
        {"stages": 0, "rate": 8},
        {"stages": -1, "rate": 8},
        {"stages": 2, "rate": 0},
        {"stages": 2, "rate": 8, "diff_delay": 0},
        {"stages": 2, "rate": 8, "input_bits": 0},
        {"stages": 2.0, "rate": 8},
        {"stages": 2, "rate": True},
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ConfigError):
        CicConfig(**kwargs)


def test_config_error_names_offending_field():
    with pytest.raises(ConfigError, match="rate"):
        CicConfig(stages=2, rate=-5)
    with pytest.raises(ConfigError, match="input_bits"):
        CicConfig(stages=2, rate=5, input_bits=-3)


def test_large_diff_delay_warns_but_builds():
    with pytest.warns(DifferentialDelayWarning):
        cfg = CicConfig(stages=4, rate=8, diff_delay=3, input_bits=16)
    assert cfg.kernel_length == 24
    # a config is checked once, when it is built: using it warns no further
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        DecimatorState(cfg)
        ChipModel(cfg)
        # a programmable chip derives a config per rate (its width at r_max,
        # and one at each rate load) from the one already built
        ChipModel(cfg, rate_range=(1, 8)).tick(PinInputs(we=True, ldin=5))
        reference_decimate(cfg, [1] * 48)
        null_frequencies(cfg)
        design_compensator(cfg, 15, 0.25)
    assert not [w for w in caught if issubclass(w.category, DifferentialDelayWarning)]


def test_diff_delay_warning_names_the_caller():
    with pytest.warns(DifferentialDelayWarning) as record:
        CicConfig(stages=2, rate=8, diff_delay=3)
    assert Path(record[0].filename) == Path(__file__)


def test_usual_diff_delays_do_not_warn(recwarn):
    CicConfig(stages=2, rate=50, diff_delay=1)
    CicConfig(stages=2, rate=50, diff_delay=2)
    assert not [w for w in recwarn if issubclass(w.category, DifferentialDelayWarning)]


def test_config_is_frozen():
    cfg = CicConfig(stages=2, rate=50)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rate = 25


# ---------------------------------------------------------------- gain / width


def test_gain_examples():
    assert gain(CicConfig(2, 50)) == 2500
    assert gain(CicConfig(1, 1)) == 1
    assert gain(quiet_config(4, 8, 4)) == 1 << 20


@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 2))
def test_gain_equals_kernel_tap_sum(n, r, m):
    cfg = quiet_config(n, r, m)
    assert gain(cfg) == sum(boxcar_power(cfg.kernel_length, cfg.stages))


def test_required_width_examples():
    assert required_width(CicConfig(2, 50, 1, 1)) == 13
    assert required_width(CicConfig(1, 2, 1, 1)) == 2  # worst sum of two 1-bit samples is -2
    assert required_width(quiet_config(4, 8, 4, 16)) == 36


@given(st.integers(1, 4), st.integers(1, 24), st.integers(1, 2), st.integers(1, 12))
def test_required_width_tight_for_extreme_outputs(n, r, m, b):
    """W holds the exact worst-case output and W-1 does not.

    Worst case magnitude is gain * |most negative input|; check both signs
    against the two's-complement range of the reported width.
    """
    cfg = quiet_config(n, r, m, b)
    w = required_width(cfg)
    lo, hi = signed_range(b)
    length = cfg.stages * (cfg.kernel_length - 1) + cfg.rate + 1
    peak_neg = min(reference_decimate(cfg, [lo] * length))
    peak_pos = max(reference_decimate(cfg, [hi] * length))
    assert peak_neg == lo * gain(cfg)
    assert peak_pos == hi * gain(cfg)
    assert -(1 << (w - 1)) <= peak_neg and peak_pos <= (1 << (w - 1)) - 1
    if w > 1:  # w-1 bits must clip at least one extreme
        assert peak_neg < -(1 << (w - 2)) or peak_pos > (1 << (w - 2)) - 1


# ---------------------------------------------------------------- boxcar kernels


def test_boxcar_power_examples():
    assert boxcar_power(4, 1) == [1, 1, 1, 1]
    assert boxcar_power(4, 2) == [1, 2, 3, 4, 3, 2, 1]
    taps = boxcar_power(50, 2)
    assert len(taps) == 99
    assert sum(taps) == 2500


@given(st.integers(1, 40), st.integers(1, 5))
def test_boxcar_power_is_positive_palindrome(d, n):
    taps = boxcar_power(d, n)
    assert len(taps) == n * (d - 1) + 1
    assert taps == taps[::-1]
    assert all(t >= 1 for t in taps)
    assert sum(taps) == d**n


def test_boxcar_power_matches_direct_convolution():
    for d in range(1, 17):
        for n in range(5):
            assert boxcar_power(d, n) == direct_boxcar_power(d, n)


# ---------------------------------------------------------------- streaming engine


def test_push_cadence_one_output_every_rate_samples():
    state = DecimatorState(CicConfig(1, 2, 1, 8))
    outs = [state.push(1) for _ in range(4)]
    assert outs == [None, 2, None, 2]
    assert state.samples_in == 4
    assert state.samples_out == 2


def test_impulse_two_stage_rate_two():
    state = DecimatorState(CicConfig(2, 2, 1, 8))
    got = state.process_block([1, 0, 0, 0, 0, 0])
    assert got == [2, 0, 0]


def test_constant_input_reaches_exact_steady_state():
    cfg = CicConfig(2, 50, 1, 8)
    outs = DecimatorState(cfg).process_block([1] * 300)
    assert outs[0] == 1275  # partial overlap while the kernel fills
    assert outs[1:] == [2500] * 5


def test_width_two_sample_delay_line():
    # diff_delay=2 widens the kernel without touching the rate
    cfg = CicConfig(1, 2, 2, 8)
    outs = DecimatorState(cfg).process_block([1, 0, 0, 0, 0, 0])
    assert outs == reference_decimate(cfg, [1, 0, 0, 0, 0, 0])


def test_out_of_range_sample_rejected_with_state_intact():
    state = DecimatorState(CicConfig(2, 4, 1, 8))
    state.push(127)
    with pytest.raises(InputRangeError):
        state.push(128)
    with pytest.raises(InputRangeError):
        state.push(-129)
    assert state.samples_in == 1


def test_one_bit_input_range_is_minus_one_and_zero():
    state = DecimatorState(CicConfig(1, 2, 1, 1))
    state.push(-1)
    state.push(0)
    with pytest.raises(InputRangeError):
        state.push(1)


def test_width_override_must_cover_growth():
    cfg = CicConfig(2, 50, 1, 16)
    assert DecimatorState(cfg).width == required_width(cfg)
    assert DecimatorState(cfg, width=40).width == 40
    with pytest.raises(WidthError):
        DecimatorState(cfg, width=required_width(cfg) - 1)


def test_empty_block_leaves_state_unchanged():
    state = DecimatorState(CicConfig(2, 4, 1, 8))
    state.process_block([5, 6, 7])
    before = (state.phase, state.samples_in, state.samples_out)
    assert state.process_block([]) == []
    assert (state.phase, state.samples_in, state.samples_out) == before


def test_reset_restores_fresh_behaviour():
    cfg = CicConfig(3, 4, 1, 8)
    rng = random.Random(7)
    block = [rng.randint(-128, 127) for _ in range(37)]
    state = DecimatorState(cfg)
    state.process_block(block)
    state.reset()
    state.reset()  # idempotent
    assert state.samples_in == 0 and state.samples_out == 0 and state.phase == 0
    assert state.process_block(block) == DecimatorState(cfg).process_block(block)


def test_zero_input_stays_zero():
    outs = DecimatorState(CicConfig(4, 8, 1, 16)).process_block([0] * 64)
    assert outs == [0] * 8


# ---------------------------------------------------------------- reference oracle


def test_reference_examples():
    assert reference_decimate(CicConfig(1, 2, 1, 8), [1, 1, 1, 1]) == [2, 2]
    assert reference_decimate(CicConfig(2, 2, 1, 8), [1, 0, 0, 0, 0, 0]) == [2, 0, 0]
    outs = reference_decimate(CicConfig(2, 50, 1, 8), [1] * 200)
    assert outs[0] == 1275
    assert outs[1:] == [2500] * 3


def test_reference_handles_long_kernels():
    # boxcar_power is linear in the tap count per pass; the direct
    # convolution it replaced needed seconds to minutes at D = 4096
    cfg = CicConfig(3, 4096, 1, 16)
    lo, hi = signed_range(16)
    samples = random.Random(4096).choices([lo, -1, 0, 1, hi], k=3 * 4096 + 17)
    start = time.perf_counter()
    expected = reference_decimate(cfg, samples)
    assert time.perf_counter() - start < 1.0
    assert DecimatorState(cfg).process_block(samples) == expected


@pytest.mark.filterwarnings("ignore::cicdec.DifferentialDelayWarning")
def test_reference_impulse_sum_recovers_gain():
    # run the same kernel at full rate: every convolution value is emitted
    cfg = CicConfig(3, 6, 1, 8)
    full_rate = quiet_config(cfg.stages, 1, cfg.rate * cfg.diff_delay)
    support = cfg.stages * (cfg.kernel_length - 1) + 1
    impulse = [1] + [0] * (support + 4)
    outs = reference_decimate(full_rate, impulse)
    assert sum(outs) == gain(cfg)
    assert outs[support:] == [0] * 5  # finite support: N*(D-1)+1 taps


@pytest.mark.filterwarnings("ignore::cicdec.DifferentialDelayWarning")
def test_fixture_matches_published_vector_shape():
    cfg = quiet_config(4, 8, 4, 16)
    data = [1] + [0] * 159
    outs = DecimatorState(cfg).process_block(data)
    assert len(outs) == 20
    assert outs == reference_decimate(cfg, data)


@st.composite
def config_and_block(draw, max_len=400):
    cfg = quiet_config(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 8)),
        draw(st.integers(1, 2)),
        draw(st.integers(1, 8)),
    )
    lo, hi = signed_range(cfg.input_bits)
    block = draw(st.lists(st.integers(lo, hi), max_size=max_len))
    return cfg, block


@given(config_and_block())
def test_wrapping_engine_matches_unbounded_reference(case):
    cfg, block = case
    assert DecimatorState(cfg).process_block(block) == reference_decimate(cfg, block)


@given(config_and_block(), st.integers(0, 400))
def test_streaming_is_split_invariant(case, cut):
    cfg, block = case
    cut = min(cut, len(block))
    whole = DecimatorState(cfg).process_block(block)
    state = DecimatorState(cfg)
    parts = state.process_block(block[:cut]) + state.process_block(block[cut:])
    assert parts == whole
    assert state.samples_out == len(block) // cfg.rate
    assert state.phase == len(block) % cfg.rate


# ---------------------------------------------------------------- input contract

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def engine_state(state):
    """Everything a block may change, as plain values."""
    return (state.phase, state.samples_in, state.samples_out,
            list(state._integrators), [list(line) for line in state._combs])


@pytest.mark.parametrize("dtype", INT_DTYPES)
@pytest.mark.parametrize("bits", [8, 40])  # W = 14 (int64 path) and W = 46
def test_block_accepts_every_integer_dtype(dtype, bits):
    cfg = CicConfig(2, 4, 2, bits)
    info = np.iinfo(dtype)
    lo, hi = signed_range(bits)
    lo, hi = max(lo, int(info.min)), min(hi, int(info.max))
    rng = random.Random(11)
    block = [rng.choice([lo, hi, rng.randint(lo, hi)]) for _ in range(101)]
    got = DecimatorState(cfg).process_block(np.array(block, dtype=dtype))
    assert got == reference_decimate(cfg, block)
    assert all(type(y) is int for y in got)


@pytest.mark.parametrize("cfg", [CicConfig(3, 8, 1, 55), CicConfig(3, 8, 1, 64)])
def test_int64_block_at_and_above_64_bits(cfg):
    assert required_width(cfg) > 63
    lo, hi = signed_range(cfg.input_bits)
    block = [lo, hi] * 20 + [hi] * 17 + [lo] * 9
    got = DecimatorState(cfg).process_block(np.array(block, dtype=np.int64))
    assert got == reference_decimate(cfg, block)


def test_block_range_check_reads_values_before_any_cast():
    state = DecimatorState(CicConfig(2, 4, 1, 8))
    with pytest.raises(InputRangeError, match="18446744073709551615"):
        state.process_block(np.array([1, 2**64 - 1], dtype=np.uint64))
    with pytest.raises(InputRangeError, match="128"):
        state.process_block(np.array([5, 128], dtype=np.int16))
    with pytest.raises(InputRangeError):
        state.push(np.uint64(2**64 - 1))
    assert state.samples_in == 0


NOT_SAMPLES = [True, False, np.bool_(True), 0.5, 1.0, np.float64(1.0), "3", None]


@pytest.mark.parametrize("bad", NOT_SAMPLES, ids=repr)
def test_push_rejects_non_integer_samples(bad):
    state = DecimatorState(CicConfig(2, 4, 1, 8))
    state.push(3)
    before = engine_state(state)
    with pytest.raises(InputRangeError, match="not an integer"):
        state.push(bad)
    assert engine_state(state) == before


@pytest.mark.parametrize("bad", NOT_SAMPLES, ids=repr)
def test_block_rejects_non_integer_samples(bad):
    state = DecimatorState(CicConfig(2, 4, 1, 8))
    with pytest.raises(InputRangeError, match="not an integer"):
        state.process_block([1, 2, bad, 4])


@pytest.mark.parametrize(
    "block", [np.array([1.0, 2.0]), np.array([True, False]), np.zeros((2, 2), np.int64)],
    ids=["float64", "bool", "2-D"],
)
def test_block_rejects_non_integer_arrays(block):
    with pytest.raises(InputRangeError):
        DecimatorState(CicConfig(2, 4, 1, 8)).process_block(block)


@pytest.mark.parametrize("width", [None, 70])  # int64 and object block paths
def test_rejected_block_leaves_state_unchanged(width):
    cfg = CicConfig(2, 4, 2, 8)
    state, twin = DecimatorState(cfg, width), DecimatorState(cfg, width)
    state.process_block([7, -3, 100, 5, 9])
    twin.process_block([7, -3, 100, 5, 9])
    before = engine_state(state)
    for bad in ([1, 2, 3, 128], np.array([1, 2, -129], np.int16), [1, True], [0.5]):
        with pytest.raises(InputRangeError):
            state.process_block(bad)
        assert engine_state(state) == before
    tail = list(range(-60, 60, 7))
    assert state.process_block(tail) == twin.process_block(tail)


def test_block_and_push_share_state_at_width_override():
    cfg = CicConfig(3, 5, 2, 12)
    block = [(-1) ** i * (i * 97 % 2048) for i in range(200)]
    for width in (required_width(cfg), 64, 65, 90):
        state = DecimatorState(cfg, width=width)
        outs = state.process_block(block[:33])
        outs += [y for y in map(state.push, block[33:71]) if y is not None]
        outs += state.process_block(np.array(block[71:], dtype=np.int16))
        assert outs == reference_decimate(cfg, block)


# Configs whose register width lands on or just past the int64 limit
# (N=3, R=8, M=1: W = B + 9, so B = 53..57 gives W = 62..66) or far above
# it; small D keeps the reference convolution fast.
WIDE_CONFIGS = [(3, 8, 1, b) for b in range(53, 58)] + [(3, 8, 2, 53), (3, 8, 1, 100), (2, 3, 1, 100)]


@st.composite
def interleaved_feed(draw):
    """A config, its samples, and a plan that cuts them into push/block pieces."""
    if draw(st.booleans()):
        n, r, m, b = draw(st.sampled_from(WIDE_CONFIGS))
    else:
        n, r, m, b = (draw(st.integers(1, 4)), draw(st.integers(1, 9)),
                      draw(st.integers(1, 2)), draw(st.integers(1, 16)))
    cfg = quiet_config(n, r, m, b)
    lo, hi = signed_range(b)
    samples = draw(st.lists(st.integers(lo, hi), max_size=150))
    pieces, i = [], 0
    while i < len(samples):
        k = draw(st.integers(0, 40))
        how = draw(st.sampled_from(["push", "list"] + INT_DTYPES))
        pieces.append((how, samples[i:i + k]))
        i += k
    return cfg, samples, pieces


def feed(state, how, piece):
    if how == "push":
        return [y for y in map(state.push, piece) if y is not None]
    if how != "list":
        info = np.iinfo(how)
        if all(info.min <= x <= info.max for x in piece):
            return state.process_block(np.array(piece, dtype=how))
    return state.process_block(piece)


@given(interleaved_feed())
def test_push_and_block_interleavings_match_reference(case):
    cfg, samples, pieces = case
    state = DecimatorState(cfg)
    outs = []
    for how, piece in pieces:
        outs += feed(state, how, piece)
    assert outs == reference_decimate(cfg, samples)
    assert state.samples_in == len(samples)
    assert state.samples_out == len(samples) // cfg.rate
    assert state.phase == len(samples) % cfg.rate
