"""The argument rules: every public integer or real argument, of any type,
returns or raises the library's own error for its site."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cicdec import (
    ChipModel,
    CicConfig,
    ConfigError,
    DecimatorState,
    DifferentialDelayWarning,
    DomainError,
    FirFilter,
    InputRangeError,
    PinInputs,
    ProtocolError,
    SigmaDeltaModulator,
    alias_attenuation,
    boxcar_power,
    composite_response,
    design_compensator,
    magnitude,
    passband_deviation_db,
    passband_droop,
    phase,
    reference_decimate,
    response_curve,
    run_trace,
    to_db,
)

CFG = CicConfig(2, 4, 1, 8)
FIR = FirFilter([0.25, 0.5, 0.25])

# (site, error its bad values raise, call with the drawn value in one argument)
CALLS = [
    ("CicConfig.stages", ConfigError, lambda x: CicConfig(x, 4)),
    ("CicConfig.rate", ConfigError, lambda x: CicConfig(2, x)),
    ("CicConfig.diff_delay", ConfigError, lambda x: CicConfig(2, 4, x)),
    ("CicConfig.input_bits", ConfigError, lambda x: CicConfig(2, 4, 1, x)),
    ("boxcar_power.length", ConfigError, lambda x: boxcar_power(x, 2)),
    ("boxcar_power.order", ConfigError, lambda x: boxcar_power(3, x)),
    ("push", InputRangeError, lambda x: DecimatorState(CFG).push(x)),
    ("process_block", InputRangeError, lambda x: DecimatorState(CFG).process_block([1, x, 2])),
    ("reference_decimate", InputRangeError, lambda x: reference_decimate(CFG, [1, x, 2, 3])),
    ("magnitude", DomainError, lambda x: magnitude(CFG, x)),
    ("phase", DomainError, lambda x: phase(CFG, x)),
    ("to_db", DomainError, to_db),
    ("response_curve", DomainError, lambda x: response_curve(CFG, x)),
    ("passband_droop", DomainError, lambda x: passband_droop(CFG, x)),
    ("alias_attenuation", DomainError, lambda x: alias_attenuation(CFG, x)),
    ("design_compensator.tap_count", ConfigError, lambda x: design_compensator(CFG, x, 0.25)),
    ("design_compensator.fp_out", DomainError, lambda x: design_compensator(CFG, 15, x)),
    ("design_compensator.grid_size", DomainError,
     lambda x: design_compensator(CFG, 15, 0.25, grid_size=x)),
    ("composite_response", DomainError, lambda x: composite_response(CFG, FIR, x)),
    ("passband_deviation_db", DomainError, lambda x: passband_deviation_db(CFG, FIR, x)),
    ("FirFilter.response_at", DomainError, FIR.response_at),
    ("ChipModel.latency", ProtocolError, lambda x: ChipModel(CFG, latency=x)),
    ("ChipModel.rate_range", ProtocolError, lambda x: ChipModel(CFG, rate_range=x)),
    ("ChipModel.rate_range[0]", ProtocolError, lambda x: ChipModel(CFG, rate_range=(x, 8))),
    ("ChipModel.rate_range[1]", ProtocolError, lambda x: ChipModel(CFG, rate_range=(1, x))),
    ("ChipModel.tick.ldin", ProtocolError,
     lambda x: ChipModel(CFG, rate_range=(1, 8)).tick(PinInputs(ldin=x, we=True))),
    ("ChipModel.run.ldin", ProtocolError,
     lambda x: ChipModel(CFG, rate_range=(1, 8)).run([False], [0], [True], [x])),
    ("SigmaDeltaModulator.stream.level", ValueError,
     lambda x: SigmaDeltaModulator().stream(x, 3)),
    ("SigmaDeltaModulator.stream.count", ValueError,
     lambda x: SigmaDeltaModulator().stream(0.5, x)),
    ("SigmaDeltaModulator.step", ValueError, lambda x: SigmaDeltaModulator().step(x)),
    # sequence arguments, given as anything at all
    ("process_block.samples", InputRangeError, lambda x: DecimatorState(CFG).process_block(x)),
    ("reference_decimate.samples", InputRangeError, lambda x: reference_decimate(CFG, x)),
    ("ChipModel.run.nd", ProtocolError, lambda x: ChipModel(CFG).run(x, [1], [False], [0])),
    ("ChipModel.run.din", ProtocolError, lambda x: ChipModel(CFG).run([True], x, [False], [0])),
    ("magnitude.ragged", DomainError, lambda x: magnitude(CFG, [0.1, [0.2, x]])),
]

NUMPY_SCALARS = st.one_of(
    st.integers(-50, 50).map(np.int64),
    st.integers(0, 50).map(np.uint8),
    st.floats(-2.0, 2.0).map(np.float64),
    st.floats(-2.0, 2.0, width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
WRONG = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.just(math.nan),
    st.integers(-50, 50),
    NUMPY_SCALARS,
    st.just(1j),
    st.just((1,)),
)


@given(st.sampled_from(CALLS), WRONG)
def test_wrong_types_raise_the_library_error_of_their_site(call, value):
    site, error, fn = call
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DifferentialDelayWarning)  # M > 2 builds
        try:
            fn(value)
        except Exception as exc:  # noqa: BLE001 - the class is the assertion
            assert type(exc) is error, f"{site}({value!r}) raised {exc!r}"


@pytest.mark.parametrize("value", [1.5, 2.0, True, "3", np.float64(2.0), np.bool_(True)], ids=repr)
@pytest.mark.parametrize("name, fn", [
    ("stages", lambda x: CicConfig(x, 4)),
    ("latency", lambda x: ChipModel(CFG, latency=x)),
    ("tap_count", lambda x: design_compensator(CFG, x, 0.25)),
    ("grid_size", lambda x: response_curve(CFG, x)),
    ("count", lambda x: SigmaDeltaModulator().stream(0.5, x)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_wrong_integer_type_message(name, fn, value):
    with pytest.raises(ValueError) as caught:
        fn(value)
    assert str(caught.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("value", ["0.1", None, True, 1j], ids=repr)
@pytest.mark.parametrize("name, fn", [
    ("passband edge", lambda x: passband_droop(CFG, x)),
    ("fp_out", lambda x: design_compensator(CFG, 15, x)),
    ("frequency", lambda x: magnitude(CFG, x)),
    ("input level", lambda x: SigmaDeltaModulator().stream(x, 1)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_wrong_number_type_message(name, fn, value):
    with pytest.raises(ValueError) as caught:
        fn(value)
    assert str(caught.value) == f"{name} must be a number, got {value!r}"


def test_acceptance_examples():
    with pytest.raises(ProtocolError, match="^latency must be an integer, got 1.5$"):
        ChipModel(CFG, latency=1.5)
    with pytest.raises(ProtocolError, match="^latency must be an integer, got True$"):
        ChipModel(CFG, latency=True)
    with pytest.raises(ProtocolError, match=r"^rate_range must be a pair of integers, got \(1,\)$"):
        ChipModel(CFG, rate_range=(1,))
    with pytest.raises(ConfigError, match="^tap_count must be an integer, got 63.0$"):
        design_compensator(CFG, 63.0, 0.25)
    with pytest.raises(DomainError, match="^grid_size must be an integer, got 2.5$"):
        response_curve(CFG, 2.5)
    with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
        SigmaDeltaModulator().stream(0.5, -1)


def test_values_of_the_right_type_keep_their_messages():
    """Bound messages print the value as given, converted or not."""
    with pytest.raises(DomainError, match=r"^passband edge 0 outside \(0, 0.125\) for rate 4$"):
        passband_droop(CFG, 0)
    with pytest.raises(DomainError, match=r"^passband edge 1000+ outside"):
        alias_attenuation(CFG, 10**400)  # past the doubles: still out of range
    with pytest.raises(DomainError, match=r"^fp_out 1 outside \(0, 0.5\)$"):
        passband_deviation_db(CFG, FIR, 1)
    with pytest.raises(ValueError, match=r"^input level 2 outside \[-1, 1\]$"):
        SigmaDeltaModulator().step(2)
    with pytest.raises(ProtocolError, match=r"^bad rate range \[8, 2\]$"):
        ChipModel(CFG, rate_range=[8, 2])
    with pytest.raises(ConfigError, match="^stages must be a positive integer, got 0$"):
        CicConfig(np.int64(0), 4)


def test_numpy_integers_are_kept_as_python_ints():
    cfg = CicConfig(np.int64(2), np.int32(8), np.uint8(2), np.int16(12))
    assert cfg == CicConfig(2, 8, 2, 12)
    assert all(type(v) is int for v in (cfg.stages, cfg.rate, cfg.diff_delay, cfg.input_bits))
    chip = ChipModel(cfg, latency=np.int64(4), rate_range=(np.uint16(1), np.int64(64)))
    assert type(chip.latency) is int and chip.rate_range == (1, 64)
    assert all(type(v) is int for v in chip.rate_range)
    chip.tick(PinInputs(ldin=np.uint8(5), we=True))
    assert type(chip.core.config.rate) is int and chip.core.config.rate == 5
    chip.run([False], [0], [True], [np.int16(3)])
    assert type(chip.core.config.rate) is int and chip.core.config.rate == 3
    assert response_curve(cfg, np.int64(5)).freqs.tolist() == [0.0, 0.125, 0.25, 0.375, 0.5]
    assert len(design_compensator(cfg, np.int64(15), np.float32(0.25), np.uint32(64))) == 15
    # 32 x 8 design elements: past uint8, so counted in Python ints
    assert design_compensator(CFG, 15, 0.25, grid_size=np.uint8(32)) == \
        design_compensator(CFG, 15, 0.25, grid_size=32)
    assert SigmaDeltaModulator().stream(np.float32(0.5), np.int8(9)) == \
        SigmaDeltaModulator().stream(0.5, 9)


@pytest.mark.parametrize("bits", [8, 70])
def test_run_takes_numpy_integer_lists_without_the_oracle(bits):
    rng = np.random.default_rng(7)
    n = 3000
    nd, we = rng.random(n) < 0.8, np.zeros(n, dtype=bool)
    we[1500] = True
    din = rng.integers(-128, 128, n).tolist()
    ldin = [0] * n
    ldin[1500] = 5
    cfg = CicConfig(2, 8, 1, bits)
    want = ChipModel(cfg, rate_range=(1, 16)).run(nd, din, we, ldin)
    chip = ChipModel(cfg, rate_range=(1, 16))
    blocks = []
    process_block = DecimatorState.process_block
    def spy(state, samples):
        blocks.append(samples)
        return process_block(state, samples)
    with mock.patch.object(ChipModel, "tick", side_effect=AssertionError), \
            mock.patch.object(DecimatorState, "process_block", spy):
        got = chip.run(nd, list(map(np.int64, din)), we, list(map(np.int32, ldin)))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # converted once, in `run`: the core gets the checked samples as int64, at any B
    assert len(blocks) == 2 and all(b.dtype == np.int64 for b in blocks)
    assert np.concatenate(blocks).tolist() == [x for x, a in zip(din, nd & ~we) if a]


@pytest.mark.parametrize("value", ["5", None, 5.0, True], ids=repr)
def test_rate_load_of_another_type_message(value):
    message = f"rate load must be an integer, got {value!r}"
    with pytest.raises(ProtocolError) as caught:
        ChipModel(CFG, rate_range=(1, 8)).tick(PinInputs(ldin=value, we=True))
    assert str(caught.value) == message
    pins = ([True, False], [1, 0], [False, True], [0, value])
    trace = [PinInputs(din=d, nd=v, ldin=r, we=w) for v, d, w, r in zip(*pins)]
    for fn in (lambda chip: chip.run(*pins), lambda chip: run_trace(chip, trace)):
        chip = ChipModel(CFG, rate_range=(1, 8))
        with pytest.raises(ProtocolError) as caught:
            fn(chip)
        assert str(caught.value) == f"cycle 1: {message}"
        assert chip.core.samples_in == 1 and chip.core.config.rate == 4


@pytest.mark.parametrize("value", [5, None, np.int64(5), 2.5], ids=repr)
@pytest.mark.parametrize("name, fn", [
    ("samples", lambda x: DecimatorState(CFG).process_block(x)),
    ("samples", lambda x: reference_decimate(CFG, x)),
    ("din", lambda x: ChipModel(CFG).run([True], x, [False], [0])),
    ("ldin", lambda x: ChipModel(CFG).run([True], [1], [False], x)),
], ids=["process_block", "reference_decimate", "run.din", "run.ldin"])
def test_not_a_sequence_message(name, fn, value):
    with pytest.raises(ValueError) as caught:
        fn(value)
    assert str(caught.value) == f"{name} must be a sequence, got {value!r}"


@pytest.mark.parametrize("fn", [lambda x: magnitude(CFG, x), to_db, FIR.response_at],
                         ids=["magnitude", "to_db", "response_at"])
def test_ragged_sequence_message(fn):
    with pytest.raises(DomainError, match=" must be a number or an array of numbers, "
                                          "got a ragged sequence$"):
        fn([0.1, [0.2, 0.3]])


@pytest.mark.parametrize("pins", [
    (True, [1], [False], [0]),
    ([True], np.array(1), [False], [0]),
    ([True, True], [1], [False], [0]),
    ([True, [False]], [1, 2], [False, False], [0, 0]),
], ids=["scalar-nd", "0-d-din", "lengths-differ", "ragged-nd"])
def test_run_rejects_pins_of_other_shapes_before_any_cycle(pins):
    chip = ChipModel(CFG)
    with pytest.raises(ProtocolError):
        chip.run(*pins)
    assert chip.core.samples_in == 0 and chip._cycle == 0


@pytest.mark.parametrize("din", [[1, 2.0, 3], [1, True, 3], [1, "2", 3]], ids=repr)
def test_run_sends_other_types_to_the_oracle(din):
    """A bad accepted `din` gets the oracle's error, cycle index and state."""
    with pytest.raises(ProtocolError, match="^cycle 1: sample must be an integer, got "):
        ChipModel(CFG).run(np.ones(3, dtype=bool), din, np.zeros(3, dtype=bool), [0] * 3)
