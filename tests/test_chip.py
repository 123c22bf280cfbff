"""Pin-level chip model tests: handshake timing, rate loads, golden-model equality."""

import dataclasses
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cicdec import (
    ChipModel,
    CicConfig,
    PinInputs,
    PinOutputs,
    ProtocolError,
    reference_decimate,
    required_width,
    run_trace,
)
from helpers import quiet_config, signed_range


def dense_feed(samples):
    return [PinInputs(din=s, nd=True) for s in samples]


def idle(cycles):
    return [PinInputs()] * cycles


def gated_douts(outputs):
    return [o.dout for o in outputs if o.rdy]


def pending(chip):
    """Outputs in flight as (cycles until exit, value), oldest first."""
    return [(cycle - chip._cycle, y) for cycle, y in chip._pending]


# ---------------------------------------------------------------- construction


def test_default_latency_is_stages_plus_one():
    assert ChipModel(CicConfig(2, 4, 1, 8)).latency == 3
    assert ChipModel(CicConfig(4, 8, 1, 8)).latency == 5
    assert ChipModel(CicConfig(2, 4, 1, 8), latency=1).latency == 1


def test_nonpositive_latency_rejected():
    with pytest.raises(ProtocolError):
        ChipModel(CicConfig(2, 4, 1, 8), latency=0)


def test_programmable_width_sized_for_largest_rate():
    cfg = CicConfig(2, 4, 1, 8)
    chip = ChipModel(cfg, rate_range=(1, 64))
    assert chip.programmable
    assert chip.width == required_width(dataclasses.replace(cfg, rate=64))
    assert not ChipModel(cfg).programmable


def test_bad_rate_ranges_rejected():
    cfg = CicConfig(2, 4, 1, 8)
    with pytest.raises(ProtocolError):
        ChipModel(cfg, rate_range=(0, 8))
    with pytest.raises(ProtocolError):
        ChipModel(cfg, rate_range=(8, 2))
    with pytest.raises(ProtocolError):
        ChipModel(cfg, rate_range=(8, 16))  # initial rate 4 outside range


# ---------------------------------------------------------------- timing


def test_idle_chip_holds_outputs_low():
    chip = ChipModel(CicConfig(2, 4, 1, 8))
    for _ in range(10):
        assert chip.tick(PinInputs()) == PinOutputs(dout=0, rdy=False, rfd=True)


def test_dense_feed_pulses_rdy_every_rate_cycles():
    # R=4 with a 3-cycle pipeline: the m-th output exits at cycle 4m+3+3
    cfg = CicConfig(2, 4, 1, 8)
    chip = ChipModel(cfg, latency=3)
    samples = [1] + [0] * 27
    outs = run_trace(chip, dense_feed(samples))
    assert [i for i, o in enumerate(outs) if o.rdy] == [6, 10, 14, 18, 22, 26]
    assert gated_douts(outs) == reference_decimate(cfg, samples)[: 6]
    assert not any(a.rdy and b.rdy for a, b in zip(outs, outs[1:]))


def test_dout_latches_between_pulses():
    cfg = CicConfig(1, 2, 1, 8)
    chip = ChipModel(cfg, latency=1)
    outs = run_trace(chip, dense_feed([3, 4]) + idle(6))
    held = [o.dout for o in outs]
    # the single output 7 exits at cycle 2 and must hold from then on
    assert held[2:] == [7, 7, 7, 7, 7, 7]
    assert [o.rdy for o in outs].count(True) == 1


def test_pacing_gaps_do_not_change_results():
    cfg = CicConfig(2, 4, 1, 8)
    rng = random.Random(11)
    samples = [rng.randint(-128, 127) for _ in range(24)]
    dense = run_trace(ChipModel(cfg), dense_feed(samples) + idle(8))
    gapped_trace = []
    for s in samples:
        gapped_trace += idle(2) + [PinInputs(din=s, nd=True)]
    gapped = run_trace(ChipModel(cfg), gapped_trace + idle(8))
    assert gated_douts(dense) == gated_douts(gapped) == reference_decimate(cfg, samples)


# ---------------------------------------------------------------- rate loads


def test_rate_load_pulses_rfd_and_restarts_the_core():
    cfg = CicConfig(2, 50, 1, 8)
    chip = ChipModel(cfg, rate_range=(1, 64))
    rng = random.Random(3)
    pre = [rng.randint(-128, 127) for _ in range(150)]
    post = [rng.randint(-128, 127) for _ in range(100)]
    trace = (
        dense_feed(pre)
        + [PinInputs(ldin=25, we=True, din=99, nd=True)]  # we wins; din dropped
        + dense_feed(post)
        + idle(chip.latency)
    )
    outs = run_trace(chip, trace)
    assert [i for i, o in enumerate(outs) if not o.rfd] == [len(pre)]
    post_cfg = dataclasses.replace(cfg, rate=25)
    assert gated_douts(outs) == (
        reference_decimate(cfg, pre) + reference_decimate(post_cfg, post)
    )


def test_in_flight_outputs_survive_a_rate_load():
    # queue an output, then load immediately: the pulse must still appear
    cfg = CicConfig(1, 2, 1, 8)
    chip = ChipModel(cfg, latency=4, rate_range=(1, 8))
    trace = dense_feed([5, 6]) + [PinInputs(ldin=4, we=True)] + idle(6)
    outs = run_trace(chip, trace)
    assert gated_douts(outs) == [11]


def test_rate_loads_across_the_64_bit_boundary_stay_exact():
    # B = 55: the core runs at W = 64, 73 and 58 for rates 8, 64 and 2, on
    # both sides of the int64 limit, and the chip is sized for r_max = 64.
    # A long run of the most negative sample drives each segment's output to
    # -gain * 2**54, the one value that needs every bit of W.
    cfg = CicConfig(3, 8, 1, 55)
    chip = ChipModel(cfg, rate_range=(1, 64))
    assert chip.width == 73
    lo, hi = signed_range(cfg.input_bits)
    rng = random.Random(7)
    trace, expected = [], []
    for rate, count in [(8, 64), (64, 256), (2, 32)]:
        if rate != cfg.rate:
            trace.append(PinInputs(ldin=rate, we=True))
        samples = [lo] * (3 * count // 4)
        samples += [rng.choice((lo, hi, rng.randint(lo, hi))) for _ in range(count // 4)]
        trace += dense_feed(samples)
        expected += reference_decimate(dataclasses.replace(cfg, rate=rate), samples)
    outs = run_trace(chip, trace + idle(chip.latency))
    assert gated_douts(outs) == expected
    assert chip.core.width == 58


@pytest.mark.parametrize("bits, dtype", [(63, np.int64), (64, object)])
def test_run_dout_is_int64_while_the_width_fits(bits, dtype):
    # N=1 R=2: W = B + 1, and two top samples sum to 2**B - 2
    chip = ChipModel(CicConfig(1, 2, 1, bits))
    n = 2 + chip.latency
    top = 2 ** (bits - 1) - 1
    rdy, dout, _ = chip.run(np.arange(n) < 2, [top, top] + [0] * (n - 2),
                            np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64))
    assert (chip.width, dout.dtype, dout.tolist()[-1]) == (bits + 1, dtype, 2 * top)
    assert rdy.tolist() == [False] * (n - 1) + [True]


def test_write_enable_on_fixed_chip_is_an_error():
    chip = ChipModel(CicConfig(2, 4, 1, 8))
    with pytest.raises(ProtocolError):
        chip.tick(PinInputs(ldin=8, we=True))


def test_load_outside_rate_range_is_an_error():
    chip = ChipModel(CicConfig(2, 4, 1, 8), rate_range=(2, 16))
    with pytest.raises(ProtocolError):
        chip.tick(PinInputs(ldin=32, we=True))
    with pytest.raises(ProtocolError):
        chip.tick(PinInputs(ldin=1, we=True))


def test_latency_queue_shifts_in_place():
    # only the outputs still in flight are held, not one slot per cycle
    chip = ChipModel(CicConfig(1, 2, 1, 8), latency=1000)
    outs = run_trace(chip, dense_feed([1, 2, 3, 4]))
    assert pending(chip) == [(997, 3), (999, 7)]
    outs += run_trace(chip, idle(1000))
    assert pending(chip) == []
    assert [c for c, o in enumerate(outs) if o.rdy] == [1001, 1003]
    assert gated_douts(outs) == [3, 7]


@pytest.mark.parametrize("latency", [10**12, 2**63 - 1, 2**64])
def test_huge_latency_costs_no_memory(latency):
    cfg = CicConfig(2, 4, 1, 8)
    oracle, chip = ChipModel(cfg, latency=latency), ChipModel(cfg, latency=latency)
    assert pending(chip) == []  # nothing sized by the latency
    samples = list(range(-25, 25))
    want = run_trace(oracle, dense_feed(samples))
    rdy, dout, rfd = chip.run(np.ones(50, dtype=bool), np.array(samples),
                              np.zeros(50, dtype=bool), np.zeros(50, dtype=np.int64))
    got = [PinOutputs(dout=d, rdy=r, rfd=f)
           for r, d, f in zip(rdy.tolist(), dout.tolist(), rfd.tolist())]
    assert got == want == [PinOutputs()] * 50
    # every output is still in flight, emitted on cycles 3, 7, ..., 47
    in_flight = [(c + latency - 50, y)
                 for c, y in zip(range(3, 50, 4), reference_decimate(cfg, samples))]
    assert pending(chip) == pending(oracle) == in_flight


# ---------------------------------------------------------------- trace driver


def test_run_trace_empty_and_error_reporting():
    chip = ChipModel(CicConfig(2, 4, 1, 8))
    assert run_trace(chip, []) == []
    bad = idle(2) + [PinInputs(din=1000, nd=True)]
    with pytest.raises(ProtocolError, match="cycle 2"):
        run_trace(ChipModel(CicConfig(2, 4, 1, 8)), bad)


def test_run_trace_returns_one_output_record_per_cycle():
    chip = ChipModel(CicConfig(1, 3, 1, 8))
    trace = dense_feed([1, 2, 3, 4]) + idle(5)
    assert len(run_trace(chip, trace)) == len(trace)


# ---------------------------------------------------------------- golden model


@st.composite
def chip_scenario(draw):
    cfg = quiet_config(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 6)),
        draw(st.integers(1, 2)),
        draw(st.integers(4, 8)),
    )
    lo, hi = signed_range(cfg.input_bits)
    sample = st.integers(lo, hi)
    pre = draw(st.lists(sample, max_size=40))
    load_rate = draw(st.none() | st.integers(1, 8))
    post = draw(st.lists(sample, max_size=40)) if load_rate is not None else []
    gap = st.integers(0, 2)
    trace = []
    for s in pre:
        trace += idle(draw(gap)) + [PinInputs(din=s, nd=True)]
    if load_rate is not None:
        trace.append(PinInputs(ldin=load_rate, we=True))
    for s in post:
        trace += idle(draw(gap)) + [PinInputs(din=s, nd=True)]
    latency = draw(st.integers(1, 4))
    return cfg, load_rate, pre, post, trace, latency


@given(chip_scenario())
def test_chip_matches_reference_decimator(scenario):
    cfg, load_rate, pre, post, trace, latency = scenario
    chip = ChipModel(cfg, latency=latency, rate_range=(1, 8))
    outs = run_trace(chip, trace + idle(latency))
    expected = reference_decimate(cfg, pre)
    if load_rate is not None:
        expected += reference_decimate(dataclasses.replace(cfg, rate=load_rate), post)
    assert gated_douts(outs) == expected
    assert sum(not o.rfd for o in outs) == (load_rate is not None)


# ---------------------------------------------------------------- array path


@st.composite
def pin_run_scenario(draw):
    """A chip, a pin trace with at most one fault, and how to split it."""
    kind = draw(st.sampled_from(["small", "straddle", "wide"]))
    if kind == "small":
        cfg = quiet_config(
            draw(st.integers(1, 3)), draw(st.integers(1, 6)),
            draw(st.integers(1, 2)), draw(st.integers(4, 8)),
        )
        rate_range = (1, 8)
    elif kind == "straddle":
        cfg, rate_range = CicConfig(3, 8, 1, 55), (1, 64)  # cores at W = 55 to 73
    else:
        cfg, rate_range = CicConfig(2, 3, 1, 70), (1, 8)  # inputs beyond int64
    if not draw(st.booleans()):
        rate_range = None
    latency = draw(st.integers(1, cfg.stages + 3))
    lo, hi = signed_range(cfg.input_bits)
    r_max = rate_range[1] if rate_range else cfg.rate
    n = draw(st.integers(0, 200))
    nd = draw(st.lists(st.integers(0, 4).map(bool), min_size=n, max_size=n))
    din = draw(st.lists(st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)),
                        min_size=n, max_size=n))
    load = st.integers(0, 30).map(lambda k: k == 0 and rate_range is not None)
    we = draw(st.lists(load, min_size=n, max_size=n))
    ldin = draw(st.lists(st.integers(1, r_max), min_size=n, max_size=n))
    fault = draw(st.sampled_from([None, None, "din", "ldin", "we"]))
    if fault and n:
        c = draw(st.integers(0, n - 1))
        if fault == "din":
            nd[c], we[c], din[c] = True, False, draw(st.sampled_from([lo - 1, hi + 1]))
        elif fault == "ldin":
            we[c], ldin[c] = True, draw(st.sampled_from([0, r_max + 1]))
        else:
            we[c] = True  # an error on a fixed chip only
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    tick_between = draw(st.booleans())
    as_array = cfg.input_bits < 64 and draw(st.booleans())
    return cfg, rate_range, latency, (nd, din, we, ldin), cuts, tick_between, as_array


def chip_state(chip):
    core = chip.core
    return (core.config, core.samples_in, core.phase, pending(chip), chip._cycle, chip._dout)


@given(pin_run_scenario())
def test_run_matches_run_trace(scenario):
    cfg, rate_range, latency, pins, cuts, tick_between, as_array = scenario
    nd, din, we, ldin = pins
    trace = [PinInputs(din=d, nd=v, ldin=r, we=w) for v, d, w, r in zip(*pins)]
    oracle = ChipModel(cfg, latency=latency, rate_range=rate_range)
    chip = ChipModel(cfg, latency=latency, rate_range=rate_range)
    steps, start = [], 0
    for cut in cuts + [len(trace)]:
        if tick_between and start and start < cut:
            steps.append((start, start + 1, "tick"))
            start += 1
        steps.append((start, cut, "run"))
        start = max(start, cut)
    for lo, hi, how in steps:
        want = got = None
        if how == "tick":
            try:
                want = [oracle.tick(trace[lo])]
            except ValueError as exc:
                want = exc
            try:
                got = [chip.tick(trace[lo])]
            except ValueError as exc:
                got = exc
        else:
            try:
                want = run_trace(oracle, trace[lo:hi])
            except ProtocolError as exc:
                want = exc
            as_pins = np.array if as_array else list
            try:
                rdy, dout, rfd = chip.run(np.array(nd[lo:hi], dtype=bool), as_pins(din[lo:hi]),
                                          we[lo:hi], as_pins(ldin[lo:hi]))
                got = [PinOutputs(dout=d, rdy=r, rfd=f)
                       for r, d, f in zip(rdy.tolist(), dout.tolist(), rfd.tolist())]
            except ProtocolError as exc:
                got = exc
        assert chip_state(chip) == chip_state(oracle)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        assert got == want


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def typed_pin_run(draw):
    """A fixed or programmable chip and pins of any type `run` may be given:
    integer arrays of every dtype, float and bool arrays, and lists of Python
    and numpy ints with strings mixed in; samples and loads in and out of range."""
    bits = draw(st.sampled_from([8, 70]))
    cfg, rate_range = CicConfig(2, 3, 1, bits), draw(st.sampled_from([None, (2, 6)]))
    lo, hi = signed_range(bits)
    n = draw(st.integers(0, 10))
    nd = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    we = draw(st.lists(st.integers(0, 7).map(lambda k: k == 0), min_size=n, max_size=n))

    def values(good, bad):  # most values good, so that a fair share of traces are valid
        return draw(st.lists(st.one_of(*[good] * 4, bad), min_size=n, max_size=n))
    kind = draw(st.sampled_from([*INTEGER_DTYPES, np.float64, np.bool_, list]))
    if kind is list:
        numpy_int = st.integers(max(lo, -(2**63)), min(hi, 2**63 - 1)).map(np.int64)
        bad = st.sampled_from([lo - 1, hi + 1, -(2**64), 2**64, np.int16(-200), "1"])
        din = values(st.integers(lo, hi) | numpy_int, bad)
    elif kind in INTEGER_DTYPES:
        info = np.iinfo(kind)
        bad = st.sampled_from([x for x in (lo - 1, hi + 1, info.min, info.max)
                               if info.min <= x <= info.max])
        din = np.array(values(st.integers(max(lo, info.min), min(hi, info.max)), bad), dtype=kind)
    else:
        din = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=kind)
    ldin = values(st.integers(2, 6) | st.integers(2, 6).map(np.int32),
                  st.sampled_from([1, 7, "3", None, 3.0, True]))
    return cfg, rate_range, (nd, din, we, ldin)


@given(typed_pin_run())
def test_run_goes_to_the_oracle_exactly_when_tick_raises(case):
    """No valid trace reaches `tick`, and an invalid one reaches it once, on the
    cycle at fault: `run` raises `run_trace`'s error and leaves its state."""
    cfg, rate_range, pins = case
    nd, din, we, ldin = pins
    oracle, chip = ChipModel(cfg, rate_range=rate_range), ChipModel(cfg, rate_range=rate_range)
    want = got = None
    values = din.tolist() if isinstance(din, np.ndarray) else din  # as Python scalars
    try:
        run_trace(oracle, [PinInputs(din=d, nd=v, ldin=r, we=w)
                           for v, d, w, r in zip(nd, values, we, ldin)])
    except ProtocolError as exc:
        want = str(exc)
    with mock.patch.object(ChipModel, "tick", autospec=True, side_effect=ChipModel.tick) as tick:
        try:
            chip.run(nd, din, we, ldin)
        except ProtocolError as exc:
            got = str(exc)
    assert got == want and tick.call_count == (want is not None)
    assert chip_state(chip) == chip_state(oracle)


@pytest.mark.parametrize("fault", ["din", "ldin"])
@pytest.mark.parametrize("bits, as_pins", [(16, np.array), (70, list)],
                         ids=["int64-B16", "int-B70"])
def test_a_late_fault_costs_one_tick(bits, as_pins, fault):
    """A 20k-cycle trace with one fault near its end, among good loads: the cycles
    before it run on the array path, and `tick` runs once, on the faulty cycle."""
    rnd, n, c = random.Random(bits), 20_000, 19_990
    lo, hi = signed_range(bits)
    cfg, rate_range = CicConfig(3, 8, 1, bits), (2, 64)
    nd = [rnd.random() < 0.8 for _ in range(n)]
    din = [rnd.randint(lo, hi) for _ in range(n)]
    we, ldin = [False] * n, [rnd.randint(2, 64) for _ in range(n)]
    for load in (5000, 12000, 19995):
        we[load] = True
    if fault == "din":
        nd[c], we[c], din[c] = True, False, hi + 1
    else:
        we[c], ldin[c] = True, 65
    oracle, chip = ChipModel(cfg, rate_range=rate_range), ChipModel(cfg, rate_range=rate_range)
    with pytest.raises(ProtocolError) as want:
        run_trace(oracle, [PinInputs(din=d, nd=v, ldin=r, we=w)
                           for v, d, w, r in zip(nd, din, we, ldin)])
    with mock.patch.object(ChipModel, "tick", autospec=True, side_effect=ChipModel.tick) as tick, \
            pytest.raises(ProtocolError) as got:
        chip.run(nd, as_pins(din), we, as_pins(ldin))
    assert str(got.value) == str(want.value) and str(got.value).startswith(f"cycle {c}: ")
    assert chip_state(chip) == chip_state(oracle)
    assert tick.call_count == 1
