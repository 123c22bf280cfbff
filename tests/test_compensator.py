"""Droop-compensation FIR design tests.

The design target for (N=2, R=50) over [0, 0.25] at the output rate is the
benchmark case throughout: its uncompensated droop is 1.82 dB.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cicdec import (
    CicConfig,
    ConfigError,
    DomainError,
    FirFilter,
    compensator,
    composite_response,
    design_compensator,
    magnitude,
    passband_deviation_db,
    phase,
    to_db,
)
from helpers import quiet_config

BENCH = CicConfig(2, 50)


def test_fifteen_taps_flatten_the_benchmark_passband():
    fir = design_compensator(BENCH, 15, 0.25)
    assert len(fir) == 15
    dev = passband_deviation_db(BENCH, fir, 0.25)
    assert dev <= 5e-6  # least-squares optimum is ~1e-6 here
    assert abs(fir.dc_gain() - 1.0) <= 1e-6


def test_taps_are_exactly_symmetric():
    fir = design_compensator(BENCH, 15, 0.25)
    assert fir.taps == fir.taps[::-1]


def test_deviation_improves_with_tap_count():
    devs = [
        passband_deviation_db(BENCH, design_compensator(BENCH, t, 0.25), 0.25)
        for t in (5, 7, 9, 11, 13, 15)
    ]
    assert all(b <= a for a, b in zip(devs, devs[1:]))
    assert all(d < 1.82 for d in devs)  # every design beats the raw droop


def test_single_tap_is_the_scalar_least_squares_fit():
    fir = design_compensator(BENCH, 1, 0.25)
    grid = np.linspace(0.0, 0.25, 201)
    c = np.array([magnitude(BENCH, g / BENCH.rate) for g in grid])
    assert fir.taps[0] == pytest.approx(c.sum() / (c @ c), rel=1e-12)


def test_single_tap_tends_to_unity_for_tiny_passbands():
    fir = design_compensator(BENCH, 1, 1e-6)
    assert abs(fir.taps[0] - 1.0) < 1e-9


def test_flat_filter_needs_no_compensation():
    # D=1 has no droop; the fit must return a delta within solver tolerance
    flat = CicConfig(3, 1)
    for taps in (1, 3, 7, 15):
        fir = design_compensator(flat, taps, 0.25)
        mid = taps // 2
        ideal = [0.0] * mid + [1.0] + [0.0] * mid
        assert max(abs(a - b) for a, b in zip(fir.taps, ideal)) <= 1e-9


def test_design_grid_refinement_is_stable():
    d201 = passband_deviation_db(BENCH, design_compensator(BENCH, 15, 0.25, grid_size=201), 0.25)
    d402 = passband_deviation_db(BENCH, design_compensator(BENCH, 15, 0.25, grid_size=402), 0.25)
    assert abs(d201 - d402) < 0.01


@pytest.mark.parametrize("bad_taps", [0, -1, 2, 4, 16])
def test_even_or_nonpositive_tap_counts_rejected(bad_taps):
    with pytest.raises(ConfigError):
        design_compensator(BENCH, bad_taps, 0.25)


@pytest.mark.parametrize("bad_fp", [0.0, 0.5, 0.75, -0.1])
def test_bad_output_edges_rejected(bad_fp):
    with pytest.raises(DomainError):
        design_compensator(BENCH, 15, bad_fp)
    with pytest.raises(DomainError):
        passband_deviation_db(BENCH, FirFilter([1.0]), bad_fp)


def test_underdetermined_design_rejected():
    # 15 taps have 8 free coefficients: 8 grid points fit them, 7 cannot
    assert len(design_compensator(BENCH, 15, 0.25, grid_size=8)) == 15
    for taps, grid, coefficients in [(15, 7, 8), (63, 31, 32)]:
        with pytest.raises(DomainError) as caught:
            design_compensator(BENCH, taps, 0.25, grid_size=grid)
        assert str(caught.value) == (f"{taps} taps have {coefficients} free coefficients, "
                                     f"more than the {grid} grid points that would fit them")


def test_design_matrix_bound_takes_a_matrix_of_its_size(monkeypatch):
    # 7 taps have 4 free coefficients, so a 10-point grid makes 40 elements:
    # a small bound puts that boundary where no large matrix is needed
    monkeypatch.setattr(compensator, "_MAX_DESIGN_ELEMENTS", 40)
    assert len(design_compensator(BENCH, 7, 0.25, grid_size=10)) == 7
    monkeypatch.setattr(compensator, "_MAX_DESIGN_ELEMENTS", 39)
    with pytest.raises(DomainError) as caught:
        design_compensator(BENCH, 7, 0.25, grid_size=10)
    assert str(caught.value) == "a 10 x 4 design matrix is above the bound of 39 elements"


def test_tiny_design_grid_rejected():
    with pytest.raises(DomainError):
        design_compensator(BENCH, 15, 0.25, grid_size=1)
    with pytest.raises(DomainError):
        composite_response(BENCH, FirFilter([1.0]), 1)


@given(
    st.integers(1, 3),
    st.integers(1, 16),
    st.integers(0, 9),
    st.floats(0.05, 0.45),
)
def test_designs_are_symmetric_and_normalized(n, r, half, fp_out):
    cfg = quiet_config(n, r)
    fir = design_compensator(cfg, 2 * half + 1, fp_out, grid_size=64)
    assert len(fir) == 2 * half + 1
    assert fir.taps == fir.taps[::-1]
    assert np.isfinite(fir.taps).all()


# ---------------------------------------------------------------- response


@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=20),
    st.lists(st.floats(0.0, 0.5), min_size=1, max_size=12),
)
# a long filter: Horner's rule over 201 taps
@example([2.0 * math.sin(0.7 * k * k) for k in range(201)],
         [0.0, 1e-9, 0.123456789, 0.25, 0.4999999, 0.5])
def test_response_at_array_matches_per_point_sum(taps, g):
    fir = FirFilter(taps)
    h = fir.response_at(np.array(g))
    assert h.shape == (len(g),)
    for gi, hi in zip(g, h.tolist()):
        direct = sum(t * cmath.exp(-2j * cmath.pi * gi * k) for k, t in enumerate(taps))
        assert abs(hi - direct) <= 1e-12 * (1.0 + sum(map(abs, taps)))
        assert fir.response_at(gi) == fir.response_at(np.array([gi]))[0]
        assert type(fir.response_at(gi)) is complex


@pytest.mark.parametrize("g, bad", [(0.7, "0.7"), (-3.0, "-3.0"), (math.nan, "nan"),
                                    ([0.1, 0.6], "0.6")], ids=repr)
def test_response_at_rejects_frequencies_outside_the_band(g, bad):
    with pytest.raises(DomainError) as caught:
        FirFilter([0.5, 0.5]).response_at(g)
    assert str(caught.value) == f"frequency {bad} outside [0, 0.5]"


def test_deviation_is_the_worst_per_point_level():
    fir = design_compensator(BENCH, 15, 0.25)
    worst = max(
        abs(to_db(magnitude(BENCH, g / BENCH.rate) * abs(fir.response_at(g))))
        for g in (0.25 * i / 1000 for i in range(1001))
    )
    assert passband_deviation_db(BENCH, fir, 0.25) == pytest.approx(worst, rel=1e-9, abs=1e-15)


# ---------------------------------------------------------------- composite


def test_identity_fir_reproduces_raw_response():
    fir = FirFilter([1.0])
    curve = composite_response(BENCH, fir, 101)
    for g, mag_db, ph in curve.rows():
        assert mag_db == to_db(magnitude(BENCH, g / BENCH.rate))


def test_composite_is_flat_at_dc_and_within_spec_across_passband():
    fir = design_compensator(BENCH, 15, 0.25)
    curve = composite_response(BENCH, fir, 401)
    assert abs(curve.mag_db[0]) <= 1e-5
    for g, mag_db, ph in curve.rows():
        if g <= 0.25:
            assert abs(mag_db) <= 0.1


def test_composite_phase_adds_fir_group_delay():
    fir = design_compensator(BENCH, 15, 0.25)
    curve = composite_response(BENCH, fir, 101)
    g = curve.freqs[40]
    expected = phase(BENCH, g / BENCH.rate) - 2 * np.pi * g * (len(fir) - 1) / 2
    assert curve.phase_rad[40] == pytest.approx(expected, rel=1e-12)
