"""Closed-form response tests, cross-checked against the exact tap polynomial."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from cicdec import (
    CicConfig,
    DB_FLOOR,
    DomainError,
    alias_attenuation,
    magnitude,
    null_frequencies,
    passband_droop,
    phase,
    response_curve,
    to_db,
)
from helpers import poly_mag, poly_phase, quiet_config


# ---------------------------------------------------------------- dB helper


def test_to_db_floor_and_identity():
    assert to_db(0.0) == DB_FLOOR
    assert to_db(1e-20) == DB_FLOOR
    assert to_db(1.0) == 0.0
    assert to_db(0.5) == pytest.approx(-6.0206, abs=1e-4)
    assert to_db(0.1) > to_db(0.01)


# ---------------------------------------------------------------- magnitude


def test_magnitude_is_one_at_dc():
    assert magnitude(CicConfig(2, 50), 0.0) == 1.0
    assert magnitude(CicConfig(1, 1), 0.3) == 1.0  # D=1 is all-pass


def test_magnitude_passband_example():
    mag = magnitude(CicConfig(2, 50), 0.005)
    assert mag == pytest.approx(0.8106, abs=2e-4)
    assert to_db(mag) == pytest.approx(-1.82, abs=0.01)


def test_magnitude_first_alias_edge_example():
    mag = magnitude(CicConfig(2, 50), 0.015)
    assert to_db(mag) == pytest.approx(-20.90, abs=0.05)


@pytest.mark.parametrize("f", [-0.1, 0.5000001, 1.0])
def test_magnitude_rejects_out_of_domain(f):
    with pytest.raises(DomainError):
        magnitude(CicConfig(2, 50), f)


@pytest.mark.filterwarnings("ignore::cicdec.DifferentialDelayWarning")
def test_nulls_evaluate_to_zero_at_machine_precision():
    # dyadic D: k/D * D is representable, so the reduction hits literal zero;
    # other D can leave a one-ulp residue in the product, never more
    for cfg in [CicConfig(1, 2), CicConfig(2, 32), quiet_config(4, 8, 4)]:
        for f0 in null_frequencies(cfg):
            assert magnitude(cfg, f0) == 0.0
    for cfg in [CicConfig(2, 50), CicConfig(3, 17)]:
        for f0 in null_frequencies(cfg):
            assert magnitude(cfg, f0) <= 1e-13


@given(
    st.integers(1, 3),
    st.integers(2, 32),
    st.integers(1, 2),
    st.floats(0.0, 0.5, allow_nan=False),
)
@example(n=1, r=3, m=2, f=0.49999999999999994)  # float D*f residual 2.3e-16, exact 1.7e-16
@example(n=1, r=5, m=2, f=0.1)  # float D*f rounds onto the null, exact is 5.6e-17 off it
def test_magnitude_matches_tap_polynomial(n, r, m, f):
    """Closed form against the 30-digit Horner evaluation of the actual taps."""
    cfg = quiet_config(n, r, m)
    closed = magnitude(cfg, f)
    poly = poly_mag(cfg, f)
    assert 0.0 <= closed <= 1.0
    assert abs(closed - poly) <= 1e-9 * max(poly, 1e-15)


def test_magnitude_decreases_across_first_lobe():
    for cfg in [CicConfig(2, 50), CicConfig(1, 8), quiet_config(3, 4, 2)]:
        d = cfg.kernel_length
        mags = [magnitude(cfg, k / d / 200.0) for k in range(200)]
        assert all(a > b for a, b in zip(mags, mags[1:]))


# ---------------------------------------------------------------- array path


@st.composite
def grids_around_nulls(draw):
    """A small config and an array mixing random frequencies with every
    exact grid null k/D and its one-ulp neighbours inside [0, 0.5]."""
    cfg = quiet_config(draw(st.integers(1, 3)), draw(st.integers(2, 8)), draw(st.integers(1, 2)))
    nulls = np.array(null_frequencies(cfg))
    near = np.concatenate((nulls, np.nextafter(nulls, 0.0), np.nextafter(nulls, 1.0)))
    rand = draw(st.lists(st.floats(0.0, 0.5, allow_nan=False), max_size=8))
    f = np.concatenate((near[near <= 0.5], rand, [0.0]))
    return cfg, draw(st.permutations(f.tolist()))


@given(grids_around_nulls())
def test_magnitude_array_matches_tap_polynomial(case):
    cfg, f = case
    closed = magnitude(cfg, np.array(f))
    assert isinstance(closed, np.ndarray) and closed.shape == (len(f),)
    for fi, ci in zip(f, closed.tolist()):
        poly = poly_mag(cfg, fi)
        assert 0.0 <= ci <= 1.0
        assert abs(ci - poly) <= 1e-9 * max(poly, 1e-15)


def loop_magnitude(config, f):
    """`magnitude` with each near-null residual redone on its own from f's
    binary fraction, in exact integers rounded once: the error-free
    product's oracle."""
    fa = np.asarray(f, dtype=np.float64)
    d = config.kernel_length
    u = d * fa
    nearest = np.rint(u)
    frac = u - nearest
    for i in np.flatnonzero(np.abs(frac) < u * 2.0**-16):
        p, q = float(fa[i]).as_integer_ratio()
        frac[i] = (d * p - int(nearest[i]) * q) / q
    num = np.abs(np.sin(math.pi * frac))
    den = d * np.sin(math.pi * fa)
    ratio = np.divide(num, den, out=np.ones_like(fa), where=fa != 0.0)
    return np.minimum(ratio**config.stages, 1.0)


@st.composite
def near_null_points(draw):
    """A config with D < 2**53 and points k/D, their neighbours up to two
    ulps away on each side, and a few random frequencies."""
    d = draw(st.one_of(st.integers(2, 10**4), st.integers(2, 2**53 - 1)))
    cfg = quiet_config(draw(st.integers(1, 4)), d)
    k = np.array(draw(st.lists(st.integers(1, d // 2), min_size=1, max_size=16)))
    nulls = k / d
    lower, upper = np.nextafter(nulls, 0.0), np.nextafter(nulls, 1.0)
    near = np.concatenate((nulls, lower, np.nextafter(lower, 0.0),
                           upper, np.nextafter(upper, 1.0)))
    rand = draw(st.lists(st.floats(0.0, 0.5, allow_nan=False), max_size=8))
    return cfg, np.concatenate((near[near <= 0.5], rand))


@given(near_null_points())
@example((CicConfig(1, 2184), np.arange(1, 1093) / 2184))
@example((CicConfig(1, 2**40 + 1), np.arange(1, 200) / (2**40 + 1)))
def test_magnitude_is_bit_identical_to_the_per_point_loop(case):
    cfg, f = case
    assert magnitude(cfg, f).tobytes() == loop_magnitude(cfg, f).tobytes()


@given(
    st.integers(1, 6),
    st.integers(1, 64),
    st.integers(1, 2),
    st.lists(st.floats(0.0, 0.5, allow_nan=False), min_size=1, max_size=16),
)
def test_scalar_and_array_calls_agree(n, r, m, f):
    cfg = quiet_config(n, r, m)
    mags, phases = magnitude(cfg, np.array(f)), phase(cfg, np.array(f))
    dbs = to_db(mags)
    for i, fi in enumerate(f):
        mag = magnitude(cfg, fi)
        assert type(mag) is float and type(phase(cfg, fi)) is float
        assert mag == magnitude(cfg, np.array([fi]))[0] == mags[i]
        assert phase(cfg, fi) == phase(cfg, np.array([fi]))[0] == phases[i]
        assert to_db(mag) == to_db(np.array([mag]))[0] == dbs[i]


def test_array_calls_keep_shape():
    cfg = CicConfig(2, 8)
    f = np.linspace(0.0, 0.5, 12).reshape(3, 4)
    assert magnitude(cfg, f).shape == phase(cfg, f).shape == to_db(f).shape == (3, 4)
    assert magnitude(cfg, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("bad", [-0.1, 0.5000001, float("nan")])
def test_any_element_out_of_domain_raises(bad):
    f = np.array([0.0, 0.1, bad, 0.4])
    with pytest.raises(DomainError):
        magnitude(CicConfig(2, 50), f)
    with pytest.raises(DomainError):
        phase(CicConfig(2, 50), f)


def test_to_db_array_floor_and_identity():
    db = to_db(np.array([0.0, 1e-20, -1.0, 1.0, 0.5]))
    assert db[:3].tolist() == [DB_FLOOR] * 3
    assert db[3] == 0.0 and db[4] == to_db(0.5)


# ---------------------------------------------------------------- phase


def test_phase_examples():
    assert phase(CicConfig(2, 50), 0.0) == 0.0
    assert phase(CicConfig(2, 4), 0.25) == pytest.approx(-3 * math.pi / 2, abs=1e-12)
    assert phase(CicConfig(3, 1), 0.4) == 0.0  # D=1: zero delay


def test_phase_rejects_out_of_domain():
    with pytest.raises(DomainError):
        phase(CicConfig(2, 4), 0.6)


@pytest.mark.parametrize("f", [0.013, 0.11, 0.26, 0.49])
def test_phase_agrees_with_polynomial_angle_mod_pi(f):
    # the polynomial angle wraps and flips sign at each null; the linear
    # term differs from it by an exact multiple of pi
    cfg = CicConfig(2, 10)
    turns = (phase(cfg, f) - poly_phase(cfg, f)) / math.pi
    assert abs(turns - round(turns)) < 1e-9


# ---------------------------------------------------------------- nulls


def test_null_frequencies_examples():
    assert null_frequencies(CicConfig(2, 50)) == [k / 50 for k in range(1, 26)]
    assert null_frequencies(CicConfig(1, 5)) == [0.2, 0.4]
    assert null_frequencies(CicConfig(1, 2)) == [0.5]
    assert null_frequencies(CicConfig(1, 1)) == []


def test_null_spacing_follows_composite_length():
    # R=4,M=2 and R=8,M=1 share D=8, hence the same nulls
    assert null_frequencies(CicConfig(2, 4, 2)) == null_frequencies(CicConfig(2, 8))


# ---------------------------------------------------------------- curves


def test_response_curve_three_point_example():
    curve = response_curve(CicConfig(1, 2), 3)
    assert curve.freqs.tolist() == [0.0, 0.25, 0.5]
    assert curve.mag_db[0] == 0.0
    assert curve.mag_db[1] == pytest.approx(20 * math.log10(math.cos(math.pi / 4)), abs=1e-9)
    assert curve.mag_db[2] == DB_FLOOR
    assert curve.phase_rad[0] == 0.0
    assert curve.phase_rad[2] == pytest.approx(-math.pi / 2, abs=1e-12)


def test_response_curve_has_minima_at_every_null():
    cfg = CicConfig(2, 50)
    curve = response_curve(cfg, 1001)
    step = 0.5 / 1000
    for f0 in null_frequencies(cfg):
        i = round(f0 / step)
        assert curve.mag_db[i] == DB_FLOOR  # nulls land on this grid exactly
        if i + 1 < len(curve.mag_db):
            assert curve.mag_db[i] < curve.mag_db[i + 1]
        assert curve.mag_db[i] < curve.mag_db[i - 1]


def test_response_curve_rejects_tiny_grid():
    with pytest.raises(DomainError):
        response_curve(CicConfig(2, 50), 1)


# ---------------------------------------------------------------- droop / alias


def test_passband_droop_example():
    assert passband_droop(CicConfig(2, 50), 0.005) == pytest.approx(1.82, abs=0.01)


def test_passband_droop_vanishes_toward_dc():
    assert abs(passband_droop(CicConfig(2, 50), 1e-9)) < 1e-9


def test_passband_droop_matches_polynomial_level():
    cfg = quiet_config(4, 8, 4)
    closed = passband_droop(cfg, 0.005)
    poly = -20 * math.log10(poly_mag(cfg, 0.005))
    assert abs(closed - poly) <= 1e-9


def test_alias_attenuation_example():
    assert alias_attenuation(CicConfig(2, 50), 0.005) == pytest.approx(20.90, abs=0.05)


def test_alias_attenuation_saturates_at_floor_for_tiny_bands():
    assert alias_attenuation(CicConfig(2, 50), 1e-12) == -DB_FLOOR
    assert alias_attenuation(CicConfig(2, 1, 2), 0.2) == -DB_FLOOR  # R=1: nothing folds


def test_alias_attenuation_matches_dense_band_scan():
    """Edge evaluation equals a brute-force sweep of each folded band (M=1)."""
    cfg = CicConfig(4, 8)
    fp = 1.0 / 32.0
    edge_based = alias_attenuation(cfg, fp)
    worst = 0.0
    for k in range(1, cfg.rate // 2 + 1):
        for i in range(4001):
            f = k / cfg.rate - fp + 2 * fp * i / 4000
            worst = max(worst, magnitude(cfg, min(max(f, 0.0), 0.5)))
    assert edge_based == pytest.approx(-to_db(worst), abs=0.01)


def dense_band_scan(cfg, fp, points):
    """Worst-case alias rejection in dB by brute force: `points` evenly spaced
    frequencies over every band [k/R - fp, k/R + fp], k = 1..R//2, clipped to
    [0, 0.5]; and a bound on how far that scan can sit above the true figure.

    The scan includes each band's edges, so it can miss only an interior
    peak of a lobe between nulls j/D and (j+1)/D, j >= 1.  There, with
    f = (j + theta/pi)/D, 20*log10|H| is N*20/ln(10) times
    log|sin(theta)| - log(D*sin(pi*f)), whose second derivative in theta is
    at least -1/sin(theta)**2 (the second term's is positive).  The peak
    solves tan(theta) = D*tan(pi*f) >= D*tan(pi/D) >= pi (D >= 3; D = 2 has no
    such lobe below 0.5), so it lies in [atan(pi), pi/2], and the nearest scan
    point is within h = pi*D*step/2 of it.  For h <= 0.05, sin(theta)**2 >=
    sin(atan(pi) - 0.05)**2 over that span, and the scan's loss is at most
    N*20/ln(10) * h**2 / (2*sin(atan(pi) - 0.05)**2).
    """
    t = np.linspace(-fp, fp, points)
    f = np.clip(np.arange(1, cfg.rate // 2 + 1)[:, None] / cfg.rate + t, 0.0, 0.5)
    scan_db = -to_db(magnitude(cfg, f).max(initial=0.0))
    h = math.pi * cfg.kernel_length * (t[1] - t[0]) / 2
    assert h <= 0.05
    bound = cfg.stages * 20 / math.log(10) * h * h / (2 * math.sin(math.atan(math.pi) - 0.05) ** 2)
    return scan_db, bound


@given(st.integers(1, 6), st.integers(2, 512), st.integers(1, 3), st.floats(0.0, 0.5))
@example(n=2, r=50, m=2, share=0.9)  # the edges alone gave 41.94 dB against 26.52
@example(n=1, r=2, m=3, share=0.999)  # a band that is cut at f = 0.5
def test_alias_attenuation_matches_a_dense_scan_of_every_band(n, r, m, share):
    """Never above the scan (its points are in the bands) and within 0.01 dB
    of it, the scan's own resolution error being shown below 0.01 dB."""
    fp = share / (2 * r)
    assume(fp > 0.0)
    cfg = quiet_config(n, r, m)
    scan_db, bound = dense_band_scan(cfg, fp, 1001)
    assert bound < 0.005
    got = alias_attenuation(cfg, fp)
    assert scan_db - bound - 1e-9 <= got <= scan_db + 1e-9


ALIAS_FIGURES = [  # (N, R, M, fp) and the worst case in dB, to 2 places
    (2, 50, 2, 0.009, 26.52),  # the band edges alone give 41.94
    (5, 50, 2, 0.008, 66.29),  # edges: 80.70
    (2, 50, 1, 0.005, 20.90),
    (4, 8, 1, 1 / 32, 41.31),
    (3, 16, 3, 0.03, 41.84),
    (6, 512, 2, 0.0009, 79.57),  # edges: 137.14
    (1, 2, 2, 0.2, 11.30),  # edges: 14.82
    (4, 266, 2, 0.000404751, 76.17),
    (3, 100, 3, 0.004, 53.49),  # edges: 58.99
]


@pytest.mark.parametrize("n, r, m, fp, figure", ALIAS_FIGURES)
def test_alias_attenuation_hand_picked_figures(n, r, m, fp, figure):
    cfg = quiet_config(n, r, m)
    scan_db, bound = dense_band_scan(cfg, fp, 20001)
    got = alias_attenuation(cfg, fp)
    assert scan_db - bound - 1e-9 <= got <= scan_db + 1e-9
    assert abs(got - scan_db) <= 0.01
    assert round(got, 2) == figure


@pytest.mark.parametrize("fp", [0.0, 0.01, -0.005])
def test_passband_edge_domain_checks(fp):
    cfg = CicConfig(2, 50)  # valid edges are (0, 0.01) for R=50
    with pytest.raises(DomainError):
        passband_droop(cfg, fp)
    with pytest.raises(DomainError):
        alias_attenuation(cfg, fp)
