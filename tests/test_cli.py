"""End-to-end CLI tests driving `main` with real files and captured stdio."""

import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cicdec import (
    ChipModel,
    CicConfig,
    PinInputs,
    ProtocolError,
    cli,
    design_compensator,
    gain,
    magnitude,
    phase,
    reference_decimate,
    response_curve,
    run_trace,
    to_db,
)
from cicdec.cli import DataError, _format_rows, _parse_trace, _read_samples, main
from helpers import quiet_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_samples(path, values, header=None):
    lines = [] if header is None else [header]
    lines += [str(v) for v in values]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- decimate


@pytest.mark.filterwarnings("ignore::cicdec.DifferentialDelayWarning")
def test_decimate_impulse_through_wide_design(tmp_path, capsys):
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    write_samples(infile, [1] + [0] * 159, header="# impulse")
    code, _, err = run_cli(
        capsys, "decimate", "-N", "4", "-R", "8", "-M", "4", "-B", "16",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    lines = outfile.read_text().splitlines()
    assert len(lines) == 20
    assert "samples_in=160 samples_out=20 width=36 gain=1048576" in err
    expected = reference_decimate(quiet_config(4, 8, 4, 16), [1] + [0] * 159)
    assert [int(v) for v in lines] == expected


def test_decimate_round_trips_byte_exactly(tmp_path, capsys):
    import random

    rng = random.Random(5)
    samples = [rng.randint(-128, 127) for _ in range(97)]
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    write_samples(infile, samples)
    code, _, _ = run_cli(
        capsys, "decimate", "-N", "2", "-R", "4", "-B", "8",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    expected = reference_decimate(CicConfig(2, 4, 1, 8), samples)
    assert outfile.read_text() == "".join(f"{v}\n" for v in expected)


def test_decimate_over_stdio(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n\n3\n4\n"))
    code, out, err = run_cli(capsys, "decimate", "-N", "1", "-R", "2", "-B", "8")
    assert code == 0
    assert out == "3\n7\n"
    assert "samples_out=2" in err


def test_decimate_empty_input_is_fine(tmp_path, capsys):
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_text("# nothing but comments\n\n")
    code, _, err = run_cli(
        capsys, "decimate", "-N", "2", "-R", "4", "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    assert outfile.read_text() == ""
    assert "samples_in=0 samples_out=0" in err


def test_decimate_range_violation_names_the_line(tmp_path, capsys):
    infile = tmp_path / "in.txt"
    write_samples(infile, [999])
    code, _, err = run_cli(
        capsys, "decimate", "-N", "2", "-R", "4", "-B", "8", "--in", str(infile),
    )
    assert code == 2
    assert "line 1" in err and "999" in err


def test_decimate_junk_sample_is_a_data_error(tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("12\npotato\n")
    code, _, err = run_cli(capsys, "decimate", "-N", "2", "-R", "4", "--in", str(infile))
    assert code == 2
    assert "line 2" in err


def test_decimate_missing_file_is_a_data_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "decimate", "-N", "2", "-R", "4", "--in", str(tmp_path / "nope.txt"),
    )
    assert code == 2


def test_decimate_undecodable_input_is_a_data_error(tmp_path, capsys):
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_bytes(b"1\n\xff\n2\n")
    code, _, err = run_cli(
        capsys, "decimate", "-N", "2", "-R", "2", "--in", str(infile), "--out", str(outfile),
    )
    assert code == 2
    assert err.startswith("cicdec: error: input is not ") and "byte 0xff" in err
    assert not outfile.exists()


def test_plain_sample_files_skip_the_line_parser(tmp_path, capsys, monkeypatch):
    samples = list(range(-128, 128)) * 3
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    write_samples(infile, samples, header="# ramp")
    monkeypatch.setattr(cli, "_CHUNK_CHARS", 64)
    monkeypatch.setattr(cli, "_read_samples", mock.Mock(side_effect=AssertionError))
    code, _, _ = run_cli(
        capsys, "decimate", "-N", "3", "-R", "5", "-B", "8",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    expected = reference_decimate(CicConfig(3, 5, 1, 8), samples)
    assert outfile.read_text() == "".join(f"{v}\n" for v in expected)


def test_decimate_error_in_second_chunk_reports_absolute_line(tmp_path, capsys):
    # one chunk of the default size holds _CHUNK_CHARS // 2 lines of "0"
    first_chunk = cli._CHUNK_CHARS // 2
    bad_line = first_chunk + 37
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_text("0\n" * (bad_line - 1) + "0x10\n" + "0\n" * 5)
    code, out, err = run_cli(
        capsys, "decimate", "-N", "2", "-R", "4", "-B", "8",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 2
    assert f"cicdec: error: line {bad_line}: not an integer: '0x10'" in err
    assert not outfile.exists()  # nothing is written before the input has parsed


def test_decimate_reads_universal_newlines(tmp_path, capsys):
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_bytes(b"# crlf\r\n1\r\n2\r3\n\r\n4")
    code, _, _ = run_cli(
        capsys, "decimate", "-N", "1", "-R", "1", "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    assert outfile.read_text() == "1\n2\n3\n4\n"


@pytest.mark.parametrize("data, chunk, message", [
    # a bad line before undecodable bytes is the error, as line-by-line reading gives
    (b"x\n\xf0\x9f", None, "line 1: not an integer: 'x'"),
    (b"x\n\xff", None, "line 1: not an integer: 'x'"),
    (b"1\r\n2\r\ny\r\n3\xff\r\n", None, "line 3: not an integer: 'y'"),
    (b"0\n" * 40 + b"y\n\xff\n", 64, "line 41: not an integer: 'y'"),  # second chunk
    # undecodable bytes before any bad line are the error
    (b"1\n\xff\nx\n", None, "input is not utf-8 text: byte 0xff: invalid start byte"),
    (b"1\n2\xf0\x9f\n", None, "input is not utf-8 text: byte 0xf0: invalid continuation byte"),
], ids=["cut-tail", "bad-byte", "crlf", "second-chunk", "byte-first", "byte-in-line"])
def test_decimate_reports_the_first_error_in_the_file(tmp_path, capsys, monkeypatch,
                                                     data, chunk, message):
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK_CHARS", chunk)
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_bytes(data)
    code, out, err = run_cli(
        capsys, "decimate", "-N", "2", "-R", "2", "--in", str(infile), "--out", str(outfile),
    )
    assert (code, out, err) == (2, "", f"cicdec: error: {message}\n")
    assert not outfile.exists()


# Lines the reference parser accepts, skips or rejects; for -B 8 the integers
# run past both ends of the range, for -B 70 past int64.
SAMPLE_LINES = st.one_of(
    st.integers(-300, 300).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([
        "", "   ", "# comment", "#", "  # indented comment", " 7 ", "\t-8", "+5", "-0",
        "007", "1_000", "0x10", "1 2", "5 # note", "-", "--3", "5-", "1.0", "x",
        "\u0661\u0662", "\u00a0", "12345678901234567890123",
    ]),
)


def reference_run(text, bits, cfg):
    """Exit code, stdout and error line of the line-by-line parser path."""
    try:
        samples = _read_samples(io.StringIO(text), bits)
    except DataError as exc:
        return 2, "", f"cicdec: error: {exc}"
    return 0, "".join(f"{y}\n" for y in reference_decimate(cfg, samples)), None


@given(
    lines=st.lists(SAMPLE_LINES, max_size=40),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    bits=st.sampled_from([1, 8, 70]),
    chunk=st.integers(1, 48),
)
@example(lines=["# head", "1", "2", "\u0663", "-4"], newline="\n", final_newline=True,
         bits=8, chunk=6)
def test_chunked_reader_matches_line_parser(lines, newline, final_newline, bits, chunk):
    text = newline.join(lines) + (newline if final_newline and lines else "")
    cfg = CicConfig(2, 3, 1, bits)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_CHUNK_CHARS", chunk), \
            mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["decimate", "-N", "2", "-R", "3", "-B", str(bits)])
    want_code, want_out, want_err = reference_run(text, bits, cfg)
    assert (code, out.getvalue()) == (want_code, want_out)
    if want_err is not None:
        assert err.getvalue() == want_err + "\n"
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------- usage errors


def test_bad_flags_exit_one(capsys):
    assert run_cli(capsys, "decimate", "-R", "4")[0] == 1  # -N missing
    assert run_cli(capsys, "decimate", "-N", "0", "-R", "4")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_parser_is_built_once_and_each_call_sees_its_own_flags(capsys, monkeypatch):
    cfg = CicConfig(2, 50)
    code, out, err = run_cli(capsys, "response", "-N", "2", "-R", "50",
                             "--grid", "11", "--fp", "0.005")
    assert code == 0 and len(out.splitlines()) == 12 and "droop_db=" in err

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    code, out, err = run_cli(capsys, "response", "-N", "2", "-R", "50")
    assert code == 0 and len(out.splitlines()) == 1002 and "droop_db=" not in err
    code, out, _ = run_cli(capsys, "compensate", "-N", "2", "-R", "50", "--taps", "15",
                           "--grid", "20")
    assert code == 0
    assert out == "".join(f"{t!r}\n" for t in design_compensator(cfg, 15, 0.25, 20).taps)
    code, out, _ = run_cli(capsys, "compensate", "-N", "2", "-R", "50", "--taps", "15")
    assert code == 0
    assert out == "".join(f"{t!r}\n" for t in design_compensator(cfg, 15, 0.25, 201).taps)
    assert built == []


# ---------------------------------------------------------------- response


def test_response_table_and_figures(tmp_path, capsys):
    outfile = tmp_path / "resp.csv"
    code, _, err = run_cli(
        capsys, "response", "-N", "2", "-R", "50", "--grid", "101",
        "--fp", "0.005", "--out", str(outfile),
    )
    assert code == 0
    assert "droop_db=1.82" in err
    assert "alias_db=20.90" in err
    lines = outfile.read_text().splitlines()
    assert lines[0] == "f,mag_db,phase_rad"
    assert len(lines) == 102
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_response_floor_at_null(capsys):
    code, out, _ = run_cli(capsys, "response", "-N", "2", "-R", "50", "--grid", "1001")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    at_null = [float(m) for f, m, p in rows if abs(float(f) - 0.02) < 2.5e-4]
    assert at_null and min(at_null) <= -250.0


@pytest.mark.parametrize("stages, rate, delay", [(3, 8, 2), (2, 5, 2)])
def test_response_table_matches_per_point_rows(tmp_path, capsys, stages, rate, delay):
    """Block-written table against rows formatted one at a time.

    The grid spans several write blocks and ends in a partial one; every
    null k/D lies on it (D divides 2*(grid-1)).
    """
    grid = 8801
    assert grid // cli._ROWS_PER_WRITE >= 2 and grid % cli._ROWS_PER_WRITE
    cfg = CicConfig(stages, rate, delay)
    d = cfg.kernel_length
    assert 2 * (grid - 1) % d == 0
    outfile = tmp_path / "resp.csv"
    code, _, _ = run_cli(
        capsys, "response", "-N", str(stages), "-R", str(rate), "-M", str(delay),
        "--grid", str(grid), "--out", str(outfile),
    )
    assert code == 0
    lines = outfile.read_text().splitlines()
    assert lines[0] == "f,mag_db,phase_rad"
    assert len(lines) == grid + 1
    nulls = {k * 2 * (grid - 1) // d for k in range(1, d // 2 + 1)}
    for i, line in enumerate(lines[1:]):
        f = 0.5 * i / (grid - 1)
        want = (f"{f:.12g}", f"{to_db(magnitude(cfg, f)):.12g}", f"{phase(cfg, f):.12g}")
        got = line.split(",")
        assert got[0] == want[0]
        if i in nulls:
            assert got[1] == "-300"
        assert abs(float(got[1]) - float(want[1])) <= 1e-9
        assert float(got[2]) == pytest.approx(float(want[2]), rel=1e-11, abs=1e-15)


def test_response_table_is_byte_identical_to_percent_formatting(tmp_path, capsys):
    """The table against one `%` per block of rows on the same arrays.

    The grid spans several write blocks and ends in a partial one, and the
    table has fields in exponent notation (f < 1e-4, mag_db near 0), a -0
    phase at f = 0 and -300 at each of the 8 nulls.
    """
    grid = 8801
    rows = cli._ROWS_PER_WRITE
    assert grid // rows >= 2 and grid % rows
    outfile = tmp_path / "resp.csv"
    code, _, _ = run_cli(
        capsys, "response", "-N", "3", "-R", "8", "-M", "2", "--grid", str(grid),
        "--out", str(outfile),
    )
    assert code == 0
    curve = response_curve(CicConfig(3, 8, 2), grid)
    table = np.column_stack((curve.freqs, curve.mag_db, curve.phase_rad))
    blocks = np.split(table, range(rows, grid, rows))
    want = "f,mag_db,phase_rad\n" + "".join(
        "%.12g,%.12g,%.12g\n" * len(b) % tuple(b.ravel().tolist()) for b in blocks
    )
    assert outfile.read_bytes() == want.encode()
    lines = want.splitlines()
    assert lines[1] == "0,0,-0"
    assert lines[2].count("e-05") == 2
    assert sum(",-300," in line for line in lines) == 8


# Floats for the table formatter: the whole exponent range (subnormals
# included), mostly fixed-notation values, and 12-digit mantissas plus a half
# at every fixed-notation exponent (exact ties at e = 11, near-ties below).
FORMAT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e13, 1e13),
    st.builds(
        lambda m, e, sign: sign * (m + 0.5) * 10.0 ** (e - 11),
        st.integers(10**11, 10**12 - 1), st.integers(-4, 11), st.sampled_from([-1, 1]),
    ),
)
POWERS_OF_TEN = [
    v for p in range(-6, 14) for d in (float(f"1e{p}"),)
    for v in (d, math.nextafter(d, 0), math.nextafter(d, math.inf), -d)
]


@given(values=st.lists(FORMAT_FLOATS, min_size=1, max_size=60), cols=st.integers(1, 3))
@example(values=[0.0, -0.0], cols=1)
@example(values=POWERS_OF_TEN, cols=2)
# exact ties, which `%` rounds half to even, and near-ties
@example(values=[100000000000.5, 100000000001.5, 0.5000000000005, 0.00025000000000005],
         cols=1)
# rounding that carries into the next power of ten
@example(values=[9.999999999995, 9.9999999999998, 99999999999.95, 999999999999.5,
                 999999999999.8, 9.9999999999995e-05, 0.00099999999999998], cols=1)
# the widest field (19 bytes), the dB floor, subnormal and extreme values
@example(values=[-1.23456789012e-308, -300.0, 5e-324, -2.5e-320, 1.7976931348623157e308],
         cols=3)
def test_format_rows_matches_percent_formatting(values, cols):
    values = values * cols  # a whole number of rows
    table = np.array(values).reshape(-1, cols)
    line = ",".join(["%.12g"] * cols) + "\n"
    assert _format_rows(table) == line * len(table) % tuple(values)


def test_response_minimal_grid(capsys):
    code, out, _ = run_cli(capsys, "response", "-N", "1", "-R", "2", "--grid", "2")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("0,0,")


def test_response_bad_edge_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "response", "-N", "2", "-R", "50", "--fp", "0.4",
    )
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------- compensate


def test_compensate_benchmark_design(tmp_path, capsys):
    outfile = tmp_path / "taps.txt"
    code, _, err = run_cli(
        capsys, "compensate", "-N", "2", "-R", "50", "--taps", "15", "--out", str(outfile),
    )
    assert code == 0
    taps = [float(line) for line in outfile.read_text().splitlines()]
    assert len(taps) == 15
    assert taps == taps[::-1]
    deviation = float(err.split("deviation_db=")[1].split()[0])
    assert deviation <= 0.1


def test_compensate_rejects_underdetermined_design(capsys):
    code, out, err = run_cli(
        capsys, "compensate", "-N", "2", "-R", "50", "--taps", "63", "--grid", "20",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("cicdec: error: ") and "Traceback" not in err


def test_compensate_rejects_even_tap_count(capsys):
    assert run_cli(capsys, "compensate", "-N", "2", "-R", "50", "--taps", "4")[0] == 1


def test_compensate_flat_design_is_a_delta(capsys):
    code, out, _ = run_cli(capsys, "compensate", "-N", "3", "-R", "1", "--taps", "7")
    assert code == 0
    taps = [float(line) for line in out.splitlines()]
    assert abs(taps[3] - 1.0) <= 1e-9
    assert all(abs(t) <= 1e-9 for i, t in enumerate(taps) if i != 3)


# ---------------------------------------------------------------- chipsim


def chip_trace_lines(samples):
    return [f"1 {s} 0 -" for s in samples]


def test_chipsim_dense_trace(tmp_path, capsys):
    infile, outfile = tmp_path / "trace.txt", tmp_path / "pins.txt"
    infile.write_text("\n".join(chip_trace_lines([1] * 200)) + "\n")
    code, _, err = run_cli(
        capsys, "chipsim", "-N", "2", "-R", "50", "-B", "8",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    assert "rdy_count=4" in err  # floor(200/50); the drain cycles flush the last one
    rows = [line.split() for line in outfile.read_text().splitlines()]
    assert len(rows) == 203  # 200 trace cycles + default latency 3
    assert [int(r[0]) for r in rows] == list(range(203))
    douts = [int(r[2]) for r in rows if r[1] == "1"]
    assert douts == reference_decimate(CicConfig(2, 50, 1, 8), [1] * 200)
    assert all(r[3] == "1" for r in rows)  # no loads: rfd never drops


def test_chipsim_rate_load_requires_rmax(tmp_path, capsys):
    infile = tmp_path / "trace.txt"
    lines = chip_trace_lines([1] * 10) + ["0 - 1 25"] + chip_trace_lines([1] * 30)
    infile.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "chipsim", "-N", "1", "-R", "5", "-B", "8", "--in", str(infile),
    )
    assert code == 2
    assert "cycle 10" in err

    outfile = tmp_path / "pins.txt"
    code, _, err = run_cli(
        capsys, "chipsim", "-N", "1", "-R", "5", "-B", "8", "--rmax", "64",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    rows = [line.split() for line in outfile.read_text().splitlines()]
    assert [int(r[0]) for r in rows if r[3] == "0"] == [10]
    douts = [int(r[2]) for r in rows if r[1] == "1"]
    expected = reference_decimate(CicConfig(1, 5, 1, 8), [1] * 10)
    expected += reference_decimate(CicConfig(1, 25, 1, 8), [1] * 30)
    assert douts == expected


def test_chipsim_reports_protocol_counters(tmp_path, capsys):
    # 8 nd cycles, the 4th also a rate load: its sample never reaches the core
    infile = tmp_path / "trace.txt"
    lines = chip_trace_lines([1, 2, 3]) + ["1 4 1 2"] + chip_trace_lines([5, 6, 7, 8])
    infile.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "chipsim", "-N", "1", "-R", "2", "-B", "8", "--rmax", "4", "--in", str(infile),
    )
    assert code == 0
    assert err == "rdy_count=3 rfd_low=1 nd_dropped=1\n"
    douts = [int(row.split()[2]) for row in out.splitlines() if row.split()[1] == "1"]
    assert douts == [3, 11, 15]


def test_chipsim_malformed_line(tmp_path, capsys):
    infile = tmp_path / "trace.txt"
    infile.write_text("1 5 0\n")
    code, _, err = run_cli(capsys, "chipsim", "-N", "1", "-R", "2", "--in", str(infile))
    assert code == 2
    assert "cycle 0" in err


def test_chipsim_nd_without_din(tmp_path, capsys):
    infile = tmp_path / "trace.txt"
    infile.write_text("1 - 0 -\n")
    code, _, err = run_cli(capsys, "chipsim", "-N", "1", "-R", "2", "--in", str(infile))
    assert code == 2
    assert "din" in err


def test_chipsim_empty_trace(tmp_path, capsys):
    infile, outfile = tmp_path / "trace.txt", tmp_path / "pins.txt"
    infile.write_text("# no cycles\n")
    code, _, err = run_cli(
        capsys, "chipsim", "-N", "1", "-R", "2", "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    assert outfile.read_text() == ""
    assert "rdy_count=0" in err


def test_chipsim_din_out_of_range(tmp_path, capsys):
    infile = tmp_path / "trace.txt"
    infile.write_text("1 300 0 -\n")
    code, _, err = run_cli(
        capsys, "chipsim", "-N", "1", "-R", "2", "-B", "8", "--in", str(infile),
    )
    assert code == 2
    assert "cycle 0" in err


def test_chipsim_undecodable_trace_is_a_data_error(tmp_path, capsys):
    infile = tmp_path / "trace.txt"
    infile.write_bytes(b"1 5 0 -\n\xff 1 0 -\n")
    code, _, err = run_cli(capsys, "chipsim", "-N", "1", "-R", "2", "--in", str(infile))
    assert code == 2
    assert err.startswith("cicdec: error: input is not ") and "byte 0xff" in err


@pytest.mark.parametrize("flags, message", [
    (["--latency", "0"], "latency must be >= 1, got 0"),
    (["--rmax", "0"], "bad rate range (1, 0)"),
    (["--rmax", "2"], "initial rate 4 outside range (1, 2)"),
])
def test_chipsim_bad_chip_flags_exit_one(tmp_path, capsys, flags, message):
    infile, outfile = tmp_path / "trace.txt", tmp_path / "pins.txt"
    infile.write_text("\n".join(chip_trace_lines([1] * 8)) + "\n")
    code, out, err = run_cli(
        capsys, "chipsim", "-N", "2", "-R", "4", "-B", "8", *flags,
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 1
    assert err == f"cicdec: error: {message}\n"
    assert out == ""
    assert not outfile.exists()


# Fields the trace parser accepts, rejects or hands on to the chip model:
# in-range and out-of-range din/ldin values (-B 8, --rmax 16), junk tokens
# and non-ASCII digits.
TRACE_FLAG = st.sampled_from(["0", "1", "-"])
TRACE_TOKEN = st.one_of(
    TRACE_FLAG,
    st.integers(-2, 20).map(str),
    st.integers(-300, 300).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["x", "0x10", "1.0", "+5", "1_0", "--", "\u0663", "\u0661\u0662", "\u00e9"]),
)
TRACE_LINE = st.one_of(
    st.integers(-128, 127).map(lambda din: f"1 {din} 0 -"),  # plain data cycles
    st.tuples(TRACE_FLAG, TRACE_TOKEN, TRACE_FLAG, TRACE_TOKEN).map(" ".join),
    st.lists(TRACE_TOKEN, max_size=6).map(" ".join),  # wrong field counts
    st.sampled_from(["", "   ", "# comment", "  # indented", "1 5 0 - # note"]),
)
INVALID_UTF8 = [b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80", b"\xf0\x9f"]


def chipsim_oracle(infile, bits, rmax):
    """Exit code, stderr and pin dump by `_parse_trace`, `run_trace` and a line writer."""
    rate_range = (1, int(rmax[1])) if rmax else None
    chip = ChipModel(CicConfig(2, 3, 1, bits), rate_range=rate_range)
    try:
        with open(infile) as fh:
            trace = _parse_trace(fh)
        if trace:
            trace += [PinInputs()] * chip.latency
        outputs = run_trace(chip, trace)
    except (DataError, ProtocolError) as exc:
        return 2, f"cicdec: error: {exc}\n", None
    except UnicodeDecodeError as exc:
        return 2, (f"cicdec: error: input is not {exc.encoding} text: byte "
                   f"{exc.object[exc.start]:#04x}: {exc.reason}\n"), None
    dump = "".join(f"{c} {int(o.rdy)} {o.dout} {int(o.rfd)}\n" for c, o in enumerate(outputs))
    counts = (f"rdy_count={sum(o.rdy for o in outputs)} "
              f"rfd_low={sum(not o.rfd for o in outputs)} "
              f"nd_dropped={sum(p.nd and p.we for p in trace)}\n")
    return 0, counts, dump


@given(
    lines=st.lists(TRACE_LINE, max_size=30),
    newline=st.sampled_from(["\n", "\r\n"]),
    bad_bytes=st.one_of(st.just(b""), st.sampled_from(INVALID_UTF8)),
    bad_at=st.integers(0, 2000),
    rmax=st.sampled_from([[], ["--rmax", "16"]]),
    bits=st.sampled_from([8, 70]),
)
@example(lines=["1 5 0 -", "0 - 1 4"], newline="\n", bad_bytes=b"\xff", bad_at=8,
         rmax=["--rmax", "16"], bits=8)
# a bad line before a sequence cut off at the end of the file is reported first
@example(lines=["1 5 0 - # note"], newline="\n", bad_bytes=b"\xf0\x9f", bad_at=2000,
         rmax=[], bits=8)
# canonical-looking lines that only the line parser may reject or read
@example(lines=["1 5 0 -", "1 - 0 -"], newline="\n", bad_bytes=b"", bad_at=0,
         rmax=["--rmax", "16"], bits=8)
@example(lines=["1 5 0 -", "0 - 1 -"], newline="\n", bad_bytes=b"", bad_at=0,
         rmax=["--rmax", "16"], bits=8)
@example(lines=["1 9999999999999999999 0 -"] * 3, newline="\n", bad_bytes=b"", bad_at=0,
         rmax=[], bits=70)
def test_chipsim_any_trace_exits_cleanly(tmp_path_factory, lines, newline, bad_bytes,
                                         bad_at, rmax, bits):
    data = newline.join(lines).encode() + newline.encode()
    at = min(bad_at, len(data))
    infile = tmp_path_factory.getbasetemp() / "fuzz_trace.txt"
    infile.write_bytes(data[:at] + bad_bytes + data[at:])
    outfile = tmp_path_factory.getbasetemp() / "fuzz_pins.txt"
    outfile.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["chipsim", "-N", "2", "-R", "3", "-B", str(bits), *rmax,
                     "--in", str(infile), "--out", str(outfile)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("cicdec: error: ")
    dump = outfile.read_text() if outfile.exists() else None
    assert (code, err.getvalue(), dump) == chipsim_oracle(infile, bits, rmax)
    assert out.getvalue() == ""


# ---------------------------------------------------------------- sdm


def test_sdm_stream_and_summary(tmp_path, capsys):
    outfile = tmp_path / "bits.txt"
    code, _, err = run_cli(
        capsys, "sdm", "--dc", "0.5", "--count", "1000", "--out", str(outfile),
    )
    assert code == 0
    bits = [int(line) for line in outfile.read_text().splitlines()]
    assert len(bits) == 1000
    assert set(bits) <= {-1, 1}
    assert "bits=1000 mean=0.500000 output_bits=2" in err


def test_sdm_rejects_bad_level_and_count(capsys):
    assert run_cli(capsys, "sdm", "--dc", "1.5", "--count", "10")[0] == 1
    assert run_cli(capsys, "sdm", "--dc", "0.5", "--count", "-1")[0] == 1


def test_sdm_into_decimate_recovers_the_level(tmp_path, capsys):
    bitfile, outfile = tmp_path / "bits.txt", tmp_path / "out.txt"
    code, _, _ = run_cli(capsys, "sdm", "--dc", "0.5", "--count", "20000", "--out", str(bitfile))
    assert code == 0
    code, _, _ = run_cli(
        capsys, "decimate", "-N", "2", "-R", "50", "-B", "2",
        "--in", str(bitfile), "--out", str(outfile),
    )
    assert code == 0
    outs = [int(line) for line in outfile.read_text().splitlines()]
    steady = outs[2:]
    assert abs(sum(steady) / len(steady) - 1250.0) <= 12.5


# ---------------------------------------------------------------- info / misc


def test_info_reports_design_figures(capsys):
    code, out, _ = run_cli(capsys, "info", "-N", "2", "-R", "50", "-B", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N=2 R=50 M=1 B=1"
    assert "D=50" in lines
    assert "gain=2500" in lines
    assert "width=13" in lines
    nulls = next(line for line in lines if line.startswith("nulls="))
    assert nulls.split("=")[1].split(",")[0] == "0.02"
    assert nulls.endswith("0.5")


def test_cli_output_is_deterministic(capsys):
    first = run_cli(capsys, "response", "-N", "3", "-R", "7", "--grid", "33")
    second = run_cli(capsys, "response", "-N", "3", "-R", "7", "--grid", "33")
    assert first == second
