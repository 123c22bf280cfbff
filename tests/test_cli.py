"""End-to-end CLI tests driving `main` with real files and captured stdio."""

import contextlib
import io
import math
import os
import re
import resource
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cicdec import (
    ChipModel,
    CicConfig,
    DifferentialDelayWarning,
    DomainError,
    PinInputs,
    ProtocolError,
    SigmaDeltaModulator,
    cli,
    design_compensator,
    gain,
    magnitude,
    null_frequencies,
    phase,
    reference_decimate,
    response_curve,
    run_trace,
    to_db,
)
from cicdec.cli import (
    DataError,
    _format_ints,
    _format_pins,
    _format_rows,
    _parse_chunk,
    _parse_trace,
    _parse_trace_chunk,
    _read_samples,
    main,
)
from helpers import quiet_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_samples(path, values, header=None):
    lines = [] if header is None else [header]
    lines += [str(v) for v in values]
    path.write_text("\n".join(lines) + "\n")


def pin_dump(outputs):
    return "".join(f"{c} {int(o.rdy)} {o.dout} {int(o.rfd)}\n" for c, o in enumerate(outputs))


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


@given(ys=st.lists(st.one_of(st.integers(-300, 300), st.integers(-(2**62), 2**62)),
                   min_size=1, max_size=60))
@example(ys=[0, -1, 2**62, -(2**62)])
@example(ys=[9999, -10000, 2**63 - 1, -(2**63 - 1)])  # a group boundary; int64's ends but one
def test_format_ints_matches_percent_formatting(ys):
    # the decimate writer below 64 bits, where every output is within +-2**62
    assert _format_ints(np.array(ys, dtype=np.int64)) == "%d\n" * len(ys) % tuple(ys)


def test_decimate_writes_int64_blocks_of_their_own_widths(capsys, monkeypatch):
    # W = 63, the widest the int64 writer takes: the range's ends, and
    # write blocks of 1 to 19 digits
    ys = [5, -7, 0, 2**62 - 1, -(2**62), 12, -1]
    text = "".join(f"{y}\n" for y in ys)
    spy = mock.Mock(wraps=_format_ints)
    monkeypatch.setattr(cli, "_format_ints", spy)
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 3)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "decimate", "-N", "1", "-R", "1", "-B", "63")
    assert (code, out) == (0, text)
    assert "width=63" in err
    assert spy.call_count == 3


@pytest.mark.parametrize("argv, samples", [
    (["-N", "1", "-R", "1", "-B", "64"], [-(2**63), 2**63 - 1, 0, -1]),  # -2**63 has no int64 |y|
    (["-N", "3", "-R", "8", "-B", "60"], [-(2**59), 2**59 - 1, 7, -3] * 6),  # W = 69
], ids=["W64", "W69"])
def test_decimate_from_64_bits_writes_by_str(capsys, monkeypatch, argv, samples):
    monkeypatch.setattr(cli, "_format_ints", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{x}\n" for x in samples)))
    code, out, _ = run_cli(capsys, "decimate", *argv)
    cfg = CicConfig(int(argv[1]), int(argv[3]), 1, int(argv[5]))
    assert (code, out) == (0, "".join(f"{y}\n" for y in reference_decimate(cfg, samples)))


def test_decimate_over_stdio(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n\n3\n4\n"))
    code, out, err = run_cli(capsys, "decimate", "-N", "1", "-R", "2", "-B", "8")
    assert code == 0
    assert out == "3\n7\n"
    assert "samples_out=2" in err


def test_decimate_leaves_a_byte_stdin_open(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"1\r\n2\r3\n4"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run_cli(capsys, "decimate", "-N", "1", "-R", "1")
    assert (code, out) == (0, "1\n2\n3\n4\n")
    assert sys.stdin is stdin and not stdin.closed


@pytest.mark.parametrize("stream, argv", [
    ("stdin", ["decimate", "-N", "1", "-R", "1"]),
    ("stdout", ["sdm", "--dc", "0.5", "--count", "3"]),
    ("stdout", ["info", "-N", "2", "-R", "4"]),
])
def test_closed_stdio_is_a_data_error(capsys, monkeypatch, stream, argv):
    # (Python sets sys.stdin or sys.stdout to None when its descriptor is closed)
    monkeypatch.setattr(sys, stream, None)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"cicdec: error: {stream} is closed\n"


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


@pytest.mark.parametrize("command", ["decimate", "chipsim"])
def test_plain_sample_files_skip_the_line_parser(tmp_path, capsys, monkeypatch, command):
    # many 64-byte chunks, each parsed in one pass, the first after its comment
    samples = list(range(-128, 128)) * 3
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    cfg = CicConfig(3, 5, 1, 8)
    if command == "decimate":
        write_samples(infile, samples, header="# ramp")
        line_parser = "_read_samples"
        expected = "".join(f"{v}\n" for v in reference_decimate(cfg, samples))
    else:
        # a data cycle per sample, but every 8th cycle idle, with lone dashes
        trace = [PinInputs(din=s, nd=True) for s in samples]
        trace[7::8] = [PinInputs()] * len(trace[7::8])
        infile.write_text("# ramp\n" + "".join(
            f"1 {p.din} 0 -\n" if p.nd else "0 - 0 -\n" for p in trace))
        line_parser = "_parse_trace"
        chip = ChipModel(cfg)
        expected = pin_dump(run_trace(chip, trace + [PinInputs()] * chip.latency))
    monkeypatch.setattr(cli, "_CHUNK_CHARS", 64)
    monkeypatch.setattr(cli, line_parser, mock.Mock(side_effect=AssertionError))
    code, _, _ = run_cli(
        capsys, command, "-N", "3", "-R", "5", "-B", "8",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    assert outfile.read_text() == expected


@pytest.mark.parametrize("command, text", [
    ("decimate", "1\n2\n3\n4\n# tail"),
    ("chipsim", "1 1 0 -\n1 2 0 -\n# tail"),
], ids=["decimate", "chipsim"])
def test_last_comment_without_a_newline_skips_the_line_parser(tmp_path, capsys, monkeypatch,
                                                               command, text):
    # the comment search runs to the end of a chunk whose last line has no newline
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_text(text)
    cfg = CicConfig(1, 2, 1, 8)
    if command == "decimate":
        line_parser = "_read_samples"
        expected = "".join(f"{v}\n" for v in reference_decimate(cfg, [1, 2, 3, 4]))
    else:
        line_parser = "_parse_trace"
        chip = ChipModel(cfg)
        trace = [PinInputs(din=1, nd=True), PinInputs(din=2, nd=True)]
        expected = pin_dump(run_trace(chip, trace + [PinInputs()] * chip.latency))
    monkeypatch.setattr(cli, line_parser, mock.Mock(side_effect=AssertionError))
    code, _, _ = run_cli(
        capsys, command, "-N", "1", "-R", "2", "-B", "8",
        "--in", str(infile), "--out", str(outfile),
    )
    assert (code, outfile.read_text()) == (0, expected)


@pytest.mark.parametrize("command", ["decimate", "chipsim"])
@pytest.mark.parametrize("widest, bits", [
    ("-9999", 16), ("10000", 16), ("1234567890", 64), ("-" + "9" * 18, 64),
], ids=["4-digits", "5-digits", "10-digits", "18-digits"])
def test_canonical_chunks_skip_the_line_parser(tmp_path, capsys, monkeypatch, command, widest,
                                               bits):
    # a chunk of canonical lines is read in one pass whatever its widest
    # value token, up to the 18 digits that int64 holds
    samples = [1, -22, 0, 333, int(widest), -4444, 7]
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    cfg = CicConfig(1, 2, 1, bits)
    if command == "decimate":
        write_samples(infile, samples)
        expected = "".join(f"{v}\n" for v in reference_decimate(cfg, samples))
    else:
        infile.write_text("0 - 0 -\n" + "".join(f"1 {x} 0 -\n" for x in samples))
        chip = ChipModel(cfg)
        trace = [PinInputs()] + [PinInputs(din=x, nd=True) for x in samples]
        expected = pin_dump(run_trace(chip, trace + [PinInputs()] * chip.latency))
    monkeypatch.setattr(cli, "_read_samples" if command == "decimate" else "_parse_trace",
                        mock.Mock(side_effect=AssertionError))
    code, _, _ = run_cli(
        capsys, command, "-N", "1", "-R", "2", "-B", str(bits),
        "--in", str(infile), "--out", str(outfile),
    )
    assert (code, outfile.read_text()) == (0, expected)


@pytest.mark.parametrize("command, comments", [
    ("decimate", []),
    ("decimate", [0, 1000, 1000, "middle"]),
    ("chipsim", [0, 500, "middle"]),
    ("decimate", [1000]),  # the first `#` after the chunk's start
], ids=["decimate", "decimate-comments", "chipsim-comments", "decimate-mid-comment"])
def test_decimate_error_in_second_chunk_reports_absolute_line(tmp_path, capsys, monkeypatch,
                                                              command, comments):
    # The first chunk holds about _CHUNK_CHARS / len(row) lines.  It is
    # parsed in one pass, with `#` lines (a header, or inserted before the
    # rows at these indices, "middle" being half of them), so the bad line's
    # number comes from its rows and comments; only the second chunk reaches
    # the line parser.
    row = "0" if command == "decimate" else "1 0 0 -"
    rows = cli._CHUNK_CHARS // len(row + "\n") + 36
    lines = [row] * rows
    for index in reversed([rows // 2 if i == "middle" else i for i in comments]):
        lines.insert(index, "# comment" if index else "# head")
    assert "".join(line + "\n" for line in lines).rfind("#") < cli._CHUNK_CHARS
    bad_line = len(lines) + 1
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_text("\n".join(lines + ["0x10"] + [row] * 5) + "\n")
    line_parser = "_read_samples" if command == "decimate" else "_parse_trace"
    spy = mock.Mock(wraps=getattr(cli, line_parser))
    monkeypatch.setattr(cli, line_parser, spy)
    code, out, err = run_cli(
        capsys, command, "-N", "2", "-R", "4", "-B", "8",
        "--in", str(infile), "--out", str(outfile),
    )
    assert spy.call_count == 1
    assert code == 2
    if command == "decimate":
        assert err == f"cicdec: error: line {bad_line}: not an integer: '0x10'\n"
    else:
        assert err == (f"cicdec: error: cycle {rows} (line {bad_line}): "
                       f"expected 'nd din we ldin', got '0x10'\n")
    assert not outfile.exists()  # nothing is written before the input has parsed


def test_decimate_reads_universal_newlines(tmp_path, capsys):
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_bytes(b"# crlf\r\n1\r\n2\r3\n\r\n4")
    code, _, _ = run_cli(
        capsys, "decimate", "-N", "1", "-R", "1", "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    assert outfile.read_text() == "1\n2\n3\n4\n"


def run_child(argv, data, **kwargs):
    """`python -m cicdec.cli` in a child process, fed `data` on a real stdin."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "cicdec.cli", *argv], input=data,
                          stdout=subprocess.PIPE, env=env, timeout=60, **kwargs)


@pytest.mark.parametrize("data, argv, code, out, err", [
    (b"1\r\n2\r3\n4\r", ["-N", "1", "-R", "1"], 0, "1\n2\n3\n4\n",
     "samples_in=4 samples_out=4 width=16 gain=1\n"),
    (b"1\n\xff\n", ["-N", "1", "-R", "1"], 2, "",
     "cicdec: error: input is not utf-8 text: byte 0xff: invalid start byte\n"),
    (b"x\r\xff", ["-N", "2", "-R", "2"], 2, "", "cicdec: error: line 1: not an integer: 'x'\n"),
], ids=["line-ends", "bad-byte", "cr-bad-byte"])
def test_decimate_reads_a_real_stdin_pipe(data, argv, code, out, err):
    # a real stdin has a byte buffer, which io.StringIO has not
    proc = run_child(["decimate", *argv], data, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)


# a design outside the usual M range: the one warning a command prints
WARN_ARGV = ["response", "-N", "2", "-R", "8", "-M", "3", "--grid", "2"]
WARN_LINE = ("cicdec: warning: diff_delay=3 is outside the usual design range {1, 2}; "
             "the response nulls move into the passband\n")
WARN_OUT = b"f,mag_db,phase_rad\n0,0,-0\n0.5,-300,-72.2566310326\n"


@pytest.mark.parametrize("argv, data, code, out", [
    (["decimate", "-N", "1", "-R", "1"], b"1\n2\n", 0, b"1\n2\n"),
    (["decimate", "-N", "1", "-R", "1"], b"x\n", 2, b""),
    (["decimate", "-N", "1"], b"", 1, b""),
    (WARN_ARGV, b"", 0, WARN_OUT),
], ids=["success", "data-error", "flag-error", "warning"])
@pytest.mark.parametrize("stderr", ["closed", "full"])
def test_unwritable_stderr_keeps_the_exit_code(argv, data, code, out, stderr):
    if stderr == "closed":
        proc = run_child(argv, data, preexec_fn=lambda: os.close(2))
    else:
        with open("/dev/full", "wb") as full:
            proc = run_child(argv, data, stderr=full)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_warning_is_one_line_on_a_real_stderr():
    proc = run_child(WARN_ARGV, b"", stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (0, WARN_OUT, WARN_LINE)


def test_warning_line_leaves_the_callers_filters():
    filters, err = list(warnings.filters), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(WARN_ARGV) == 0
    assert err.getvalue() == WARN_LINE
    assert warnings.filters == filters
    with pytest.raises(DifferentialDelayWarning):  # this suite's filter turns warnings into errors
        CicConfig(2, 8, 3)


@pytest.mark.parametrize("command, data, chunk, message", [
    # a bad line before undecodable bytes is the error, as line-by-line reading gives
    ("decimate", b"x\n\xf0\x9f", None, "line 1: not an integer: 'x'"),
    ("decimate", b"x\n\xff", None, "line 1: not an integer: 'x'"),
    ("decimate", b"1\r\n2\r\ny\r\n3\xff\r\n", None, "line 3: not an integer: 'y'"),
    ("decimate", b"0\n" * 40 + b"y\n\xff\n", 64, "line 41: not an integer: 'y'"),
    ("decimate", b"x\r\xff", None, "line 1: not an integer: 'x'"),
    ("chipsim", b"x\n\xff", None, "cycle 0 (line 1): expected 'nd din we ldin', got 'x'"),
    ("chipsim", b"1 1 0 -\r\n1 2 0 -\r\ny\r\n1 3\xff 0 -\r\n", None,
     "cycle 2 (line 3): expected 'nd din we ldin', got 'y'"),
    ("chipsim", b"# head\n" + b"1 0 0 -\n" * 20 + b"y\n\xff\n", 64,
     "cycle 20 (line 22): expected 'nd din we ldin', got 'y'"),
    ("chipsim", b"x\r\xff", None, "cycle 0 (line 1): expected 'nd din we ldin', got 'x'"),
    # undecodable bytes are the error before a bad line after them or around them
    ("decimate", b"1\n\xff\nx\n", None, "input is not utf-8 text: byte 0xff: invalid start byte"),
    ("decimate", b"1\n2\xf0\x9f\n", None,
     "input is not utf-8 text: byte 0xf0: invalid continuation byte"),
    ("decimate", b"1\nx\xff\n", None, "input is not utf-8 text: byte 0xff: invalid start byte"),
    ("chipsim", b"1 1 0 -\n\xff\nx\n", None,
     "input is not utf-8 text: byte 0xff: invalid start byte"),
], ids=["cut-tail", "bad-byte", "crlf", "second-chunk", "cr-bad-byte",
        "chipsim-bad-byte", "chipsim-crlf", "chipsim-second-chunk", "chipsim-cr-bad-byte",
        "byte-first", "byte-in-line", "byte-in-bad-line", "chipsim-byte-first"])
def test_decimate_reports_the_first_error_in_the_file(tmp_path, capsys, monkeypatch,
                                                     command, data, chunk, message):
    # (chipsim reads its pin traces through the same chunked reader)
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK_CHARS", chunk)
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_bytes(data)
    code, out, err = run_cli(
        capsys, command, "-N", "2", "-R", "2", "--in", str(infile), "--out", str(outfile),
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
        "\udcff",  # in a text stream, a bad line, not a byte that did not decode
    ]),
)


def reference_run(text, bits, cfg):
    """Exit code, stdout and error line of the line-by-line parser path."""
    try:
        samples = _read_samples(io.StringIO(text), bits)
    except DataError as exc:
        return 2, "", f"cicdec: error: {exc}"
    return 0, "".join(f"{y}\n" for y in reference_decimate(cfg, samples)), None


def test_line_parser_takes_both_ends_of_the_range():
    # the oracle of the test below, whose range check that test cannot see
    assert _read_samples(["-128", "127"], 8) == [-128, 127]
    assert _read_samples(["-1", "0"], 1) == [-1, 0]


@given(
    lines=st.lists(SAMPLE_LINES, max_size=40),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    bits=st.sampled_from([1, 8, 70]),
    chunk=st.integers(1, 48),
)
@example(lines=["# head", "1", "2", "\u0663", "-4"], newline="\n", final_newline=True,
         bits=8, chunk=6)
@example(lines=["1", "\udcff"], newline="\n", final_newline=True, bits=8, chunk=48)
@example(lines=["# a", "#", "1", "x"], newline="\n", final_newline=True, bits=8, chunk=2)
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


# The one-pass sample-file grammar as a regex, the oracle of `_parse_chunk`'s
# array checks: lines of an optional `-` and 1 to 18 digits.
_SAMPLE_LINE = re.compile(r"-?[0-9]{1,18}\n")
SAMPLE_FIELD = st.sampled_from(["0", "7", "-128", "127", "128", "-129", "-", "--", "-0",
                                "+5", "9" * 18, "9" * 19, "-" + "9" * 18, "-" + "9" * 19])
SAMPLE_CHUNK = st.one_of(
    st.lists(SAMPLE_FIELD.map(lambda field: field + "\n"), min_size=1, max_size=4).map("".join),
    # a space before the newline, a tab, or a blank line after it
    st.lists(st.tuples(SAMPLE_FIELD, st.sampled_from(["\n", " \n", "\n\n", "\t\n"])),
             min_size=1, max_size=4).map(lambda lines: "".join(map("".join, lines))),
    st.lists(st.sampled_from(["1", "-", "9" * 18, " ", "  ", "\n", "\r", "x"]),
             min_size=1, max_size=20).map("".join),
)


@given(text=SAMPLE_CHUNK, bits=st.sampled_from([8, 70]))
@example(text="-0\n" + "9" * 18 + "\n", bits=70)
@example(text="1\n\n2\n", bits=8)
def test_parse_chunk_accepts_what_the_regex_accepts(text, bits):
    values = _parse_chunk(text, bits)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    canonical = not _SAMPLE_LINE.sub("", text)
    want = _read_samples(text.split("\n"), 70) if canonical else None  # 18 digits fit
    if want is not None and not all(lo <= v <= hi for v in want):
        want = None
    assert (values is None) == (want is None)
    if values is not None:
        assert values.tolist() == want


def digit_token(digits, signed=True):
    """Tokens of 1 to `digits` digits, leading zeros included, signed or not."""
    body = st.integers(1, digits).flatmap(
        lambda n: st.text("0123456789", min_size=n, max_size=n))
    return st.tuples(st.sampled_from(["", "-"] if signed else [""]), body).map("".join)


@given(tokens=st.lists(digit_token(18), min_size=1, max_size=12),
       bits=st.sampled_from([8, 14, 21, 64]))
# the widest token on either side of each sum type's width: int8 to 2 digits,
# int16 to 4, int32 to 9 and int64 to 18
@example(tokens=["-99", "99", "-0", "7"], bits=8)
@example(tokens=["-99", "100", "-128"], bits=8)
@example(tokens=["0007", "-0007", "-0", "9999", "-9999"], bits=21)
@example(tokens=["00007", "-0007", "-0"], bits=21)  # 5 digits by a leading zero
@example(tokens=["-10000", "1", "-1"], bits=21)
@example(tokens=["-8192", "8191"], bits=14)  # -B 14's ends, 4 digits each
@example(tokens=["-8193"], bits=14)
@example(tokens=["-999999999", "999999999", "-1"], bits=64)
@example(tokens=["-0999999999", "1000000000", "-1"], bits=64)
@example(tokens=["-" + "9" * 18, "9" * 18, "0" * 18, "-1"], bits=64)
def test_parse_chunk_matches_the_line_parser_at_every_width(tokens, bits):
    text = "".join(token + "\n" for token in tokens)
    try:
        want = _read_samples(text.split("\n"), bits)
    except DataError:  # out of range
        want = None
    values = _parse_chunk(text, bits)
    assert (None if values is None else values.tolist()) == want
    assert values is None or values.dtype == np.int64


# ---------------------------------------------------------------- usage errors


def test_bad_flags_exit_one(capsys):
    assert run_cli(capsys, "decimate", "-R", "4")[0] == 1  # -N missing
    assert run_cli(capsys, "decimate", "-N", "0", "-R", "4")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["decimate", "-h"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage: cicdec")


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
# a block's field has 1 to 3 integer groups and 1 to 4 fraction groups:
# (gi, gf) = (1, 4), (1, 3), (2, 2), (2, 1), (3, 1), and (3, 1) at 12 integer digits
@example(values=[0.000123456789012, -9999.5], cols=1)
@example(values=[1.5, -0.25, 9.87654321012], cols=3)
@example(values=[12345.6789, -1000.5], cols=2)
@example(values=[12345678.9, -99999999.25], cols=1)
@example(values=[123456789.5, 100000000.0], cols=2)
@example(values=[999999999999.0, -123456789012.0, 100000000000.0], cols=1)
# short fields (gi = 1, gf = 3: 19 bytes) widened for a 19-byte '%.12g' text
@example(values=[1.5, -1.23456789012e-308], cols=1)
def test_format_rows_matches_percent_formatting(values, cols):
    values = values * cols  # a whole number of rows
    table = np.array(values).reshape(-1, cols)
    line = ",".join(["%.12g"] * cols) + "\n"
    assert _format_rows(table) == line * len(table) % tuple(values)


def test_few_table_values_go_to_the_oracle():
    # the '%.12g' oracle costs about 5x the array writer per value, so a
    # response table should hand it only the values near a rounding tie,
    # exponent-notation values and zeros: here 0.14% of them
    curve = response_curve(CicConfig(4, 266, 2), 100_001)
    table = np.column_stack((curve.freqs, curve.mag_db, curve.phase_rad))
    oracle = cli._fixed_point(table.ravel())[3]
    assert np.count_nonzero(oracle) < 0.01 * table.size


def test_response_minimal_grid(capsys):
    code, out, _ = run_cli(capsys, "response", "-N", "1", "-R", "2", "--grid", "2")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("0,0,")


def test_response_bad_edge_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "response", "-N", "2", "-R", "50", "--fp", "0.4",
    )
    assert code == 1
    assert out == ""  # the edge is checked before any row is written
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


def test_compensate_rejects_oversized_design_matrix(capsys):
    # 400001 x 100001 doubles would be 320 GB; the bound stops it before
    # anything that size is allocated
    code, out, err = run_cli(capsys, "compensate", "-N", "2", "-R", "50",
                             "--taps", "200001", "--grid", "400001")
    assert (code, out) == (1, "")
    assert err == ("cicdec: error: a 400001 x 100001 design matrix is above the bound "
                   "of 10000000 elements\n")


def test_compensate_bound_sits_above_the_benchmark_design(capsys):
    # the benchmark's size: 2001 x 32 elements
    code, out, _ = run_cli(capsys, "compensate", "-N", "6", "-R", "349", "-M", "2",
                           "--taps", "63", "--grid", "2001")
    assert code == 0 and len(out.splitlines()) == 63
    with pytest.raises(DomainError, match="100001 x 100 design matrix"):
        design_compensator(CicConfig(2, 50), 199, 0.25, grid_size=100001)


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


@pytest.mark.parametrize("line, message", [
    # an empty token: its first byte is the space after it
    ("1 5  0", "expected 'nd din we ldin', got '1 5  0'"),
    ("0  0 -", "expected 'nd din we ldin', got '0  0 -'"),
    # a flag is one byte
    ("11 5 0 -", "flag field must be 0, 1 or -, got '11'"),
    ("-1 5 0 -", "flag field must be 0, 1 or -, got '-1'"),
])
def test_chipsim_line_past_a_one_pass_guard(capsys, monkeypatch, line, message):
    # each line meets every other one-pass rule, so its guard alone sends it
    # to the line parser
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out, err = run_cli(capsys, "chipsim", "-N", "1", "-R", "1", "-B", "8")
    assert (code, out, err) == (2, "", f"cicdec: error: cycle 0 (line 1): {message}\n")


@pytest.mark.parametrize("command, text, expected", [
    # ":" is the byte after "9", not a digit
    ("decimate", "5:\n", "line 1: not an integer: '5:'"),
    # a control byte, which `str.split` does not split at, is no separator
    ("chipsim", "1 5 0\x01-\n", "cycle 0 (line 1): expected 'nd din we ldin', got '1 5 0\\x01-'"),
    # a comment line inside a chunk goes with the newline before it, no more
    ("decimate", "12\n# c\n-345\n", None),
])
def test_reader_bytes_at_the_edges_of_the_one_pass_rule(capsys, monkeypatch, command, text,
                                                         expected):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, command, "-N", "1", "-R", "1", "-B", "16")
    if expected is None:
        assert (code, out) == (0, "12\n-345\n")
    else:
        assert (code, out, err) == (2, "", f"cicdec: error: {expected}\n")


@pytest.mark.parametrize("command, line, prefix", [
    ("decimate", "x" * 1_000_000, "line 1: not an integer: "),
    ("chipsim", "1 5" + " 0" * 300_000, "cycle 0 (line 1): expected 'nd din we ldin', got "),
], ids=["decimate", "chipsim"])
def test_a_long_bad_line_is_quoted_up_to_200_characters(capsys, monkeypatch, command, line,
                                                        prefix):
    # as `int()` cuts the token it quotes: the message stays short
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out, err = run_cli(capsys, command, "-N", "1", "-R", "1", "-B", "8")
    assert (code, out, err) == (2, "", f"cicdec: error: {prefix}{repr(line)[:200]}\n")


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


def test_chipsim_huge_latency_on_an_empty_trace(capsys, monkeypatch):
    # the model holds the outputs in flight, not one slot per cycle of latency
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run_cli(capsys, "chipsim", "-N", "2", "-R", "4", "--latency", str(10**12))
    assert (code, out, err) == (0, "", "rdy_count=0 rfd_low=0 nd_dropped=0\n")


def test_chipsim_wide_dout_across_two_blocks(capsys, monkeypatch):
    # 4096 cycles and 6 drain cycles fill two blocks; the one output is 76 bits wide
    monkeypatch.setattr("sys.stdin", io.StringIO("1 -32768 0 -\n" * 4096))
    code, out, err = run_cli(capsys, "chipsim", "-N", "5", "-R", "4096", "-B", "16")
    [y] = reference_decimate(CicConfig(5, 4096, 1, 16), [-32768] * 4096)
    assert y < -(2**64)
    assert (code, err) == (0, "rdy_count=1 rfd_low=0 nd_dropped=0\n")
    assert out.splitlines() == [f"{c} 0 0 1" for c in range(4101)] + [f"4101 1 {y} 1"]


def percent_pins(first, rdy, dout, rfd):
    """The pin-dump rows of `_format_pins` by ``%d``, one value at a time."""
    rows = [(first + c, int(r), d, int(f)) for c, (r, d, f) in
            enumerate(zip(rdy.tolist(), dout.tolist(), rfd.tolist()))]
    return "%d %d %d %d\n" * len(rows) % tuple(v for row in rows for v in row)


# block starts: the first, one with 12-digit cycles, and one that ends at 2**63 - 2
FIRST_CYCLES = [0, 10**12 - 2, 2**63 - 4097]


@given(first=st.sampled_from(FIRST_CYCLES),
       pins=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40),
       wide=st.booleans(), data=st.data())
# the dout record's width and offset: held texts of 1 and 22 characters in one
# block, and a block whose cycle field widens from 12 digits to 13
@example(first=0, pins=[(False, True), (True, False), (False, True)], wide=True,
         data=SimpleNamespace(draw=lambda _: [0, -(2**70)]))
@example(first=10**12 - 2, pins=[(False, True), (True, True), (False, False), (True, True)],
         wide=False, data=SimpleNamespace(draw=lambda _: [-1, 2**63 - 1, -(2**63)]))
def test_format_pins_matches_percent_formatting(first, pins, wide, data):
    rdy = np.array([r for r, _ in pins], dtype=bool)
    rfd = np.array([f for _, f in pins], dtype=bool)
    # dout holds the value of the last rdy cycle (the first before any)
    values = st.integers(-(2**80), 2**80) if wide else st.integers(-(2**63), 2**63 - 1)
    size = int(rdy.sum()) + 1
    held = data.draw(st.lists(values, min_size=size, max_size=size))
    dout = np.array(held, dtype=object if wide else np.int64)[np.cumsum(rdy)]
    assert _format_pins(first, rdy, dout, rfd) == percent_pins(first, rdy, dout, rfd)


@pytest.mark.parametrize("first", FIRST_CYCLES)
@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("n", [0, cli._ROWS_PER_WRITE])
def test_format_pins_whole_and_empty_blocks(first, wide, n):
    rng = np.random.default_rng(first % 1000)
    rdy, rfd = rng.random(n) < 0.05, rng.random(n) < 0.9
    held = rng.integers(-(2**63), 2**63 - 1, size=rdy.sum() + 1, endpoint=True).tolist()
    if wide:
        held = [v * 2**20 + 7 for v in held]  # up to 83 bits, either sign
    dout = np.array(held, dtype=object if wide else np.int64)[np.cumsum(rdy)]
    assert _format_pins(first, rdy, dout, rfd) == percent_pins(first, rdy, dout, rfd)


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


# Sizes of 2**63 and up fail before anything is allocated (smaller ones may not).
@pytest.mark.parametrize("argv, message", [
    (["chipsim", "--latency", str(2**63)], f"latency must be <= {2**63 - 1}, got {2**63}"),
    (["chipsim", "--latency", str(10**20)], f"latency must be <= {2**63 - 1}, got {10**20}"),
    (["response", "--grid", str(2**63)], f"grid_size must be <= {2**60 - 1}, got {2**63}"),
    (["compensate", "--taps", "3", "--grid", str(10**20)],
     f"grid_size must be <= {2**60 - 1}, got {10**20}"),
], ids=["chipsim-latency", "chipsim-latency-1e20", "response-grid", "compensate-grid"])
def test_oversized_size_flags_exit_one(tmp_path, capsys, argv, message):
    infile, outfile = tmp_path / "trace.txt", tmp_path / "out.txt"
    infile.write_text("1 1 0 -\n")
    io_flags = ["--in", str(infile)] if argv[0] == "chipsim" else []
    code, out, err = run_cli(capsys, *argv, "-N", "2", "-R", "2", *io_flags,
                             "--out", str(outfile))
    assert (code, out, err) == (1, "", f"cicdec: error: {message}\n")
    assert not outfile.exists()


def limit_address_space():
    """In the child only: 2 GiB of address space, so that a huge allocation
    fails at once, whatever the host's overcommit setting."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv, data", [
    (["chipsim", "-N", "2", "-R", "4", "--latency", str(10**12)], b"1 1 0 -\n"),
    (["response", "-N", "2", "-R", "4", "--grid", str(10**12)], b""),
], ids=["chipsim-latency", "response-grid"])
def test_out_of_memory_is_one_error_line(argv, data):
    proc = run_child(argv, data, stderr=subprocess.PIPE, preexec_fn=limit_address_space)
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert err.startswith("cicdec: error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
    """Exit code, stderr and pin dump by `_parse_trace`, `run_trace` and a line writer.

    The first error in the file wins: the whole lines before the first byte
    that does not decode are parsed (with universal newlines) before that
    byte is reported.
    """
    rate_range = (1, int(rmax[1])) if rmax else None
    chip = ChipModel(CicConfig(2, 3, 1, bits), rate_range=rate_range)
    data = infile.read_bytes()
    try:
        data.decode("utf-8")
        head, decode_error = data, None
    except UnicodeDecodeError as exc:
        cut = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start))
        head, decode_error = data[:cut + 1], exc
    try:
        rows = _parse_trace(io.TextIOWrapper(io.BytesIO(head), encoding="utf-8"))
        trace = [PinInputs(din=d, nd=v, ldin=r, we=w) for v, d, w, r in rows.tolist()]
        if decode_error is not None:
            raise decode_error
        if trace:
            trace += [PinInputs()] * chip.latency
        outputs = run_trace(chip, trace)
    except (DataError, ProtocolError) as exc:
        return 2, f"cicdec: error: {exc}\n", None
    except UnicodeDecodeError as exc:
        return 2, (f"cicdec: error: input is not {exc.encoding} text: byte "
                   f"{exc.object[exc.start]:#04x}: {exc.reason}\n"), None
    dump = pin_dump(outputs)
    counts = (f"rdy_count={sum(o.rdy for o in outputs)} "
              f"rfd_low={sum(not o.rfd for o in outputs)} "
              f"nd_dropped={sum(p.nd and p.we for p in trace)}\n")
    return 0, counts, dump


@given(
    lines=st.lists(TRACE_LINE, max_size=30),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    bad_bytes=st.one_of(st.just(b""), st.sampled_from(INVALID_UTF8)),
    bad_at=st.integers(0, 2000),
    rmax=st.sampled_from([[], ["--rmax", "16"]]),
    bits=st.sampled_from([8, 70]),
    chunk=st.integers(1, 48),
)
@example(lines=["1 5 0 -", "0 - 1 4"], newline="\n", bad_bytes=b"\xff", bad_at=8,
         rmax=["--rmax", "16"], bits=8, chunk=48)
# a bad line in the same chunk as a later undecodable byte is reported first
@example(lines=["x"], newline="\n", bad_bytes=b"\xff", bad_at=2000, rmax=[], bits=8,
         chunk=48)
# a bad line ended by a lone CR right before an undecodable byte is reported first
@example(lines=["x"], newline="\r", bad_bytes=b"\xff", bad_at=2000, rmax=[], bits=8,
         chunk=48)
# one-pass chunks, a line-parser chunk and a rate load in the last chunk
@example(lines=["1 5 0 -", "1 -7 0 -", "1 1 0 -  ", "1 2 0 -", "0 - 1 9", "1 3 0 -"],
         newline="\r\n", bad_bytes=b"", bad_at=0, rmax=["--rmax", "16"], bits=8, chunk=10)
# a bad line before a sequence cut off at the end of the file is reported first
@example(lines=["1 5 0 - # note"], newline="\n", bad_bytes=b"\xf0\x9f", bad_at=2000,
         rmax=[], bits=8, chunk=48)
# canonical-looking lines that only the line parser may reject or read
@example(lines=["1 5 0 -", "1 - 0 -"], newline="\n", bad_bytes=b"", bad_at=0,
         rmax=["--rmax", "16"], bits=8, chunk=48)
@example(lines=["1 5 0 -", "0 - 1 -"], newline="\n", bad_bytes=b"", bad_at=0,
         rmax=["--rmax", "16"], bits=8, chunk=48)
@example(lines=["1 9999999999999999999 0 -"] * 3, newline="\n", bad_bytes=b"", bad_at=0,
         rmax=[], bits=70, chunk=48)
# a first chunk of idle cycles only, whose din and ldin are all `-`
@example(lines=["0 - 0 -", "- - - -", "1 5 0 -", "0 - 1 4", "1 -3 0 -"], newline="\n",
         bad_bytes=b"", bad_at=0, rmax=["--rmax", "16"], bits=8, chunk=16)
def test_chipsim_any_trace_exits_cleanly(tmp_path_factory, lines, newline, bad_bytes,
                                         bad_at, rmax, bits, chunk):
    data = newline.join(lines).encode() + newline.encode()
    at = min(bad_at, len(data))
    infile = tmp_path_factory.getbasetemp() / "fuzz_trace.txt"
    infile.write_bytes(data[:at] + bad_bytes + data[at:])
    outfile = tmp_path_factory.getbasetemp() / "fuzz_pins.txt"
    outfile.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_CHUNK_CHARS", chunk), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["chipsim", "-N", "2", "-R", "3", "-B", str(bits), *rmax,
                     "--in", str(infile), "--out", str(outfile)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("cicdec: error: ")
    dump = outfile.read_text() if outfile.exists() else None
    assert (code, err.getvalue(), dump) == chipsim_oracle(infile, bits, rmax)
    assert out.getvalue() == ""


# The one-pass trace grammar as a regex, the oracle of `_parse_trace_chunk`'s
# array checks: single spaces, 1 to 18 ASCII digits, a sign on din only, and a
# `-` din or ldin only where nd or we is low.  Lines are checked by deleting
# every match.
_TRACE_LINE = re.compile(r"(?:[01-] -?[0-9]{1,18}|[0-] -) (?:[01-] [0-9]{1,18}|[0-] -)\n")
TRACE_FIELD = st.sampled_from(["0", "1", "-", "--", "-0", "-5", "42",
                               "9" * 18, "9" * 19, "-" + "9" * 18, "-" + "9" * 19])
TRACE_SEP = st.sampled_from([" ", " ", "  "])
# single spaces and one-byte flags: a line the regex takes unless a value
# field has 19 digits, `--`, a sign on ldin or a lone `-` after a high flag
CANONICAL_TRACE_LINE = st.tuples(
    TRACE_FLAG, st.sampled_from(["-", "0", "42", "-5", "-0", "9" * 18, "-" + "9" * 18, "9" * 19]),
    TRACE_FLAG, st.sampled_from(["-", "0", "7", "9" * 18, "9" * 19, "-7", "--"]),
).map(lambda fields: " ".join(fields) + "\n")
# double spaces, trailing spaces, blank lines and any field in any column
NOISY_TRACE_LINE = st.tuples(
    TRACE_FIELD, TRACE_SEP, TRACE_FIELD, TRACE_SEP, TRACE_FIELD, TRACE_SEP, TRACE_FIELD,
    st.sampled_from(["\n", " \n", "\n\n"]),
).map("".join)
TRACE_CHUNK = st.one_of(
    st.lists(CANONICAL_TRACE_LINE, min_size=1, max_size=4).map("".join),
    st.lists(st.one_of(CANONICAL_TRACE_LINE, NOISY_TRACE_LINE), min_size=1, max_size=4)
    .map("".join),
    st.lists(st.sampled_from(["0", "1", "-", " ", "\n", "9" * 18, "9" * 19, "--", "-0"]),
             min_size=1, max_size=24).map("".join),
)


@given(text=TRACE_CHUNK)
@example(text="0 - 1 -\n")  # a lone `-` ldin with we=1
@example(text="1 - 0 5\n")  # a lone `-` din with nd=1
@example(text="- - - -\n0 -0 1 " + "9" * 18 + "\n")
@example(text="1 5 0 -5\n")  # a signed ldin
@example(text="0 - 0 -\n")  # no value token
@example(text="- - - -\n0 - 0 -\n")
@example(text="1 5 0\n- 1 5 0 -\n")  # lines of 3 and 5 tokens, 8 in all
@example(text="1 5\t0 -\n")  # a tab separator
def test_parse_trace_chunk_accepts_what_the_regex_accepts(text):
    rows = _parse_trace_chunk(text)
    assert (rows is not None) == (not _TRACE_LINE.sub("", text))
    if rows is not None:
        assert rows.tolist() == _parse_trace(text.split("\n")).tolist()


@given(cycles=st.lists(st.tuples(st.booleans(), digit_token(18), st.booleans(),
                                 digit_token(18, signed=False)), min_size=1, max_size=12))
# the widest value on either side of each sum type's width, as in
# test_parse_chunk_matches_the_line_parser_at_every_width
@example(cycles=[(False, "1", False, "1"), (False, "5", False, "5")])  # all `-`: 0 digits
@example(cycles=[(True, "-99", True, "99"), (False, "1", False, "1")])
@example(cycles=[(True, "-99", True, "100")])
@example(cycles=[(True, "-0007", True, "0007"), (False, "9999", False, "1"),
                 (True, "-0", False, "00")])
@example(cycles=[(True, "00007", False, "1"), (True, "-9999", False, "1")])
@example(cycles=[(False, "1", False, "1"), (True, "5", True, "10000")])  # a 5-digit ldin
@example(cycles=[(True, "-999999999", True, "999999999")])
@example(cycles=[(True, "-999999999", True, "0999999999")])
@example(cycles=[(True, "-" + "9" * 18, True, "9" * 18), (True, "-0", True, "0" * 18)])
# one value column wider than the other across a sum type's width
@example(cycles=[(True, "-9", True, "99999")])
@example(cycles=[(True, "-" + "9" * 18, True, "1")])
@example(cycles=[(False, "1", True, "9" * 18)])
def test_parse_trace_chunk_matches_the_line_parser_at_every_width(cycles):
    # a low flag's value is a lone `-`
    text = "".join(f"{int(nd)} {din if nd else '-'} {int(we)} {ldin if we else '-'}\n"
                   for nd, din, we, ldin in cycles)
    rows = _parse_trace_chunk(text)
    assert rows.dtype == np.int64
    assert rows.tolist() == _parse_trace(text.split("\n")).tolist()


def benchmark_trace(rng, cycles, digits, bits):
    """A pin trace shaped like the `chipsim` benchmark's: `nd` high on ~80% of
    cycles with a `din` of `digits` digits and either sign, `-` on the rest,
    and one rate load in [1, 16] near the middle."""
    nd = rng.random(cycles) < 0.8
    magnitude = rng.integers(10 ** (digits - 1), min(10**digits, 2 ** (bits - 1)), cycles)
    din = np.where(rng.random(cycles) < 0.5, -magnitude, magnitude)
    load = cycles // 2 + int(rng.integers(-cycles // 10, cycles // 10))
    rate = int(rng.integers(1, 17))
    return "".join(f"{int(n)} {d if n else '-'} {int(c == load)} {rate if c == load else '-'}\n"
                   for c, (n, d) in enumerate(zip(nd.tolist(), din.tolist())))


@pytest.mark.parametrize("digits, bits, spaced", [
    pytest.param(5, 16, False, id="5-16"),
    pytest.param(18, 61, False, id="18-61"),
    pytest.param(5, 16, True, id="5-16-spaced"),
])
def test_trace_chunks_of_real_size_match_the_line_parser(tmp_path, capsys, digits, bits,
                                                          spaced):
    # unlike the fuzzes, which shrink _CHUNK_CHARS, every chunk here is a
    # full-size one: all taken whole by the one-pass parser, or, with a
    # double space every 97 lines, all sent to the line parser
    lines = benchmark_trace(np.random.default_rng(digits), 20_000, digits, bits)
    lines = lines.splitlines(keepends=True)
    if spaced:
        lines[::97] = [line.replace(" ", "  ", 1) for line in lines[::97]]
    text = "".join(lines)
    infile, outfile = tmp_path / "trace.txt", tmp_path / "pins.txt"
    infile.write_text(text)
    with cli._open_text(str(infile), "r") as fh:
        chunks = list(cli._read_chunks(fh, _parse_trace_chunk, _parse_trace))
    assert len(chunks) > len(text) // cli._CHUNK_CHARS >= 2
    assert all(chunk.dtype == (object if spaced else np.int64) for chunk in chunks)
    assert np.concatenate(chunks).tolist() == _parse_trace(text.split("\n")).tolist()
    code, out, err = run_cli(capsys, "chipsim", "-N", "2", "-R", "3", "-B", str(bits),
                             "--rmax", "16", "--in", str(infile), "--out", str(outfile))
    assert out == ""
    assert (code, err, outfile.read_text()) == chipsim_oracle(infile, bits, ["--rmax", "16"])


def test_parse_trace_of_no_cycles_is_an_empty_row_array():
    for lines in ([], ["", "# only a comment", "  "]):
        rows = _parse_trace(lines)
        assert rows.shape == (0, 4) and rows.dtype == object


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


@pytest.mark.parametrize("count", [0, 1, 4096, 2 * 4096 + 5])
def test_sdm_writes_what_the_modulator_streams(capsys, count):
    # block by block, the bytes and the mean of one whole-list stream
    bits = SigmaDeltaModulator().stream(0.3, count)
    code, out, err = run_cli(capsys, "sdm", "--dc", "0.3", "--count", str(count))
    assert code == 0
    assert out == "".join(f"{b}\n" for b in bits)
    mean = sum(bits) / len(bits) if bits else 0.0
    assert err == f"bits={count} mean={mean:.6f} output_bits=2\n"


# Starts `sys.argv[1:]`, stderr to /dev/null, and reports its exit code and peak RSS.
SPAWN = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)  # this child's rusage only
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def child_peak_rss_kb(argv, tmp_path):
    """The peak RSS of `python -m cicdec.cli` alone, stdout to a file.

    The child is started by a fresh interpreter, not by this one: a child's
    peak RSS counts the peak of the process it was forked from, which here
    would be the test run's, larger than any the command reaches."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(tmp_path / "out.txt", "wb") as out:
        spawner = subprocess.run([sys.executable, "-c", SPAWN, sys.executable, "-m", "cicdec.cli",
                                  *argv], stdout=out, stderr=subprocess.PIPE, env=env, check=True)
    code, peak = map(int, spawner.stderr.split())
    assert code == 0
    return peak


def test_sdm_memory_does_not_grow_with_count(tmp_path):
    small = child_peak_rss_kb(["sdm", "--dc", "0.3", "--count", str(10**4)], tmp_path)
    large = child_peak_rss_kb(["sdm", "--dc", "0.3", "--count", str(2 * 10**6)], tmp_path)
    assert (tmp_path / "out.txt").stat().st_size > 2 * 10**6
    assert large - small <= 10 * 1024


def test_decimate_memory_does_not_grow_with_input(tmp_path):
    # the input is read a chunk at a time, and 1 in 50 samples is held as output
    peaks, infile = [], tmp_path / "in.txt"
    for lines in (10**4, 2 * 10**6):
        with open(infile, "w") as fh:
            for _ in range(lines // 10**4):
                fh.write("-128\n127\n5\n-17\n" * (10**4 // 4))
        peaks.append(child_peak_rss_kb(["decimate", "-N", "2", "-R", "50", "-B", "8",
                                        "--in", str(infile)], tmp_path))
    assert (tmp_path / "out.txt").read_text().count("\n") == 2 * 10**6 // 50
    assert peaks[1] - peaks[0] <= 10 * 1024


@pytest.mark.parametrize("command", ["decimate", "chipsim"])
@pytest.mark.parametrize("digits", [3, 18])
@pytest.mark.parametrize("lead", ["", "# comment\n", "\n"], ids=["plain", "comments", "blanks"])
def test_chunks_stay_within_chunk_chars(tmp_path, capsys, monkeypatch, command, digits, lead):
    # every chunk is one read of _CHUNK_CHARS characters rounded up to a line
    # end, also after a header of comments or blank lines that leaves only a
    # few rows in the first chunk
    rng = np.random.default_rng(3)
    lo, hi, bits = (-128, 128, 8) if digits == 3 else (-10**18 + 1, 10**18, 61)
    row = "{}\n" if command == "decimate" else "1 {} 0 -\n"
    values = rng.integers(lo, hi, 5 * cli._CHUNK_CHARS // len(row.format(10**digits)))
    text = lead * (cli._CHUNK_CHARS // max(1, len(lead)) - 2) + "".join(map(row.format, values.tolist()))
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_text(text)
    line_chunks, sizes = cli._line_chunks, []
    def spy(fh):
        for chunk in line_chunks(fh):
            sizes.append(len(chunk))
            yield chunk
    monkeypatch.setattr(cli, "_line_chunks", spy)
    code, _, _ = run_cli(capsys, command, "-N", "2", "-R", "50", "-B", str(bits),
                         "--in", str(infile), "--out", str(outfile))
    assert code == 0
    assert sum(sizes) == len(text) and len(sizes) > len(text) // cli._CHUNK_CHARS >= 3
    assert max(sizes) < cli._CHUNK_CHARS + len(row.format(-10**digits)), sizes


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


@pytest.mark.parametrize("rate", [1, 2 * cli._ROWS_PER_WRITE, 2 * cli._ROWS_PER_WRITE + 3])
def test_info_writes_every_null_frequency(capsys, rate):
    # nulls written in blocks of _ROWS_PER_WRITE read as one joined list
    cfg = CicConfig(2, rate, 1, 16)
    code, out, _ = run_cli(capsys, "info", "-N", "2", "-R", str(rate))
    assert code == 0
    assert out.splitlines()[-1] == "nulls=" + ",".join(f"{f:.12g}" for f in null_frequencies(cfg))
    assert out.endswith("\n")


def test_info_memory_does_not_grow_with_rate(tmp_path):
    small = child_peak_rss_kb(["info", "-N", "3", "-R", str(10**4)], tmp_path)
    large = child_peak_rss_kb(["info", "-N", "3", "-R", str(2 * 10**6)], tmp_path)
    assert (tmp_path / "out.txt").stat().st_size > 10**6
    assert large - small <= 10 * 1024


# The interpreter's int-to-str digit limit (Python 3.10.7 on), which the CLI
# lifts while a command runs, then gives back as the caller set it.
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no int-to-str digit limit before 3.10.7")


@contextlib.contextmanager
def digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@needs_digit_limit
@pytest.mark.parametrize("limit", [0, 640, 4300])
@pytest.mark.parametrize("command, stages, rate, digits", [
    ("decimate", 1000, 32768, 4516),
    ("info", 20000, 2, 6021),
])
def test_gains_past_the_digit_limit_print_exactly(tmp_path, capsys, monkeypatch, limit,
                                                  command, stages, rate, digits):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    argv = [command, "-N", str(stages), "-R", str(rate)]
    with digit_limit(limit):
        code, out, err = run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == limit
        with monkeypatch.context() as m:  # an error while the limit is lifted
            if command == "decimate":
                argv += ["--out", str(tmp_path)]  # a directory
            else:
                m.setattr(sys, "stdout", None)
            assert main(argv) == 2
        assert sys.get_int_max_str_digits() == limit
    with digit_limit(0):
        expected = str(rate**stages)
    assert len(expected) == digits
    assert code == 0 and "Traceback" not in err
    assert f"gain={expected}" in (out + err).split()


@needs_digit_limit
@pytest.mark.parametrize("command", ["decimate", "chipsim"])
def test_outputs_past_the_digit_limit_print_exactly(tmp_path, capsys, command):
    # 4300-digit samples, the longest `int` reads under the default limit,
    # make outputs of 4301 digits; a sample longer than the range's 4305
    # digits is refused
    x = int("9" * 4300)
    cfg = CicConfig(2, 2, 1, 14300)
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    with digit_limit(0):
        if command == "decimate":
            infile.write_text(f"{x}\n" * 4)
            expected = "".join(f"{y}\n" for y in reference_decimate(cfg, [x] * 4))
        else:
            infile.write_text(f"1 {x} 0 -\n" * 4)
            chip = ChipModel(cfg)
            trace = [PinInputs(din=x, nd=True)] * 4 + [PinInputs()] * chip.latency
            expected = pin_dump(run_trace(chip, trace))
    assert max(len(token) for token in expected.split()) == 4301
    argv = [command, "-N", "2", "-R", "2", "-B", "14300",
            "--in", str(infile), "--out", str(outfile)]
    with digit_limit(4300):
        code, _, err = run_cli(capsys, *argv)
        assert (code, outfile.read_text()) == (0, expected)
        assert "Traceback" not in err
        outfile.unlink()
        infile.write_text(f"{x}999999\n" if command == "decimate" else f"1 {x}999999 0 -\n")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("cicdec: error: ") and not outfile.exists()
        assert sys.get_int_max_str_digits() == 4300


NINES = "9" * 4301  # one digit past the default int-to-str limit
HALF = "9" * 2150


@needs_digit_limit
@pytest.mark.parametrize("argv, line, expected", [
    (["decimate", "-B", "20000"], NINES, f"{NINES}\n"),
    (["decimate", "-B", "8"], "-" + "0" * 4301 + "5", "-5\n"),  # leading zeros are no length
    (["chipsim", "-B", "20000"], f"1 {NINES} 0 -",
     f"0 0 0 1\n1 0 0 1\n2 1 {NINES} 1\n"),
    (["decimate", "-B", "20000"], "9" * 6100,
     "line 1: value of 6100 digits is out of range for signed 20000-bit samples"),
    (["decimate", "-B", "20000"], "9" * 6021,  # as long as the range's ends: read, then named
     f"line 1: value {'9' * 6021} outside signed 20000-bit range RANGE"),
    (["chipsim", "-B", "20000"], f"1 {'9' * 6021} 0 -",
     f"cycle 0: sample {'9' * 6021} outside signed 20000-bit range RANGE"),
    (["chipsim", "-B", "8", "--rmax", "8"], f"0 - 1 {NINES}",
     "cycle 0 (line 1): value of 4301 digits is out of range"),
    (["chipsim", "-B", "8"], f"1 {NINES}x 0 -",
     f"cycle 0 (line 1): invalid literal for int() with base 10: {NINES + 'x'!r:.200}"),
    # 4300 digits and 4301 as the limit counts them: sign and `_` are no digit,
    # a leading zero is one, and a blank makes no number
    (["decimate", "-B", "8"], f"-{NINES[1:]}",
     f"line 1: value -{NINES[1:]} outside signed 8-bit range [-128, 127]"),
    (["decimate", "-B", "8"], f"+{NINES[1:]}",
     f"line 1: value {NINES[1:]} outside signed 8-bit range [-128, 127]"),
    (["decimate", "-B", "8"], f"-{NINES}",
     "line 1: value of 4301 digits is out of range for signed 8-bit samples"),
    (["decimate", "-B", "8"], f"{HALF}_{HALF}",
     f"line 1: value {NINES[1:]} outside signed 8-bit range [-128, 127]"),
    (["decimate", "-B", "8"], f"{HALF}_9{HALF}",
     "line 1: value of 4301 digits is out of range for signed 8-bit samples"),
    (["decimate", "-B", "8"], f"0{NINES[1:]}",
     "line 1: value of 4300 digits is out of range for signed 8-bit samples"),
    (["decimate", "-B", "8"], f"{HALF} 9{HALF}",
     f"line 1: not an integer: {f'{HALF} 9{HALF}'!r:.200}"),
    (["decimate", "-B", "20000"], f"-{NINES}\n+{NINES}\n{HALF}_9{HALF}\n-00{'9' * 6020}",
     f"-{NINES}\n{NINES}\n{NINES}\n-{'9' * 6020}\n"),
    (["decimate", "-B", "20000"], f"-00{'9' * 6022}",
     "line 1: value of 6022 digits is out of range for signed 20000-bit samples"),
    (["chipsim", "-B", "8"], f"1 -{NINES[1:]} 0 -",
     f"cycle 0: sample -{NINES[1:]} outside signed 8-bit range [-128, 127]"),
    (["chipsim", "-B", "8", "--rmax", "8"], f"0 - 1 0{NINES[1:]}",
     f"cycle 0: rate load {NINES[1:]} outside range [1, 8]"),
    (["chipsim", "-B", "20000"], f"1 {'9' * 6022} 0 -",
     "cycle 0 (line 1): value of 6022 digits is out of range"),
], ids=["decimate", "decimate-zeros", "chipsim", "decimate-long", "decimate-range",
        "chipsim-range", "chipsim-ldin", "chipsim-garbage", "decimate-sign-4300",
        "decimate-plus-4300", "decimate-sign-4301", "decimate-underscore-4300",
        "decimate-underscore-4301", "decimate-zero-4300", "decimate-blank",
        "decimate-20000-signs", "decimate-20000-zeros", "chipsim-sign-4300",
        "chipsim-ldin-zero-4300", "chipsim-long"])
def test_input_past_the_digit_limit(capsys, monkeypatch, argv, line, expected):
    # a number as long as the B-bit range allows is read in full; a longer
    # one, or any ldin past the limit, is out of range by its length
    check_input(capsys, monkeypatch, 4300, argv, line, expected)


@needs_digit_limit
@pytest.mark.parametrize("limit, argv, line, expected", [
    (0, ["chipsim", "-B", "8", "--rmax", "8"], f"0 - 1 {NINES}",
     "cycle 0 (line 1): value of 4301 digits is out of range"),
    (0, ["decimate", "-B", "20000"], "9" * 6100,
     "line 1: value of 6100 digits is out of range for signed 20000-bit samples"),
    (640, ["decimate", "-B", "8"], "9" * 1000,
     f"line 1: value {'9' * 1000} outside signed 8-bit range [-128, 127]"),
], ids=["chipsim-ldin-0", "decimate-long-0", "decimate-640"])
def test_input_rule_ignores_the_callers_digit_limit(capsys, monkeypatch, limit, argv, line,
                                                    expected):
    # the same numbers are read, and refused, as under the default limit
    check_input(capsys, monkeypatch, limit, argv, line, expected)


def check_input(capsys, monkeypatch, limit, argv, line, expected):
    """Run `line` through ``argv -N 1 -R 1`` under the caller's `limit`, and
    check its output (`expected` ends in a newline) or its error."""
    with digit_limit(0):
        expected = expected.replace("RANGE", f"[{-2**19999}, {2**19999 - 1}]")
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    with digit_limit(limit):
        code, out, err = run_cli(capsys, *argv[:1], "-N", "1", "-R", "1", *argv[1:])
        assert sys.get_int_max_str_digits() == limit
    if expected.endswith("\n"):
        assert (code, out) == (0, expected)
    else:
        assert (code, out, err) == (2, "", f"cicdec: error: {expected}\n")


def test_cli_output_is_deterministic(capsys):
    first = run_cli(capsys, "response", "-N", "3", "-R", "7", "--grid", "33")
    second = run_cli(capsys, "response", "-N", "3", "-R", "7", "--grid", "33")
    assert first == second


# ---------------------------------------------------------------- --out files


OUT_COMMANDS = ["decimate", "response", "compensate", "chipsim", "sdm"]


def out_argv(tmp_path, command):
    """``command``'s argv without ``--out``, over an input it writes into `tmp_path`."""
    samples, trace = tmp_path / "samples.txt", tmp_path / "trace.txt"
    write_samples(samples, [(-1) ** k * (k % 100) for k in range(5000)])
    trace.write_text("".join(f"1 {k % 50} 0 -\n" for k in range(5000)))
    return {
        "decimate": ["decimate", "-N", "2", "-R", "4", "-B", "8", "--in", str(samples)],
        "response": ["response", "-N", "3", "-R", "16", "-M", "2", "--grid", "5001"],
        "compensate": ["compensate", "-N", "2", "-R", "8", "--taps", "15"],
        "chipsim": ["chipsim", "-N", "1", "-R", "2", "-B", "8", "--in", str(trace)],
        "sdm": ["sdm", "--dc", "0.5", "--count", "5000"],
        "nothing": ["sdm", "--dc", "0.5", "--count", "0"],
    }[command]


@pytest.mark.parametrize("old", ["longer", "shorter"])
@pytest.mark.parametrize("command", [*OUT_COMMANDS, "nothing"])
def test_out_over_an_existing_file_leaves_exactly_the_new_bytes(tmp_path, capsys, command, old):
    argv = out_argv(tmp_path, command)
    fresh, outfile = tmp_path / "fresh.txt", tmp_path / "out.txt"
    expected = run_cli(capsys, *argv, "--out", str(fresh))
    new = fresh.read_bytes()
    outfile.write_bytes(b"x" * (len(new) + 9000 if old == "longer" else len(new) // 2))
    assert run_cli(capsys, *argv, "--out", str(outfile)) == expected
    assert outfile.read_bytes() == new and expected[0] == 0


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("old", [None, 50_000, 5_000_000], ids=["new", "shorter", "longer"])
def test_an_error_while_writing_leaves_the_bytes_written_before_it(tmp_path, monkeypatch,
                                                                   error, old):
    # the table's header and its first block, as when the file was new
    argv = ["response", "-N", "3", "-R", "16", "-M", "2", "--grid", "10001"]
    fresh, outfile = tmp_path / "fresh.csv", tmp_path / "out.csv"
    assert main([*argv, "--out", str(fresh)]) == 0
    written = b"".join(fresh.read_bytes().splitlines(keepends=True)[:1 + cli._ROWS_PER_WRITE])
    if old is not None:
        outfile.write_bytes(b"x" * old)
    format_rows, calls = cli._format_rows, []

    def fail_on_the_second_block(block):
        calls.append(block)
        if len(calls) == 2:
            raise error("while writing")
        return format_rows(block)

    monkeypatch.setattr(cli, "_format_rows", fail_on_the_second_block)
    with pytest.raises(error, match="while writing"):
        main([*argv, "--out", str(outfile)])
    assert outfile.read_bytes() == written


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
def test_a_new_out_file_gets_the_mode_bits_of_a_plain_open(tmp_path, capsys, umask):
    old = os.umask(umask)
    try:
        assert main(["sdm", "--dc", "0.5", "--count", "3", "--out", str(tmp_path / "a")]) == 0
        open(tmp_path / "b", "w").close()
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "a").st_mode == os.stat(tmp_path / "b").st_mode
    (tmp_path / "a").chmod(0o600)  # and an existing file keeps its own
    assert main(["sdm", "--dc", "0.5", "--count", "3", "--out", str(tmp_path / "a")]) == 0
    assert stat.S_IMODE(os.stat(tmp_path / "a").st_mode) == 0o600


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize("device", ["/dev/null", "/dev/full"])
def test_out_to_a_device_keeps_its_exit_code_and_message(tmp_path, capsys, command, device):
    argv = out_argv(tmp_path, command)
    result = run_cli(capsys, *argv, "--out", device)
    if device == "/dev/null":
        assert result == run_cli(capsys, *argv, "--out", str(tmp_path / "out.txt"))
    else:
        assert result == (2, "", "cicdec: error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_to_a_fifo_is_written_whole(tmp_path, capsys, command):
    argv, fresh, fifo = out_argv(tmp_path, command), tmp_path / "fresh.txt", tmp_path / "fifo"
    expected = run_cli(capsys, *argv, "--out", str(fresh))
    os.mkfifo(fifo)
    drained = []
    reader = threading.Thread(target=lambda: drained.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli(capsys, *argv, "--out", str(fifo)) == expected
    reader.join(timeout=60)
    assert drained == [fresh.read_bytes()]


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_an_out_path_that_cannot_be_opened_is_one_error_line(tmp_path, capsys, command):
    argv, missing = out_argv(tmp_path, command), tmp_path / "nope" / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(missing)) == (
        2, "", f"cicdec: error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    assert run_cli(capsys, *argv, "--out", str(tmp_path)) == (
        2, "", f"cicdec: error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
