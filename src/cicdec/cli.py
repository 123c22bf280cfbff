"""Command-line surface: decimate, response, compensate, chipsim, sdm, info.

File formats are line-oriented decimal text: sample files hold one signed
integer per line (``#`` starts a comment line), pin traces hold one cycle
per line as ``nd din we ldin`` with ``-`` for don't-care fields, pin dumps
one ``cycle rdy dout rfd`` row per cycle, and response tables are CSV with
an ``f,mag_db,phase_rad`` header; tables and dumps are formatted and
written `_ROWS_PER_WRITE` rows at a time.  Response tables read exactly as
``'%.12g' %`` prints each value, but are formatted as byte arrays
(`_format_rows`), with ``'%.12g' %`` as the oracle for the few values the
arrays cannot vouch for.  Every command accepts ``-`` for stdin/stdout.
Exit codes: 0 ok, 1 usage or flag error, 2 file/parse/range error (text
that does not decode included).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from contextlib import contextmanager
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from .core import (
    CicConfig,
    ConfigError,
    DecimatorState,
    InputRangeError,
    gain,
    required_width,
)
from .analysis import (
    DomainError,
    alias_attenuation,
    null_frequencies,
    passband_droop,
    response_curve,
)
from .compensator import design_compensator, passband_deviation_db
from .chip import ChipModel, PinInputs, ProtocolError
from .sdm import OUTPUT_BITS, SigmaDeltaModulator


#: Characters (bytes, from a file) `decimate` reads at a time, rounded up to
#: the next line end, so the input is never held in memory whole.
_CHUNK_CHARS = 1 << 20

#: Response-table and pin-dump rows formatted per write, so the formatting
#: buffers never hold the whole table.
_ROWS_PER_WRITE = 4096

# 10**k for k = 0..15 (each exact as a double) and, as int64, k = 0..16;
# from Python ints, as a ufunc's first buffered call at import costs RSS.
_POW10 = np.array([float(10**k) for k in range(16)])
_INT_POW10 = np.array([10**k for k in range(17)], dtype=np.int64)

# Offsets of the runs in `_digit_groups` after the first, which has every digit.
_LEAD, _TRAIL, _LAST = 10_000, 20_000, 30_000

# A comment line with the newline before it (see `_parse_chunk`).
_COMMENT_LINE = re.compile(r"\n#[^\n]*")

# A pin-trace line `_read_trace` takes in one pass: single spaces, 1 to 18
# ASCII digits, and a `-` din or ldin only where nd or we is low.  Lines are
# checked by deleting every match (one `fullmatch` over the whole trace
# keeps a backtracking stack that grows with the line count).
_TRACE_LINE = re.compile(r"(?:[01-] -?[0-9]{1,18}|[0-] -) (?:[01-] [0-9]{1,18}|[0-] -)\n")


class DataError(Exception):
    """Malformed or out-of-range input data (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    # Distinguish usage failures (1) from data failures (2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _open_text(path: str, mode: str):
    if path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path, mode) as fh:
            yield fh


def _round_away(x: float, places: int = 2) -> Decimal:
    quantum = Decimal(1).scaleb(-places)
    return Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP)


def _read_samples(lines, bits: int, first_line: int = 1) -> list[int]:
    """Parse sample lines one at a time; numbering starts at `first_line`.

    The reference parser, and the only source of sample-file DataErrors.
    """
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    samples = []
    for line_no, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise DataError(f"line {line_no}: not an integer: {line!r}")
        if not lo <= value <= hi:
            raise DataError(
                f"line {line_no}: value {value} outside signed {bits}-bit "
                f"range [{lo}, {hi}]"
            )
        samples.append(value)
    return samples


def _parse_chunk(text: str, bits: int) -> np.ndarray | None:
    """Parse a chunk of whole lines in one pass, or return None.

    Takes only ``#`` comment lines and lines of an optional ``-`` followed
    by 1 to 18 ASCII digits, all in range; for anything else it returns
    None and the caller hands the chunk to `_read_samples`.
    """
    if "#" in text:
        text = _COMMENT_LINE.sub("", "\n" + text)[1:]
    if not text:
        return np.zeros(0, dtype=np.int64)
    if not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"
    a = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    neg = a[starts] == ord("-")
    digits = ends - starts - neg
    n_digit_bytes = np.count_nonzero(a - ord("0") < 10)  # uint8: wraps below "0"
    if (n_digit_bytes + ends.size + np.count_nonzero(neg) != a.size
            or digits.min() < 1 or digits.max() > 18):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if int(values.min()) < lo or int(values.max()) > hi:
        return None
    return values


def _line_chunks(fh):
    """Yield the text of `fh` in chunks of whole lines.

    A file is read as bytes and decoded a chunk at a time, with universal
    newlines as ``open`` reads text.  If a chunk does not decode, its whole
    lines before the undecodable byte are yielded first, so a bad line among
    them is the error reported, and then the decode error is raised.  (The
    text layer loses everything it decoded in a ``read`` that fails.)
    """
    raw = getattr(fh, "buffer", None)
    if raw is None:  # already text, e.g. io.StringIO
        while text := fh.read(_CHUNK_CHARS):
            if not text.endswith("\n"):
                text += fh.readline()
            yield text
        return
    while data := raw.read(_CHUNK_CHARS):
        if not data.endswith(b"\n"):
            data += raw.readline()
        try:
            text = data.decode(fh.encoding, fh.errors)
        except UnicodeDecodeError as exc:
            head = data[:data.rfind(b"\n", 0, exc.start) + 1]
            yield _universal_newlines(head.decode(fh.encoding, fh.errors))
            raise
        del data  # the caller parses the text; the bytes need not stay alive
        yield _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _sample_chunks(fh, bits: int):
    """Yield the samples of `fh` chunk by chunk, each chunk whole lines."""
    line_no = 1
    for text in _line_chunks(fh):
        values = _parse_chunk(text, bits)
        if values is None:
            lines = text.split("\n")  # the lines iterating `fh` would give
            if not lines[-1]:
                lines.pop()
            values = _read_samples(lines, bits, first_line=line_no)
        yield values
        line_no += text.count("\n")


def _parse_trace(fh) -> list[PinInputs]:
    trace = []
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        cycle = len(trace)
        if len(fields) != 4:
            raise DataError(
                f"cycle {cycle} (line {line_no}): expected 'nd din we ldin', "
                f"got {line!r}"
            )
        try:
            nd = _parse_flag(fields[0])
            we = _parse_flag(fields[2])
            din = 0 if fields[1] == "-" else int(fields[1])
            ldin = 0 if fields[3] == "-" else int(fields[3])
        except ValueError as exc:
            raise DataError(f"cycle {cycle} (line {line_no}): {exc}")
        if nd and fields[1] == "-":
            raise DataError(f"cycle {cycle} (line {line_no}): nd=1 needs a din value")
        if we and fields[3] == "-":
            raise DataError(f"cycle {cycle} (line {line_no}): we=1 needs an ldin value")
        trace.append(PinInputs(din=din, nd=nd, ldin=ldin, we=we))
    return trace


def _read_trace(fh) -> np.ndarray:
    """The trace as an (n, 4) array of `nd din we ldin` columns, `-` as 0.

    Canonical lines and ``#`` comment lines are parsed in one pass on the
    bytes; any other text goes through `_parse_trace`, the only source of
    trace DataErrors, and comes back as Python ints in an object array.
    """
    lines = []
    try:
        lines.extend(fh)
    except UnicodeDecodeError:
        # `_parse_trace` reading `fh` would report a bad line read before it
        _parse_trace(lines)
        raise
    text = "".join(lines)
    if "#" in text:
        text = _COMMENT_LINE.sub("", "\n" + text)[1:]
    if not text:
        return np.zeros((0, 4), dtype=np.int64)
    if not text.endswith("\n"):
        text += "\n"
    if text.isascii() and not _TRACE_LINE.sub("", text):
        a = np.frombuffer(bytearray(text, "ascii"), dtype=np.uint8)
        dash = np.flatnonzero(a == ord("-"))
        a[dash[a[dash + 1] < ord("0")]] = ord("0")  # a lone `-`, not a sign
        return np.fromstring(a.tobytes(), dtype=np.int64, sep=" ").reshape(-1, 4)
    rows = [(p.nd, p.din, p.we, p.ldin) for p in _parse_trace(lines)]
    return np.array(rows, dtype=object).reshape(-1, 4)


@functools.cache  # built on the first response table, then reused
def _digit_groups() -> np.ndarray:
    """The 4-digit ASCII groups of 0 to 9999 as uint32, in four runs.

    The first run has every digit, `_LEAD` blanks leading zeros (all four
    for 0), `_TRAIL` blanks trailing zeros (all four for 0), and `_LAST` is
    `_LEAD` with the last digit of 0 kept.  A blank is a NUL byte.
    """
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    nonzero, blank = digits > ord("0"), np.uint8(0)
    lead = np.where(np.logical_or.accumulate(nonzero, axis=1), digits, blank)
    trail = np.where(np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1], digits, blank)
    last = lead.copy()
    last[0, 3] = ord("0")
    runs = np.stack((digits, lead, trail, last))
    return runs.reshape(-1, 4).view(np.uint32).ravel()


def _fixed_point(x: np.ndarray):
    """Integer part, fraction digits and oracle mask of ``'%.12g' % x``.

    Returns `whole` (below 1e12), `frac` (the fraction digits left-aligned
    in 16, so below 1e16) and `oracle`, true where the value is to go to
    ``'%.12g' %`` instead: not printed in fixed notation, ±0, or a 12-digit
    mantissa that is not certain.
    """
    # The mantissa m = rint(|x| * 10**k), k = 11 - e, from e = floor(log10|x|).
    # For e in [-4, 11] (fixed notation) 10**k is exact, so s is within 2**-13
    # of the exact product, and m is the correctly rounded 12-digit mantissa
    # when 1e11 < m < 1e12 (which also rules out a misjudged e) and s is
    # less than 0.499 from m (no tie, nor anything within 1e-3 of one).
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, nan, inf
        e = np.floor(np.log10(a))
    other = ~((e >= -4) & (e <= 11))
    np.copyto(a, 1.0, where=other)
    np.copyto(e, 0.0, where=other)
    k = (11 - e).astype(np.intp)
    unit = _POW10[k]
    s = a * unit
    m = np.rint(s)
    oracle = other | (np.abs(s - m) >= 0.499) | (m <= 1e11) | (m >= 1e12)
    whole = np.floor(m / unit)  # exact: every operand is an integer below 2**53
    frac = (m - whole * unit).astype(np.int64) * _INT_POW10[16 - k]
    return whole.astype(np.int64), frac, oracle


def _whole_groups(whole: np.ndarray):
    """`_digit_groups` indices of `whole` < 1e12 in three groups of 4 digits.

    Leading zeros are blank, and 0 prints as ``0``.
    """
    w0 = whole // 10**8
    w12 = whole - w0 * 10**8
    w1 = w12 // 10**4
    w2 = w12 - w1 * 10**4
    return w0 + _LEAD, w1 + _LEAD * (whole < 10**8), w2 + _LAST * (whole < 10**4)


def _frac_groups(frac: np.ndarray):
    """`_digit_groups` indices of `frac` < 1e16 in four groups of 4 digits.

    Trailing zeros are blank.
    """
    f01 = frac // 10**8
    f23 = frac - f01 * 10**8
    f0, f2 = f01 // 10**4, f23 // 10**4
    f1, f3 = f01 - f0 * 10**4, f23 - f2 * 10**4
    return (f0 + _TRAIL * ((f1 | f23) == 0), f1 + _TRAIL * (f23 == 0),
            f2 + _TRAIL * (f3 == 0), f3 + _TRAIL)


def _format_rows(table: np.ndarray) -> str:
    """One line of comma-separated ``'%.12g'`` fields per row of `table`.

    Byte for byte what ``%``-formatting the rows one value at a time gives.
    Each value fills a 31-byte field: sign, 12 integer digits right-aligned,
    point, 16 fraction digits left-aligned, separator, with NUL for every
    blank; the NULs are deleted at the end.  The values `_fixed_point`
    cannot vouch for are formatted by ``'%.12g' %`` itself and spliced in.
    """
    cols = table.shape[1]
    x = table.ravel()
    # (in helpers, so that each one's temporaries are freed before the next runs)
    whole, frac, oracle = _fixed_point(x)
    buf = np.zeros((x.size, 31), dtype=np.uint8)
    buf[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    buf[:, 13] = (frac != 0) * np.uint8(ord("."))
    buf[:, 30] = ord(",")
    buf[cols - 1::cols, 30] = ord("\n")
    lut = _digit_groups()
    # mode="clip" only skips a bounds-check copy: every index is in range
    digits = buf[:, 1:13].view(np.uint32)
    for i, index in enumerate(_whole_groups(whole)):
        np.take(lut, index, out=digits[:, i], mode="clip")
    digits = buf[:, 14:30].view(np.uint32)
    for i, index in enumerate(_frac_groups(frac)):
        np.take(lut, index, out=digits[:, i], mode="clip")

    where = np.flatnonzero(oracle)
    if where.size:
        text = "%.12g\n" * where.size % tuple(x[where].tolist())
        fields = np.zeros((where.size, 30), dtype=np.uint8)
        # the widest '%.12g' output is 19 bytes: -1.23456789012e-308
        fields[:, :19] = np.array(text.split(), dtype="S19").view(np.uint8).reshape(-1, 19)
        buf[where, :30] = fields
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _parse_flag(token: str) -> bool:
    if token in ("-", "0"):
        return False
    if token == "1":
        return True
    raise ValueError(f"flag field must be 0, 1 or -, got {token!r}")


def _config_from(args, bits: bool = True) -> CicConfig:
    return CicConfig(
        stages=args.stages,
        rate=args.rate,
        diff_delay=args.delay,
        input_bits=args.bits if bits else 16,
    )


def _add_config_flags(p: _Parser, bits: bool = True) -> None:
    p.add_argument("-N", "--stages", type=int, required=True, help="integrator/comb stage count")
    p.add_argument("-R", "--rate", type=int, required=True, help="decimation factor")
    p.add_argument("-M", "--delay", type=int, default=1, help="differential delay (default 1)")
    if bits:
        p.add_argument("-B", "--bits", type=int, default=16, help="signed input sample width (default 16)")


def _add_io_flags(p: _Parser, infile: bool = True) -> None:
    if infile:
        p.add_argument("--in", dest="infile", default="-", help="input path, - for stdin")
    p.add_argument("--out", dest="outfile", default="-", help="output path, - for stdout")


def _cmd_decimate(args) -> int:
    config = _config_from(args)
    state = DecimatorState(config)
    outputs = []
    with _open_text(args.infile, "r") as fh:
        for samples in _sample_chunks(fh, config.input_bits):
            outputs += state.process_block(samples)
    # written only once the whole input has parsed, so an error leaves no output
    with _open_text(args.outfile, "w") as fh:
        fh.writelines(f"{y}\n" for y in outputs)
    print(
        f"samples_in={state.samples_in} samples_out={state.samples_out} "
        f"width={state.width} gain={gain(config)}",
        file=sys.stderr,
    )
    return 0


def _cmd_response(args) -> int:
    config = _config_from(args, bits=False)
    curve = response_curve(config, args.grid)
    columns = (curve.freqs, curve.mag_db, curve.phase_rad)
    with _open_text(args.outfile, "w") as fh:
        fh.write("f,mag_db,phase_rad\n")
        for start in range(0, len(curve.freqs), _ROWS_PER_WRITE):
            block = np.stack([c[start:start + _ROWS_PER_WRITE] for c in columns], axis=1)
            fh.write(_format_rows(block))
    if args.fp is not None:
        droop = passband_droop(config, args.fp)
        alias = alias_attenuation(config, args.fp)
        print(
            f"droop_db={_round_away(droop)} alias_db={_round_away(alias)}",
            file=sys.stderr,
        )
    return 0


def _cmd_compensate(args) -> int:
    config = _config_from(args, bits=False)
    fir = design_compensator(config, args.taps, args.fp, grid_size=args.grid)
    with _open_text(args.outfile, "w") as fh:
        for t in fir.taps:
            fh.write(f"{t!r}\n")
    deviation = passband_deviation_db(config, fir, args.fp)
    print(f"deviation_db={_round_away(deviation, 4)}", file=sys.stderr)
    return 0


def _cmd_chipsim(args) -> int:
    config = _config_from(args)
    rate_range = (1, args.rmax) if args.rmax is not None else None
    try:
        chip = ChipModel(config, latency=args.latency, rate_range=rate_range)
    except ProtocolError as exc:  # --latency or --rmax, not the trace
        raise ConfigError(exc) from exc
    with _open_text(args.infile, "r") as fh:
        trace = _read_trace(fh)
    if len(trace):
        # drain the pipeline so every in-flight output reaches dout
        trace = np.concatenate((trace, np.zeros((chip.latency, 4), dtype=trace.dtype)))
    nd, din, we, ldin = trace.T
    nd, we = nd.astype(bool), we.astype(bool)
    rdy, dout, rfd = chip.run(nd, din, we, ldin)
    # one row per cycle; as uint8, not bool, the flags format faster
    columns = (rdy.view(np.uint8), dout, rfd.view(np.uint8))
    with _open_text(args.outfile, "w") as fh:
        for start in range(0, len(rdy), _ROWS_PER_WRITE):
            stop = min(start + _ROWS_PER_WRITE, len(rdy))
            block = np.column_stack((np.arange(start, stop), *(c[start:stop] for c in columns)))
            fh.write("%d %d %d %d\n" * (stop - start) % tuple(block.ravel().tolist()))
    print(
        f"rdy_count={np.count_nonzero(rdy)} rfd_low={np.count_nonzero(~rfd)} "
        f"nd_dropped={np.count_nonzero(nd & we)}",
        file=sys.stderr,
    )
    return 0


def _cmd_sdm(args) -> int:
    if not -1.0 <= args.dc <= 1.0:
        raise ConfigError(f"dc level {args.dc} outside [-1, 1]")
    if args.count < 0:
        raise ConfigError(f"count must be >= 0, got {args.count}")
    bits = SigmaDeltaModulator().stream(args.dc, args.count)
    with _open_text(args.outfile, "w") as fh:
        for b in bits:
            fh.write(f"{b}\n")
    mean = sum(bits) / len(bits) if bits else 0.0
    print(f"bits={len(bits)} mean={mean:.6f} output_bits={OUTPUT_BITS}", file=sys.stderr)
    return 0


def _cmd_info(args) -> int:
    config = _config_from(args)
    nulls = ",".join(f"{f:.12g}" for f in null_frequencies(config))
    print(
        f"N={config.stages} R={config.rate} M={config.diff_delay} "
        f"B={config.input_bits}"
    )
    print(f"D={config.kernel_length}")
    print(f"gain={gain(config)}")
    print(f"width={required_width(config)}")
    print(f"nulls={nulls}")
    return 0


@functools.cache  # built on the first `main` call, then reused
def _build_parser() -> _Parser:
    parser = _Parser(prog="cicdec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decimate", help="run samples through the bit-exact decimator")
    _add_config_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_decimate)

    p = sub.add_parser("response", help="tabulate the closed-form frequency response")
    _add_config_flags(p, bits=False)
    p.add_argument("--grid", type=int, default=1001, help="grid points over [0, 0.5]")
    p.add_argument("--fp", type=float, help="passband edge (input rate); prints droop/alias figures")
    _add_io_flags(p, infile=False)
    p.set_defaults(func=_cmd_response)

    p = sub.add_parser("compensate", help="design a droop-compensation FIR")
    _add_config_flags(p, bits=False)
    p.add_argument("--taps", type=int, required=True, help="FIR tap count (odd)")
    p.add_argument("--fp", type=float, default=0.25, help="passband edge at the output rate (default 0.25)")
    p.add_argument("--grid", type=int, default=201, help="design grid points (default 201)")
    _add_io_flags(p, infile=False)
    p.set_defaults(func=_cmd_compensate)

    p = sub.add_parser(
        "chipsim",
        help="run a pin trace through the chip model (idle cycles are appended "
        "to drain the output pipeline)",
    )
    _add_config_flags(p)
    p.add_argument("--latency", type=int, default=None, help="pipeline latency in cycles (default N+1)")
    p.add_argument("--rmax", type=int, default=None, help="enable programmable rate up to this value")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_chipsim)

    p = sub.add_parser("sdm", help="generate a first-order sigma-delta bitstream")
    p.add_argument("--dc", type=float, required=True, help="constant input level in [-1, 1]")
    p.add_argument("--count", type=int, required=True, help="number of bits to emit")
    _add_io_flags(p, infile=False)
    p.set_defaults(func=_cmd_sdm)

    p = sub.add_parser("info", help="print gain, register width and response nulls")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"cicdec: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, InputRangeError, ProtocolError, OSError) as exc:
        print(f"cicdec: error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        # the codec's position counts from the decoder's buffer, not the file
        byte = exc.object[exc.start]
        print(f"cicdec: error: input is not {exc.encoding} text: byte {byte:#04x}: "
              f"{exc.reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
