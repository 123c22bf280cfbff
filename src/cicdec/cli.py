"""Command-line surface: decimate, response, compensate, chipsim, sdm, info.

File formats are line-oriented decimal text: sample files hold one signed
integer per line (``#`` starts a comment line), pin traces hold one cycle
per line as ``nd din we ldin`` with ``-`` for don't-care fields, pin dumps
one ``cycle rdy dout rfd`` row per cycle, and response tables are CSV with
an ``f,mag_db,phase_rad`` header; tables and dumps are formatted and
written `_ROWS_PER_WRITE` rows at a time.  Every command accepts ``-``
for stdin/stdout.  Exit codes: 0 ok, 1 usage or flag error, 2
file/parse/range error (text that does not decode included).
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


#: Characters `decimate` reads at a time, rounded up to the next line end, so
#: the input is never held in memory whole.
_CHUNK_CHARS = 1 << 20

#: Response-table and pin-dump rows formatted per write, so the formatting
#: tuple never holds the whole table.
_ROWS_PER_WRITE = 4096

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


def _sample_chunks(fh, bits: int):
    """Yield the samples of `fh` chunk by chunk, each chunk whole lines."""
    line_no = 1
    while text := fh.read(_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()
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
    table = np.column_stack((curve.freqs, curve.mag_db, curve.phase_rad))
    with _open_text(args.outfile, "w") as fh:
        fh.write("f,mag_db,phase_rad\n")
        for start in range(0, len(table), _ROWS_PER_WRITE):
            block = table[start:start + _ROWS_PER_WRITE]
            fh.write("%.12g,%.12g,%.12g\n" * len(block) % tuple(block.ravel().tolist()))
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
