"""Command-line surface: decimate, response, compensate, chipsim, sdm, info.

File formats are line-oriented decimal text: sample files hold one signed
integer per line (``#`` starts a comment line), pin traces hold one cycle
per line as ``nd din we ldin`` with ``-`` for don't-care fields, which both
trace parsers return as (n, 4) rows (`PinInputs` is the chip's scalar
oracle's type); both formats are read by one chunked reader (`_read_chunks`),
so the first error in a file is the one reported, and split by one tokenizer
(`_tokens`), whose value tokens one digit reader converts (`_token_ints`).
`decimate` writes one output per line, below 64 bits `_ROWS_PER_WRITE` at a
time as int64 digit groups (`_format_ints`), else by `str`, the oracle.  Pin
dumps hold one ``cycle rdy dout rfd`` row per cycle,
and response tables are CSV with an ``f,mag_db,phase_rad`` header; both are
written `_ROWS_PER_WRITE` rows at a time as byte arrays.  A dump block
formats each value `dout` holds once (`_format_pins`); response tables read
exactly as ``'%.12g' %`` prints each value, which is the oracle for the few
values the arrays cannot vouch for, and a block's values share a field as
narrow as that block's digits allow (`_format_rows`).  Each command runs
with the int-to-str digit limit lifted (`main`), so integers print in full
at any length; `_int` alone bounds what an input number may cost.  Every
command accepts ``-`` for stdin/stdout.  ``--out`` rewrites an existing
file in place and cuts it to the bytes written (`_open_text`): an exception
or Ctrl-C leaves the written prefix, as a truncating open did, but a kill
that Python cannot catch (SIGKILL, or SIGTERM under the default handler)
may leave bytes of the old file past it.
Exit codes: 0 ok, 1 usage or flag error (or out of memory), 2 file/parse/
range error (undecodable text and a closed stdin or stdout included).
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import re
import stat
import sys
import warnings
from contextlib import contextmanager
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from .core import (
    CicConfig,
    ConfigError,
    DecimatorState,
    DifferentialDelayWarning,
    InputRangeError,
    _signed_range,
    gain,
    required_width,
)
from .analysis import (
    DomainError,
    alias_attenuation,
    passband_droop,
    response_curve,
)
from .compensator import design_compensator, passband_deviation_db
from .chip import ChipModel, ProtocolError
from .sdm import OUTPUT_BITS, SigmaDeltaModulator


#: Characters `decimate` and `chipsim` read at a time, rounded up to the
#: next line end, so the input is never held in memory whole.  At 2^16 a
#: chunk's parse temporaries fit the cache and are reused from the heap; at
#: 1 MiB they are given back to the kernel and faulted in again every chunk.
_CHUNK_CHARS = 1 << 16

#: Response-table, pin-dump and `sdm` rows (and `info` nulls) formatted per
#: write, so the formatting buffers never hold the whole table.
_ROWS_PER_WRITE = 4096

# 10**k for k = 0..15 (each exact as a double) and, as int64, k = 0..16;
# from Python ints, as a ufunc's first buffered call at import costs RSS.
_POW10 = np.array([float(10**k) for k in range(16)])
_INT_POW10 = np.array([10**k for k in range(17)], dtype=np.int64)

# Offsets of the runs in `_digit_groups` after the first, which has every digit.
_LEAD, _TRAIL, _LAST = 10_000, 20_000, 30_000

# A comment line with the newline before it (see `_read_chunks`).
_COMMENT_LINE = re.compile(r"\n#[^\n]*")

# A byte that did not decode, as the ``surrogateescape`` handler passes it on.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")

# The interpreter's default int-to-str digit limit (Python 3.10.7 on), which
# `main` lifts; `_int` keeps it for input but where `B` allows more digits.
_DIGIT_LIMIT = 4300


class DataError(Exception):
    """Malformed or out-of-range input data (exit code 2)."""


def _note(text: str) -> None:
    """Print `text` on stderr, or drop it if stderr is closed or unwritable,
    so that the exit code is the one the command gives either way."""
    if sys.stderr is None:
        return
    try:
        print(text, file=sys.stderr)  # stderr is line-buffered
    except OSError:
        pass


class _Parser(argparse.ArgumentParser):
    # Distinguish usage failures (1) from data failures (2).
    def error(self, message):
        _note(f"{self.format_usage()}{self.prog}: error: {message}")
        sys.exit(1)


@contextmanager
def _open_text(path: str, mode: str):
    """`path`, or stdin/stdout for ``-``, as text with universal newlines;
    bytes that do not decode pass as lone surrogates for `_read_chunks`.

    A path opened for writing is rewritten in place: it is opened as
    ``open(path, "w")`` opens it, with the same mode bits for a new file,
    but not truncated, so an output that overwrites an earlier one reuses
    the file's cached pages and blocks.  However the ``with`` block ends,
    an exception or Ctrl-C included, the text is flushed as far as it goes
    and a regular file is then cut to the bytes written: it holds what a
    truncating open would have left.  A kill that Python cannot catch
    (SIGKILL, or SIGTERM under the default handler) may leave bytes of the
    old file past them.  FIFOs and devices are never cut.
    """
    if path != "-" and mode == "r":
        with open(path, mode, errors="surrogateescape") as fh:
            yield fh
        return
    if path != "-":
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            with open(fd, mode, errors="surrogateescape", closefd=False) as fh:
                yield fh  # (closing `fh` flushes it, even when that raises)
        finally:
            try:
                info = os.fstat(fd)  # (a FIFO has no offset to read)
                if stat.S_ISREG(info.st_mode) and info.st_size > (
                        end := os.lseek(fd, 0, os.SEEK_CUR)):  # the bytes written
                    os.ftruncate(fd, end)
            finally:
                os.close(fd)
        return
    name = "stdin" if mode == "r" else "stdout"
    std = getattr(sys, name)
    if std is None:
        raise OSError(f"{name} is closed")
    if mode != "r" or not hasattr(std, "buffer"):
        yield std
        return
    fh = io.TextIOWrapper(std.buffer, std.encoding, "surrogateescape", newline=None)
    try:
        yield fh
    finally:
        fh.detach()


def _round_away(x: float, places: int = 2) -> Decimal:
    quantum = Decimal(1).scaleb(-places)
    return Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP)


def _int(token: str, most: int) -> int:
    """`int(token)` under `main`'s lifted digit limit, at a bounded cost.

    A token (stripped, as its line is) of more than `_DIGIT_LIMIT` digits,
    counted as the limit counts them (leading zeros, but not sign or
    underscores), must be decimal, with no more than `most` digits less its
    leading zeros; else it raises ValueError with `int()`'s text, or
    OverflowError with its digit count, unconverted.
    """
    if len(token) > _DIGIT_LIMIT:  # (else it has no more digits than that)
        body = (token[1:] if token[:1] in ("+", "-") else token).replace("_", "")
        if len(body) > _DIGIT_LIMIT:
            if not body.isdecimal():
                raise ValueError(f"invalid literal for int() with base 10: {token!r:.200}")
            if (digits := len(body.lstrip("0"))) > most:
                raise OverflowError(f"value of {digits} digits is out of range")
    return int(token)


def _read_samples(lines, bits: int, first_line: int = 1) -> list[int]:
    """Parse sample lines one at a time; numbering starts at `first_line`.

    The reference parser, and the only source of sample-file DataErrors.
    It runs under `main`'s lifted digit limit, which `str(hi)` needs past
    B = 14285: a value is read if it has no more digits than `hi` (`_int`).
    """
    lo, hi = _signed_range(bits)
    most = len(str(hi))
    samples = []
    for line_no, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = _int(line, most)
        except ValueError:
            raise DataError(f"line {line_no}: not an integer: {line!r:.200}")
        except OverflowError as exc:
            raise DataError(f"line {line_no}: {exc} for signed {bits}-bit samples")
        if not lo <= value <= hi:
            raise DataError(f"line {line_no}: value {value} outside signed {bits}-bit "
                            f"range [{lo}, {hi}]")
        samples.append(value)
    return samples


def _tokens(text: str, fields: int):
    """The bytes, token ends, digit counts and tokens' first bytes of
    `_read_chunks` text, or None: the one-pass reader's token rule.

    Lines must be `fields` tokens split by single spaces and ended by a
    newline; a token is 1 to 18 ASCII digits (exact in int64) after an
    optional ``-``, or a lone ``-`` of 0 digits.  All but the bytes are
    (`fields`, lines) arrays, each column contiguous.
    """
    a = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)  # non-ASCII as "?"
    ends = np.flatnonzero(a <= ord(" "))  # spaces, newlines and control bytes
    if not text.endswith("\n") or ends.size % fields:
        return None
    starts, ends = (np.ascontiguousarray(x.reshape(-1, fields).T)
                    for x in (np.concatenate(([0], ends[:-1] + 1)), ends))
    first = a[starts]  # an empty token's is its separator
    digits = ends - starts
    digits -= first == ord("-")  # (in place: a temporary costs 4x the subtraction)
    n_signs = np.count_nonzero(first == ord("-"))
    ok = (np.count_nonzero(a - ord("0") < 10) + n_signs + ends.size == a.size  # (wraps < "0")
          and first.min() > ord(" ") and digits.max() <= 18
          and np.count_nonzero(a == ord("\n")) == ends.shape[1]
          and (a[ends[:-1]] == ord(" ")).all())  # so each line ends in its newline
    return (a, ends, digits, first) if ok else None


def _token_ints(a: np.ndarray, ends: np.ndarray, digits: np.ndarray,
                first: np.ndarray) -> np.ndarray:
    """The int64 values of `_tokens` tokens, a lone ``-`` as 0, in the
    shape of their `ends`.

    Digit arithmetic over the bytes `a`: one gather and multiply-add per
    digit column, right-aligned from each token's end, the widest token's
    column first, in the narrowest integer type that holds 10**widest (int16
    or narrower up to 4 digits); a token reads the columns past its own
    digits as 0, and the sign is applied last.
    """
    widest = int(digits.max())
    values = np.zeros(ends.shape, dtype=np.min_scalar_type(-10**widest))
    for j in range(widest, 0, -1):  # the digit j places before the end
        d = a[ends - j].view(np.int8)  # (so int8 sums add it without a cast)
        d -= ord("0")
        d *= digits >= j
        values *= 10
        values += d
    values *= 1 - 2 * (first == ord("-")).view(np.int8)  # (np.negative's where= is 20x slower)
    return values.astype(np.int64, copy=False)


def _parse_chunk(text: str, bits: int) -> np.ndarray | None:
    """The samples of `_read_chunks` text in one pass, or None.

    Takes only `_tokens` lines of one token with at least one digit, all
    values in range, read by `_token_ints`; for anything else it returns
    None.
    """
    if (tokens := _tokens(text, 1)) is None:
        return None
    a, ends, digits, first = tokens
    if digits.min() < 1:  # a lone `-`
        return None
    values = _token_ints(a, ends, digits, first).ravel()
    lo, hi = _signed_range(bits)
    if int(values.min()) < lo or int(values.max()) > hi:
        return None
    return values


def _line_chunks(fh):
    """Yield the text of `fh` in chunks of whole lines, cut before the line of
    the first byte that did not decode; that byte's codec error is raised once
    the caller has parsed the lines before it, so a bad line among them wins."""
    escaped = fh.errors == "surrogateescape"
    while text := fh.read(_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()
        if escaped and not text.isascii() and (bad := _ESCAPED_BYTE.search(text)):
            start = text.rfind("\n", 0, bad.start()) + 1
            yield text[:start]
            text = text[start:]
            text.encode(fh.encoding, "surrogateescape").decode(fh.encoding)  # raises
        yield text


def _read_chunks(fh, parse_chunk, parse_lines):
    """Yield the rows of `fh`, parsed one `_line_chunks` chunk at a time.

    A chunk's ``#`` comment lines are deleted, searched for only over the
    lines from its first ``#`` to its last, and a chunk with nothing else
    yields nothing.  The rest, ending in a newline, goes to the one-pass
    `parse_chunk`; where that returns None, the chunk's lines go to
    the reference ``parse_lines(lines, first_line, first_row)``, numbered
    from the start of the file, which returns values of the same form (for
    traces, (n, 4) rows).  Lines are counted without a pass of their own
    where `parse_chunk` succeeds: one row per line, plus the comments.
    """
    line_no, rows = 1, 0
    for text in _line_chunks(fh):
        body, comments = text, 0
        if (first := text.find("#")) >= 0:
            # ``_COMMENT_LINE.sub("", "\n" + text)[1:]``, searched from the
            # newline before the first `#` line to the end of the last
            start = text.rfind("\n", 0, first) + 1
            if (end := text.find("\n", text.rfind("#"))) < 0:
                end = len(text)
            kept, comments = _COMMENT_LINE.subn("", "\n" + text[start:end])
            body = text[:start - 1] + kept + text[end:] if start else (kept + text[end:])[1:]
        if not body:
            line_no += comments
            continue
        if not body.endswith("\n"):
            body += "\n"
        values = parse_chunk(body)
        if values is None:  # (split's empty last item is a blank line to both)
            values = parse_lines(text.split("\n"), line_no, rows)
            line_no += text.count("\n")
        else:
            line_no += len(values) + comments
        rows += len(values)
        yield values


def _parse_trace(lines, first_line: int = 1, first_cycle: int = 0,
                 bits: int | None = None) -> np.ndarray:
    """The reference trace parser, and the only source of trace DataErrors.

    `_parse_trace_chunk`'s rows, as an object array of Python ints and bools.
    Lines and cycles are numbered from `first_line` and `first_cycle`.  It
    runs under `main`'s lifted digit limit, which the signed `bits`-bit
    maximum's `str` needs past B = 14285: past `_DIGIT_LIMIT` digits, `_int`
    reads a din as long as that maximum (as `_DIGIT_LIMIT`, for None) and
    an ldin of no more than `_DIGIT_LIMIT`.
    """
    most = _DIGIT_LIMIT if bits is None else len(str(_signed_range(bits)[1]))
    rows = []
    for line_no, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        cycle = first_cycle + len(rows)
        if len(fields) != 4:
            raise DataError(
                f"cycle {cycle} (line {line_no}): expected 'nd din we ldin', "
                f"got {line!r:.200}"
            )
        try:
            nd = _parse_flag(fields[0])
            we = _parse_flag(fields[2])
            din = 0 if fields[1] == "-" else _int(fields[1], most)
            ldin = 0 if fields[3] == "-" else _int(fields[3], _DIGIT_LIMIT)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"cycle {cycle} (line {line_no}): {exc}")
        if nd and fields[1] == "-":
            raise DataError(f"cycle {cycle} (line {line_no}): nd=1 needs a din value")
        if we and fields[3] == "-":
            raise DataError(f"cycle {cycle} (line {line_no}): we=1 needs an ldin value")
        rows.append((nd, din, we, ldin))
    return np.array(rows, dtype=object).reshape(-1, 4)


def _parse_trace_chunk(text: str) -> np.ndarray | None:
    """The cycles of `_read_chunks` text in one pass, or None.

    An (n, 4) array of `nd din we ldin` columns, each contiguous, `-` as 0.
    Takes only `_tokens` lines whose flags are one of ``0 1 -`` and whose
    values are a lone `-` after a low flag or else have digits, signed on
    din only.  Each column is checked and read on its own: the flags from their first
    bytes, din and ldin by `_token_ints` at the column's own widest token.
    """
    if (tokens := _tokens(text, 4)) is None:
        return None
    a, ends, digits, first = tokens
    flags, values = first[::2], digits[1::2]
    if ((digits[::2] != (flags != ord("-"))).any() or flags.max() > ord("1")
            or ((values == 0) & (flags == ord("1"))).any()
            or ((first[3] == ord("-")) & (values[1] > 0)).any()):
        return None
    rows = np.empty(first.shape, dtype=np.int64)
    rows[::2] = flags == ord("1")
    for k in (1, 3):
        rows[k] = _token_ints(a, ends[k], digits[k], first[k])
    return rows.T


@functools.cache  # built on the first response table or pin dump, then reused
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
    """Integer part, fraction digits, their count and oracle mask of ``'%.12g' % x``.

    Returns `whole` (below 1e12), `frac` (the `k` fraction digits of the
    12-digit mantissa, trailing zeros included, as an integer below 10**k),
    `k` (0 to 15) and `oracle`, true where the value is to go to ``'%.12g' %``
    instead: not printed in fixed notation (`k` is 0 there), ±0, or a
    12-digit mantissa that is not certain.
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
    np.copyto(e, 11.0, where=other)
    k = (11 - e).astype(np.intp)
    unit = _POW10[k]
    s = a * unit
    m = np.rint(s)
    oracle = other | (np.abs(s - m) >= 0.499) | (m <= 1e11) | (m >= 1e12)
    whole = np.floor(m / unit)  # exact: every operand is an integer below 2**53
    frac = (m - whole * unit).astype(np.int64)
    return whole.astype(np.int64), frac, k, oracle


def _int_digits(field: np.ndarray, x: np.ndarray) -> None:
    """Write int64 `x` in [0, 10**w) into the (n, w) uint8 `field`, w a
    multiple of 4, right-aligned, leading zeros blank and 0 as ``0``."""
    lut, groups, rest = _digit_groups(), field.view(np.uint32), x
    # mode="clip" only skips a bounds-check copy: every index is in range
    for i, k in enumerate(range(field.shape[1] - 4, 0, -4)):  # digits k + 3 to k
        g = rest // 10**k
        np.take(lut, g + _LEAD * (rest == x), out=groups[:, i], mode="clip")
        rest = rest - g * 10**k
    np.take(lut, rest + _LAST * (rest == x), out=groups[:, -1], mode="clip")


def _frac_digits(field: np.ndarray, frac: np.ndarray) -> None:
    """Write int64 `frac` in [0, 10**w), the w digits after the point, into
    the (n, w) uint8 `field`, w a multiple of 4, trailing zeros blank."""
    lut, groups, rest = _digit_groups(), field.view(np.uint32), frac
    # mode="clip" only skips a bounds-check copy: every index is in range
    for i, k in enumerate(range(field.shape[1] - 4, 0, -4)):  # digits k + 3 to k
        g = rest // 10**k
        rest = rest - g * 10**k
        np.take(lut, g + _TRAIL * (rest == 0), out=groups[:, i], mode="clip")
    np.take(lut, rest + _TRAIL, out=groups[:, -1], mode="clip")


def _format_rows(table: np.ndarray) -> str:
    """One line of comma-separated ``'%.12g'`` fields per row of `table`.

    Byte for byte what ``%``-formatting the rows one value at a time gives.
    Each value fills a field sized to the block: sign, `gi` 4-digit groups
    of integer digits (`_int_digits`), point, `gf` 4-digit groups of
    fraction digits (`_frac_digits`), separator, with NUL for every blank;
    the NULs are deleted at the end.  `gi` (1 to 3) holds the block's
    largest integer part and `gf` (1 to 4) its largest `_fixed_point`
    fraction-digit count, so the field is 3 + 4*(gi + gf) bytes (19 on most
    rows of a response table, against 31 for 3 and 4 groups).  The values
    `_fixed_point` cannot vouch for are formatted by ``'%.12g' %`` itself
    and written over their fields, the field widened, with NUL padding,
    where their text needs more.
    """
    cols = table.shape[1]
    x = table.ravel()
    # (in helpers, so that each one's temporaries are freed before the next runs)
    whole, frac, k, oracle = _fixed_point(x)
    where = np.flatnonzero(oracle)
    text = np.array(("%.12g\n" * where.size % tuple(x[where].tolist())).split(), dtype=bytes)
    gi = min(-(-len(str(int(whole.max()))) // 4), 3)  # (an oracle value's may need 4)
    gf = max(-(-int(k.max()) // 4), 1)
    point = 1 + 4 * gi
    width = max(point + 4 * gf + 2, text.itemsize + 1)
    frac *= _INT_POW10[4 * gf - k]  # left-aligned in 4*gf digits
    buf = np.zeros((x.size, width), dtype=np.uint8)
    buf[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    buf[:, point] = (frac != 0) * np.uint8(ord("."))
    buf[:, -1] = ord(",")
    buf[cols - 1::cols, -1] = ord("\n")
    _int_digits(buf[:, 1:point], whole)
    _frac_digits(buf[:, point + 1:point + 1 + 4 * gf], frac)
    if where.size:
        buf[where, :-1] = 0
        buf[where, :text.itemsize] = text.view(np.uint8).reshape(where.size, -1)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _format_pins(first: int, rdy: np.ndarray, dout: np.ndarray, rfd: np.ndarray) -> str:
    """``"%d %d %d %d\\n"`` of each cycle's ``cycle rdy dout rfd``, from `first` on.

    `dout` (int64 or Python ints) changes only on `rdy` cycles, as
    `ChipModel.run` gives it, so each value it holds is formatted once and
    copied to its rows as one fixed-width record, through a structured view
    of the row buffer.  Rows are laid out as in `_format_rows`, the cycle in
    as many 4-digit groups as the last one needs (`_int_digits`), and start
    as copies of one row that holds the separators and flags of 0.
    """
    held = np.array([str(v) for v in [*dout[:1].tolist(), *dout[rdy].tolist()]], dtype=bytes)
    n, w = len(rdy), held.itemsize
    c = 4 * -(-len(str(max(first + n - 1, 0))) // 4)  # the last cycle's digits, in groups
    buf = np.tile(np.frombuffer(bytes(c) + b" 0 " + bytes(w) + b" 0\n", dtype=np.uint8), (n, 1))
    _int_digits(buf[:, :c], first + np.arange(n, dtype=np.int64))
    buf[:, c + 1] += rdy
    buf[:, c + w + 4] += rfd
    record = np.dtype({"names": ["dout"], "formats": [held.dtype], "offsets": [c + 3],
                       "itemsize": c + w + 6})
    buf.view(record)["dout"][:, 0] = held[np.cumsum(rdy)]
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _format_ints(y: np.ndarray) -> str:
    """``"%d\\n" * n % tuple(y)`` of a non-empty int64 block `y` without
    -2**63: a sign column, then |y| in as many 4-digit groups as the
    block's largest needs (`_int_digits`), laid out as in `_format_rows`."""
    magnitude = np.abs(y)
    c = 4 * -(-len(str(int(magnitude.max()))) // 4)
    buf = np.zeros((len(y), c + 2), dtype=np.uint8)
    buf[:, 0] = (y < 0) * np.uint8(ord("-"))
    _int_digits(buf[:, 1:-1], magnitude)
    buf[:, -1] = ord("\n")
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
    bits = config.input_bits
    with _open_text(args.infile, "r") as fh:
        for samples in _read_chunks(fh, functools.partial(_parse_chunk, bits=bits),
                                    lambda lines, line, _: _read_samples(lines, bits, line)):
            outputs += state.process_block(samples)
    # written only once the whole input has parsed, so an error leaves no output;
    # below 64 bits every |y| fits int64, and `str` is the oracle at any width
    with _open_text(args.outfile, "w") as fh:
        if state.width < 64:
            for start in range(0, len(outputs), _ROWS_PER_WRITE):
                block = np.array(outputs[start:start + _ROWS_PER_WRITE], dtype=np.int64)
                fh.write(_format_ints(block))
        else:
            fh.writelines(f"{y}\n" for y in outputs)
    _note(f"samples_in={state.samples_in} samples_out={state.samples_out} "
          f"width={state.width} gain={gain(config)}")
    return 0


def _cmd_response(args) -> int:
    config = _config_from(args, bits=False)
    curve = response_curve(config, args.grid)
    if args.fp is not None:  # checked before the table, so a bad edge writes none
        droop = passband_droop(config, args.fp)
        alias = alias_attenuation(config, args.fp)
    columns = (curve.freqs, curve.mag_db, curve.phase_rad)
    with _open_text(args.outfile, "w") as fh:
        fh.write("f,mag_db,phase_rad\n")
        for start in range(0, len(curve.freqs), _ROWS_PER_WRITE):
            block = np.stack([c[start:start + _ROWS_PER_WRITE] for c in columns], axis=1)
            fh.write(_format_rows(block))
    if args.fp is not None:
        _note(f"droop_db={_round_away(droop)} alias_db={_round_away(alias)}")
    return 0


def _cmd_compensate(args) -> int:
    config = _config_from(args, bits=False)
    fir = design_compensator(config, args.taps, args.fp, grid_size=args.grid)
    with _open_text(args.outfile, "w") as fh:
        for t in fir.taps:
            fh.write(f"{t!r}\n")
    deviation = passband_deviation_db(config, fir, args.fp)
    _note(f"deviation_db={_round_away(deviation, 4)}")
    return 0


def _cmd_chipsim(args) -> int:
    config = _config_from(args)
    rate_range = (1, args.rmax) if args.rmax is not None else None
    if args.latency is not None and args.latency > np.iinfo(np.intp).max:  # the drain's length
        raise ConfigError(f"latency must be <= {np.iinfo(np.intp).max}, got {args.latency}")
    try:
        chip = ChipModel(config, latency=args.latency, rate_range=rate_range)
    except ProtocolError as exc:  # --latency or --rmax, not the trace
        raise ConfigError(exc) from exc
    with _open_text(args.infile, "r") as fh:
        # int64 chunks and object chunks of Python ints join as Python ints
        chunks = [np.zeros((0, 4), dtype=np.int64), *_read_chunks(
            fh, _parse_trace_chunk, functools.partial(_parse_trace, bits=config.input_bits))]
    if sum(map(len, chunks)):
        # drain the pipeline so every in-flight output reaches dout
        chunks.append(np.zeros((chip.latency, 4), dtype=np.int64))
    nd, din, we, ldin = np.concatenate([c.T for c in chunks], axis=1)
    rdy, dout, rfd = chip.run(nd, din, we, ldin)
    with _open_text(args.outfile, "w") as fh:
        for start in range(0, len(rdy), _ROWS_PER_WRITE):
            block = slice(start, start + _ROWS_PER_WRITE)
            fh.write(_format_pins(start, rdy[block], dout[block], rfd[block]))
    _note(f"rdy_count={np.count_nonzero(rdy)} rfd_low={np.count_nonzero(~rfd)} "
          f"nd_dropped={np.count_nonzero(nd & we)}")
    return 0


def _cmd_sdm(args) -> int:
    if not -1.0 <= args.dc <= 1.0:
        raise ConfigError(f"dc level {args.dc} outside [-1, 1]")
    if args.count < 0:
        raise ConfigError(f"count must be >= 0, got {args.count}")
    # written `_ROWS_PER_WRITE` bits at a time as they are made, counted as they go
    modulator, total = SigmaDeltaModulator(), 0
    with _open_text(args.outfile, "w") as fh:
        for start in range(0, args.count, _ROWS_PER_WRITE):
            bits = modulator.stream(args.dc, min(_ROWS_PER_WRITE, args.count - start))
            total += sum(bits)
            fh.write("".join(f"{b}\n" for b in bits))
    mean = total / args.count if args.count else 0.0
    _note(f"bits={args.count} mean={mean:.6f} output_bits={OUTPUT_BITS}")
    return 0


def _cmd_info(args) -> int:
    config = _config_from(args)
    d = config.kernel_length
    with _open_text("-", "w") as fh:
        fh.write(f"N={config.stages} R={config.rate} M={config.diff_delay} "
                 f"B={config.input_bits}\nD={d}\ngain={gain(config)}\n"
                 f"width={required_width(config)}\nnulls=")
        # `null_frequencies`' k/D, written `_ROWS_PER_WRITE` at a time as they are made
        for start in range(1, d // 2 + 1, _ROWS_PER_WRITE):
            stop = min(start + _ROWS_PER_WRITE, d // 2 + 1)
            fh.write("," * (start > 1) + ",".join(f"{k / d:.12g}" for k in range(start, stop)))
        fh.write("\n")
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
    # Integers print in full at any length: the int-to-str digit limit is
    # lifted while the command runs, and the caller's limit, like the
    # caller's warning filters, comes back on return.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # (Python 3.10.7 on)
    with warnings.catch_warnings():
        warnings.simplefilter("always", DifferentialDelayWarning)
        warnings.showwarning = lambda message, *_: _note(f"cicdec: warning: {message}")
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return args.func(args)
        except (ConfigError, DomainError) as exc:
            _note(f"cicdec: error: {exc}")
            return 1
        except (DataError, InputRangeError, ProtocolError, OSError) as exc:
            _note(f"cicdec: error: {exc}")
            return 2
        except MemoryError as exc:
            _note(f"cicdec: error: out of memory{f': {exc}' if str(exc) else ''}")
            return 1
        except UnicodeDecodeError as exc:
            # the codec's position counts from the start of the line, not the file
            byte = exc.object[exc.start]
            _note(f"cicdec: error: input is not {exc.encoding} text: byte {byte:#04x}: "
                  f"{exc.reason}")
            return 2
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
