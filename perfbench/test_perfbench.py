"""Self-tests of the benchmark: seeded inputs, output checks, span arithmetic.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cicdec  # noqa: E402
import cicdec.cli  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _inputs(plan):
    if "inputs" in plan:
        return b"".join(Path(path).read_bytes() for path in plan["inputs"])
    return Path(plan["input"]).read_bytes() if "input" in plan else repr(plan["configs"]).encode()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = wl.generate(workload, 7, tmp_path / "a")
    b = wl.generate(workload, 7, tmp_path / "b")
    c = wl.generate(workload, 8, tmp_path / "c")
    assert _inputs(a) == _inputs(b)
    assert _inputs(a) != _inputs(c)


def test_boxcar_taps_equal_boxcar_power():
    for length in (1, 2, 3, 7, 16):
        for order in range(7):
            assert wl.boxcar_taps(length, order) == cicdec.boxcar_power(length, order)


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cicdec.cli.main(argv) == 0
    return err.getvalue()


def _record(key, data, **extra):
    return {"key": key, "lat": [0.1], "digest": wl.digest(data), **extra}


def test_corrupted_decimate_output_raises_error_rate(tmp_path):
    plan = wl.generate("cli-decimate", 3, tmp_path)
    want = wl.expected("cli-decimate", plan, cicdec)
    out = tmp_path / "out-1.txt"
    p = wl.DECIMATE
    _cli(["decimate", "-N", str(p["stages"]), "-R", str(p["rate"]), "-B", str(p["bits"]),
          "--in", plan["inputs"][1], "--out", str(out)])
    records = [_record(out.name, out.read_bytes(), input=1)] * 3
    assert wl.score("cli-decimate", want, records, tmp_path, cicdec) == (3, 0)

    lines = out.read_text().splitlines()
    lines[100] = str(int(lines[100]) + 1)
    out.write_text("\n".join(lines) + "\n")
    assert wl.score("cli-decimate", want, records, tmp_path, cicdec) == (3, 3)


def test_corrupted_chip_pins_raise_error_rate(tmp_path):
    plan = wl.generate("chipsim", 4, tmp_path)
    want = wl.expected("chipsim", plan, cicdec)
    out = tmp_path / "out-2.txt"
    p = wl.CHIP
    _cli(["chipsim", "-N", str(p["stages"]), "-R", str(p["rate"]), "-B", str(p["bits"]),
          "--rmax", str(p["rmax"]), "--in", plan["inputs"][2], "--out", str(out)])
    good = out.read_bytes()
    record = _record(out.name, good, input=2)
    assert wl.score("chipsim", want, [record], tmp_path, cicdec) == (1, 0)
    # The output of one trace does not pass for another.
    assert wl.score("chipsim", want, [dict(record, input=3)], tmp_path, cicdec) == (1, 1)

    rows = good.decode().splitlines()
    i = want[2]["rdy_cycles"][0]
    c, rdy, dout, rfd = rows[i].split()
    rows[i] = f"{c} {rdy} {int(dout) ^ 1} {rfd}"
    out.write_text("\n".join(rows) + "\n")
    assert wl.score("chipsim", want, [record], tmp_path, cicdec) == (1, 1)


def test_design_checks_reject_bad_taps_and_tables(tmp_path):
    plan = wl.generate("design", 5, tmp_path)
    want = wl.expected("design", plan, cicdec)
    n, r, m, fp = plan["configs"][0]
    cfg = ["-N", str(n), "-R", str(r), "-M", str(m)]
    table, taps = tmp_path / "response-0.csv", tmp_path / "taps-0.txt"
    p = wl.DESIGN
    err = _cli(["response", *cfg, "--grid", str(p["grid"]), "--fp", repr(fp), "--out", str(table)])
    err += _cli(["compensate", *cfg, "--taps", str(p["taps"]), "--grid", str(p["comp_grid"]),
                 "--out", str(taps)])
    good = _record(table.name, table.read_bytes(), config=0, taps=taps.read_text(), stderr=err)
    assert wl.score("design", want, [good], tmp_path, cicdec) == (1, 0)

    tap_list = taps.read_text().split()
    tap_list[0] = repr(float(tap_list[0]) * 2)
    bad_taps = dict(good, taps="\n".join(tap_list))
    assert wl.score("design", want, [good, bad_taps], tmp_path, cicdec) == (2, 1)

    rows = table.read_text().splitlines()
    table.write_text("\n".join(rows[:-1]) + "\n")
    assert wl.score("design", want, [good], tmp_path, cicdec) == (1, 1)


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10]; a [1, 3] and b [2, 5] overlap; c [1.5, 2.5] inside a;
    # d [9, 12] sticks out of root and only [9, 10] counts against it.
    parent = array("i", [-1, 0, 0, 1, 0])
    start = array("d", [0.0, 1.0, 2.0, 1.5, 9.0])
    end = array("d", [10.0, 3.0, 5.0, 2.5, 12.0])
    assert tracing.self_times(parent, start, end) == pytest.approx([5.0, 1.0, 3.0, 1.0, 3.0])


def test_trace_records_nested_spans_and_restores_originals(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("# header\n" + "".join(f"{i % 7 - 3}\n" for i in range(200)))
    originals = (cicdec.cli.main, cicdec.core.DecimatorState.push, cicdec.analysis.magnitude)
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        _cli(["decimate", "-N", "2", "-R", "10", "-B", "4", "--in", str(src),
              "--out", str(tmp_path / "out.txt")])
        rec.settle()
    finally:
        uninstall()
    assert (cicdec.cli.main, cicdec.core.DecimatorState.push, cicdec.analysis.magnitude) == originals

    names = [rec.names[i] for i in rec.name]
    assert names == ["cli.main", "core.process_block"]
    assert list(rec.parent) == [-1, 0]
    layers = tracing.layer_metrics(rec, 1)
    assert layers["core.samples_in"] == 200
    assert layers["core.samples_out"] == 20
    assert layers["core.push.calls"] == 200
    assert layers["core.push.ms"] == 0.0
    assert layers["cli.self_ms"] == pytest.approx(
        1e3 * (rec.end[0] - rec.start[0] - (rec.end[1] - rec.start[1])))
