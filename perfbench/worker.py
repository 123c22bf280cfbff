"""Closed-loop request runner for one workload, in its own interpreter.

Started by ``run.py`` with the plan it wrote.  One caller issues one request
at a time: warm-up requests for two seconds first, then untraced requests for
``--untraced`` seconds, then traced requests for ``--traced`` seconds.  With
``--probe``, the untraced phase also runs the set-up probe ``--probes`` times,
evenly spread between requests, so that set-up is sampled across the run.  Only
the calls into cicdec are timed; digests, file reads and trace bookkeeping
happen between requests.  The result, including every request's latencies
and output digest, is written as JSON for ``run.py`` to check and summarize.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads as wl

# Untimed requests first, so that file caches fill and every input is read once.
WARMUP_S = 2.0


def _call_cli(cli, argv: list[str]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = perf_counter()
        rc = cli.main(argv)
        t1 = perf_counter()
    return t1 - t0, rc, err.getvalue()


def _file_io(path: str) -> list[int]:
    data = Path(path).read_bytes()
    return [len(data), data.count(b"\n")]


class CliFile:
    """`cicdec decimate` or `cicdec chipsim`: one input file to one output file,
    cycling over the plan's input files."""

    def __init__(self, plan, outdir: Path, cicdec):
        self.cli = cicdec.cli
        if plan["workload"] == "cli-decimate":
            p = wl.DECIMATE
            args = ["decimate", "-N", p["stages"], "-R", p["rate"], "-B", p["bits"]]
        else:
            p = wl.CHIP
            args = ["chipsim", "-N", p["stages"], "-R", p["rate"], "-B", p["bits"],
                    "--rmax", p["rmax"]]
        self.jobs = []   # (argv, output file, input bytes and lines)
        for idx, path in enumerate(plan["inputs"]):
            out = outdir / f"out-{idx}.txt"
            argv = [str(a) for a in args] + ["--in", path, "--out", str(out)]
            self.jobs.append((argv, out, _file_io(path)))
        self.k = 0

    def run(self) -> dict:
        idx = self.k % len(self.jobs)
        self.k += 1
        argv, out, io_in = self.jobs[idx]
        lat, rc, _ = _call_cli(self.cli, argv)
        data = out.read_bytes() if rc == 0 else b""
        return {"key": out.name, "input": idx, "lat": [lat],
                "digest": wl.digest(data) if rc == 0 else f"exit:{rc}",
                "io": io_in + [len(data), data.count(b"\n")]}


class StreamWide:
    """Fixed-size blocks into one fresh `DecimatorState` per pass."""

    def __init__(self, plan, outdir: Path, cicdec):
        p = wl.STREAM
        x = [int(v) for v in Path(plan["input"]).read_text().split()]
        self.blocks = [x[i:i + p["block"]] for i in range(0, len(x), p["block"])]
        self.core = cicdec.core
        self.config = cicdec.core.CicConfig(p["stages"], p["rate"], p["delay"], p["bits"])
        self.out = outdir / "out.txt"

    def run(self) -> dict:
        state = self.core.DecimatorState(self.config)
        lat, ys = [], []
        for block in self.blocks:
            t0 = perf_counter()
            y = state.process_block(block)
            t1 = perf_counter()
            lat.append(t1 - t0)
            ys.extend(y)
        data = "".join(f"{v}\n" for v in ys).encode()
        self.out.write_bytes(data)
        return {"key": self.out.name, "lat": lat, "digest": wl.digest(data),
                "io": [0, 0, 0, 0]}


class Design:
    """`cicdec response` then `cicdec compensate`, cycling over the configs."""

    def __init__(self, plan, outdir: Path, cicdec):
        self.cli = cicdec.cli
        self.outdir = outdir
        self.configs = plan["configs"]
        self.k = 0

    def run(self) -> dict:
        idx = self.k % len(self.configs)
        self.k += 1
        n, r, m, fp = self.configs[idx]
        p = wl.DESIGN
        cfg = ["-N", str(n), "-R", str(r), "-M", str(m)]
        table = self.outdir / f"response-{idx}.csv"
        taps = self.outdir / f"taps-{idx}.txt"
        lat1, rc1, err1 = _call_cli(self.cli, ["response", *cfg, "--grid", str(p["grid"]),
                                               "--fp", repr(fp), "--out", str(table)])
        lat2, rc2, err2 = _call_cli(self.cli, ["compensate", *cfg, "--taps", str(p["taps"]),
                                               "--grid", str(p["comp_grid"]), "--out", str(taps)])
        ok = rc1 == 0 and rc2 == 0
        data = table.read_bytes() if ok else b""
        tap_text = taps.read_text() if ok else ""
        return {"key": table.name, "config": idx, "lat": [lat1 + lat2],
                "digest": wl.digest(data) if ok else f"exit:{rc1},{rc2}",
                "taps": tap_text, "stderr": err1 + err2,
                "io": [0, 0, len(data) + len(tap_text), data.count(b"\n") + tap_text.count("\n")]}


RUNNERS = {"cli-decimate": CliFile, "stream-wide": StreamWide, "design": Design,
           "chipsim": CliFile}


def _request(runner, k: int) -> dict:
    try:
        return runner.run()
    except Exception:   # one failed request must not end the run
        traceback.print_exc(file=sys.stderr)
        return {"key": None, "lat": [0.0], "digest": f"error:{k}", "io": [0, 0, 0, 0]}


def _loop(runner, seconds: float, first: int, rec=None, probe=None) -> list[dict]:
    """Requests for `seconds`.  With `probe` = (argv, count, times), also run
    the set-up probe `count` times, evenly spread, between requests."""
    records = []
    t0 = perf_counter()
    t_end = t0 + seconds
    next_probe = t0
    k = first
    while True:
        if rec is not None:
            rec.current_op = k
        records.append(_request(runner, k))
        if rec is not None:
            rec.settle()
        k += 1
        if probe is not None and len(probe[2]) < probe[1] and perf_counter() >= next_probe:
            argv, count, times = probe
            times.append(_probe(argv))
            next_probe = max(next_probe + seconds / count, perf_counter())
        if perf_counter() >= t_end:
            return records


def _probe(argv: list[str]) -> float:
    """Wall time of one set-up probe interpreter; this process waits, idle."""
    t0 = perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms.
    subprocess.run(argv, check=True)
    return perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--untraced", type=float, required=True)
    ap.add_argument("--traced", type=float, default=0.0)
    ap.add_argument("--spans", help="write traced spans to this CSV file")
    ap.add_argument("--result", required=True)
    ap.add_argument("--probe", help="JSON argv of the set-up probe to run during the untraced phase")
    ap.add_argument("--probes", type=int, default=0, help="how many set-up probes to run")
    args = ap.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text())
    sys.path.insert(0, plan["src"])
    import cicdec.cli  # noqa: F401  (loads every layer)
    if not Path(cicdec.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        print(f"cicdec imported from {cicdec.__file__}, not {plan['src']}", file=sys.stderr)
        return 2

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = RUNNERS[plan["workload"]](plan, outdir, cicdec)
    result = {"warmup": _loop(runner, WARMUP_S, 0)}
    first = len(result["warmup"])
    result["setup_s"] = []
    probe = (json.loads(args.probe), args.probes, result["setup_s"]) if args.probe else None
    result["untraced"] = (_loop(runner, args.untraced, first, probe=probe)
                          if args.untraced > 0 else [])
    if args.traced > 0:
        import tracing
        rec = tracing.Recorder()
        uninstall = tracing.install(rec)
        try:
            traced = _loop(runner, args.traced, first + len(result["untraced"]), rec)
        finally:
            uninstall()
        result["traced"] = traced
        result["layers"] = tracing.layer_metrics(rec, len(traced))
        if args.spans:
            rec.write_csv(args.spans)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
