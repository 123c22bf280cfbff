"""Seeded inputs, expected outputs and output checks for the four workloads.

Everything here runs in the benchmark's parent process, outside every timed
region.  The same seed always gives byte-identical input files.

Workloads (one caller, closed loop; a *request* is the unit that is timed):

- ``cli-decimate``: ``cicdec decimate -N 2 -R 50 -B 8`` in-process on 1M
  samples split into 10 text files of 100k; request = one ``cli.main`` call
  on one file, cycling over the files.
- ``stream-wide``: ``DecimatorState(CicConfig(6, 4096, 2, 24)).process_block``
  on fixed 1000-sample blocks (W = 102); request = one ``process_block`` call,
  and a *pass* feeds the whole stream through one fresh state.
- ``design``: ``cicdec response --grid 100001 --fp ...`` then
  ``cicdec compensate --taps 63 --grid 2001`` for a seeded config; request =
  the pair.
- ``chipsim``: ``cicdec chipsim -N 5 -R 64 -B 16 --rmax 4096`` on 200k cycles
  split into 10 pin traces of 20k, each with one seeded rate load; request =
  one ``cli.main`` call on one trace, cycling over the traces.

Files are short so that a run holds well over a hundred requests: the
latency percentiles then rest on many samples, not on a dozen.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-decimate", "stream-wide", "design", "chipsim")

DECIMATE = {"stages": 2, "rate": 50, "bits": 8, "files": 10, "samples": 100_000}
STREAM = {"stages": 6, "rate": 4096, "delay": 2, "bits": 24, "block": 1000, "blocks": 262}
DESIGN = {"configs": 4, "grid": 100_001, "taps": 63, "comp_grid": 2001}
CHIP = {"stages": 5, "rate": 64, "bits": 16, "rmax": 4096, "files": 10, "cycles": 20_000,
        "nd_share": 0.8}

# Rows of each response table compared against magnitude/phase, besides the
# first, the last and every exact null.
SAMPLED_ROWS = 200
# A vectorized frequency grid may move f by an ulp; near a null that shifts
# the dB level by ~1e-7 dB, so the comparison allows 1e-6 dB.
MAG_DB_TOL = 1e-6
PHASE_REL_TOL = 1e-9


def digest(data: bytes) -> str:
    """Digest that the worker records per request and the checks compare."""
    return hashlib.sha256(data).hexdigest()


def boxcar_taps(length: int, order: int) -> list[int]:
    """Exact taps of `order` all-ones kernels convolved, by running sums.

    Same result as ``cicdec.core.boxcar_power``, whose direct convolution
    needs minutes at D = 8192; each pass here is linear in the tap count.
    """
    taps = [1]
    for _ in range(order):
        out, acc = [], 0
        for i in range(len(taps) + length - 1):
            if i < len(taps):
                acc += taps[i]
            if i >= length:
                acc -= taps[i - length]
            out.append(acc)
        taps = out
    return taps


def reference(core, config, samples) -> list[int]:
    """``core.reference_decimate`` with its tap table built by `boxcar_taps`."""
    original = core.boxcar_power
    core.boxcar_power = boxcar_taps
    try:
        return core.reference_decimate(config, samples)
    finally:
        core.boxcar_power = original


def _ints_text(values) -> bytes:
    return "".join(f"{v}\n" for v in values).encode()


# ---------------------------------------------------------------- generation

def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the seeded inputs for `workload` into `workdir`; return the plan."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed}
    if workload == "cli-decimate":
        p = DECIMATE
        lo = -(1 << (p["bits"] - 1))
        inputs = []
        for k in range(p["files"]):
            x = rng.integers(lo, -lo, size=p["samples"]).tolist()
            header = (f"# cli-decimate seed={seed} file={k} "
                      f"N={p['stages']} R={p['rate']} B={p['bits']}\n")
            path = workdir / f"samples-{k}.txt"
            path.write_bytes(header.encode() + _ints_text(x))
            inputs.append(str(path))
        plan.update(inputs=inputs, items=p["samples"])
    elif workload == "stream-wide":
        p = STREAM
        lo = -(1 << (p["bits"] - 1))
        x = rng.integers(lo, -lo, size=p["block"] * p["blocks"]).tolist()
        path = workdir / "stream.txt"
        path.write_bytes(_ints_text(x))
        plan.update(input=str(path), items=p["block"])
    elif workload == "design":
        configs = []
        for _ in range(DESIGN["configs"]):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(8, 513))
            m = int(rng.integers(1, 3))
            fp = float(f"{rng.uniform(0.1, 0.9) / (2 * r):.6g}")
            configs.append([n, r, m, fp])
        plan.update(configs=configs, items=1)
    elif workload == "chipsim":
        inputs, loads = [], []
        for k in range(CHIP["files"]):
            path, load = _write_trace(rng, f"seed={seed} file={k}", workdir / f"trace-{k}.txt")
            inputs.append(str(path))
            loads.append(load)
        plan.update(inputs=inputs, loads=loads, items=CHIP["cycles"] + CHIP["stages"] + 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def _write_trace(rng, label: str, path: Path):
    """Pin trace: `nd` high on ~80% of cycles, one rate load near the middle."""
    p = CHIP
    n = p["cycles"]
    nd = (rng.random(n) < p["nd_share"]).tolist()
    din = rng.integers(-(1 << (p["bits"] - 1)), 1 << (p["bits"] - 1), size=n).tolist()
    jitter = n // 10
    cycle = n // 2 + int(rng.integers(-jitter, jitter + 1))
    loads = {cycle: int(rng.integers(1, p["rmax"] + 1))}
    lines = [f"# chipsim {label}\n"]
    for c in range(n):
        d = str(din[c]) if nd[c] else "-"
        ld = str(loads[c]) if c in loads else "-"
        lines.append(f"{int(nd[c])} {d} {int(c in loads)} {ld}\n")
    path.write_text("".join(lines))
    return path, sorted([c, r] for c, r in loads.items())


# ------------------------------------------------------------ expected values

def expected(workload: str, plan: dict, cicdec) -> dict:
    """Exact outputs for the plan, from the program's own oracles."""
    core = cicdec.core
    if workload == "cli-decimate":
        p = DECIMATE
        cfg = core.CicConfig(p["stages"], p["rate"], 1, p["bits"])
        return [{"text": _ints_text(reference(core, cfg, _read_samples(path)))}
                for path in plan["inputs"]]
    if workload == "stream-wide":
        p = STREAM
        cfg = core.CicConfig(p["stages"], p["rate"], p["delay"], p["bits"])
        return {"text": _ints_text(reference(core, cfg, _read_samples(plan["input"])))}
    if workload == "design":
        a = cicdec.analysis
        out = []
        for n, r, m, fp in plan["configs"]:
            cfg = core.CicConfig(n, r, m)
            out.append({"config": (n, r, m, fp), "droop_db": a.passband_droop(cfg, fp),
                        "alias_db": a.alias_attenuation(cfg, fp)})
        return out
    if workload == "chipsim":
        return [_chip_expected(path, loads, core)
                for path, loads in zip(plan["inputs"], plan["loads"])]
    raise ValueError(f"unknown workload {workload!r}")


def _read_samples(path) -> list[int]:
    text = Path(path).read_text()
    return [int(v) for v in text.split("\n") if v and not v.startswith("#")]


def _chip_expected(trace_path: str, trace_loads: list, core) -> dict:
    """rdy cycles and dout values: one reference run per rate segment.

    Segments split at load cycles; the `nd` sample of a load cycle never
    reaches the core, and the core restarts at the loaded rate.
    """
    p = CHIP
    latency = p["stages"] + 1
    loads = dict(trace_loads)
    rate, seg, seg_cycles = p["rate"], [], []
    rdy_cycles, douts = [], []

    def close_segment():
        cfg = core.CicConfig(p["stages"], rate, 1, p["bits"])
        ys = reference(core, cfg, seg)
        douts.extend(ys)
        rdy_cycles.extend(seg_cycles[(k + 1) * rate - 1] + latency for k in range(len(ys)))

    with open(trace_path) as fh:
        cycle = 0
        for line in fh:
            if line.startswith("#"):
                continue
            nd, din, _, _ = line.split()
            if cycle in loads:
                close_segment()
                rate, seg, seg_cycles = loads[cycle], [], []
            elif nd == "1":
                seg.append(int(din))
                seg_cycles.append(cycle)
            cycle += 1
    close_segment()
    return {"cycles": cycle + latency, "rdy_cycles": rdy_cycles, "douts": douts,
            "load_cycles": sorted(loads)}


# --------------------------------------------------------------- output checks

def score(workload: str, want, records: list[dict], outdir: Path, cicdec) -> tuple[int, int]:
    """(attempted, failed) requests.  A request fails unless its output checks.

    The worker records a digest of every request's output and leaves the last
    output for each input in `outdir`; that file is checked in full, and every
    request on the same input must have produced exactly the same bytes.
    """
    verified: dict[str, str | None] = {}
    attempted = failed = 0
    for rec in records:
        attempted += len(rec["lat"])
        if not _request_ok(workload, rec, want, outdir, verified, cicdec):
            failed += len(rec["lat"])
    return attempted, failed


def _request_ok(workload, rec, want, outdir: Path, verified, cicdec) -> bool:
    key = rec["key"]
    if key is None:
        return False
    if key not in verified:
        path = outdir / key
        data = path.read_bytes() if path.is_file() else None
        ok = data is not None and _output_ok(workload, data, want, rec, cicdec)
        verified[key] = digest(data) if ok else None
    if rec["digest"] != verified[key]:
        return False
    if workload == "design":
        return (check_taps(rec["taps"], DESIGN["taps"])
                and check_design_stderr(rec["stderr"], want[rec["config"]]))
    return True


def _output_ok(workload, data: bytes, want, rec, cicdec) -> bool:
    if workload == "stream-wide":
        return data == want["text"]
    if workload == "cli-decimate":
        return data == want[rec["input"]]["text"]
    if workload == "chipsim":
        return _check_pins(data, want[rec["input"]])
    n, r, m, _ = want[rec["config"]]["config"]
    return check_response_table(data, cicdec.core.CicConfig(n, r, m), cicdec.analysis,
                                DESIGN["grid"])


def _check_pins(data: bytes, want: dict) -> bool:
    """Cycle numbering, rfd low exactly on loads, rdy cycles and dout values."""
    rows = data.decode().splitlines()
    if len(rows) != want["cycles"]:
        return False
    load_cycles = set(want["load_cycles"])
    rdy_cycles, douts = [], []
    for c, row in enumerate(rows):
        fields = row.split()
        if len(fields) != 4 or fields[0] != str(c):
            return False
        if fields[3] != ("0" if c in load_cycles else "1"):
            return False
        if fields[1] == "1":
            rdy_cycles.append(c)
            douts.append(int(fields[2]))
        elif fields[1] != "0":
            return False
    return rdy_cycles == want["rdy_cycles"] and douts == want["douts"]


def check_response_table(data: bytes, config, analysis, grid: int) -> bool:
    """Header, row count, sampled rows against magnitude/phase, exact nulls."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != "f,mag_db,phase_rad" or len(lines) != grid + 1:
        return False
    d = config.kernel_length
    step = 2 * (grid - 1)   # grid point i is f = i / step
    nulls = {k * step // d for k in range(1, d // 2 + 1) if (k * step) % d == 0}
    rng = np.random.default_rng(grid)
    picks = {0, grid - 1} | nulls | set(rng.integers(0, grid, SAMPLED_ROWS).tolist())
    for i in sorted(picks):
        try:
            f, mag_db, ph = (float(v) for v in lines[i + 1].split(","))
        except ValueError:
            return False
        f_exact = 0.5 * i / (grid - 1)
        if not math.isclose(f, f_exact, rel_tol=1e-11, abs_tol=1e-15):
            return False
        if i in nulls:
            if mag_db != analysis.DB_FLOOR:
                return False
        elif abs(mag_db - analysis.to_db(analysis.magnitude(config, f_exact))) > MAG_DB_TOL:
            return False
        if not math.isclose(ph, analysis.phase(config, f_exact),
                            rel_tol=PHASE_REL_TOL, abs_tol=1e-12):
            return False
    return True


def check_taps(text: str, count: int) -> bool:
    """`count` finite taps that read the same backwards."""
    try:
        taps = [float(v) for v in text.split()]
    except ValueError:
        return False
    return (len(taps) == count and all(math.isfinite(t) for t in taps)
            and taps == taps[::-1])


def check_design_stderr(text: str, want: dict) -> bool:
    """droop_db/alias_db printed by `response` match the analysis to 2 places."""
    fields = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
    try:
        droop, alias = float(fields["droop_db"]), float(fields["alias_db"])
        deviation = float(fields["deviation_db"])
    except (KeyError, ValueError):
        return False
    return (abs(droop - want["droop_db"]) <= 0.005 + 1e-9
            and abs(alias - want["alias_db"]) <= 0.005 + 1e-9
            and math.isfinite(deviation))
