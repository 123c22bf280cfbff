"""cicdec benchmark: one workload, one seed, one run; prints every metric.

    python3 perfbench/run.py --workload cli-decimate --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
benchmark writes the seeded inputs, computes the expected outputs with the
program's own oracles, then starts one worker interpreter that issues
requests in a closed loop for ``--seconds``; with ``--trace 0`` the worker
also times set-up in fresh interpreters, spread over the run.  Every output
is checked after the worker ends.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, measured
with tracing off.  ``--trace 1`` spends half the time untraced and half
traced and prints the per-layer metrics, including the tracing overhead;
spans go to ``.perfbench/results/``.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS and OpenMP pools are pinned to one thread for every timed process
(``design_compensator``'s ``lstsq`` stalls under the 2-thread OpenBLAS
default); the traced ``design`` run also measures the compensator once more
with the default threading.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Before numpy is imported here or in any child.
os.environ.update({v: "1" for v in THREAD_VARS})
# Children may use (and write) bytecode caches, as an installed cicdec would.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up probes, spread over the timed loop by the worker: a shared host's
# speed drifts over tens of seconds, and one batch would see only one state.
SETUP_PROBES = 16
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own ``.git``, without searching parent directories."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(ROOT),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas_name, "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def setup_argv(plan: dict) -> list[str]:
    """Probe arguments that build the workload's config, state or chip objects."""
    import workloads as wl
    w = plan["workload"]
    if w == "cli-decimate":
        p = wl.DECIMATE
        return ["state", f"{p['stages']},{p['rate']},1,{p['bits']}"]
    if w == "stream-wide":
        p = wl.STREAM
        return ["state", f"{p['stages']},{p['rate']},{p['delay']},{p['bits']}"]
    if w == "design":
        return ["config"] + [f"{n},{r},{m},16" for n, r, m, _ in plan["configs"]]
    p = wl.CHIP
    return ["chip", f"{p['stages']},{p['rate']},1,{p['bits']},{p['rmax']}"]


def probe_argv(plan: dict) -> list[str]:
    """A fresh interpreter that imports cicdec and builds the workload's objects."""
    return [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + setup_argv(plan)


def run_worker(plan_path: Path, outdir: Path, result: Path, untraced: float,
               traced: float, spans: Path | None, env: dict, deadline: float,
               probe: list[str] | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
           "--outdir", str(outdir), "--result", str(result),
           "--untraced", repr(untraced), "--traced", repr(traced)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if probe is not None:
        cmd += ["--probe", json.dumps(probe), "--probes", str(SETUP_PROBES)]
    timeout = max(deadline - perf_counter(), 1.0)
    subprocess.run(cmd, check=True, env=env, timeout=timeout)
    return json.loads(result.read_text())


def latencies(records: list[dict]) -> list[float]:
    return [t for rec in records for t in rec["lat"]]


def end_to_end(res: dict) -> dict[str, float]:
    lat = latencies(res["untraced"])
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def per_layer(res: dict, blas_default: dict | None) -> dict[str, float]:
    traced = res["traced"]
    out = dict(res["layers"])
    io = [sum(rec["io"][k] for rec in traced) / len(traced) for k in range(4)]
    out.update({"cli.bytes_in": io[0], "cli.lines_in": io[1],
                "cli.bytes_out": io[2], "cli.lines_out": io[3]})
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(latencies(traced)) / statistics.median(latencies(res["untraced"])) - 1.0)
    out["compensator.design_compensator.ms_blas_default"] = (
        blas_default["layers"]["compensator.design_compensator.ms"] if blas_default else 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    # SIGTERM unwinds like an exception: subprocess.run kills the child it
    # waits on, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "cicdec" / "__init__.py").is_file():
        return _fail(f"no cicdec sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    import cicdec.cli  # noqa: F401
    if not Path(cicdec.__file__).resolve().is_relative_to(SRC):
        return _fail(f"cicdec imported from {cicdec.__file__}, not {SRC}")
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")

    env_block = environment(args)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        plan = wl.generate(args.workload, args.seed, workdir)
        plan["src"] = str(SRC)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        want = wl.expected(args.workload, plan, cicdec)

        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        runs = []   # (worker result, output directory)
        if args.trace == 0:
            # Not counted: this one may still write bytecode caches.
            subprocess.run(probe_argv(plan), check=True)
            res = run_worker(plan_path, workdir / "out", workdir / "result.json",
                             args.seconds, 0.0, None, dict(os.environ), deadline,
                             probe_argv(plan))
            runs.append((res, workdir / "out"))
            metrics = end_to_end(res)
            specs = spec["end_to_end"]
        else:
            half = args.seconds / 2
            res = run_worker(plan_path, workdir / "out", workdir / "result.json", half, half,
                             results_dir / f"{args.workload}.spans.csv",
                             dict(os.environ), deadline)
            runs.append((res, workdir / "out"))
            blas_default = None
            if args.workload == "design":
                env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
                blas_default = run_worker(plan_path, workdir / "out-blas", workdir / "blas.json",
                                          0.0, half, None, env, deadline)
                runs.append((blas_default, workdir / "out-blas"))
            metrics = per_layer(res, blas_default)
            specs = spec["per_layer"]

        attempted = failed = 0
        for res_k, outdir in runs:
            records = res_k["warmup"] + res_k["untraced"] + res_k.get("traced", [])
            a, f = wl.score(args.workload, want, records, outdir, cicdec)
            attempted += a
            failed += f
    except subprocess.CalledProcessError as exc:
        return _fail(f"worker failed with exit code {exc.returncode}")
    except subprocess.TimeoutExpired:
        return _fail("worker exceeded the run deadline")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not computed: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs}
    summary = {"env": env_block, "attempted": attempted, "failed": failed,
               "error_rate": failed / attempted, "metrics": out,
               "items_per_request": plan["items"],
               "setup_probes_s": runs[0][0].get("setup_s", []),
               "latencies_s": {phase: latencies(records) for phase, records in runs[0][0].items()
                               if phase in ("warmup", "untraced", "traced")}}
    (results_dir / f"{tag}.json").write_text(json.dumps(summary, indent=1))

    print("env " + json.dumps(env_block))
    print(f"{args.workload}: {attempted} requests, {failed} failed, "
          f"error_rate {failed / attempted:.6g}")
    for name, m in out.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
