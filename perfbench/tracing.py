"""Spans and counters around the calls into each cicdec layer.

`install` replaces each public function with a wrapper in every module that
looks it up (``cicdec.cli.response_curve`` as well as
``cicdec.analysis.response_curve``) and patches the ``DecimatorState`` and
``FirFilter`` methods on their classes, so no file under ``src/`` changes.
A span records its name, the request it belongs to, its parent span, and
its start and end on ``time.perf_counter``.  Spans stay in flat arrays in
memory and are written out once, after the run.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# Span name -> (home module, attribute).  Each wrapper is installed in every
# cicdec module whose attribute is the same object.
SPANNED = {
    "cli.main": ("cicdec.cli", "main"),
    "analysis.response_curve": ("cicdec.analysis", "response_curve"),
    "analysis.passband_droop": ("cicdec.analysis", "passband_droop"),
    "analysis.alias_attenuation": ("cicdec.analysis", "alias_attenuation"),
    "compensator.design_compensator": ("cicdec.compensator", "design_compensator"),
    "compensator.passband_deviation_db": ("cicdec.compensator", "passband_deviation_db"),
    "chip.run_trace": ("cicdec.chip", "run_trace"),
}
# Counters reported per op; a layer the workload never calls reads 0.
PER_OP_COUNTS = ("core.samples_in", "core.samples_out", "core.push.calls",
                 "analysis.response_curve.points", "analysis.magnitude.calls",
                 "compensator.response_at.calls", "chip.cycles", "chip.rdy",
                 "chip.rfd_low", "chip.nd_dropped")
MODULES = ("cicdec", "cicdec.core", "cicdec.analysis", "cicdec.compensator",
           "cicdec.chip", "cicdec.cli")


class Recorder:
    """Flat span arrays plus named counters for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = 0
        self.in_block = 0
        self.counts: dict[str, float] = {}
        self._pending = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def defer(self, fn, *args) -> None:
        """Run `fn(self, *args)` at the next `settle`, outside every span."""
        self._pending.append((fn, args))

    def settle(self) -> None:
        pending, self._pending = self._pending, []
        for fn, args in pending:
            fn(self, *args)

    def write_csv(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("id,op,parent,name,start_s,end_s\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.op[i]},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


def _span(rec: Recorder, name: str, fn, after=None):
    nid = rec.name_id(name)

    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            rec.defer(after, args, result)
        return result

    return wrapper


def _after_response_curve(rec, args, result):
    rec.count("analysis.response_curve.points", len(result.freqs))


def _after_run_trace(rec, args, outputs):
    trace = args[1]
    rec.count("chip.cycles", len(outputs))
    rec.count("chip.rdy", sum(1 for o in outputs if o.rdy))
    rec.count("chip.rfd_low", sum(1 for o in outputs if not o.rfd))
    rec.count("chip.nd_dropped", sum(1 for p in trace if p.we and p.nd))


def _after_block(rec, args, result):
    state, samples = args
    rec.count("core.samples_in", len(samples))
    rec.count("core.samples_out", len(result))
    rec.counts["core.width_bits"] = max(rec.counts.get("core.width_bits", 0), state.width)


def install(rec: Recorder):
    """Wrap every traced name; return a function that restores the originals."""
    mods = [sys.modules[m] for m in MODULES]
    restore = []

    def patch(owner, attr, new):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_everywhere(home, attr, make):
        original = getattr(sys.modules[home], attr)
        wrapper = make(original)
        for m in mods:
            if getattr(m, attr, None) is original:
                patch(m, attr, wrapper)

    after = {"analysis.response_curve": _after_response_curve,
             "chip.run_trace": _after_run_trace}
    for name, (home, attr) in SPANNED.items():
        patch_everywhere(home, attr, lambda fn, n=name: _span(rec, n, fn, after.get(n)))

    def counted(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                rec.count(name)
                return fn(*args, **kwargs)
            return wrapper
        return make

    patch_everywhere("cicdec.analysis", "magnitude", counted("analysis.magnitude.calls"))
    fir = sys.modules["cicdec.compensator"].FirFilter
    patch(fir, "response_at", counted("compensator.response_at.calls")(fir.response_at))

    state_cls = sys.modules["cicdec.core"].DecimatorState
    block_span = _span(rec, "core.process_block", state_cls.process_block, _after_block)
    push, push_id = state_cls.push, rec.name_id("core.push")

    def process_block(self, samples):
        rec.in_block += 1
        try:
            return block_span(self, samples)
        finally:
            rec.in_block -= 1

    def push_wrapper(self, x):
        rec.count("core.push.calls")
        if rec.in_block:
            # Pushes made by process_block are core-internal: counted only.
            return push(self, x)
        i = rec.open(push_id)
        try:
            y = push(self, x)
        finally:
            rec.close(i)
        rec.count("core.samples_in")
        if y is not None:
            rec.count("core.samples_out")
        if self.width > rec.counts.get("core.width_bits", 0):
            rec.counts["core.width_bits"] = self.width
        return y

    patch(state_cls, "process_block", process_block)
    patch(state_cls, "push", push_wrapper)

    def uninstall():
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

    return uninstall


def layer_metrics(rec: Recorder, ops: int) -> dict[str, float]:
    """Per-op span times (ms) and counts from one traced phase."""
    total = dict.fromkeys(rec.names, 0.0)
    own = dict.fromkeys(rec.names, 0.0)
    calls = dict.fromkeys(rec.names, 0)
    for i, self_s in enumerate(self_times(rec.parent, rec.start, rec.end)):
        name = rec.names[rec.name[i]]
        total[name] += rec.end[i] - rec.start[i]
        own[name] += self_s
        calls[name] += 1
    out = {f"{name}.ms": 1e3 * t / ops for name, t in total.items()}
    out.update({name: rec.counts.get(name, 0) / ops for name in PER_OP_COUNTS})
    samples_in = rec.counts.get("core.samples_in", 0)
    cycles = rec.counts.get("chip.cycles", 0)
    core_s = total["core.process_block"] + total["core.push"]
    out.update({
        "core.process_block.calls": calls["core.process_block"] / ops,
        "core.width_bits": rec.counts.get("core.width_bits", 0),
        "core.ns_per_sample": 1e9 * core_s / samples_in if samples_in else 0.0,
        "cli.self_ms": 1e3 * own["cli.main"] / ops,
        "chip.self_ms": 1e3 * own["chip.run_trace"] / ops,
        "chip.ns_per_cycle": 1e9 * total["chip.run_trace"] / cycles if cycles else 0.0,
    })
    return out
