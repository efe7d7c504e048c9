"""The closed loop: one caller runs whole cycles of ops and checks each result.

Each op is one public hdivkit call timed with ``perf_counter``; its inputs
are made before and its checks run after the timed interval.  The loop runs
whole cycles until the timed ops add up to the requested seconds, so every
run of a workload holds the same multiset of ops.

Right after each op the reference kernel (``reference.py``) is timed a few
times; an op's time divided by the kernel's time around it is the op's cost
in ``ref`` units, which does not drift with the host as the seconds do.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import oracle, workloads
from .reference import reference_kernel


@dataclass
class OpRecord:
    cycle: int
    template: str
    call: str
    seconds: float | None  # None when the call never ran
    error: str | None = None
    checks: list = field(default_factory=list)
    known_defect: str | None = None
    ref: list = field(default_factory=list)  # reference-kernel times right after the op

    @property
    def ok(self):
        return self.error is None and all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "cycle": self.cycle,
            "template": self.template,
            "call": self.call,
            "seconds": self.seconds,
            "ok": self.ok,
            "error": self.error,
            "known_defect": self.known_defect,
            "checks": [c.as_dict() for c in self.checks],
            "ref_s": self.ref,
        }


REF_SAMPLES = 3


def cycle_plan(name, rng):
    """The workload's templates in a seeded order."""
    templates = workloads.WORKLOADS[name].templates
    return [templates[i] for i in rng.permutation(len(templates))]


def make_cycle_inputs(name, meshes, rng, tracer=None):
    return [
        (t, workloads.make_inputs(t, meshes[t.mesh], rng, tracer)) for t in cycle_plan(name, rng)
    ]


def run_cycle(name, meshes, plan, cycle, tracer=None):
    """Run one cycle of (template, inputs); returns its op records."""
    labels = {key: spec[2] for key, spec in workloads.WORKLOADS[name].meshes.items()}
    pause = tracer.paused if tracer is not None else nullcontext
    records = []
    for t, x in plan:
        mesh = meshes[t.mesh]
        prev = None
        for i, call in enumerate(t.calls):
            rec = OpRecord(cycle, t.name, call, None)
            records.append(rec)
            if prev is None and i > 0:
                rec.error = "skipped: the chain's first call failed"
                continue
            if tracer is not None:
                tracer.op = len(records) - 1
            span = tracer.span("op") if tracer is not None and tracer.active else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    result = workloads.call(call, t, mesh, x, prev)
            except Exception as exc:  # a raising op is a counted failure, not a crash
                rec.seconds = time.perf_counter() - t0
                rec.ref = [reference_kernel() for _ in range(REF_SAMPLES)]
                rec.error = f"{type(exc).__name__}: {exc}"
                error_type = type(exc).__name__
                prev = None
            else:
                rec.seconds = time.perf_counter() - t0
                rec.ref = [reference_kernel() for _ in range(REF_SAMPLES)]
                with pause():
                    rec.checks = oracle.check(call, t, x, result, mesh)
                error_type = None
                prev = result
            if not rec.ok:
                failed = [c.name for c in rec.checks if not c.passed]
                rec.known_defect = oracle.known_defect(call, t, labels[t.mesh], error_type, failed)
    return records


def run_timed(name, meshes, seed, seconds):
    """Whole cycles until the timed ops reach ``seconds`` (at least one)."""
    rng = np.random.default_rng(seed)
    records = []
    busy = 0.0
    cycle = 0
    while cycle == 0 or busy < seconds:
        plan = make_cycle_inputs(name, meshes, rng)
        recs = run_cycle(name, meshes, plan, cycle)
        busy += sum(r.seconds for r in recs if r.seconds is not None)
        records += recs
        cycle += 1
    return records


def tail(times):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or fewer no
    such percentile exists and the median stands in.
    """
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return float(np.median(xs)), 50.0, n // 2
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def ref_costs(records):
    """Each timed op's seconds over the median reference time around it: the
    samples taken after the op before it, after it, and after the next."""
    timed = [r for r in records if r.seconds is not None]
    out = []
    for i, r in enumerate(timed):
        near = [x for rr in timed[max(i - 1, 0) : i + 2] for x in rr.ref]
        out.append(r.seconds / float(np.median(near)))
    return timed, out


def _tail_over_cycles(samples):
    """Tail within each cycle, median over cycles, so it names the same
    percentile however many cycles a run fits."""
    per_cycle = {}
    for cycle, x in samples:
        per_cycle.setdefault(cycle, []).append(x)
    tails = [tail(xs) for xs in per_cycle.values()]
    if not tails:
        return float("nan"), 0.0, 0, 0
    _, pct, beyond = tails[0]
    return float(np.median([v for v, _, _ in tails])), pct, beyond, len(per_cycle)


def summarize(records):
    """End-to-end figures of the op stream (all but set-up time and memory),
    in seconds and in reference-kernel units."""
    timed, costs = ref_costs(records)
    done = [(r, c) for r, c in zip(timed, costs) if r.error is None]
    passed = sum(r.ok for r in records)
    failed = len(records) - passed
    busy = sum(r.seconds for r in timed)
    tail_s, pct, beyond, cycles = _tail_over_cycles((r.cycle, r.seconds) for r, _ in done)
    tail_ref = _tail_over_cycles((r.cycle, c) for r, c in done)[0]
    nan = float("nan")
    return {
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "unexplained_failures": sum(not r.ok and r.known_defect is None for r in records),
        "op_p50_s": float(np.median([r.seconds for r, _ in done])) if done else nan,
        "op_tail_s": tail_s,
        "ops_per_s": passed / busy if busy > 0 else 0.0,
        "op_p50_ref": float(np.median([c for _, c in done])) if done else nan,
        "op_tail_ref": tail_ref,
        "ops_per_ref": passed / sum(costs) if costs else 0.0,
        "ref_kernel_s": float(np.median([x for r in timed for x in r.ref])) if timed else nan,
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "op_samples": len(done),
        "cycles": cycles,
        "timed_s": busy,
    }
