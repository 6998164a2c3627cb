"""One long-lived besselsix session: the in-process workloads.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package sources.
It imports besselsix, runs the workload's set-up, prints a ``ready`` line
(the parent takes set-up time from process start to that line), then runs
identical ops for the given number of seconds and prints one JSON result
line.  Output checks run outside the timed ops; the run-level checks run
after peak RSS has been read.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import besselsix
from besselsix import certify, core_integrals

import reference
import tracing

OUT = Path(__file__).resolve().parent / "out"


class SessionWarm:
    """Re-evaluate a fixed set of cells whose rows set-up has cached."""

    CELLS = (("I0", 0, 7), ("I1", 0, 7), ("I0", 2, 7), ("I1", 2, 7))
    ORDERS = (0, 1, 2, 7, 9)  # the orders those cells read
    enclosures_per_op = len(CELLS)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.oracle_points = [(rng.choice(self.ORDERS), rng.uniform(0.5, 500.0)) for _ in range(8)]
        self.oracle_points += [(rng.choice(self.ORDERS), rng.uniform(500.0, 63000.0)) for _ in range(8)]

    def setup(self) -> None:
        self.op()

    def op(self):
        return [besselsix.integral(v, m, n) for v, m, n in self.CELLS]

    def op_ok(self, values) -> bool:
        return all(
            reference.quadrature_ok(v, m, n, float(x.mid), float(x.rad))
            for (v, m, n), x in zip(self.CELLS, values)
        )

    def run_ok(self) -> bool:
        return reference.bessel_oracle_ok(self.oracle_points, besselsix.bessel_j)


class Analytic:
    """Sweep predict, check_theorem and core_bound_breakdown over a block
    of large-order cells."""

    M = (0, 2, 4, 6, 8)
    STRATA, STRIDE = 40, 10  # one n per stride-10 stratum of [20, 420)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ns = [20 + self.STRIDE * k + rng.randrange(self.STRIDE) for k in range(self.STRATA)]
        self.cells = [(m, n, v) for v in ("I0", "I1") for m in self.M for n in ns]
        self.enclosures_per_op = len(self.cells)

    def setup(self) -> None:
        self.op()

    def op(self):
        out = []
        for m, n, v in self.cells:
            p = certify.predict(m, n, v)
            passed = certify.check_theorem(m, n, v, besselsix.CertifiedValue(p.main.to_real(), p.radius)).passed
            core_integrals.core_bound_breakdown(m, n, v)
            out.append((p.radius, p.budget, passed))
        return out

    def op_ok(self, out) -> bool:
        return all(
            passed
            and radius <= reference.allowance(v, m, n)
            and radius == sum(value for _, value in budget)
            for (m, n, v), (radius, budget, passed) in zip(self.cells, out)
        )

    def run_ok(self) -> bool:
        """The two routes meet at the bridge cell (0, 20, I0)."""
        p = certify.predict(0, 20, "I0")
        q = besselsix.integral("I0", 0, 20)
        return abs(p.main.to_real() - float(q.mid)) <= p.radius + float(q.rad)


WORKLOADS = {"session-warm": SessionWarm, "analytic": Analytic}


def attempt(op):
    """Run one op; an op that raises is a failed op, not the end of the run."""
    try:
        return op()
    except Exception:
        traceback.print_exc()
        return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work.setup()
    print(json.dumps({"event": "ready"}), flush=True)
    if args.setup_only:
        return

    def checked(out) -> bool:
        return out is not None and work.op_ok(out)

    walls, cpu, failed, traced_walls = [], 0.0, 0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        if tracer:
            tracer.uninstall()
        c0, t0 = time.process_time(), time.perf_counter()
        out = attempt(work.op)
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpu += c1 - c0
        failed += not checked(out)
        if tracer:
            tracer.install()
            t0 = time.perf_counter()
            out = attempt(lambda: tracer.run_op(len(traced_walls), work.op))
            traced_walls.append(time.perf_counter() - t0)
            failed += not checked(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {
        "event": "result",
        "attempted": len(walls) + len(traced_walls),
        "failed": failed,
        "op_s": walls,
        "enclosures": work.enclosures_per_op * len(walls),
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        peaks = tracer.row_bytes_peak
        per_op = [tracing.layer_metrics(tracer.spans, k, peaks.get(k, 0)) for k in range(len(traced_walls))]
        first_use = tracing.layer_metrics(tracer.spans, "setup", peaks.get("setup", 0))
        result["layers"] = tracing.combine(per_op, first_use)
        result["traced_op_s"] = traced_walls
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    result["run_ok"] = bool(attempt(work.run_ok))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
