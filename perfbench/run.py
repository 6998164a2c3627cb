"""besselsix benchmark: run one workload, or all of them, and print the result.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli-cold, table-band, session-warm, analytic, or ``all``.
Every run drives the package from ``src/`` in the checkout this file sits in,
one child process at a time.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the workload, the seed and the
raw op times.  See README.md in this directory for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

IMPORT_REPEATS = 5  # fresh interpreters, about 0.6 s each
SESSION_REPEATS = 3  # full session set-ups, up to 3 s each
CHILD_TIMEOUT_S = 120.0

# metric names and units, in the order they are printed
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# process-per-op workloads: (CLI arguments, enclosures per op, output check)
TABLE_ROWS = (7, 8, 9)
CLI_WORKLOADS = {
    "cli-cold": (
        ("integrate", "--variant", "0", "--m", "0", "--n", "7", "--json"),
        1,
        lambda out: _integrate_ok(out, "I0", 0, 7),
    ),
    "table-band": (
        ("table", "--rows", f"{TABLE_ROWS[0]}..{TABLE_ROWS[-1]}"),
        2 * sum(n // 2 + 1 for n in TABLE_ROWS),
        lambda out: reference.table_cells_ok(out, TABLE_ROWS),
    ),
}
SESSION_WORKLOADS = ("session-warm", "analytic")
WORKLOADS = tuple(CLI_WORKLOADS) + SESSION_WORKLOADS


def _integrate_ok(out: str, variant: str, m: int, n: int) -> bool:
    payload = json.loads(out)
    if (payload["variant"], payload["m"], payload["n"]) != (variant, m, n):
        return False
    return reference.quadrature_ok(variant, m, n, payload["mid"], payload["rad"])


def _env() -> dict:
    env = dict(os.environ)
    env.pop("BESSELSIX_WORKERS", None)  # the default, one worker
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Child:
    """One child process; stderr goes to a log file under ``out/``."""

    def __init__(self, argv, log_name: str):
        OUT.mkdir(exist_ok=True)
        self._log = open(OUT / log_name, "ab")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=_env(),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._timer.start()

    def readline(self) -> str:
        return self.proc.stdout.readline().decode()

    def finish(self):
        """Read the rest of stdout and reap; returns (stdout, wall_s, rusage)."""
        out = self.proc.stdout.read().decode()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._timer.cancel()
        self.proc.stdout.close()
        self._log.close()
        return out, wall, usage


def import_s(workload: str) -> float:
    _, wall, _ = Child(("-c", "import besselsix"), f"{workload}.log").finish()
    return wall


def import_scipy_s(workload: str) -> float:
    """The cumulative ``scipy.special`` line of ``-X importtime``, in s."""
    log = OUT / f"{workload}-importtime.log"
    log.unlink(missing_ok=True)
    Child(("-X", "importtime", "-c", "import besselsix"), log.name).finish()
    for line in log.read_text().splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*scipy\.special$", line)
        if match:
            return int(match.group(1)) / 1e6
    return 0.0


def cli_layers(workload: str) -> dict:
    return {
        "cli.import_s": statistics.median(import_s(workload) for _ in range(IMPORT_REPEATS)),
        "cli.import_scipy_s": import_scipy_s(workload),
    }


def run_cli(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    args, enclosures_per_op, check = CLI_WORKLOADS[workload]
    setups = [] if trace else [import_s(workload) for _ in range(IMPORT_REPEATS)]
    walls, cpu, rss, failed, traced_walls, per_op = [], 0.0, [], 0, [], []

    def op(argv):
        child = Child(argv, f"{workload}.log")
        out, wall, usage = child.finish()
        try:
            ok = child.proc.returncode == 0 and check(out)
        except (ValueError, KeyError):
            ok = False
        return wall, usage, ok

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, usage, ok = op(("-m", "besselsix", *args))
        walls.append(wall)
        cpu += usage.ru_utime + usage.ru_stime
        rss.append(usage.ru_maxrss * 1024 / 1e6)
        failed += not ok
        if trace:
            spans_file = OUT / f"trace-{workload}-{seed}-op{len(traced_walls)}.json"
            wall, _, ok = op((str(HERE / "traced_cli.py"), str(spans_file), *args))
            traced_walls.append(wall)
            failed += not ok
            dumped = json.loads(spans_file.read_text())
            peak = dict(map(tuple, dumped["row_bytes_peak"])).get(0, 0)
            per_op.append(tracing.layer_metrics(dumped["spans"], 0, peak))
    summary = {
        "attempted": len(walls) + len(traced_walls),
        "failed": failed,
        "op_s": walls,
        "enclosures": enclosures_per_op * len(walls),
        "cpu_s": cpu,
        "peak_rss_mb": max(rss),
        "run_ok": True,
        "setup_runs_s": setups,
    }
    if trace:
        summary["traced_op_s"] = traced_walls
        summary["layers"] = tracing.combine(per_op)
    return summary


def run_session(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups, result = [], None
    repeats = 1 if trace else SESSION_REPEATS
    for k in range(repeats):
        argv = [str(HERE / "session.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        if k < repeats - 1:
            argv.append("--setup-only")
        child = Child(argv, f"{workload}.log")
        ready = child.readline()
        setups.append(time.perf_counter() - child.start)
        out, _, _ = child.finish()
        if child.proc.returncode != 0 or json.loads(ready)["event"] != "ready":
            raise RuntimeError(f"{workload} session exited with status {child.proc.returncode}")
        if k == repeats - 1:
            result = json.loads(out.strip().splitlines()[-1])
    result["setup_runs_s"] = setups
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (details, result line)."""
    if workload in CLI_WORKLOADS:
        summary = run_cli(workload, seed, seconds, trace)
    else:
        summary = run_session(workload, seed, seconds, trace)
    walls = summary["op_s"]
    if trace:
        traced = statistics.median(summary["traced_op_s"])
        untraced = statistics.median(walls)
        values = {
            **cli_layers(workload),
            **summary["layers"],
            "trace.op_p50_s": traced,
            "trace.untraced_op_p50_s": untraced,
            "trace.overhead_ratio": traced / untraced,
        }
    else:
        values = {
            "setup_s": statistics.median(summary["setup_runs_s"]),
            "op_p50_s": statistics.median(walls),
            "enclosures_per_s": summary["enclosures"] / sum(walls),
            "cpu_s_per_op": summary["cpu_s"] / len(walls),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup_runs_s": summary["setup_runs_s"],
        "op_s": walls,
    }
    result = {
        "correct": bool(summary["run_ok"]),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return details, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "besselsix" / "__init__.py").is_file() or not (ROOT / "tests" / "hiprec.py").is_file():
        print(f"no besselsix sources (src/besselsix, tests/hiprec.py) under {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        details, result = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details))
        results.append((name, result))
    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}/{key}": m for name, r in results for key, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
