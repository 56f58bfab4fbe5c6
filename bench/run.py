"""Benchmark of the goodpairs certifier: three closed-loop workloads.

    python3 bench/run.py                      # every workload, end-to-end metrics
    python3 bench/run.py --trace 1            # per-layer metrics and tracing overhead
    python3 bench/run.py --workload certify-tour20 --seed 3 --seconds 25 --trace 0

Each workload runs in processes of its own (``workload.py``), one client,
single-threaded, each instance started when the previous one finished.
An untraced run sets the workload up SETUPS times, each in a fresh process,
and reports the median as ``setup_s``; the last of those processes then
runs the timed loop.  A traced run (``--trace 1``) runs the loop once
untraced and once traced over the same instances and reports the
per-layer metrics and the difference in throughput.

Throughput, median latency and set-up time are CPU time scaled to a
reference host speed, which a fixed kernel timed during the run measures
(``hostspeed.py``); the unscaled figures are printed next to them.  Tail
latencies are unscaled CPU time (``workload.py`` says why).

Metric names and units come from BENCHMARK.json at the repository root.
The last line of standard output is one JSON object per the benchmark
contract: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
process exits 1 when a certificate was rejected or the package raised.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUPS = 3
CHILD_TIMEOUT_S = 170

WORKLOAD_NAMES = ("sweep-mix9", "certify-arcmin20", "certify-tour20")

# printed for every untraced run next to the contract metrics
EXTRA_UNITS = {"mean_throughput_per_s": "1/s", "raw_throughput_per_s": "1/s",
               "wall_throughput_per_s": "1/s", "host_speed": "x", "latency_p99_ms": "ms",
               "latency_max_ms": "ms", "failed_share": "share"}


def run_child(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--t0", str(time.monotonic_ns()),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"benchmark: {workload} {mode} process exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report_identity(res: dict) -> None:
    m = res["machine"]
    print(f"machine: python {m['python']}, nproc {m['nproc']}, cpu {m['cpu']}")
    ident = res["identity"]
    print(f"inputs: sha256 {ident['digest']} over the first 200 instances, "
          f"closed by {json.dumps(ident['closing_rules'])}")
    print(f"closing rules over the run: {json.dumps(res['closing_rules'])}")
    if res["failures_file"]:
        print(f"failing instances (digraph6): {res['failures_file']}")


def measure(workload: str, seed: int, seconds: float, spec: dict) -> tuple[dict, dict]:
    children = [run_child(workload, seed, seconds, "setup") for _ in range(SETUPS - 1)]
    res = run_child(workload, seed, seconds, "run")
    children.append(res)
    setups = [c["setup_s"] for c in children]
    res["setup_s"] = statistics.median(setups)
    n = res["samples"]
    print(f"== {workload}  seed {seed}  {seconds:g} s  closed loop, 1 client, {n} instances")
    report_identity(res)
    notes = {
        "latency_p50_ms": f"n={n}",
        "latency_p95_ms": f"n={n}, {res['beyond_p95']} beyond, unscaled",
        "latency_p99_ms": f"n={n}, {res['beyond_p99']} beyond, unscaled",
        "latency_max_ms": "one instance; not a stable statistic",
        "throughput_per_s": f"median of {len(res['block_rates'])} blocks of consecutive instances",
        "mean_throughput_per_s": "over the whole run",
        "setup_s": "median of " + ", ".join(fmt(s) for s in setups)
                   + "; unscaled " + ", ".join(fmt(c["setup_raw_s"]) for c in children)
                   + "; wall " + ", ".join(fmt(c["setup_wall_s"]) for c in children),
        "raw_throughput_per_s": "CPU clock, not scaled to the reference host speed",
        "host_speed": "reference kernel time / median kernel time in the loop",
        "failed_share": f"{res['failed']} of {res['attempted']}",
    }
    print("throughput by block: " + ", ".join(fmt(r) for r in res["block_rates"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | EXTRA_UNITS
    for name, unit in units.items():
        print(f"{name:<22} {fmt(res[name]):>12} {unit:<6} {notes.get(name, '')}")
    metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return metrics, res


def trace(workload: str, seed: int, seconds: float, spec: dict) -> tuple[dict, dict]:
    res = run_child(workload, seed, seconds, "trace")
    layer = res["per_layer"]
    print(f"== {workload}  seed {seed}  {seconds:g} s  half untraced, half traced, "
          f"{res['samples']} instances traced")
    report_identity(res)
    print(f"spans: {res['spans_file']}.json / .bin")
    out = {}
    for m in spec["per_layer"]:
        print(f"{m['name']:<42} {fmt(layer[m['name']]):>12} {m['unit']}")
        out[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
    return out, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="one workload (default: every workload, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="timed loop length (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "goodpairs" / "__init__.py").is_file():
        print(f"benchmark: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    status = 0
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        metrics, res = (trace if args.trace else measure)(workload, args.seed, seconds, spec)
        correct = res["rejected"] == 0 and res["errors"] == 0
        status |= not correct
        print(json.dumps({"correct": correct, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
