"""One workload in one process: set up, run the closed loop, report as JSON.

``run.py`` starts this file once per measurement (``--mode setup`` for an
extra set-up, ``run`` for set-up plus the timed loop, ``trace`` for the
traced run) and reads the JSON object it prints as its last line.  Only
the public API of ``goodpairs`` is called; the traced run additionally
rebinds the names listed in ``tracer.BOUNDARIES``.

Closed loop, one client: each instance starts when the previous one has
been certified and checked.  The latency of an instance is its
``reduce_and_lift`` plus ``verify_good_pair`` time; throughput counts
certified instances per second of the timed loop, which for the sweep
includes generating each instance, as the median over BLOCKS runs of
consecutive instances (see ``Loop.throughput``).  Both are read from the
process CPU clock, which unlike the wall clock leaves out the time the
host of a shared virtual machine gives to other guests; the loop is
single-threaded and never waits, so on a quiet machine the two agree.
``setup_s`` is the process's CPU time from its start to the first timed
instance: import, generating the pool, warm-up.  Throughput, the median
latency and ``setup_s`` are then scaled to the reference host speed that
``hostspeed`` measures with a fixed kernel, because the CPU time of the
same work drifts with the host's load.  The tail latencies (p95 and up)
are not: the slowest instances follow the kernel only weakly, and over
2-s windows of one run the p95 of sweep-mix9 varied by 0.059 (coefficient
of variation) unscaled and 0.086 scaled, against 0.093 and 0.016 for the
median.  The loop runs for ``--seconds`` of wall time; the raw CPU
throughput, the wall-clock throughput and the host speed are printed
next to the scaled figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

P = 0.3              # arc density of every generator model, as in `goodpairs sweep`
WARMUP = 20          # instances run once before timing starts
IDENTITY_PREFIX = 200  # instances behind the input digest and its rule histogram
BLOCKS = 10          # throughput is the median over this many runs of consecutive instances
CLOSING_RULES = ("absorb", "component-pairing", "spare-vertex", "hamilton", "exact-fallback")


@dataclass(frozen=True)
class Workload:
    """Instance i is GenModel(kinds[i % len(kinds)], n, P, derive_seed(seed, i)).

    ``pool_rate`` is None when instances are generated inside the timed loop
    (the sweep); otherwise set-up generates ceil(seconds * pool_rate)
    instances, about one timed run's worth at today's speed, and the loop
    cycles through them.
    """

    kinds: tuple[str, ...]
    n: int
    pool_rate: float | None


WORKLOADS = {
    "sweep-mix9": Workload(("gnp-repair", "arc-minimal"), 9, None),
    "certify-arcmin20": Workload(("arc-minimal",), 20, 80.0),
    "certify-tour20": Workload(("tournament",), 20, 100.0),
}


def import_package():
    """Import ``goodpairs`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "goodpairs" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {src / 'goodpairs'}")
    sys.path.insert(0, str(src))
    import goodpairs

    if Path(goodpairs.__file__).resolve().parent != (src / "goodpairs").resolve():
        sys.exit(f"benchmark: imported goodpairs from {goodpairs.__file__}, not {src}")
    return goodpairs


def machine() -> dict:
    """Python version, CPU count and CPU model (from /proc/cpuinfo on Linux)."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the data; 0.0 for an empty list."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Loop:
    """Results of one timed closed loop.

    CPU times are raw here; ``scale[i]`` turns those of instance i into
    times at the reference host speed (see ``hostspeed``).
    """

    def __init__(self) -> None:
        self.latency: list[float] = []   # CPU seconds, reduce_and_lift + verify_good_pair
        self.marks: list[int] = []       # CPU ns from loop start to the end of each instance
        self.rules: list[str] = []       # closing rule, "error" on an exception
        self.failures: list[tuple[int, object, str]] = []  # (index, digraph, reason)
        self.samples: list[tuple[int, int]] = []  # (instance, kernel CPU ns), see hostspeed
        self.scale: list[float] = []
        self.rejected = 0
        self.errors = 0
        self.start = self.end = 0  # perf_counter_ns around the loop

    @property
    def count(self) -> int:
        return len(self.latency)

    def steps(self) -> list[float]:
        """CPU seconds of each instance at reference speed, generation included."""
        marks, scale = self.marks, self.scale
        return [(marks[i] - (marks[i - 1] if i else 0)) / 1e9 * scale[i]
                for i in range(self.count)]

    def latencies_ms(self) -> list[float]:
        return [x * 1e3 * f for x, f in zip(self.latency, self.scale)]

    def rate(self, lo: int, hi: int, steps: list[float] | None = None) -> float:
        """Certified instances per CPU second at reference speed over lo..hi-1."""
        steps = self.steps() if steps is None else steps
        certified = hi - lo - sum(1 for i, _, _ in self.failures if lo <= i < hi)
        return certified / sum(steps[lo:hi])

    def raw_rate(self) -> float:
        """Certified instances per raw CPU second over the whole loop."""
        return (self.count - len(self.failures)) / (self.marks[-1] / 1e9)

    def throughput(self) -> float:
        """Median rate over BLOCKS equal runs of consecutive instances.

        One arc-minimal instance in a few thousand keeps the exact search
        busy for seconds, a tenth of a run; the mean rate of a run then
        depends on whether its seed drew one, the median block rate does not.
        """
        return statistics.median(self.block_rates())

    def block_rates(self) -> list[float]:
        k = min(BLOCKS, self.count)
        cuts = [self.count * j // k for j in range(k + 1)]
        steps = self.steps()
        return [self.rate(a, b, steps) for a, b in zip(cuts, cuts[1:])]

    def host_speed(self) -> float:
        """Reference kernel time over the median kernel time of the loop."""
        return hostspeed.REFERENCE_NS / statistics.median(ns for _, ns in self.samples)

    def wall_throughput(self) -> float:
        """Mean certified instances per wall second over the whole loop."""
        return (self.count - len(self.failures)) / ((self.end - self.start) / 1e9)


def run_loop(instance, seconds: float, reduce_and_lift, verify, generate=None,
             kernel=hostspeed.kernel) -> Loop:
    """Certify instances 0, 1, 2, ... until ``seconds`` of wall time passed.

    ``instance(i)`` gives the digraph (from the pool) or, with ``generate``,
    the model that ``generate`` turns into the digraph inside the loop.
    Every ``hostspeed.SLICE_NS`` of CPU time, and before the first and after
    the last instance, the loop times ``kernel``; that time is left out of
    every instance's.
    """
    loop = Loop()
    clock = time.process_time_ns
    wall = time.perf_counter_ns
    limit = int(seconds * 1e9)
    latency, marks, rules, samples = loop.latency, loop.marks, loop.rules, loop.samples
    i = 0
    loop.start = start = wall()
    samples.append((0, hostspeed.sample(kernel)))
    paused = clock()      # CPU ns outside instances: loop start plus every kernel run
    next_sample = SLICE = hostspeed.SLICE_NS
    while True:
        d = generate(instance(i)) if generate else instance(i)
        a = clock()
        try:
            res, trace = reduce_and_lift(d)
            bad = verify(d, res.cert) if res.status == "found" else None
        except Exception:  # a crash is a failed instance; keep measuring
            res = trace = None
            bad = traceback.format_exc()
        b = clock()
        latency.append((b - a) / 1e9)
        marks.append(b - paused)
        if res is None:
            loop.errors += 1
            rules.append("error")
            loop.failures.append((i, d, bad))
        else:
            rules.append(trace.steps[-1].rule)
            if bad is not None:
                loop.rejected += 1
                loop.failures.append((i, d, f"certificate rejected: {bad}"))
            elif res.status != "found":
                loop.failures.append((i, d, f"status {res.status}"))
        i += 1
        done = wall() - start >= limit
        if done or marks[-1] >= next_sample:
            c = clock()
            samples.append((i, hostspeed.sample(kernel)))
            paused += clock() - c
            next_sample = marks[-1] + SLICE
        if done:
            break
    loop.end = wall()
    loop.scale = hostspeed.scales(samples, loop.count)
    return loop


def histogram(rules: list[str]) -> dict[str, int]:
    return dict(sorted(Counter(rules).items()))


def write_failures(loops: list[Loop], stem: str, serialize) -> str | None:
    """Write each failing instance as one digraph6 line; return the path."""
    lines = [serialize(d, "digraph6") for loop in loops for _, d, _ in loop.failures]
    if not lines:
        return None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"failures-{stem}.d6"
    path.write_text("\n".join(lines) + "\n")
    for loop in loops:
        for i, _, reason in loop.failures:
            print(f"benchmark: instance {i} failed: {reason}", file=sys.stderr)
    return str(path.relative_to(ROOT))


def identity(gp, get_digraph, known_rules: list[str]) -> dict:
    """Digest of the first IDENTITY_PREFIX instances (their digraph6 lines)
    and the histogram of the rules that closed them; outside any timing.
    ``known_rules[i]`` is the closing rule of instance i where the timed loop
    already certified it."""
    digests = hashlib.sha256()
    rules = known_rules[:IDENTITY_PREFIX]
    for i in range(IDENTITY_PREFIX):
        d = get_digraph(i)
        digests.update(gp.serialize_digraph(d, "digraph6").encode() + b"\n")
        if i >= len(rules):
            res, trace = gp.reduce_and_lift(d)
            rules.append(trace.steps[-1].rule)
    return {"digest": digests.hexdigest(), "closing_rules": histogram(rules)}


def e2e(loop: Loop) -> dict:
    lat_ms = [x * 1e3 for x in loop.latency]
    p95, p99 = quantile(lat_ms, 95), quantile(lat_ms, 99)
    return {
        "throughput_per_s": loop.throughput(),
        "mean_throughput_per_s": loop.rate(0, loop.count),
        "block_rates": loop.block_rates(),
        "raw_throughput_per_s": loop.raw_rate(),
        "wall_throughput_per_s": loop.wall_throughput(),
        "host_speed": loop.host_speed(),
        "latency_p50_ms": quantile(loop.latencies_ms(), 50),
        "latency_p95_ms": p95,
        "latency_p99_ms": p99,
        "latency_max_ms": max(lat_ms),
        "failed_share": len(loop.failures) / loop.count,
        "certified_share": 1 - len(loop.failures) / loop.count,
        "samples": loop.count,
        "beyond_p95": sum(1 for x in lat_ms if x > p95),
        "beyond_p99": sum(1 for x in lat_ms if x > p99),
    }


def per_layer(tracer, loop: Loop, untraced: Loop, lo: int, generated: int) -> dict:
    """Per-layer metrics of the traced phase (spans ``lo..``), per instance.

    Times are span self times, not scaled to the reference host speed;
    the two throughputs behind the overhead are.  genlab and connectivity spans are divided by
    the number of instances generated under tracing, which for the certify
    workloads happened in set-up (spans before ``lo``); everything else by
    the number of instances certified in the traced loop.
    """
    from tracer import covered_ns, self_times

    cols = tracer.cols
    names = tracer.names
    own = self_times(cols)
    m = loop.count
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i, ns in enumerate(own):
        name = names[cols["name"][i]]
        total[name] = total.get(name, 0) + ns
        calls[name] = calls.get(name, 0) + 1

    def base(name: str) -> int:
        return generated if name.split(".")[0] in ("genlab", "connectivity") else m

    def per(name: str) -> float:
        return calls.get(name, 0) / base(name)

    def secs(*names_: str) -> float:
        return sum(total.get(n, 0) for n in names_) / 1e9 / base(names_[0])

    def ratio(hit: str, attempts: str) -> float:
        c = calls.get(attempts, 0)
        return tracer.hits[hit] / c if c else 0.0

    wall = loop.end - loop.start
    covered = covered_ns(cols, lo)
    thr_untraced = untraced.rate(0, min(m, untraced.count))
    thr_traced = loop.rate(0, m)
    nodes = tracer.fallback_nodes
    rules = histogram(loop.rules)
    lat_ms = [x * 1e3 for x in untraced.latency]
    out = {
        "genlab.random_2arc_strong_s": secs("genlab.random_2arc_strong"),
        "genlab.arc_minimize_s": secs("genlab.arc_minimize"),
        "connectivity.arc_connectivity_calls": per("connectivity.arc_connectivity"),
        "connectivity.arc_connectivity_s": secs("connectivity.arc_connectivity"),
        "constructions.reduce_and_lift_self_s": secs("constructions.reduce_and_lift"),
        "constructions.absorb_calls": per("constructions.absorb"),
        "constructions.absorb_s": secs("constructions.absorb"),
        "constructions.pairing_s": secs("constructions.pairing"),
        "constructions.pairing_hit_ratio": ratio("constructions.pairing", "constructions.pairing"),
        "constructions.spare_vertex_s": secs("constructions.spare_vertex"),
        "constructions.spare_vertex_hit_ratio": ratio(
            "constructions.spare_vertex", "constructions.spare_vertex"
        ),
        "constructions.hamilton_s": secs(
            "constructions.hamilton_dipath", "constructions.pair_from_hamilton"
        ),
        "constructions.hamilton_hit_ratio": ratio(
            "constructions.pair_from_hamilton", "constructions.hamilton_dipath"
        ),
    }
    for rule in CLOSING_RULES:
        out[f"constructions.closed_by.{rule}"] = rules.get(rule, 0) / m
    out.update({
        "branchings.exact_seed_calls": per("branchings.exact_seed"),
        "branchings.exact_seed_s": secs("branchings.exact_seed"),
        "branchings.exact_seed_hit_ratio": ratio("branchings.exact_seed", "branchings.exact_seed"),
        "branchings.exact_fallback_s": secs("branchings.exact_fallback"),
        "branchings.exact_fallback_nodes": sum(nodes) / m,
        "branchings.exact_fallback_nodes_p99": quantile(nodes, 99),
        "branchings.verify_calls": per("branchings.verify_good_pair"),
        "branchings.verify_s": secs("branchings.verify_good_pair"),
        "digraph.induced_subdigraph_calls": per("digraph.induced_subdigraph"),
        "digraph.induced_subdigraph_s": secs("digraph.induced_subdigraph"),
        "gate.verify_good_pair_s": secs("gate.verify_good_pair"),
        "trace.uncovered_share": 1 - covered / wall,
        "trace.overhead_per_s": thr_untraced - thr_traced,
        "trace.overhead_share": (thr_untraced - thr_traced) / thr_untraced,
        "latency_p99_ms": quantile(lat_ms, 99),
        "latency_max_ms": max(lat_ms),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--t0", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before it started this process")
    args = ap.parse_args(argv)

    gp = import_package()
    from goodpairs import constructions, genlab

    wl = WORKLOADS[args.workload]
    seed = args.seed

    def model(i: int):
        return gp.GenModel(wl.kinds[i % len(wl.kinds)], wl.n, P, gp.derive_seed(seed, i))

    tracer = None
    generate = gp.random_2arc_strong
    modules = {"genlab": genlab, "constructions": constructions}
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.instance_n = wl.n
        tracer.install(modules)
        generate = tracer.span("genlab.random_2arc_strong", gp.random_2arc_strong)

    setup_clock = hostspeed.SetupClock()
    pool: list = []
    if wl.pool_rate is not None:
        for i in range(math.ceil(args.seconds * wl.pool_rate)):
            if tracer:
                tracer.instance = i
            pool.append(generate(model(i)))
            setup_clock.tick()
    generated = len(pool)
    if tracer:
        tracer.uninstall()
        setup_spans = len(tracer.cols["name"])

    if pool:
        def instance(i: int):
            return pool[i % len(pool)]
        loop_generate = None
    else:
        instance = model
        loop_generate = gp.random_2arc_strong

    for i in range(WARMUP):
        d = loop_generate(instance(i)) if loop_generate else instance(i)
        res, _ = gp.reduce_and_lift(d)
        if res.status == "found":
            gp.verify_good_pair(d, res.cert)
        setup_clock.tick()
    setup_wall_s = (time.monotonic_ns() - args.t0) / 1e9
    setup_s, setup_raw_s = setup_clock.seconds()
    result: dict = {"workload": args.workload, "seed": seed, "mode": args.mode,
                    "setup_s": setup_s, "setup_raw_s": setup_raw_s, "setup_wall_s": setup_wall_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer is None:
        loop = run_loop(instance, args.seconds, gp.reduce_and_lift, gp.verify_good_pair,
                        loop_generate)
        loops = [loop]
        result.update(e2e(loop))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # untraced half first, then the traced half over the same instances
        half = args.seconds / 2
        untraced = run_loop(instance, half, gp.reduce_and_lift, gp.verify_good_pair,
                            loop_generate)

        def traced_instance(i: int):
            tracer.instance = i
            return instance(i)

        tracer.install(modules)
        loop = run_loop(
            traced_instance, half,
            tracer.span("constructions.reduce_and_lift", gp.reduce_and_lift),
            tracer.span("gate.verify_good_pair", gp.verify_good_pair),
            tracer.span("genlab.random_2arc_strong", loop_generate) if loop_generate else None,
            tracer.span("bench.host_speed", hostspeed.kernel),
        )
        tracer.uninstall()
        if loop_generate:
            generated = loop.count
        loops = [untraced, loop]
        result["samples"] = loop.count
        result["per_layer"] = per_layer(tracer, loop, untraced, setup_spans, generated)
        stem = OUT_DIR / f"spans-{args.workload}-seed{seed}"
        tracer.write(stem, {
            "workload": args.workload, "seed": seed, "seconds": args.seconds,
            "setup_spans": [0, setup_spans], "traced_spans": [setup_spans, len(tracer.cols["name"])],
            "traced_wall_ns": [loop.start, loop.end], "instances": loop.count,
            "uncovered_share": result["per_layer"]["trace.uncovered_share"],
            "machine": machine(),
        })
        result["spans_file"] = str(stem.relative_to(ROOT))

    def digraph_at(i: int):
        if pool and i < len(pool):
            return pool[i]
        return gp.random_2arc_strong(model(i))

    result["identity"] = identity(gp, digraph_at, loop.rules[:len(pool) or None])
    result["closing_rules"] = histogram(loop.rules)
    result["attempted"] = sum(x.count for x in loops)
    result["failed"] = sum(len(x.failures) for x in loops)
    result["rejected"] = sum(x.rejected for x in loops)
    result["errors"] = sum(x.errors for x in loops)
    result["failures_file"] = write_failures(loops, f"{args.workload}-seed{seed}",
                                             gp.serialize_digraph)
    result["machine"] = machine()
    print(json.dumps(result))
    return 1 if result["rejected"] or result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
