"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench/smoke.py

Checks that an untraced and a traced run of each workload print every
metric named in BENCHMARK.json with its unit, certify every instance, and
that the recorded spans cover the traced wall time up to the remainder the
run reports.  The untraced runs use the default seed, and their input
digest and closing-rule histogram must match bench/reference.json: when
they differ, the inputs or the pipeline's decisions changed, and the
reference must be recorded again.  Also checks that the benchmark refuses
to run, without a result, in a directory holding only BENCHMARK.json and
the benchmark.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import EXTRA_UNITS, WORKLOAD_NAMES  # noqa: E402
from tracer import covered_ns, read_spans, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())
TINY_SECONDS = "1"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


class Smoke(unittest.TestCase):
    def check_result(self, proc, names: list[dict]) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in names])
        text = "\n".join(lines[:-1])
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(text, rf"(?m)^{re.escape(m['name'])} +\S+ {re.escape(m['unit'])}\b")
        return result

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", str(REFERENCE["default_seed"]),
                             "--seconds", TINY_SECONDS, "--trace", "0")
                self.check_result(proc, SPEC["end_to_end"])
                for name, unit in EXTRA_UNITS.items():
                    self.assertRegex(proc.stdout, rf"(?m)^{name} +\S+ {re.escape(unit)}\b")
                digest, rules = re.search(
                    r"(?m)^inputs: sha256 (\S+) over the first 200 instances, closed by (.*)$",
                    proc.stdout,
                ).groups()
                inputs = REFERENCE["workloads"][workload]["inputs"]
                self.assertEqual(digest, inputs["digest"], "instance stream changed")
                self.assertEqual(json.loads(rules), inputs["closing_rules"], "closing rules changed")

    def test_traced_spans_cover_the_traced_wall_time(self):
        for workload in WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "5",
                             "--seconds", TINY_SECONDS, "--trace", "1")
                result = self.check_result(proc, SPEC["per_layer"])
                uncovered = result["metrics"]["trace.uncovered_share"]["value"]
                stem = ROOT / f"bench/out/spans-{workload}-seed5"
                meta, cols = read_spans(stem)
                lo, hi = meta["traced_spans"]
                t0, t1 = meta["traced_wall_ns"]
                self.assertGreater(hi, lo)
                self.assertTrue(all(t0 <= cols["start"][i] <= cols["end"][i] <= t1
                                    for i in range(lo, hi)))
                covered = covered_ns(cols, lo, hi)
                self.assertEqual(sum(self_times(cols, lo, hi)), covered)
                self.assertAlmostEqual(covered / (t1 - t0) + uncovered, 1.0, places=9)
                self.assertLess(uncovered, 0.1)

    def test_refuses_to_run_without_the_package_source(self):
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1",
                         "--seconds", TINY_SECONDS, "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
