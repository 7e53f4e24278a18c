"""Fast self-check of the benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that ``BENCHMARK.json`` is what ``run.py --write-definitions``
writes; runs every workload at the tiny size for one command, untraced and
traced, and checks that the result line names every metric of
``BENCHMARK.json`` with its unit and that no command failed; and checks
that a directory holding only the benchmark, without the program, makes
the benchmark exit non-zero without a result.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(stdout, declared):
    """Problems with one run's result line against the declared metrics."""
    try:
        result = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return ["no JSON result on the last line"]
    problems = []
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"fail_frac is not 0: {result.get('failed')} of "
                        f"{result.get('attempted')} commands failed")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ: {sorted(metrics)}")
    for metric in declared:
        got = metrics.get(metric["name"], {})
        value = got.get("value")
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']}: value {value!r}")
    return problems


def main():
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if declared != run.definitions():
        problems.append("BENCHMARK.json differs from run.py; rerun "
                        "`python3 perfbench/run.py --write-definitions`")
    for workload in declared["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} trace {trace}"
            done = _bench(root, "--workload", workload["name"], "--seed", "0",
                          "--seconds", "1", "--trace", str(trace), "--size", "tiny")
            found = check_result(done.stdout, declared[key])
            if done.returncode != 0:
                found.insert(0, f"exit code {done.returncode}: {done.stderr[-500:]}")
            problems += [f"{label}: {p}" for p in found]
            print(f"{label}: {'ok' if not found else 'FAIL'}")

    bare = root / run.OUT_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        done = _bench(bare, "--workload", declared["workloads"][0]["name"],
                      "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        problems.append("without the program the benchmark did not fail cleanly")
    print(f"without the program: {'ok' if done.returncode else 'FAIL'}")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
