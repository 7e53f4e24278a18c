"""cfcopula benchmark: three workloads through ``cfcopula.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-synth --seed 1 --seconds 30 --trace 0

One process and one caller run the workload's CLI command in a closed loop,
in-process, until ``--seconds`` have passed; every command's outputs are
compared with ``perfbench/reference.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The traced run alternates untraced and traced
commands on the same inputs, so it can report its own overhead.

``--write-definitions`` writes ``BENCHMARK.json`` from the definitions below.
Spans and a result file with the machine facts go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing
import workloads as wl

RUN_SECONDS = 30
SETUP_SAMPLES = 9

# (name, unit, better, bound)
END_TO_END = (
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# (name, unit, better)
PER_LAYER = (
    ("copula.weights.calls", "count", "lower"),
    ("copula.weights.s", "s", "lower"),
    ("copula.weights.target_cols", "count", "lower"),
    ("copula.weights.distinct_target_frac", "frac", "lower"),
    ("copula.weights.kernel_nnz_frac", "frac", "lower"),
    ("kernels.kernel_1d.calls", "count", "lower"),
    ("kernels.kernel_1d.s", "s", "lower"),
    ("kernels.kernel_1d.points", "count", "lower"),
    ("copula.grid.calls", "count", "lower"),
    ("copula.grid.s", "s", "lower"),
    ("copula.grid.atoms", "count", "lower"),
    ("copula.ranks.calls", "count", "lower"),
    ("copula.ranks.s", "s", "lower"),
    ("copula.point.s", "s", "lower"),
    ("association.measures.calls", "count", "lower"),
    ("association.measures.s", "s", "lower"),
    ("bootstrap.run.calls", "count", "lower"),
    ("bootstrap.run.s", "s", "lower"),
    ("bootstrap.self_s", "s", "lower"),
    ("bootstrap.replicates", "count", "higher"),
    ("bootstrap.replicate_ms", "ms", "lower"),
    ("bootstrap.draw.calls", "count", "lower"),
    ("bootstrap.draw.s", "s", "lower"),
    ("bootstrap.redraws", "count", "lower"),
    ("bootstrap.recompute.calls", "count", "lower"),
    ("bootstrap.recompute.s", "s", "lower"),
    ("bootstrap.recompute.p50_ms", "ms", "lower"),
    ("bootstrap.recompute.p99_ms", "ms", "lower"),
    ("data.ingest.calls", "count", "lower"),
    ("data.ingest.s", "s", "lower"),
    ("data.write_grid.calls", "count", "lower"),
    ("data.write_grid.s", "s", "lower"),
    ("data.out_bytes", "bytes", "lower"),
    ("scenarios.apply.calls", "count", "lower"),
    ("scenarios.apply.s", "s", "lower"),
    ("simulation.study.s", "s", "lower"),
    ("simulation.study.replications", "count", "higher"),
    ("simulation.dgp.s", "s", "lower"),
    ("simulation.truth.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

OUT_DIR = ".perfbench_out"

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cfcopula.cli; "
    "print(time.perf_counter() - t)"
)


def definitions():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def machine_facts():
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / leaf).read_text().strip() for leaf in ("level", "type", "size")
            )
        except OSError:
            continue
        facts["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return facts


def measure_setup(root, samples):
    """Seconds a fresh interpreter takes to import cfcopula.cli, one per sample.

    One unmeasured import runs first so that bytecode compilation, which a
    user pays once per install, is not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    times = []
    for i in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout.split()[-1]))
    return times


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    out_bytes: int
    problem: str | None


class Runner:
    """Prepares inputs for, runs and checks one workload's commands."""

    def __init__(self, cli, workload, size, entries, work):
        self.cli = cli
        self.workload = workload
        self.size = size
        self.entries = entries
        self.input_dir = work / "input"
        self.out = work / "out"

    def prepare(self, index):
        """Generate the inputs of pool entry ``index``; untimed."""
        entry = self.entries[index]
        if not self.workload.needs_synth:
            return None, None
        try:
            path, digest = wl.make_synth(
                self.cli.main, self.size, entry["seeds"], self.input_dir
            )
        except Exception as exc:  # the command using this input counts as failed
            traceback.print_exc()
            return None, f"cannot generate the synthetic input: {exc}"
        if digest != entry["synth_sha256"]:
            return path, "synthetic input differs from the reference input"
        return path, None

    def execute(self, index, input_path, input_problem, tracer=None):
        shutil.rmtree(self.out, ignore_errors=True)
        entry = self.entries[index]
        argv = wl.command_argv(
            self.workload, self.size, entry["seeds"], input_path, self.out
        )
        gc.collect()
        if tracer is not None:
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = wl.run_cli(self.cli.main, argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        problem = input_problem
        if problem is None and code != 0:
            problem = "uncaught exception" if code is None else f"exit code {code}"
        if problem is None:
            try:
                got = wl.read_rows(self.out / self.workload.output)
            except OSError as exc:
                problem = f"cannot read output: {exc}"
            else:
                problem = wl.compare_rows(got, entry["outputs"][self.workload.name])
        if problem is not None:
            print(f"perfbench: {self.workload.name} pool entry {index}: {problem}",
                  file=sys.stderr)
        out_bytes = sum(
            f.stat().st_size for f in self.out.rglob("*") if f.is_file()
        ) if self.out.exists() else 0
        return Op(wall, cpu, out_bytes, problem)


def run_plain(runner, order, seconds):
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        index = order[len(ops) % len(order)]
        ops.append(runner.execute(index, *runner.prepare(index)))
    return ops


def run_traced(runner, order, seconds, tracer):
    """Untraced and traced command pairs on the same inputs."""
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        index = order[len(pairs) % len(order)]
        prepared = runner.prepare(index)
        plain = runner.execute(index, *prepared)
        tracer.run_id = len(pairs)
        tracer.weight_calls = [] if not pairs else None
        traced = runner.execute(index, *prepared, tracer=tracer)
        if not pairs:
            captured = tracer.weight_calls
        pairs.append((plain, traced))
    tracer.weight_calls = None
    return pairs, captured


def end_to_end_metrics(ops, setup_times):
    walls = [op.wall_s for op in ops]
    return {
        "run_s": (statistics.median(walls), len(walls), "commands"),
        "setup_s": (statistics.median(setup_times), len(setup_times),
                    "fresh interpreters"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        1, "process"),
    }


def per_layer_metrics(pairs, captured, tracer):
    traced = [t for _, t in pairs]
    ops = len(traced)
    values = tracing.layer_metrics(tracer, ops)
    kernels = sys.modules["cfcopula.kernels"]
    values.update(tracing.weight_input_properties(
        captured, kernels.kernel_1d, kernels.KernelSpec()
    ))
    values["data.out_bytes"] = sum(op.out_bytes for op in traced) / ops
    values["proc.cpu_s"] = sum(op.cpu_s for op in traced) / ops
    values["trace.overhead_frac"] = statistics.median(
        t.wall_s / p.wall_s for p, t in pairs
    ) - 1.0
    return {name: (values[name], ops, "traced commands") for name, *_ in PER_LAYER}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cfcopula benchmark")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.POOL), default="full",
                        help="tiny runs the self-check's small commands")
    parser.add_argument("--write-definitions", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_definitions and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if args.write_definitions:
        with open(root / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(definitions(), fh, indent=2)
            fh.write("\n")
        return 0

    workload = wl.WORKLOADS[args.workload]
    try:
        entries = wl.load_reference()[args.size]["entries"]
        cli = wl.import_cli(root)
        setup_times = [] if args.trace else measure_setup(root, SETUP_SAMPLES)
    except (OSError, ImportError, KeyError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    runner = Runner(cli, workload, args.size, entries, work)
    order = wl.pool_order(args.seed, len(entries))
    try:
        if args.trace:
            tracer = tracing.Tracer()
            pairs, captured = run_traced(runner, order, args.seconds, tracer)
            ops = [op for pair in pairs for op in pair]
            metrics = per_layer_metrics(pairs, captured, tracer)
        else:
            ops = run_plain(runner, order, args.seconds)
            metrics = end_to_end_metrics(ops, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(op.problem is not None for op in ops)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    facts = machine_facts()
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, (value, _, _) in metrics.items()},
    }
    details = {"machine": facts, "seed": args.seed, "size": args.size,
               "samples": {n: count for n, (_, count, _) in metrics.items()},
               "command_s": [op.wall_s for op in ops], "setup_s": setup_times}
    if args.trace:
        _, _, self_time = tracing.span_totals(tracer.spans)
        details["self_s"] = {name: t / len(pairs) for name, t in self_time.items()}
        tracer.write(out_dir / f"spans-{tag}.csv.gz")
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**details, **result}, fh, indent=1)

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(facts))
    for name, (value, count, what) in metrics.items():
        print(f"{name:38s} {value:14.6g} {UNITS[name]:6s} n={count} {what}")
    print(f"{'fail_frac':38s} {failed / len(ops):14.6g} {'frac':6s} "
          f"n={len(ops)} commands")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
