"""Workload definitions, seeded inputs and the reference-output check.

Each workload is one ``cfcopula`` CLI command.  Its inputs come from a pool
of recorded entries: an entry fixes the synthetic-data seed, the bootstrap
seed and the Monte Carlo master seed, and ``reference.json`` holds the
outputs the seed commit produced for it.  A benchmark seed picks the order
in which a run visits the pool, so the same seed always gives the same
inputs and every command can be checked against a recorded reference.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# |got - reference| allowed on every numeric output cell; the tightest
# absolute tolerance the repository's own tests use
TOLERANCE = 1e-12

# pool entries recorded per size
POOL = {"full": 32, "tiny": 4}
SYNTH_ROWS = {"full": 3895, "tiny": 600}


@dataclass(frozen=True)
class Workload:
    name: str
    output: str          # the CSV checked against the reference
    needs_synth: bool    # whether the command reads the synthetic file
    argv: dict           # size -> argument template
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-synth",
            output="sweep.csv",
            needs_synth=True,
            argv={
                "full": ["sweep", "--input", "{input}", "--param", "s",
                         "--from", "13", "--to", "16", "--bandwidth-c", "30",
                         "--boot-b", "200", "--seed", "{boot_seed}",
                         "--out-dir", "{out}"],
                "tiny": ["sweep", "--input", "{input}", "--param", "s",
                         "--from", "15", "--to", "16", "--bandwidth-c", "30",
                         "--boot-b", "20", "--seed", "{boot_seed}",
                         "--out-dir", "{out}"],
            },
            why="policy-family sweep on the 3895-row synthetic file; "
                "weights-bound, ingests the CSV once per value",
        ),
        Workload(
            name="bootstrap-synth",
            output="measures.csv",
            needs_synth=True,
            argv={
                "full": ["bootstrap", "--input", "{input}",
                         "--scenario", "max_with(cedu, 16)", "--bandwidth-c", "30",
                         "--boot-b", "2000", "--seed", "{boot_seed}",
                         "--out-dir", "{out}"],
                "tiny": ["bootstrap", "--input", "{input}",
                         "--scenario", "max_with(cedu, 16)", "--bandwidth-c", "30",
                         "--boot-b", "50", "--seed", "{boot_seed}",
                         "--out-dir", "{out}"],
            },
            why="frozen multiplier bootstrap, B=2000 at n=3895; replicate-bound, "
                "one weights call, writes four files",
        ),
        Workload(
            name="coverage-mc",
            output="simulation.csv",
            needs_synth=False,
            argv={
                "full": ["simulate", "--sizes", "100,200", "--boot-b", "200",
                         "--replications", "5", "--seed", "{mc_seed}",
                         "--out-dir", "{out}"],
                "tiny": ["simulate", "--sizes", "50,100", "--boot-b", "20",
                         "--replications", "1", "--seed", "{mc_seed}",
                         "--out-dir", "{out}"],
            },
            why="Monte Carlo coverage study with recompute-weights replicates; "
                "call-overhead-bound at n=100,200, every target distinct",
        ),
    )
}


def import_cli(root):
    """Import ``cfcopula.cli`` from ``root/src`` and nowhere else."""
    src = Path(root).resolve() / "src"
    if not (src / "cfcopula" / "cli.py").is_file():
        raise FileNotFoundError(f"no cfcopula sources under {src}")
    sys.path.insert(0, str(src))
    import cfcopula.cli

    if src not in Path(cfcopula.cli.__file__).resolve().parents:
        raise ImportError(f"cfcopula was imported from {cfcopula.cli.__file__}, not {src}")
    return cfcopula.cli


def pool_order(seed, count):
    """The order in which a run with benchmark seed ``seed`` visits ``count`` entries."""
    return random.Random(seed).sample(range(count), count)


def command_argv(workload, size, seeds, input_path, out_dir):
    values = dict(seeds, input=str(input_path), out=str(out_dir))
    return [part.format(**values) for part in workload.argv[size]]


def run_cli(main, argv):
    """Call ``cfcopula.cli.main(argv)`` with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def make_synth(main, size, seeds, out_dir):
    """Write the synthetic file for ``seeds``; return (path, sha256)."""
    code = run_cli(main, ["synth-data", "--seed", str(seeds["synth_seed"]),
                          "--n", str(SYNTH_ROWS[size]), "--out-dir", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"synth-data exited with {code}")
    path = Path(out_dir) / "synth.csv"
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _cell_matches(got, want):
    try:
        want_value = float(want)
    except ValueError:
        return got == want
    try:
        got_value = float(got)
    except ValueError:
        return False
    return got_value == want_value or abs(got_value - want_value) <= TOLERANCE


def compare_rows(got, want):
    """None when ``got`` matches the reference rows, else the first difference."""
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    for number, (got_row, want_row) in enumerate(zip(got, want)):
        if len(got_row) != len(want_row):
            return f"row {number}: {len(got_row)} cells, reference has {len(want_row)}"
        for got_cell, want_cell in zip(got_row, want_row):
            if not _cell_matches(got_cell, want_cell):
                return f"row {number}: {got_cell!r} differs from reference {want_cell!r}"
    return None


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
