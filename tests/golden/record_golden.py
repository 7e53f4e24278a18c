"""Record the golden outputs of a fixed list of commands.

Each command runs through ``cfcopula.cli.main`` in one working directory,
with relative paths, so the recorded text holds no directory of the
machine that made it.  A command's golden files sit in ``outputs/<name>/``:
``console.txt`` with its exit code, stdout and stderr, and every file it
wrote, if it made its out-dir.  The synthetic CSV the later commands read
is kept as its SHA-256 only.

    PYTHONPATH=src python tests/golden/record_golden.py [--out DIR]

writes them to ``tests/golden/outputs`` (or DIR).  ``test_golden.py``
reruns the commands and compares their outputs with these files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from pathlib import Path

from cfcopula.cli import main as cfcopula_main

OUTPUTS = Path(__file__).resolve().parent / "outputs"

_INPUT = ["--input", "synth/synth.csv"]
_RUN = _INPUT + ["--scenario", "max_with(cedu, 16)", "--bandwidth-c", "30",
                 "--grid-m", "20"]
_SWEEP = _INPUT + ["--bandwidth-c", "30", "--grid-m", "20", "--boot-b", "20",
                   "--seed", "4"]

# (name, argv): each command writes to the directory of its name
COMMANDS = (
    ("synth", ["synth-data", "--seed", "5", "--n", "600"]),
    ("estimate_epanechnikov", ["estimate", *_RUN]),
    ("estimate_higher_order", ["estimate", *_RUN, "--kernel", "higher_order",
                               "--kernel-order", "4"]),
    ("bootstrap_frozen", ["bootstrap", *_RUN, "--boot-b", "40", "--seed", "3"]),
    ("bootstrap_recompute", ["bootstrap", *_RUN, "--boot-b", "20", "--seed", "3",
                             "--recompute-weights"]),
    ("sweep_s", ["sweep", *_SWEEP, "--param", "s", "--from", "15", "--to", "16"]),
    ("sweep_sprime", ["sweep", *_SWEEP, "--param", "sprime", "--from", "10",
                      "--to", "12", "--recompute-weights"]),
    ("simulate", ["simulate", "--sizes", "50,60", "--replications", "2",
                  "--boot-b", "20", "--grid-m", "20", "--seed", "6"]),
    # n <= 2m: the measures come from the atoms, with recomputed weights here
    ("simulate_atoms", ["simulate", "--sizes", "30,40", "--replications", "2",
                        "--boot-b", "20", "--grid-m", "20", "--seed", "6"]),
    # n = 600 <= 2m, frozen weights: both values share one sign matrix
    ("sweep_s_atoms", ["sweep", *_INPUT, "--param", "s", "--from", "15", "--to", "16",
                       "--grid-m", "400", "--boot-b", "20", "--seed", "4",
                       "--bandwidth-c", "30"]),
    # one failure per exit code; none of them creates its out-dir
    ("fail_usage", ["estimate", *_INPUT, "--scenario", "max_with(cedu, 16)",
                    "--grid-m", "7"]),
    ("fail_data", ["estimate", *_INPUT, "--y1", "pincome", "--y2", "wage", "--x", "cedu",
                   "--scenario", "max_with(cedu, 16)"]),
    ("fail_numeric", ["estimate", *_INPUT, "--y1", "pincome", "--y2", "cincome",
                      "--x", "cedu", "--scenario", "max_with(cedu, 20)",
                      "--bandwidth-c", "0.5", "--grid-m", "20"]),
)


def outputs(workdir):
    """{relative golden path: text} of every command, run in ``workdir``."""
    texts = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cfcopula_main([*argv, "--out-dir", name])
            texts[f"{name}/console.txt"] = (
                f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
            )
            for path in sorted(Path(name).iterdir()) if Path(name).is_dir() else ():
                data = path.read_bytes()
                if path.name == "synth.csv":
                    texts[f"{name}/synth.csv.sha256"] = hashlib.sha256(data).hexdigest() + "\n"
                else:
                    texts[f"{name}/{path.name}"] = data.decode("utf-8")
    finally:
        os.chdir(here)
    return texts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path, default=OUTPUTS,
                        help="directory to write the golden files to")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        texts = outputs(workdir)
    shutil.rmtree(args.out, ignore_errors=True)
    for rel, text in texts.items():
        path = args.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
    print(f"{len(texts)} golden files -> {args.out}")


if __name__ == "__main__":
    main()
