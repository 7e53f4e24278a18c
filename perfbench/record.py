"""Record the reference outputs that every benchmark run is checked against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record.py --label "<commit>"

For each size it walks pool candidates 0, 1, 2, ... and runs every workload
on each, until it has the wanted number of entries, then writes
``perfbench/reference.json``: per entry the seeds, the SHA-256 of the
synthetic input file and the rows of each workload's checked output file.
A candidate whose synthetic file leaves some manipulated row without a
kernel donor (exit code 3 from a synthetic-file workload) is skipped and
listed; any other failure stops the recording, because a reference must
come from a clean run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads as wl

_POOL_ENTROPY = 0xCFC0B1A
# a synthetic file can leave a manipulated row without a kernel donor at
# bandwidth constant 30; the program then stops with exit code 3 by design
NO_DONOR_EXIT = 3


def candidate_seeds(index):
    """Synthetic-data, bootstrap and Monte Carlo seeds of pool candidate ``index``."""
    words = np.random.SeedSequence(
        entropy=_POOL_ENTROPY, spawn_key=(index,)
    ).generate_state(3)
    synth, boot, mc = (int(w) for w in words)
    return {"synth_seed": synth, "boot_seed": boot, "mc_seed": mc}


def _run(cli, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = wl.run_cli(cli.main, argv)
    return code, err.getvalue().strip()


def record_candidate(cli, size, seeds, work):
    """(entry, None) for a clean candidate, (None, skip note) for a no-donor one."""
    input_path, digest = wl.make_synth(cli.main, size, seeds, work / "input")
    outputs = {}
    for workload in wl.WORKLOADS.values():
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        code, message = _run(
            cli, wl.command_argv(workload, size, seeds, input_path, out)
        )
        if code == NO_DONOR_EXIT and workload.needs_synth:
            return None, {"workload": workload.name, "exit": code, "message": message}
        if code != 0:
            raise SystemExit(f"{workload.name} {size} {seeds}: exit {code}: {message}")
        outputs[workload.name] = wl.read_rows(out / workload.output)
    return {"seeds": seeds, "synth_sha256": digest, "outputs": outputs}, None


def record(cli, work):
    reference = {}
    for size, count in wl.POOL.items():
        entries, skipped = [], []
        candidate = 0
        while len(entries) < count:
            seeds = candidate_seeds(candidate)
            entry, skip = record_candidate(cli, size, seeds, work)
            if entry is not None:
                entries.append(entry)
            else:
                skipped.append({"candidate": candidate, "seeds": seeds, **skip})
            print(f"{size} candidate {candidate}: "
                  f"{'recorded' if entry else 'skipped, ' + skip['message']}",
                  file=sys.stderr)
            candidate += 1
        reference[size] = {"entries": entries, "skipped": skipped}
    return reference


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="the commit the reference outputs come from")
    args = parser.parse_args(argv)
    root = Path.cwd()
    cli = wl.import_cli(root)
    work = root / ".perfbench_out" / "record"
    shutil.rmtree(work, ignore_errors=True)
    try:
        reference = record(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {"source": args.label, "tolerance": wl.TOLERANCE, **reference}
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
