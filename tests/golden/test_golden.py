"""Every command's outputs match the recorded goldens (``record_golden.py``).

Text matches exactly and each number within 1e-12 absolute, so that other
numpy builds and Python versions pass while any change to what a command
computes or prints fails.
"""

import math
import re

from record_golden import OUTPUTS, outputs

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _mismatch(got, want):
    """The first difference of ``got`` from ``want``, or None."""
    got_text, want_text = _NUMBER.split(got), _NUMBER.split(want)
    if got_text != want_text:
        return next((g, w) for g, w in zip(got_text + [None], want_text + [None])
                    if g != w)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        a, b = float(g), float(w)
        if not (a == b or abs(a - b) <= 1e-12 or (math.isnan(a) and math.isnan(b))):
            return g, w
    return None


def test_command_outputs_match_the_goldens(tmp_path):
    want = {
        path.relative_to(OUTPUTS).as_posix(): path.read_bytes().decode("utf-8")
        for path in OUTPUTS.rglob("*") if path.is_file()
    }
    got = outputs(tmp_path)
    assert sorted(got) == sorted(want)
    for rel in sorted(want):
        if rel.endswith(".sha256"):
            assert got[rel] == want[rel], rel
        else:
            assert _mismatch(got[rel], want[rel]) is None, rel
