"""A generated-input test of the command line's exit-code contract.

Hypothesis writes CSV bytes around a valid header, config text, scenario
strings and option values at sizes a run can allocate (n <= 60, m <= 20,
B <= 5), and runs ``cli.main`` on them in-process.  Whatever the input,
the command returns 0, 1, 2 or 3 and raises nothing; a failing command's
last stderr line names its kind; and a usage error (exit 1) leaves no
output directory behind.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cfcopula.cli import main

HEADER = ("y1", "y2", "x", "xs")
PREFIXES = {1: "error:", 2: "data error:", 3: "numeric failure:"}

_NUMBER = st.one_of(
    st.integers(-3, 20).map(str),
    st.floats(-5, 25, allow_nan=False).map(repr),
)
# a corrupt cell: text float() reads as not finite, the extremes of a
# double, blanks, quotes and garbage
_ODD_CELL = st.sampled_from(["", " ", "nan", "inf", "-inf", "1.7e308", "-1.7e308",
                             "5e-324", '"3"', '"4,5"', "abc", "0x1p3", "1_0"])
# bytes that are not UTF-8, spliced into a file
_BAD_BYTES = st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\x80\x80"])


def _sometimes(draw, p=4):
    """True about once in ``p`` draws."""
    return draw(st.integers(0, p - 1)) == 1


@st.composite
def csv_bytes(draw):
    """A CSV file of at most 60 data rows under the header y1,y2,x,xs: xs is
    x or x moved a little, and at times a cell is odd, a row ragged or a
    byte not UTF-8."""
    rows = []
    for _ in range(draw(st.integers(0, 60))):
        y1, y2, x = (draw(_NUMBER) for _ in range(3))
        xs = x if not _sometimes(draw) else repr(float(x) + draw(st.floats(-2, 2)))
        rows.append([y1, y2, x, xs])
    if rows and _sometimes(draw, 3):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 3))] = draw(_ODD_CELL)
    if rows and _sometimes(draw, 8):
        draw(st.sampled_from(rows)).extend(draw(st.lists(_NUMBER, max_size=1)))
        draw(st.sampled_from(rows)).pop()
    lines = [",".join(HEADER)] + [",".join(row) for row in rows]
    data = ("\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))).encode()
    if _sometimes(draw, 10):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_BAD_BYTES) + data[at:]
    return data


def _mostly(valid, invalid):
    """``valid`` about seven draws in eight, else ``invalid``."""
    return st.integers(0, 7).flatmap(lambda k: invalid if k == 3 else valid)


_COLUMN = _mostly(st.just("x"), st.sampled_from(list(HEADER) + ["cedu", ""]))
_CALL = _mostly(
    st.one_of(
        st.builds("max_with({}, {})".format, _COLUMN, _NUMBER),
        st.builds("set_constant({}, {})".format, _COLUMN, _NUMBER),
        st.builds("conditional_max({}, {}, {})".format, _COLUMN, _COLUMN, _NUMBER),
        st.builds("conditional_max({}, {}, {}, floor={})".format, _COLUMN, _COLUMN,
                  _NUMBER, st.sampled_from(["16", "nan", "1e400"])),
        st.just("identity"),
    ),
    st.one_of(st.sampled_from(["", "max_with(x", "max_with(x, nan)", "min_with(x, 1)"]),
              st.text(max_size=12)),
)
SCENARIOS = st.lists(_CALL, min_size=1, max_size=2).map("; ".join)

# option values: within the sizes above, mostly valid, at times around or
# past each option's bounds
_VALUES = {
    "grid_m": _mostly(st.sampled_from(["2", "10", "20"]), st.integers(-2, 19).map(str)),
    "bandwidth_c": _mostly(st.sampled_from(["5.5", "30", "1e3"]),
                           st.sampled_from(["0.01", "0", "-1", "nan", "inf", "1e-300",
                                            "1e300", "abc"])),
    "boot_b": _mostly(st.integers(2, 5).map(str), st.integers(-1, 1).map(str)),
    "level": _mostly(st.sampled_from(["0.9", "0.5"]),
                     st.sampled_from(["0", "1", "1.5", "nan"])),
    "seed": _mostly(st.integers(0, 5).map(str), st.just("-1")),
    "kernel": _mostly(st.sampled_from(["epanechnikov", "gaussian_truncated"]),
                      st.sampled_from(["higher_order", "box"])),
    "kernel_order": _mostly(st.just("2"), st.sampled_from(["3", "4", "6", "0"])),
    "sizes": st.lists(_mostly(st.integers(2, 60), st.integers(-1, 1)).map(str),
                      min_size=1, max_size=2).map(",".join),
    "replications": _mostly(st.integers(1, 2).map(str), st.sampled_from(["0", "-1"])),
    "param": _mostly(st.sampled_from(["s", "sprime"]), st.just("t")),
    "from": st.integers(-1, 18).map(str),
    "to": _mostly(st.integers(16, 18), st.integers(-1, 15)).map(str),
    "column": _COLUMN,
    "trigger": _COLUMN,
    "floor": _mostly(st.just("16"), st.sampled_from(["nan", "-1e400"])),
    "n": _mostly(st.integers(2, 60).map(str), st.integers(-1, 1).map(str)),
    "recompute_weights": _mostly(st.sampled_from(["true", "false"]), st.just("maybe")),
}
_ROLES = ["--y1", "y1", "--y2", "y2", "--x", "x"]
# the options each command is drawn with, beyond its roles and input
_COMMAND_KEYS = {
    "estimate": ("grid_m", "bandwidth_c", "kernel", "kernel_order"),
    "bootstrap": ("grid_m", "bandwidth_c", "kernel", "kernel_order", "boot_b",
                  "level", "seed"),
    "sweep": ("grid_m", "bandwidth_c", "boot_b", "seed", "param", "from", "to",
              "column", "trigger", "floor"),
    "simulate": ("grid_m", "bandwidth_c", "boot_b", "level", "seed", "sizes",
                 "replications"),
    "synth-data": ("seed", "n"),
}


@st.composite
def config_bytes(draw, keys):
    """Config text over the command's keys, a key of another command, an
    unknown key and broken lines; at times with bytes that are not UTF-8."""
    pool = list(keys) + ["boot_b", "recompute_weights", "grid-m"] + [
        "nonsense"] * draw(st.integers(0, 1))
    lines = []
    for key in draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)):
        value = draw(_VALUES.get(key.replace("-", "_"), st.just("1")))
        lines.append(draw(_mostly(
            st.sampled_from([f"{key} = {value}", f"{key}={value}  # c", "# comment", ""]),
            st.just(f"{key} {value}"))))
    data = "\n".join(lines).encode()
    if _sometimes(draw, 10):
        data += draw(_BAD_BYTES)
    return data


# the options a command always gets, as a flag or as a config line: the
# sizes, whose defaults are too large to run here, and the sweep's range
# and columns, whose defaults name columns of the synthetic file
_ALWAYS = ("grid_m", "boot_b", "sizes", "replications", "n", "param", "from", "to",
           "column", "trigger")


@st.composite
def invocations(draw, command):
    """(argv without paths, CSV bytes or None, config bytes or None) of
    ``command``."""
    keys = _COMMAND_KEYS[command]
    argv = [command]
    csv = None
    if command in ("estimate", "bootstrap", "sweep"):
        csv = draw(csv_bytes())
        argv += _ROLES
        if command != "sweep":
            if draw(st.booleans()):
                argv += ["--xstar", "xs"]
            else:
                argv += ["--scenario", draw(SCENARIOS)]
    flags = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    if command == "bootstrap" and draw(st.booleans()):
        argv.append("--recompute-weights")
    config = draw(config_bytes(keys)) if draw(st.booleans()) else None
    for key in keys:
        if key in _ALWAYS and key not in flags:
            if config is not None and draw(st.booleans()):
                config += f"\n{key} = {draw(_VALUES[key])}\n".encode()
            else:
                flags.append(key)
    for key in flags:
        argv += ["--" + key.replace("_", "-"), draw(_VALUES[key])]
    return argv, csv, config


@pytest.mark.parametrize("command", sorted(_COMMAND_KEYS))
@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_every_generated_command_exits_with_a_documented_code(command, data):
    argv, csv, config = data.draw(invocations(command))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        if csv is not None:
            (tmp / "in.csv").write_bytes(csv)
            argv += ["--input", str(tmp / "in.csv")]
        if config is not None:
            (tmp / "run.cfg").write_bytes(config)
            argv += ["--config", str(tmp / "run.cfg")]
        argv += ["--out-dir", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        if code:
            last = stderr.getvalue().splitlines()[-1]
            assert last.startswith(PREFIXES[code]), (argv, last)
        if code == 1:
            assert not out.exists(), argv
