"""End-to-end command tests driven through main(argv) in process."""

import argparse
import csv
import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cfcopula import cli
from cfcopula.bootstrap import derived_seed, estimate, run_bootstrap, run_bootstraps
from cfcopula.cli import main
from cfcopula.copula import ObservationSample, empirical_copula
from cfcopula.data import (
    DataError, SynthConfig, Table, build_sample, default_synth_roles, ingest,
    synth_table, write_table,
)
from cfcopula.kernels import KernelSpec
from cfcopula.scenarios import Transform, apply_scenario, parse_scenario
from cfcopula.simulation import run_study


def read_grid_csv(path):
    """(m, values) of a long-format grid CSV written by ``write_grid_csv``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u1", "u2", "value"]
    m = round((len(rows) - 1) ** 0.5) - 1
    values = np.array([float(r[2]) for r in rows[1:]]).reshape(m + 1, m + 1)
    return m, values


@pytest.fixture()
def dataset(tmp_path):
    """Small one-covariate table with a matching counterfactual column."""
    rng = np.random.default_rng(42)
    n = 400
    x = rng.normal(size=n)
    table = Table(
        names=("wage", "spend", "x", "xs"),
        columns={
            "wage": 2.0 * x + rng.normal(size=n),
            "spend": 0.7 * x + rng.normal(size=n),
            "x": x,
            "xs": 0.8 * x,
        },
    )
    path = tmp_path / "panel.csv"
    write_table(table, path)
    return path, table


def _roles_args(path):
    return ["--input", str(path), "--y1", "wage", "--y2", "spend", "--x", "x"]


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_estimate_writes_all_outputs(dataset, tmp_path):
    path, _ = dataset
    out = tmp_path / "out"
    rc = main(["estimate", *_roles_args(path), "--xstar", "xs",
               "--grid-m", "20", "--out-dir", str(out)])
    assert rc == 0
    for name in ("grid_actual.csv", "grid_counterfactual.csv",
                 "measures.csv", "diagnostics.csv", "summary.txt"):
        assert (out / name).exists()
    rows = _read_rows(out / "measures.csv")
    assert rows[0] == ["target", "measure", "value"]
    targets = {r[0] for r in rows[1:]}
    assert targets == {"actual", "counterfactual", "effect"}
    assert len(rows) == 1 + 12
    for r in rows[1:]:
        assert abs(float(r[2])) <= 1.0


def test_actual_grid_matches_in_process_estimate(dataset, tmp_path):
    path, table = dataset
    out = tmp_path / "out"
    assert main(["estimate", *_roles_args(path), "--scenario", "identity",
                 "--grid-m", "20", "--out-dir", str(out)]) == 0
    m, values = read_grid_csv(out / "grid_actual.csv")
    sample = ObservationSample(
        y1=table.columns["wage"], y2=table.columns["spend"],
        x=table.columns["x"], xstar=table.columns["x"],
    )
    grid = empirical_copula(sample, m=20)
    assert m == 20
    assert np.array_equal(values, grid.values)  # CSV round trip cannot drift


@pytest.mark.parametrize("family, order", [("epanechnikov", 2), ("higher_order", 4)])
def test_weight_rows_are_those_of_the_in_process_estimate(dataset, tmp_path,
                                                          family, order):
    path, table = dataset
    out = tmp_path / "out"
    assert main(["estimate", *_roles_args(path), "--xstar", "xs", "--grid-m", "20",
                 "--kernel", family, "--kernel-order", str(order),
                 "--out-dir", str(out)]) == 0
    sample = ObservationSample(
        y1=table.columns["wage"], y2=table.columns["spend"],
        x=table.columns["x"], xstar=table.columns["xs"],
    )
    est = estimate(sample, KernelSpec(family=family, order=order), 5.5, 20)
    w = est.w
    negative = int((w < 0).sum())
    assert (negative > 0) == (order > 2)
    diagnostics = dict(_read_rows(out / "diagnostics.csv")[1:])
    assert diagnostics["weight_sum"] == repr(float(w.sum()))
    assert diagnostics["weight_min"] == repr(float(w.min()))
    assert diagnostics["weight_max"] == repr(float(w.max()))
    assert diagnostics["negative_count"] == str(negative)
    summary = (out / "summary.txt").read_text().splitlines()
    assert (f"weights: sum={w.sum():.6f}, range [{w.min():.4f}, {w.max():.4f}], "
            f"negative={negative}") in summary
    # the in-process estimate's health record holds what the command wrote
    health = est.health
    assert sorted(health) == sorted([
        "affected_fraction", "weight_sum", "weight_min", "weight_max",
        "negative_count", "support_rows", "order_warning"])
    for key in ("affected_fraction", "weight_sum", "weight_min", "weight_max"):
        assert diagnostics[key] == repr(health[key]), key
    assert diagnostics["negative_count"] == str(health["negative_count"])
    assert diagnostics["support_violations"] == str(health["support_rows"].size) == "0"
    assert diagnostics["support_rows"] == ""
    assert health["order_warning"] is None
    assert diagnostics["kernel_order_check"] == "pass"
    assert f"affected rows: {health['affected_fraction']:.2%}" in summary


def _support_warnings(summary):
    return [line for line in summary.splitlines() if "fall outside" in line]


def test_support_violations_are_reported_up_to_their_cuts(synth_600, tmp_path):
    """pedu is at most 17 in the synthetic file, so raising it to 17.5 puts
    every row outside the sampled covariate box: diagnostics.csv lists the
    first 50 rows and the summary the first 10, then " ..."."""
    out = tmp_path / "out"
    assert main(["bootstrap", "--input", str(synth_600),
                 "--scenario", "max_with(pedu, 17.5)", "--bandwidth-c", "30",
                 "--grid-m", "20", "--boot-b", "20", "--out-dir", str(out)]) == 0
    diagnostics = dict(_read_rows(out / "diagnostics.csv")[1:])
    assert diagnostics["support_violations"] == "600"
    assert diagnostics["support_rows"] == ";".join(str(r) for r in range(50))
    assert diagnostics["affected_fraction"] == "1.0"
    assert _support_warnings((out / "summary.txt").read_text(encoding="utf-8")) == [
        "warning: 600 manipulated rows fall outside the sampled covariate box "
        "(rows 0, 1, 2, 3, 4, 5, 6, 7, 8, 9 ...); weights extrapolate"]


def test_ten_support_violations_are_all_shown(tmp_path, capsys):
    """A table whose manipulation moves ten rows just past the largest x:
    the summary names all ten, with no " ..."."""
    rng = np.random.default_rng(7)
    n = 300
    x = rng.normal(size=n)
    xs = x.copy()
    outside = [3, 11, 40, 41, 99, 150, 151, 200, 250, 299]
    xs[outside] = x.max() + 0.05
    table = Table(names=("wage", "spend", "x", "xs"),
                  columns={"wage": x + rng.normal(size=n),
                           "spend": 0.5 * x + rng.normal(size=n), "x": x, "xs": xs})
    path = tmp_path / "panel.csv"
    write_table(table, path)
    out = tmp_path / "out"
    assert main(["estimate", *_roles_args(path), "--xstar", "xs", "--grid-m", "20",
                 "--out-dir", str(out)]) == 0
    diagnostics = dict(_read_rows(out / "diagnostics.csv")[1:])
    assert diagnostics["support_violations"] == "10"
    assert diagnostics["support_rows"] == ";".join(map(str, outside))
    warning = ("warning: 10 manipulated rows fall outside the sampled covariate box "
               f"(rows {', '.join(map(str, outside))}); weights extrapolate")
    assert _support_warnings((out / "summary.txt").read_text(encoding="utf-8")) == [warning]
    assert _support_warnings(capsys.readouterr().out) == [warning]


def test_estimate_and_bootstrap_agree_on_the_point_outputs(synth_600, tmp_path):
    """The two commands share one body: with the same point options they write
    the same grids and values, and bootstrap's diagnostics are estimate's
    plus its three bootstrap rows."""
    point = ["--input", str(synth_600), "--scenario", "max_with(cedu, 16)",
             "--bandwidth-c", "30", "--grid-m", "20"]
    est_out, boot_out = tmp_path / "estimate", tmp_path / "bootstrap"
    assert main(["estimate", *point, "--out-dir", str(est_out)]) == 0
    assert main(["bootstrap", *point, "--boot-b", "20", "--level", "0.9",
                 "--seed", "3", "--out-dir", str(boot_out)]) == 0
    for name in ("grid_actual.csv", "grid_counterfactual.csv"):
        assert (est_out / name).read_bytes() == (boot_out / name).read_bytes(), name
    est_rows = _read_rows(est_out / "measures.csv")
    boot_rows = _read_rows(boot_out / "measures.csv")
    assert est_rows[0] == ["target", "measure", "value"]
    assert boot_rows[0] == ["target", "measure", "value", "lo", "hi"]
    assert [row[:3] for row in boot_rows[1:]] == est_rows[1:]
    assert _read_rows(boot_out / "diagnostics.csv") == (
        _read_rows(est_out / "diagnostics.csv")
        + [["bootstrap_b", "20"], ["level", "0.9"], ["seed", "3"]])


def test_identity_scenario_with_huge_bandwidth_reproduces_actual(dataset, tmp_path):
    path, table = dataset
    out = tmp_path / "out"
    assert main(["estimate", *_roles_args(path), "--scenario", "identity",
                 "--bandwidth-c", "1e6", "--grid-m", "50",
                 "--out-dir", str(out)]) == 0
    _, actual = read_grid_csv(out / "grid_actual.csv")
    _, cf = read_grid_csv(out / "grid_counterfactual.csv")
    n = table.n
    assert np.max(np.abs(cf - actual)) <= 2.0 / np.sqrt(n)


def test_estimate_is_deterministic(dataset, tmp_path):
    path, _ = dataset
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["estimate", *_roles_args(path), "--xstar", "xs",
                     "--grid-m", "20", "--out-dir", str(out)]) == 0
        outs.append((out / "measures.csv").read_bytes())
    assert outs[0] == outs[1]


def test_bootstrap_outputs_and_seed_determinism(dataset, tmp_path):
    path, _ = dataset
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["bootstrap", *_roles_args(path), "--xstar", "xs",
                   "--grid-m", "20", "--boot-b", "12", "--seed", "7",
                   "--out-dir", str(out)])
        assert rc == 0
        rows = _read_rows(out / "measures.csv")
        assert rows[0] == ["target", "measure", "value", "lo", "hi"]
        for r in rows[1:]:
            lo, val, hi = float(r[3]), float(r[2]), float(r[4])
            assert lo <= val <= hi
        blobs.append((out / "measures.csv").read_bytes())
    assert blobs[0] == blobs[1]

    out = tmp_path / "c"
    assert main(["bootstrap", *_roles_args(path), "--xstar", "xs",
                 "--grid-m", "20", "--boot-b", "12", "--seed", "8",
                 "--out-dir", str(out)]) == 0
    assert (out / "measures.csv").read_bytes() != blobs[0]


def test_config_file_with_flag_override(dataset, tmp_path):
    path, _ = dataset
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        f"input = {path}\n"
        "y1 = wage\ny2 = spend\nx = x\nxstar = xs\n"
        "grid_m = 10\n"
        "bandwidth-c = 2.5\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(["estimate", "--config", str(cfg), "--bandwidth-c", "3.5",
               "--out-dir", str(out)])
    assert rc == 0
    diag = {r[0]: r[1] for r in _read_rows(out / "diagnostics.csv")}
    assert float(diag["bandwidth_c"]) == 3.5  # flag beats config
    assert int(diag["grid_m"]) == 10          # config beats default


class _Built(Exception):
    """Stops a command once it has built its configuration."""


# (config key, field of the built configuration, config text and value,
# flag and value) of each option
_RUN_OPTIONS = [
    ("grid_m", "grid_m", "10", 10, ["--grid-m", "20"], 20),
    ("bandwidth_c", "bandwidth_c", "2.5", 2.5, ["--bandwidth-c", "3.5"], 3.5),
    ("kernel", "family", "higher_order", "higher_order",
     ["--kernel", "gaussian_truncated"], "gaussian_truncated"),
    ("kernel_order", "order", "4", 4, ["--kernel-order", "2"], 2),
]
_BOOT_OPTIONS = [
    ("boot_b", "B", "30", 30, ["--boot-b", "40"], 40),
    ("level", "level", "0.9", 0.9, ["--level", "0.8"], 0.8),
    ("seed", "seed", "3", 3, ["--seed", "4"], 4),
    # the flag can only switch it on
    ("recompute_weights", "recompute_weights", "yes", True,
     ["--recompute-weights"], True),
]
_SWEEP_OPTIONS = [
    ("column", "column", "pincome", "pincome", ["--column", "cincome"], "cincome"),
    ("trigger", "trigger", "cedu", "cedu", ["--trigger", "pincome"], "pincome"),
    ("floor", "floor", "15.5", 15.5, ["--floor", "14"], 14.0),
]
_STUDY_OPTIONS = [
    ("sizes", "sizes", "30,40", (30, 40), ["--sizes", "50"], (50,)),
    ("replications", "replications", "2", 2, ["--replications", "3"], 3),
    ("boot_b", "bootstrap_b", "0", 0, ["--boot-b", "20"], 20),
    ("level", "level", "0.9", 0.9, ["--level", "0.8"], 0.8),
    ("grid_m", "m", "20", 20, ["--grid-m", "30"], 30),
    ("bandwidth_c", "bandwidth_constant", "2.5", 2.5, ["--bandwidth-c", "3.5"], 3.5),
    ("seed", "seed", "3", 3, ["--seed", "4"], 4),
    # a config file is the only way to freeze the weights
    ("recompute_weights", "recompute_weights", "no", False, [], False),
]
_SYNTH_OPTIONS = [
    ("n", "n", "100", 100, ["--n", "200"], 200),
    ("seed", "seed", "3", 3, ["--seed", "4"], 4),
]
# command: (the call that stops it, arguments, options)
_COMMANDS = {
    "estimate": ("ingest", ["--scenario", "identity"], _RUN_OPTIONS),
    "bootstrap": ("ingest", ["--scenario", "identity"], _RUN_OPTIONS + _BOOT_OPTIONS),
    "sweep": ("apply_scenario", ["--param", "sprime", "--from", "8", "--to", "9"],
              _RUN_OPTIONS + _BOOT_OPTIONS + _SWEEP_OPTIONS),
    "simulate": ("run_study", [], _STUDY_OPTIONS),
    "synth-data": ("synth_table", [], _SYNTH_OPTIONS),
}


def _stopped_run(command, synth_600, monkeypatch):
    """The arguments ``command`` needs, and a function that runs it with the
    given arguments up to the call that stops it and returns every
    configuration and ``Transform`` it built."""
    stop, argv, _ = _COMMANDS[command]
    if stop in ("ingest", "apply_scenario"):
        argv = ["--input", str(synth_600), *argv]
    seen = []

    def recording(real):
        def build(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]
        return build

    def stopping(*args, **kwargs):
        raise _Built

    monkeypatch.setattr(cli, "_build", recording(cli._build))
    monkeypatch.setattr(cli, "Transform", recording(Transform))
    monkeypatch.setattr(cli, stop, stopping)

    def run(*args):
        seen.clear()
        with pytest.raises(_Built):
            main([command, *args])
        return list(seen)

    return run, argv


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_an_option_is_its_flag_else_its_config_value_else_its_default(
        command, synth_600, tmp_path, monkeypatch):
    options = _COMMANDS[command][2]
    run, argv = _stopped_run(command, synth_600, monkeypatch)

    def built(*extra):
        objs = run(*argv, *extra, "--out-dir", str(tmp_path / "out"))
        return {f.name: getattr(obj, f.name)
                for obj in objs for f in dataclasses.fields(obj)}, objs

    got, objs = built()
    # the defaults are those of the classes the command builds
    defaults = {f.name: f.default for obj in objs for f in dataclasses.fields(obj)}
    if command == "sweep":
        # the sweep's scenario options have no configuration class
        defaults.update(column="cedu", trigger="pedu", floor=16.0)
    for _, field, _, _, _, _ in options:
        assert got[field] == defaults[field], field
    config = tmp_path / "options.cfg"
    config.write_text("".join(f"{key} = {text}\n" for key, _, text, *_ in options),
                      encoding="utf-8")
    got, _ = built("--config", str(config))
    for _, field, _, value, _, _ in options:
        assert value != defaults[field], field
        assert got[field] == value, field
    flags = [arg for *_, flag, _ in options for arg in flag]
    got, _ = built("--config", str(config), *flags)
    for _, field, _, _, _, value in options:
        assert got[field] == value, field


def _flag_keys(command):
    """The option keys ``command`` has a flag for, read off its parser."""
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {action.dest for action in commands.choices[command]._actions} - {
        "help", "config"}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_command_reads_the_config_keys_it_has_flags_for(command, synth_600,
                                                          tmp_path, monkeypatch, capsys):
    run, argv = _stopped_run(command, synth_600, monkeypatch)
    flags = _flag_keys(command)
    assert flags <= set(cli._OPTIONS)
    # every key whose reader can fail; "," is no int, float, boolean or list
    for key in [key for key, (read, _) in cli._OPTIONS.items() if read is not str]:
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"{key} = ,\n", encoding="utf-8")
        args = [*argv, "--config", str(config), "--out-dir", str(tmp_path / "out")]
        flag = "--" + key.replace("_", "-")
        if flag in args:
            # a flag wins over its config value, so leave it out
            del args[args.index(flag):args.index(flag) + 2]
        if key in flags or (command, key) == ("simulate", "recompute_weights"):
            assert main([command, *args]) == 1, key
            assert capsys.readouterr().err.startswith(f"error: config key {key}=','"), key
        else:
            # a key the command has no flag for is never read
            run(*args)


def test_estimate_ignores_the_bootstrap_options_of_a_shared_config(dataset, tmp_path,
                                                                   capsys):
    path, _ = dataset
    argv = ["estimate", *_roles_args(path), "--xstar", "xs", "--grid-m", "20"]
    assert main(argv + ["--out-dir", str(tmp_path / "plain")]) == 0
    config = tmp_path / "shared.cfg"
    config.write_text("boot_b = 1\nlevel = 2\nseed = -1\n", encoding="utf-8")
    assert main(argv + ["--config", str(config),
                        "--out-dir", str(tmp_path / "shared")]) == 0
    for name in ("grid_actual.csv", "grid_counterfactual.csv", "measures.csv",
                 "diagnostics.csv", "summary.txt"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "shared" / name).read_bytes()), name
    capsys.readouterr()
    # estimate draws nothing at random, so it has no seed
    assert main(argv + ["--seed", "3", "--out-dir", str(tmp_path / "seeded")]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "seeded").exists()


def test_simulate_config_can_freeze_the_weights(tmp_path, monkeypatch):
    import cfcopula.cli as cli

    studies = []

    def spy(config):
        studies.append(config)
        return run_study(config)

    monkeypatch.setattr(cli, "run_study", spy)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("recompute_weights = false\n", encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--sizes", "30",
                 "--replications", "1", "--boot-b", "4", "--grid-m", "10",
                 "--out-dir", str(out)]) == 0
    assert [study.recompute_weights for study in studies] == [False]
    assert "recompute_weights=False\n" in (out / "manifest.txt").read_text()
    # recomputing is the default; there is no flag for it
    assert main(["simulate", "--recompute-weights", "--out-dir", str(out)]) == 1


def test_sweep_table_shape_and_affected_fraction(dataset, tmp_path):
    rng = np.random.default_rng(3)
    n = 200
    edu = rng.integers(8, 18, size=n).astype(float)
    table = Table(
        names=("wage", "spend", "edu"),
        columns={
            "wage": 0.3 * edu + rng.normal(size=n),
            "spend": 0.2 * edu + rng.normal(size=n),
            "edu": edu,
        },
    )
    path = tmp_path / "edu.csv"
    write_table(table, path)
    out = tmp_path / "out"
    rc = main(["sweep", "--input", str(path), "--y1", "wage", "--y2", "spend",
               "--x", "edu", "--param", "s", "--from", "10", "--to", "12",
               "--column", "edu", "--grid-m", "20", "--boot-b", "8",
               "--seed", "5", "--out-dir", str(out)])
    assert rc == 0
    rows = _read_rows(out / "sweep.csv")
    assert rows[0] == ["value", "measure", "target", "point", "lo", "hi",
                       "affected_fraction"]
    assert len(rows) == 1 + 3 * 12
    for s in (10, 11, 12):
        got = {float(r[6]) for r in rows[1:] if r[0] == str(s)}
        assert got == {np.mean(edu < s)}
    for r in rows[1:]:
        assert float(r[4]) <= float(r[3]) <= float(r[5])


def test_sweep_reads_its_input_once(dataset, tmp_path, monkeypatch):
    import cfcopula.cli as cli

    path, _ = dataset
    calls = []

    def counting_ingest(*args, **kwargs):
        calls.append(args)
        return ingest(*args, **kwargs)

    monkeypatch.setattr(cli, "ingest", counting_ingest)
    rc = main(["sweep", *_roles_args(path), "--param", "s", "--from", "0",
               "--to", "2", "--column", "x", "--bandwidth-c", "20",
               "--boot-b", "4", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert len(calls) == 1


def test_affected_fraction_is_the_direct_row_count(tmp_path):
    """The affected fraction of diagnostics.csv and sweep.csv is the share of
    rows whose covariate vector the manipulation changed, for a scenario,
    for explicit xstar columns and for each value of a sweep."""
    rng = np.random.default_rng(7)
    n = 400
    edu = rng.integers(7, 18, size=n).astype(float)
    z = rng.normal(size=n)
    columns = {"wage": 0.3 * edu + z + rng.normal(size=n),
               "spend": 0.2 * edu + rng.normal(size=n), "edu": edu, "z": z,
               "edus": np.where(rng.random(n) < 0.3, edu + 1.0, edu),
               "zs": np.where(rng.random(n) < 0.2, z + 0.5, z)}
    path = tmp_path / "edu.csv"
    write_table(Table(names=tuple(columns), columns=columns), path)
    common = ["--input", str(path), "--y1", "wage", "--y2", "spend", "--x", "edu,z",
              "--bandwidth-c", "30", "--grid-m", "20"]

    def affected(extra, out):
        assert main(["estimate", *common, *extra, "--out-dir", str(out)]) == 0
        return dict(_read_rows(out / "diagnostics.csv")[1:])["affected_fraction"]

    assert (affected(["--scenario", "max_with(edu, 14)"], tmp_path / "scenario")
            == repr(float(np.mean(edu < 14))))
    changed = (columns["edus"] != edu) | (columns["zs"] != z)
    assert 0 < changed.mean() < 1
    assert (affected(["--xstar", "edus,zs"], tmp_path / "explicit")
            == repr(float(changed.mean())))
    out = tmp_path / "sweep"
    assert main(["sweep", *common, "--param", "s", "--from", "12", "--to", "14",
                 "--column", "edu", "--boot-b", "4", "--out-dir", str(out)]) == 0
    rows = _read_rows(out / "sweep.csv")[1:]
    for s in (12, 13, 14):
        assert {r[6] for r in rows if r[0] == str(s)} == {repr(float(np.mean(edu < s)))}


def test_sweep_ignores_the_scenario_and_xstar_of_a_shared_config(synth_600, tmp_path):
    argv = ["sweep", "--input", str(synth_600), "--param", "s", "--from", "15",
            "--to", "16", "--bandwidth-c", "30", "--grid-m", "20", "--boot-b", "6",
            "--seed", "3"]
    assert main(argv + ["--out-dir", str(tmp_path / "plain")]) == 0
    config = tmp_path / "shared.cfg"
    config.write_text("scenario = max_with(cedu, 16)\nxstar = cedu,pedu\n",
                      encoding="utf-8")
    assert main(argv + ["--config", str(config),
                        "--out-dir", str(tmp_path / "shared")]) == 0
    assert ((tmp_path / "plain" / "sweep.csv").read_bytes()
            == (tmp_path / "shared" / "sweep.csv").read_bytes())


def test_sweep_has_no_scenario_or_xstar_flag(synth_600, tmp_path, capsys):
    fresh = tmp_path / "never"
    for flag, value in (("--scenario", "max_with(cedu, 16)"), ("--xstar", "cedu")):
        assert main(["sweep", "--input", str(synth_600), "--param", "s", "--from",
                     "15", "--to", "16", flag, value, "--out-dir", str(fresh)]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not fresh.exists()


@pytest.fixture(scope="module")
def synth_600(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "synth.csv"
    write_table(synth_table(SynthConfig(n=600)), path)
    return path


def test_a_byte_order_mark_changes_no_output(synth_600, tmp_path):
    """An input file and a config file saved with a UTF-8 byte-order mark
    give the outputs of the plain files."""
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + synth_600.read_bytes())
    options = "scenario = max_with(cedu, 16)\nboot_b = 20\nbandwidth_c = 30\ngrid_m = 20\n"
    for name, data, encoding in (("plain", synth_600, "utf-8"), ("bom", bom, "utf-8-sig")):
        config = tmp_path / f"{name}.cfg"
        config.write_text(f"input = {data}\n{options}", encoding=encoding)
        assert main(["bootstrap", "--config", str(config),
                     "--out-dir", str(tmp_path / name)]) == 0
    assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    for f in ("grid_actual.csv", "grid_counterfactual.csv", "measures.csv",
              "diagnostics.csv"):
        assert (tmp_path / "plain" / f).read_bytes() == (tmp_path / "bom" / f).read_bytes(), f
    # the summary names its input file
    summary = (tmp_path / "plain" / "summary.txt").read_text(encoding="utf-8")
    assert summary.replace(str(synth_600), str(bom)) == (
        tmp_path / "bom" / "summary.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("param,first,last", [("s", 14, 16), ("sprime", 8, 10)])
@pytest.mark.parametrize("recompute", [False, True], ids=["frozen", "recompute"])
def test_sweep_values_are_those_of_estimate(synth_600, tmp_path, monkeypatch,
                                            param, first, last, recompute):
    seen = []

    def recording(pairs):
        pairs = list(pairs)
        seen.extend(pairs)
        return run_bootstraps(pairs)

    monkeypatch.setattr(cli, "run_bootstraps", recording)
    out = tmp_path / "out"
    argv = ["sweep", "--input", str(synth_600), "--param", param,
            "--from", str(first), "--to", str(last), "--bandwidth-c", "30",
            "--grid-m", "20", "--boot-b", "8", "--seed", "3", "--out-dir", str(out)]
    assert main(argv + (["--recompute-weights"] if recompute else [])) == 0
    rows = _read_rows(out / "sweep.csv")[1:]

    table = ingest(synth_600)
    roles = default_synth_roles()
    values = range(first, last + 1)
    assert len(seen) == len(values)
    for value, (est, config) in zip(values, seen):
        text = (f"max_with(cedu, {value})" if param == "s"
                else f"conditional_max(cedu, pedu, {value}, floor=16)")
        ref = estimate(build_sample(table, roles, xstar_columns=apply_scenario(
            table, roles, parse_scenario(text))), KernelSpec(), 30.0, 20)
        cedu, pedu = table.column("cedu"), table.column("pedu")
        changed = cedu < value if param == "s" else (pedu <= value) & (cedu < 16)
        assert est.h.tobytes() == ref.h.tobytes()
        assert est.sample.xstar.tobytes() == ref.sample.xstar.tobytes()
        for target, grid in ref.grids.items():
            assert np.max(np.abs(est.grids[target].values - grid.values)) <= 1e-12
        ref_result = run_bootstrap(ref, config)
        mine = [r for r in rows if r[0] == str(value)]
        assert len(mine) == 12
        for _, measure, target, point, lo, hi, affected in mine:
            assert affected == repr(float(changed.mean()))
            assert abs(est.reports[target][measure]
                       - ref.reports[target][measure]) <= 1e-12
            run = ref_result.runs[(target, measure)]
            assert abs(float(point) - run.point) <= 1e-12
            assert abs(float(lo) - run.lo) <= 1e-12
            assert abs(float(hi) - run.hi) <= 1e-12


def test_a_sweep_runs_its_replicates_in_one_set_of_blocks(synth_600, tmp_path,
                                                         monkeypatch):
    from cfcopula import bootstrap

    calls = []
    run_blocks = bootstrap._run_blocks

    def counting(block, count):
        calls.append(count)
        return run_blocks(block, count)

    monkeypatch.setattr(bootstrap, "_run_blocks", counting)
    assert main(["sweep", "--input", str(synth_600), "--param", "sprime",
                 "--from", "8", "--to", "11", "--bandwidth-c", "30", "--grid-m", "20",
                 "--boot-b", "6", "--out-dir", str(tmp_path / "out")]) == 0
    # four values of six replicates each
    assert calls == [24]


@pytest.mark.parametrize("recompute", [False, True], ids=["frozen", "recompute"])
def test_sweep_table_is_the_same_on_one_and_two_cores(synth_600, tmp_path,
                                                      monkeypatch, recompute):
    from cfcopula import bootstrap

    tables = []
    for k in (1, 2):
        monkeypatch.setattr(bootstrap, "_worker_count", lambda k=k: k)
        out = tmp_path / f"cores{k}"
        argv = ["sweep", "--input", str(synth_600), "--param", "s", "--from", "14",
                "--to", "16", "--bandwidth-c", "30", "--grid-m", "20", "--boot-b", "7",
                "--seed", "4", "--out-dir", str(out)]
        assert main(argv + (["--recompute-weights"] if recompute else [])) == 0
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]


def test_sweep_replicate_failure_exits_three_before_any_value(synth_600, tmp_path,
                                                             monkeypatch, capsys):
    from cfcopula import bootstrap

    seed_of = bootstrap._replicate_seed

    def seed(entropy, b):
        if entropy == derived_seed(0, (1,)) and b == 2:
            raise bootstrap.DegenerateReplicateError("replicate 2 of s=15 failed")
        return seed_of(entropy, b)

    monkeypatch.setattr(bootstrap, "_replicate_seed", seed)
    out = tmp_path / "out"
    rc = main(["sweep", "--input", str(synth_600), "--param", "s", "--from", "14",
               "--to", "16", "--bandwidth-c", "30", "--grid-m", "20", "--boot-b", "4",
               "--out-dir", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == "numeric failure: replicate 2 of s=15 failed\n"
    assert captured.out == ""
    assert not (out / "sweep.csv").exists()


def test_sweep_without_donor_exits_three_before_any_value(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["synth-data", "--seed", "0", "--n", "3895",
                 "--out-dir", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["sweep", "--input", str(data / "synth.csv"), "--param", "s",
               "--from", "13", "--to", "16", "--bandwidth-c", "30",
               "--out-dir", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    # s=16 is the first value without a donor; the row is one of its xstar
    assert captured.err == (
        "numeric failure: s=16: kernel denominator is zero for counterfactual rows "
        "[478]: no donor within bandwidth h=[ 1.90671347  1.90671347  5.05514415"
        "  1.90671347 19.19599531  3.70986999]; increase the bandwidth constant\n"
    )
    # the weights of every value come before any value's output
    assert captured.out == ""
    assert not (out / "sweep.csv").exists()


def test_a_constant_smoothed_covariate_exits_three(tmp_path, capsys):
    """A smoothed covariate without variation has no bandwidth, whether it
    is constant in the sample or in a recompute-weights resample."""
    rng = np.random.default_rng(8)
    n = 12
    z = rng.normal(size=n)
    columns = {"y1": z + rng.normal(size=n), "y2": z + rng.normal(size=n),
               "flat": np.ones(n), "x": np.r_[1.0, np.zeros(n - 1)], "z": z}
    path = tmp_path / "flat.csv"
    write_table(Table(names=tuple(columns), columns=columns), path)
    common = ["--input", str(path), "--y1", "y1", "--y2", "y2", "--grid-m", "10",
              "--out-dir", str(tmp_path / "out")]
    assert main(["estimate", *common, "--x", "flat,z", "--xstar", "flat,z"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "degenerate covariate" in err
    # x is constant but for row 0, so a resample without row 0 fails
    assert main(["bootstrap", *common, "--x", "x,z", "--xstar", "x,z",
                 "--boot-b", "40", "--seed", "3", "--recompute-weights"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "degenerate covariate" in err
    assert err.count("\n") == 1


def test_a_bandwidth_rule_that_over_or_underflows_exits_three(tmp_path, capsys):
    """A bandwidth constant that drives h to inf or 0 at a varying smoothed
    covariate is a numeric failure that says so, not a constant covariate."""
    data = tmp_path / "d"
    assert main(["synth-data", "--seed", "0", "--n", "3895",
                 "--out-dir", str(data)]) == 0
    capsys.readouterr()
    for constant, what in (("1e308", "overflowed"), ("5e-324", "underflowed")):
        assert main(["estimate", "--input", str(data / "synth.csv"),
                     "--scenario", "max_with(cedu, 16)", "--bandwidth-c", constant,
                     "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: the bandwidth rule {what}: "), err
        assert err.count("\n") == 1 and "degenerate covariate" not in err


@pytest.mark.parametrize("x", [
    [1.7e308, 1.7e308, -1.7e308, -1.7e308, 1, 2, 3, 4],  # the sd is NaN
    [1.7e308, -1.7e308, 1, 2, 3],                         # the sd overflows
], ids=["nan", "inf"])
def test_a_covariate_scale_not_finite_exits_three(tmp_path, capsys, x):
    n = len(x)
    columns = {"y1": np.arange(n, dtype=float), "y2": np.arange(n) % 3.0,
               "x": np.array(x, dtype=float)}
    path = tmp_path / "huge.csv"
    write_table(Table(names=tuple(columns), columns=columns), path)
    assert main(["estimate", "--input", str(path), "--y1", "y1", "--y2", "y2",
                 "--x", "x", "--scenario", "set_constant(x, 0)",
                 "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: the standard deviation of a smoothed "
                          "covariate is "), err
    assert err.count("\n") == 1 and "bandwidth constant" not in err


def test_a_scenario_number_not_finite_is_a_usage_error(tmp_path, capsys):
    # the input does not exist, so reading it would exit 2
    missing = tmp_path / "missing.csv"
    for scenario in ("max_with(cedu, inf)", "max_with(cedu, nan)",
                     "set_constant(cedu, -inf)",
                     "conditional_max(cedu, pedu, 11, floor=nan)"):
        assert main(["estimate", "--input", str(missing), "--scenario", scenario,
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: expected a finite number in {scenario}, got ")
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_warnings_are_reported_on_stderr(monkeypatch, capsys):
    def noisy(args):
        for _ in range(2):
            warnings.warn("weights look odd", RuntimeWarning)
        return 0

    def failing(args):
        warnings.warn("cell is sparse", UserWarning)
        raise DataError("broken row")

    monkeypatch.setattr(cli, "cmd_synth_data", noisy)
    assert main(["synth-data"]) == 0
    assert capsys.readouterr().err == "warning: RuntimeWarning: weights look odd\n" * 2
    monkeypatch.setattr(cli, "cmd_synth_data", failing)
    assert main(["synth-data"]) == 2
    assert capsys.readouterr().err == (
        "warning: UserWarning: cell is sparse\ndata error: broken row\n"
    )


def test_synth_data_command(tmp_path):
    out = tmp_path / "d"
    assert main(["synth-data", "--n", "250", "--seed", "11",
                 "--out-dir", str(out)]) == 0
    table = ingest(out / "synth.csv")
    assert table.n == 250
    assert "pincome" in table.names and "cedu" in table.names

    other = tmp_path / "e"
    assert main(["synth-data", "--n", "250", "--seed", "11",
                 "--out-dir", str(other)]) == 0
    assert (out / "synth.csv").read_bytes() == (other / "synth.csv").read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_usage_errors_exit_one(dataset, tmp_path, capsys):
    path, _ = dataset
    assert main(["estimate", "--bogus"]) == 1

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n", encoding="utf-8")
    assert main(["estimate", "--config", str(cfg)]) == 1
    assert "nonsense" in capsys.readouterr().err

    # both scenario and explicit counterfactual columns
    assert main(["estimate", *_roles_args(path), "--xstar", "xs",
                 "--scenario", "identity", "--out-dir", str(tmp_path)]) == 1

    # unknown transform name
    assert main(["estimate", *_roles_args(path),
                 "--scenario", "min_with(x, 1)", "--out-dir", str(tmp_path)]) == 1

    # odd grid resolution cannot place the (1/2, 1/2) node
    assert main(["estimate", *_roles_args(path), "--xstar", "xs",
                 "--grid-m", "21", "--out-dir", str(tmp_path)]) == 1

    # empty sweep range
    assert main(["sweep", *_roles_args(path), "--param", "s", "--from", "5",
                 "--to", "3", "--column", "x", "--out-dir", str(tmp_path)]) == 1

    # bad study and bootstrap options fail before any work or output directory
    fresh = tmp_path / "never"
    for bad in (["--grid-m", "7"], ["--grid-m", "0"], ["--sizes", "1"],
                ["--sizes", "100,100"]):
        assert main(["simulate", *bad, "--replications", "1",
                     "--out-dir", str(fresh)]) == 1
    for bad in (["--boot-b", "1"], ["--level", "1.5"]):
        assert main(["bootstrap", *_roles_args(path), "--xstar", "xs", *bad,
                     "--out-dir", str(fresh)]) == 1
    assert main(["sweep", *_roles_args(path), "--param", "s", "--from", "0",
                 "--to", "1", "--column", "x", "--boot-b", "1",
                 "--out-dir", str(fresh)]) == 1
    # a negative seed is a usage error, not a traceback from the RNG
    assert main(["simulate", "--seed", "-3", "--replications", "1",
                 "--out-dir", str(fresh)]) == 1
    assert main(["bootstrap", *_roles_args(path), "--xstar", "xs",
                 "--seed", "-1", "--out-dir", str(fresh)]) == 1
    assert main(["sweep", *_roles_args(path), "--param", "s", "--from", "0",
                 "--to", "1", "--column", "x", "--seed", "-1",
                 "--out-dir", str(fresh)]) == 1
    assert main(["synth-data", "--seed", "-2", "--n", "10",
                 "--out-dir", str(fresh)]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    # too few synthetic rows is a bad option, not a data error after mkdir
    assert main(["synth-data", "--n", "1", "--out-dir", str(fresh)]) == 1
    assert "need n >= 2" in capsys.readouterr().err
    # a floor that is not finite
    for floor in ("inf", "nan", "1e400"):
        assert main(["sweep", *_roles_args(path), "--param", "sprime", "--from", "0",
                     "--to", "1", "--column", "x", "--trigger", "x",
                     "--floor", floor, "--out-dir", str(fresh)]) == 1
        assert "--floor must be finite" in capsys.readouterr().err
    assert not fresh.exists()


def test_a_repeated_config_key_or_covariate_is_a_usage_error(dataset, tmp_path, capsys):
    path, _ = dataset
    fresh = tmp_path / "never"
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(f"input = {path}\ny1 = wage\ny2 = spend\nx = x\nxstar = xs\n"
                   "grid_m = 10\n# the second value used to win\ngrid-m = 20\n",
                   encoding="utf-8")
    assert main(["estimate", "--config", str(cfg), "--out-dir", str(fresh)]) == 1
    assert (capsys.readouterr().err
            == f"error: {cfg}:8: config key 'grid_m' repeats line 6\n")
    # a covariate named twice would square its kernel
    assert main(["estimate", *_roles_args(path)[:-1], "x,x", "--xstar", "xs,xs",
                 "--out-dir", str(fresh)]) == 1
    assert capsys.readouterr().err == "error: covariate column 'x' appears twice in x\n"
    assert not fresh.exists()


def test_kernel_and_scenario_options_fail_before_the_input_is_read(dataset, tmp_path,
                                                                   capsys):
    path, _ = dataset
    missing = tmp_path / "missing.csv"
    fresh = tmp_path / "never"
    for argv, message in (
        (["sweep", *_roles_args(path), "--param", "s", "--from", "15", "--to", "16",
          "--column", "x", "--kernel-order", "3"], "epanechnikov kernel has order 2"),
        (["estimate", "--input", str(missing), "--scenario", "max_with(cedu, 16)",
          "--kernel-order", "3"], "epanechnikov kernel has order 2"),
        (["estimate", "--input", str(missing), "--scenario", "max_with(cedu"],
         "cannot parse scenario term"),
    ):
        assert main(argv + ["--out-dir", str(fresh)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
    assert not fresh.exists()


def test_data_errors_exit_two(tmp_path, capsys):
    assert main(["estimate", "--input", str(tmp_path / "missing.csv"),
                 "--y1", "a", "--y2", "b", "--x", "c", "--xstar", "c",
                 "--out-dir", str(tmp_path)]) == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("wage,spend,x,xs\n1,2,3,4\nzap,6,7,8\n", encoding="utf-8")
    assert main(["estimate", "--input", str(bad), "--y1", "wage",
                 "--y2", "spend", "--x", "x", "--xstar", "xs",
                 "--out-dir", str(tmp_path)]) == 2
    assert "(row 2, wage)" in capsys.readouterr().err

    twice = tmp_path / "twice.csv"
    twice.write_text("wage,spend,x,xs,x\n1,2,3,4,5\n6,7,8,9,1\n", encoding="utf-8")
    assert main(["estimate", "--input", str(twice), "--y1", "wage",
                 "--y2", "spend", "--x", "x", "--xstar", "xs",
                 "--out-dir", str(tmp_path)]) == 2
    assert "column 'x' appears twice in the header" in capsys.readouterr().err


@pytest.mark.parametrize("constant", ["nan", "inf"])
def test_a_bandwidth_constant_not_finite_is_a_usage_error(dataset, tmp_path, capsys,
                                                          constant):
    path, _ = dataset
    fresh = tmp_path / "never"
    common = ["--bandwidth-c", constant, "--out-dir", str(fresh)]
    for argv in (
        ["estimate", *_roles_args(path), "--xstar", "xs"],
        ["bootstrap", *_roles_args(path), "--xstar", "xs", "--boot-b", "10"],
        ["sweep", *_roles_args(path), "--param", "s", "--from", "0", "--to", "1",
         "--column", "x", "--boot-b", "10"],
        ["simulate", "--sizes", "20", "--replications", "1", "--boot-b", "0"],
    ):
        assert main(argv + common) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive and finite" in err, err
    assert not fresh.exists()


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_a_non_finite_cell_is_a_data_error(tmp_path, capsys, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"wage,spend,x,xs\n1,2,3,4\n5,6,{cell},8\n9,1,2,3\n",
                   encoding="utf-8")
    assert main(["estimate", "--input", str(bad), "--y1", "wage",
                 "--y2", "spend", "--x", "x", "--xstar", "xs",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"data error: non-finite value {float(cell)!r} at (row 2, x)\n"
    )


def test_numeric_failures_exit_three(dataset, tmp_path):
    path, _ = dataset
    rc = main(["estimate", *_roles_args(path),
               "--scenario", "set_constant(x, 0.123456789)",
               "--bandwidth-c", "1e-8", "--out-dir", str(tmp_path)])
    assert rc == 3


def test_replicate_failure_in_a_worker_exits_three(dataset, tmp_path, monkeypatch,
                                                   capsys):
    from cfcopula import bootstrap

    seed_of = bootstrap._replicate_seed

    def seed(entropy, b):
        if b >= 6:
            raise bootstrap.DegenerateReplicateError(f"replicate {b} failed")
        return seed_of(entropy, b)

    monkeypatch.setattr(bootstrap, "_replicate_seed", seed)
    # two blocks: 0..5 here, 6..11 in a forked worker
    monkeypatch.setattr(bootstrap, "_worker_count", lambda: 2)
    path, _ = dataset
    rc = main(["bootstrap", *_roles_args(path), "--xstar", "xs", "--grid-m", "20",
               "--boot-b", "12", "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "replicate 6 failed" in capsys.readouterr().err


def _bootstrap_with_a_warning_worker(dataset, tmp_path, monkeypatch, capsys,
                                     parent_fails):
    """(exit code, stderr) of a bootstrap whose worker block warns, and whose
    parent block, if ``parent_fails``, warns and raises."""
    from cfcopula import bootstrap

    block = bootstrap._replicate_block

    def noisy_block(lo, hi, **kwargs):
        # the parent's own block, like a worker's, marks its process as in a
        # block, so a run inside it forks nothing
        assert bootstrap._block is not None
        if lo > 0:
            warnings.warn(f"block {lo}..{hi - 1} ran in a worker", UserWarning)
        elif parent_fails:
            warnings.warn(f"block {lo}..{hi - 1} ran here", UserWarning)
            raise bootstrap.DegenerateReplicateError(f"block {lo}..{hi - 1} failed")
        return block(lo, hi, **kwargs)

    monkeypatch.setattr(bootstrap, "_replicate_block", noisy_block)
    # two blocks: 0..5 here, 6..11 in a forked worker
    monkeypatch.setattr(bootstrap, "_worker_count", lambda: 2)
    path, _ = dataset
    rc = main(["bootstrap", *_roles_args(path), "--xstar", "xs", "--grid-m", "20",
               "--boot-b", "12", "--out-dir", str(tmp_path)])
    # the parent leaves its block, also when the block failed
    assert bootstrap._block is None
    return rc, capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_warnings_from_a_worker_block_are_reported_once(dataset, tmp_path,
                                                        monkeypatch, capsys):
    rc, err = _bootstrap_with_a_warning_worker(dataset, tmp_path, monkeypatch,
                                               capsys, parent_fails=False)
    assert rc == 0
    assert err == "warning: UserWarning: block 6..11 ran in a worker\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")
def test_a_worker_warning_is_reported_when_the_parent_block_fails(
        dataset, tmp_path, monkeypatch, capsys):
    rc, err = _bootstrap_with_a_warning_worker(dataset, tmp_path, monkeypatch,
                                               capsys, parent_fails=True)
    assert rc == 3
    # every block's warnings in block order, then the error
    assert err == ("warning: UserWarning: block 0..5 ran here\n"
                   "warning: UserWarning: block 6..11 ran in a worker\n"
                   "numeric failure: block 0..5 failed\n")


def test_cli_import_leaves_process_machinery_unloaded():
    code = ("import sys, cfcopula.cli; "
            "assert 'multiprocessing' not in sys.modules; "
            "assert 'concurrent.futures' not in sys.modules")
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_cli_import_leaves_scipy_special_unloaded():
    code = "import sys, cfcopula.cli; assert 'scipy.special' not in sys.modules"
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_simulate_runs_without_scipy(tmp_path):
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from cfcopula.cli import main\n"
        "sys.exit(main(['simulate', '--sizes', '30', '--replications', '1',"
        " '--boot-b', '20', '--out-dir', sys.argv[1]]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "sim")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sim" / "simulation.csv").is_file()
