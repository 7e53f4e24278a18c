"""Command line for counterfactual copula estimation and reporting.

Subcommands:

    estimate    both copula grids, association measures, policy effects
    bootstrap   estimate plus centered bootstrap intervals for every target
    simulate    Monte Carlo study (estimator error, interval coverage)
    sweep       re-estimate under a one-parameter scenario family
    synth-data  write the synthetic intergenerational-income dataset

Options can come from a flat key=value config file (keys mirror the flag
names with underscores; '#' starts a comment) with command-line flags
taking precedence; a command reads the keys it has flags for and ignores
the others, and an option given by neither takes the default of the
configuration the command builds.  All commands are deterministic given
their options, including the seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
(degenerate kernel weights or resamples).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import (
    MEASURES,
    TARGETS,
    BootstrapConfig,
    DegenerateReplicateError,
    check_grid_and_bandwidth,
    derived_seed,
    estimates,
    run_bootstrap,
    run_bootstraps,
)
from .copula import BandwidthTooSmallError
from .data import (
    ColumnRoles,
    DataError,
    SynthConfig,
    build_sample,
    default_synth_roles,
    ingest,
    synth_table,
    write_grid_csv,
    write_table,
)
from .kernels import DegenerateCovariateError, KernelSpec
from .scenarios import ScenarioError, ScenarioSpec, Transform, apply_scenario, parse_scenario
from .simulation import SimStudyConfig, run_study


class UsageError(Exception):
    """Bad flags, bad config keys, or an inconsistent option combination."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on its own; route through UsageError so
    # the command's exit-code contract stays in one place
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# --- configuration -------------------------------------------------------------

def _csv_list(text):
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return tuple(items)


def _int_list(text):
    return tuple(int(part) for part in _csv_list(text))


def _bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# every option: the function that reads its text, and its help.  Its flag is
# the key with dashes for underscores; a command lists the keys it takes
_OPTIONS = {
    "input": (str, "headered CSV input file"),
    "out_dir": (str, "output directory"),
    "seed": (int, "master RNG seed"),
    "y1": (str, "first outcome column"),
    "y2": (str, "second outcome column"),
    "x": (_csv_list, "covariate columns, comma-separated"),
    "discrete": (_csv_list, "covariate columns matched exactly instead of smoothed"),
    "xstar": (_csv_list, "explicit counterfactual covariate columns"),
    "scenario": (str, 'e.g. "max_with(cedu, 16)"'),
    "grid_m": (int, "copula grid resolution"),
    "bandwidth_c": (float, "bandwidth constant c in h = c * scale * n^(-1/3)"),
    "kernel": (str, "kernel family: epanechnikov, gaussian_truncated or higher_order"),
    "kernel_order": (int, "moment order for the higher_order family"),
    "boot_b": (int, "bootstrap replicates (per repetition in simulate, where 0 skips)"),
    "level": (float, "interval level"),
    "recompute_weights": (_bool, "resample rows and rebuild kernel weights per replicate"),
    "sizes": (_int_list, "sample sizes, comma-separated"),
    "replications": (int, "Monte Carlo repetitions"),
    "param": (str, "s: max_with sweep; sprime: conditional_max sweep"),
    "from": (int, "first parameter value (inclusive)"),
    "to": (int, "last parameter value (inclusive)"),
    "column": (str, "column the scenario raises"),
    "trigger": (str, "trigger column for sprime"),
    "floor": (float, "conditional_max floor"),
    "n": (int, "number of rows"),
}

_RUN = ("input", "out_dir", "y1", "y2", "x", "discrete", "grid_m", "bandwidth_c",
        "kernel", "kernel_order")
_BOOTSTRAP = ("boot_b", "level", "seed", "recompute_weights")
# the options each command has a flag for, and reads from a config file; a
# sweep builds its own scenarios, so it takes no xstar or scenario
_FLAGS = {
    "estimate": _RUN + ("xstar", "scenario"),
    "bootstrap": _RUN + ("xstar", "scenario") + _BOOTSTRAP,
    "simulate": ("out_dir", "seed", "sizes", "replications", "boot_b", "level",
                 "grid_m", "bandwidth_c"),
    "sweep": _RUN + _BOOTSTRAP + ("param", "from", "to", "column", "trigger", "floor"),
    "synth-data": ("out_dir", "seed", "n"),
}
# simulate recomputes the weights by default, so a flag could only repeat
# that; a config file can still freeze them
_CONFIG_ONLY = {"simulate": ("recompute_weights",)}

# the defaults of the options that no configuration class holds; sweep's
# param, from and to have none
_OUT_DIR = "."
_SWEEP_DEFAULTS = {"column": "cedu", "trigger": "pedu", "floor": 16.0}
# the fields of the configuration classes whose option keys differ
_BOOTSTRAP_FIELDS = {"boot_b": "B"}
_STUDY_FIELDS = {"boot_b": "bootstrap_b", "grid_m": "m", "bandwidth_c": "bandwidth_constant"}
_KERNEL_FIELDS = {"kernel": "family", "kernel_order": "order"}


def read_config(path):
    """Parse a flat key=value UTF-8 file into a string dict; a leading
    byte-order mark is skipped, and unknown and repeated keys fail.

    No path gives an empty dict.
    """
    entries, first_line = {}, {}
    if not path:
        return entries
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise UsageError(f"{path}:{lineno}: config key {key!r} repeats "
                             f"line {first_line[key]}")
        first_line[key] = lineno
        entries[key] = value.strip()
    return entries


def _given(args, config, keys):
    """The options among ``keys`` that were given: the flag value if the
    flag was passed, else the config value read through ``_OPTIONS``.  Keys
    given by neither are left out, so the defaults of the config a command
    builds apply to them."""
    given = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None and key in config:
            try:
                value = _OPTIONS[key][0](config[key])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config key {key}={config[key]!r}: {exc}") from exc
        if value is not None:
            given[key] = value
    return given


def _build(cls, given, renames=None):
    """``cls`` built from the options in ``given`` that name its fields, each
    key renamed through ``renames`` first; its ValueError is a usage error."""
    renames = renames or {}
    names = {f.name for f in fields(cls)}
    values = {renames.get(key, key): value for key, value in given.items()}
    try:
        return cls(**{key: value for key, value in values.items() if key in names})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one estimation-style command."""

    input: str
    roles: ColumnRoles
    scenario: ScenarioSpec | None  # None: explicit xstar columns
    kernel: KernelSpec
    out_dir: str = _OUT_DIR
    grid_m: int = 100
    bandwidth_c: float = 5.5

    def __post_init__(self):
        check_grid_and_bandwidth(self.grid_m, self.bandwidth_c)
        if (self.scenario is None) != bool(self.roles.xstar):
            raise UsageError(
                "need exactly one source of counterfactual covariates: "
                "a --scenario or explicit --xstar columns"
            )


def _run_config(given):
    """The ``RunConfig`` of the options ``given``, checked before any input is read."""
    if "input" not in given:
        raise UsageError("no input file: pass --input or set input= in the config")
    x, y1, y2 = (given.get(key) for key in ("x", "y1", "y2"))
    if x is None and y1 is None and y2 is None:
        roles = default_synth_roles()
        if "discrete" in given or "xstar" in given:
            raise UsageError("--discrete/--xstar need explicit --y1/--y2/--x roles")
    elif x is None or y1 is None or y2 is None:
        raise UsageError("column roles are all-or-none: give --y1, --y2 and --x")
    else:
        roles = _build(ColumnRoles, given)
    scenario = parse_scenario(given["scenario"]) if given.get("scenario") else None
    kernel = _build(KernelSpec, given, _KERNEL_FIELDS)
    return _build(RunConfig, {**given, "roles": roles, "scenario": scenario,
                              "kernel": kernel})


# --- shared estimation plumbing ------------------------------------------------

def _estimates(cfg, table, specs):
    """Labels and an iterator over the estimates of the scenarios ``specs``
    on ``table``, a spec None standing for the explicit xstar columns.  One
    ``estimates`` call weights them all from one (V, n, d) array of xstars;
    only the last sample is kept, since the samples differ only in xstar.
    Each estimate's ``health`` holds its affected fraction."""
    labels = []
    xstars = np.empty((len(specs), table.n, len(cfg.roles.x)))
    for index, spec in enumerate(specs):
        columns = None if spec is None else apply_scenario(table, cfg.roles, spec)
        sample = build_sample(table, cfg.roles, xstar_columns=columns)
        labels.append("explicit xstar columns " + ",".join(cfg.roles.xstar)
                      if spec is None else spec.describe())
        xstars[index] = sample.xstar
    return labels, estimates(sample, xstars, cfg.kernel, cfg.bandwidth_c, cfg.grid_m)


def _write_outputs(cfg, label, est, out, boot=None, result=None):
    """Write the grids, ``measures.csv``, ``diagnostics.csv`` and
    ``summary.txt`` of ``est``, the weights' facts read from ``est.health``,
    to ``out``; return the summary.  With the ``BootstrapConfig`` ``boot``
    and its ``result``, each measure carries its interval."""
    out.mkdir(parents=True, exist_ok=True)
    for target, grid in est.grids.items():
        write_grid_csv(grid, out / f"grid_{target}.csv")
    ends = () if boot is None else ("lo", "hi")
    bounds = {} if boot is None else {key: (run.lo, run.hi)
                                      for key, run in result.runs.items()}
    # the (target, measure, value, bounds) rows of measures.csv and the summary
    rows = [(t, m, est.reports[t][m], bounds.get((t, m), ()))
            for t in TARGETS for m in MEASURES]
    with open(out / "measures.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "measure", "value", *ends])
        writer.writerows([target, measure, *map(repr, (value, *bounds))]
                         for target, measure, value, bounds in rows)
    health = est.health
    support = health["support_rows"]
    diagnostics = [
        ("version", __version__),
        ("n", est.sample.n),
        ("grid_m", cfg.grid_m),
        ("kernel", f"{est.kernel.family}:{est.kernel.order}"),
        ("bandwidth_c", cfg.bandwidth_c),
        ("bandwidth", ";".join(repr(float(v)) for v in est.h)),
        ("scenario", label),
        ("affected_fraction", repr(health["affected_fraction"])),
        *((key, health[key])
          for key in ("weight_sum", "weight_min", "weight_max", "negative_count")),
        ("support_violations", support.size),
        ("support_rows", ";".join(str(r) for r in support[:50])),
        ("kernel_order_check", "pass" if health["order_warning"] is None else "warn"),
    ]
    if boot is not None:
        diagnostics += [("bootstrap_b", boot.B), ("level", boot.level), ("seed", boot.seed)]
    with open(out / "diagnostics.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerows(diagnostics)
    lines = [
        f"counterfactual copula report (cfcopula {__version__})",
        "",
        f"input: {cfg.input} (n={est.sample.n})",
        f"outcomes: {cfg.roles.y1}, {cfg.roles.y2}",
        f"covariates: {', '.join(cfg.roles.x)}"
        + (f" (discrete: {', '.join(cfg.roles.discrete)})" if cfg.roles.discrete else ""),
        f"scenario: {label}",
        f"affected rows: {health['affected_fraction']:.2%}",
        f"kernel: {est.kernel.family} (order {est.kernel.order}), "
        f"bandwidth c={cfg.bandwidth_c}, grid m={cfg.grid_m}",
        "",
        f"weights: sum={health['weight_sum']:.6f}, range "
        f"[{health['weight_min']:.4f}, {health['weight_max']:.4f}], "
        f"negative={health['negative_count']}",
    ]
    if support.size:
        shown = ", ".join(str(r) for r in support[:10])
        more = "" if support.size <= 10 else " ..."
        lines.append(f"warning: {support.size} manipulated rows fall outside the sampled "
                     f"covariate box (rows {shown}{more}); weights extrapolate")
    if health["order_warning"] is not None:
        lines.append(f"warning: {health['order_warning']}")
    if boot is not None:
        lines.append(f"bootstrap: B={boot.B}, level={boot.level}, seed={boot.seed}, "
                     f"recompute_weights={boot.recompute_weights}, "
                     f"degenerate redraws={result.discarded}")
    lines += ["", f"{'target':16s}{'measure':9s}{'value':>10s}"
              + "".join(f"{e:>10s}" for e in ends)]
    lines += [f"{target:16s}{measure:9s}" + "".join(f"{v:>10.4f}" for v in (value, *bounds))
              for target, measure, value, bounds in rows]
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    return summary


# --- commands ------------------------------------------------------------------

def cmd_estimate(given, bootstrap=False):
    """``estimate``, or with ``bootstrap`` the ``bootstrap`` command: the one
    estimate of the run's scenario, its intervals under the bootstrap
    options (checked before the input is read), and its outputs."""
    cfg = _run_config(given)
    boot = _build(BootstrapConfig, given, _BOOTSTRAP_FIELDS) if bootstrap else None
    (label,), (est,) = _estimates(cfg, ingest(cfg.input, roles=cfg.roles),
                                  [cfg.scenario])
    result = None if boot is None else run_bootstrap(est, boot)
    sys.stdout.write(_write_outputs(cfg, label, est, Path(cfg.out_dir), boot, result))
    return 0


def cmd_bootstrap(given):
    return cmd_estimate(given, bootstrap=True)


def cmd_simulate(given):
    study = _build(SimStudyConfig, given, _STUDY_FIELDS)
    out = Path(given.get("out_dir", _OUT_DIR))
    out.mkdir(parents=True, exist_ok=True)
    report = run_study(study)
    report.write_csv(out / "simulation.csv")
    report.write_manifest(out / "manifest.txt")
    sys.stdout.write(
        f"simulation study done: {len(report.rows)} rows -> {out / 'simulation.csv'}\n"
    )
    return 0


def cmd_sweep(given):
    cfg = _run_config({**given, "scenario": "identity"})
    boot = _build(BootstrapConfig, given, _BOOTSTRAP_FIELDS)
    param, lo, hi = (given.get(key) for key in ("param", "from", "to"))
    column, trigger, floor = (given.get(key, default)
                              for key, default in _SWEEP_DEFAULTS.items())
    if param not in ("s", "sprime"):
        raise UsageError("--param must be s (max_with) or sprime (conditional_max)")
    if not math.isfinite(floor):
        raise UsageError(f"--floor must be finite, got {floor}")
    if lo is None or hi is None:
        raise UsageError("sweep needs --from and --to")
    values = list(range(lo, hi + 1))
    if not values:
        raise UsageError(f"empty sweep range: from {lo} to {hi}")
    configs = [replace(boot, seed=derived_seed(boot.seed, (index,)))
               for index in range(len(values))]

    table = ingest(cfg.input, roles=cfg.roles)
    kind, rest = ("max_with", ()) if param == "s" else ("conditional_max", (trigger, floor))
    specs = [ScenarioSpec((Transform(kind, column, float(value), *rest),))
             for value in values]
    try:
        _, family = _estimates(cfg, table, specs)
    except BandwidthTooSmallError as err:
        raise BandwidthTooSmallError(
            err.columns, err.h, where=f"{param}={values[err.value]}"
        ) from None
    pairs = list(zip(family, configs))
    # the replicates of every value on one set of workers
    results = run_bootstraps(pairs)
    # made once every value ran, so a failing sweep leaves no directory
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, (est, _), result in zip(values, pairs, results):
        frac = est.health["affected_fraction"]
        for measure in MEASURES:
            for target in TARGETS:
                run = result.runs[(target, measure)]
                rows.append(
                    (value, measure, target, run.point, run.lo, run.hi, frac)
                )
        sys.stdout.write(
            f"{param}={value}: affected {frac:.2%}, "
            f"effect tau {result.runs[('effect', 'tau')].point:+.4f}\n"
        )
    path = out / "sweep.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["value", "measure", "target", "point", "lo", "hi", "affected_fraction"]
        )
        for row in rows:
            writer.writerow([row[0], row[1], row[2]] + [repr(v) for v in row[3:]])
    sys.stdout.write(f"sweep table: {len(rows)} rows -> {path}\n")
    return 0


def cmd_synth_data(given):
    synth = _build(SynthConfig, given)
    out = Path(given.get("out_dir", _OUT_DIR))
    out.mkdir(parents=True, exist_ok=True)
    path = out / "synth.csv"
    write_table(synth_table(synth), path)
    sys.stdout.write(f"synthetic dataset: n={synth.n} -> {path}\n")
    return 0


# --- argument wiring -----------------------------------------------------------

def build_parser():
    parser = _Parser(
        prog="cfcopula",
        description="counterfactual copula estimation and inference",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, func, about in (
        ("estimate", cmd_estimate, "point estimates and measures"),
        ("bootstrap", cmd_bootstrap, "estimates plus bootstrap intervals"),
        ("simulate", cmd_simulate, "Monte Carlo study"),
        ("sweep", cmd_sweep, "scenario-family sweep table"),
        ("synth-data", cmd_synth_data, "write the synthetic dataset"),
    ):
        command = sub.add_parser(name, help=about)
        command.add_argument("--config", help="flat key=value config file")
        for key in _FLAGS[name]:
            read, text = _OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if read is _bool:
                # the flag can only switch it on
                command.add_argument(flag, dest=key, action="store_const", const=True,
                                     help=text)
            else:
                command.add_argument(flag, dest=key, type=read, help=text)
        command.set_defaults(func=func, keys=_FLAGS[name] + _CONFIG_ONLY.get(name, ()))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.func(_given(args, read_config(args.config), args.keys))
            finally:
                for warning in caught:
                    print(f"warning: {warning.category.__name__}: {warning.message}",
                          file=sys.stderr)
    except (UsageError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (BandwidthTooSmallError, DegenerateCovariateError,
            DegenerateReplicateError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
