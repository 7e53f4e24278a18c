"""Command line for counterfactual copula estimation and reporting.

Subcommands:

    estimate    both copula grids, association measures, policy effects
    bootstrap   estimate plus centered bootstrap intervals for every target
    simulate    Monte Carlo study (estimator error, interval coverage)
    sweep       re-estimate under a one-parameter scenario family
    synth-data  write the synthetic intergenerational-income dataset

Options can come from a flat key=value config file (keys mirror the flag
names with underscores; '#' starts a comment) with command-line flags
taking precedence.  All commands are deterministic given their options,
including the seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
(degenerate kernel weights or resamples).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import (
    MEASURES,
    TARGETS,
    BootstrapConfig,
    DegenerateReplicateError,
    derived_seed,
    estimate,
    estimates,
    run_bootstrap,
    run_bootstraps,
)
from .copula import BandwidthTooSmallError, support_violations
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
from .kernels import BandwidthRule, DegenerateCovariateError, KernelSpec, validate_order
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

_CONFIG_KEYS = {
    "input", "out_dir", "scenario", "seed",
    "y1", "y2", "x", "discrete", "xstar",
    "grid_m", "bandwidth_c", "kernel", "kernel_order",
    "boot_b", "level", "recompute_weights",
    "sizes", "replications",
    "param", "from", "to", "column", "trigger", "floor",
    "n",
}


def read_config(path):
    """Parse a flat key=value file into a string dict; unknown keys fail."""
    entries = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        entries[key] = value.strip()
    return entries


def _merge(args, config, key, cast, default):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if config and key in config:
        raw = config[key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config key {key}={raw!r}: {exc}") from exc
    return default


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


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one estimation-style command."""

    input: str
    out_dir: str
    roles: ColumnRoles
    scenario_text: str
    grid_m: int = 100
    bandwidth_c: float = 5.5
    kernel_family: str = "epanechnikov"
    kernel_order: int = 2
    boot_b: int = 1000
    level: float = 0.95
    seed: int = 0
    recompute_weights: bool = False

    def __post_init__(self):
        if self.grid_m < 2 or self.grid_m % 2:
            raise UsageError(f"grid_m must be even and >= 2, got {self.grid_m}")
        if not (self.bandwidth_c > 0 and math.isfinite(self.bandwidth_c)):
            raise UsageError(
                f"bandwidth_c must be positive and finite, got {self.bandwidth_c}"
            )
        # check the kernel, bootstrap and scenario options now, before any
        # command reads its input or creates its output directory
        self.kernel()
        self.bootstrap_config(self.seed)
        parse_scenario(self.scenario_text)
        if bool(self.scenario_text) == bool(self.roles.xstar):
            raise UsageError(
                "need exactly one source of counterfactual covariates: "
                "a --scenario or explicit --xstar columns"
            )

    def kernel(self):
        try:
            return KernelSpec(family=self.kernel_family, order=self.kernel_order)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def bootstrap_config(self, seed):
        try:
            return BootstrapConfig(
                B=self.boot_b,
                level=self.level,
                seed=seed,
                recompute_weights=self.recompute_weights,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def _resolve_run_config(args, default_scenario=None):
    config = read_config(args.config) if getattr(args, "config", None) else {}
    input_path = _merge(args, config, "input", str, None)
    if input_path is None:
        raise UsageError("no input file: pass --input or set input= in the config")
    x = _merge(args, config, "x", _csv_list, None)
    y1 = _merge(args, config, "y1", str, None)
    y2 = _merge(args, config, "y2", str, None)
    discrete = _merge(args, config, "discrete", _csv_list, ())
    xstar = _merge(args, config, "xstar", _csv_list, ())
    if x is None and y1 is None and y2 is None:
        roles = default_synth_roles()
        if discrete or xstar:
            raise UsageError("--discrete/--xstar need explicit --y1/--y2/--x roles")
    elif x is None or y1 is None or y2 is None:
        raise UsageError("column roles are all-or-none: give --y1, --y2 and --x")
    else:
        try:
            roles = ColumnRoles(y1=y1, y2=y2, x=x, discrete=discrete, xstar=xstar)
        except DataError as exc:
            raise UsageError(str(exc)) from exc
    scenario_text = _merge(args, config, "scenario", str, "")
    if not scenario_text and not roles.xstar and default_scenario is not None:
        scenario_text = default_scenario
    return RunConfig(
        input=input_path,
        out_dir=_merge(args, config, "out_dir", str, "."),
        roles=roles,
        scenario_text=scenario_text,
        grid_m=_merge(args, config, "grid_m", int, 100),
        bandwidth_c=_merge(args, config, "bandwidth_c", float, 5.5),
        kernel_family=_merge(args, config, "kernel", str, "epanechnikov"),
        kernel_order=_merge(args, config, "kernel_order", int, 2),
        boot_b=_merge(args, config, "boot_b", int, 1000),
        level=_merge(args, config, "level", float, 0.95),
        seed=_merge(args, config, "seed", int, 0),
        recompute_weights=_merge(args, config, "recompute_weights", _bool, False),
    ), config


# --- shared estimation plumbing ------------------------------------------------

def _estimate(cfg, table):
    """Scenario label, affected fraction and the estimate of one pass."""
    if cfg.scenario_text:
        spec = parse_scenario(cfg.scenario_text)
        xstar_columns, frac = apply_scenario(table, cfg.roles, spec)
        sample = build_sample(table, cfg.roles, xstar_columns=xstar_columns)
        label = spec.describe()
    else:
        sample = build_sample(table, cfg.roles)
        changed = np.any(sample.xstar != sample.x, axis=1)
        frac = float(changed.mean())
        label = "explicit xstar columns " + ",".join(cfg.roles.xstar)
    return label, frac, estimate(
        sample, cfg.kernel(), BandwidthRule(constant=cfg.bandwidth_c), cfg.grid_m
    )


def _order_check(est):
    return validate_order(est.kernel, int((~est.sample.discrete_mask).sum()))


def _write_measures(path, est, intervals=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["target", "measure", "value"]
        if intervals is not None:
            header += ["lo", "hi"]
        writer.writerow(header)
        for target in TARGETS:
            values = est.reports[target].as_dict()
            for measure in MEASURES:
                row = [target, measure, repr(values[measure])]
                if intervals is not None:
                    lo, hi = intervals[(target, measure)]
                    row += [repr(lo), repr(hi)]
                writer.writerow(row)


def _write_diagnostics(path, cfg, label, frac, est, support_rows, order_check,
                       extra=None):
    w = est.w
    rows = [
        ("version", __version__),
        ("n", est.sample.n),
        ("grid_m", cfg.grid_m),
        ("kernel", f"{est.kernel.family}:{est.kernel.order}"),
        ("bandwidth_c", cfg.bandwidth_c),
        ("bandwidth", ";".join(repr(float(v)) for v in est.h)),
        ("scenario", label),
        ("affected_fraction", repr(frac)),
        ("weight_sum", repr(float(w.sum()))),
        ("weight_min", repr(float(w.min()))),
        ("weight_max", repr(float(w.max()))),
        ("negative_count", int((w < 0).sum())),
        ("support_violations", support_rows.size),
        ("support_rows", ";".join(str(r) for r in support_rows[:50])),
        ("kernel_order_check", "pass" if order_check.passed else "warn"),
    ]
    if extra:
        rows.extend(extra)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerows(rows)


def _summary_lines(cfg, label, frac, est, support_rows, order_check, intervals=None,
                   boot_note=None):
    w = est.w
    lines = [
        f"counterfactual copula report (cfcopula {__version__})",
        "",
        f"input: {cfg.input} (n={est.sample.n})",
        f"outcomes: {cfg.roles.y1}, {cfg.roles.y2}",
        f"covariates: {', '.join(cfg.roles.x)}"
        + (f" (discrete: {', '.join(cfg.roles.discrete)})" if cfg.roles.discrete else ""),
        f"scenario: {label}",
        f"affected rows: {frac:.2%}",
        f"kernel: {est.kernel.family} (order {est.kernel.order}), "
        f"bandwidth c={cfg.bandwidth_c}, grid m={cfg.grid_m}",
        "",
        f"weights: sum={w.sum():.6f}, range [{w.min():.4f}, {w.max():.4f}], "
        f"negative={int((w < 0).sum())}",
    ]
    if support_rows.size:
        shown = ", ".join(str(r) for r in support_rows[:10])
        more = "" if support_rows.size <= 10 else " ..."
        lines.append(
            f"warning: {support_rows.size} manipulated rows fall outside "
            f"the sampled covariate box (rows {shown}{more}); weights extrapolate"
        )
    if not order_check.passed:
        lines.append(f"warning: {order_check.message}")
    if boot_note:
        lines.append(boot_note)
    lines.append("")
    ends = () if intervals is None else ("lo", "hi")
    lines.append(f"{'target':16s}{'measure':9s}{'value':>10s}"
                 + "".join(f"{e:>10s}" for e in ends))
    for target in TARGETS:
        values = est.reports[target].as_dict()
        for measure in MEASURES:
            bounds = () if intervals is None else intervals[(target, measure)]
            lines.append(f"{target:16s}{measure:9s}{values[measure]:>10.4f}"
                         + "".join(f"{b:>10.4f}" for b in bounds))
    return lines


def _write_estimate_outputs(cfg, label, frac, est, out, intervals=None,
                            boot_note=None, extra_diag=None):
    out.mkdir(parents=True, exist_ok=True)
    write_grid_csv(est.grids["actual"], out / "grid_actual.csv")
    write_grid_csv(est.grids["counterfactual"], out / "grid_counterfactual.csv")
    _write_measures(out / "measures.csv", est, intervals=intervals)
    support_rows, order_check = support_violations(est.sample), _order_check(est)
    _write_diagnostics(out / "diagnostics.csv", cfg, label, frac, est, support_rows,
                       order_check, extra=extra_diag)
    summary = "\n".join(_summary_lines(cfg, label, frac, est, support_rows, order_check,
                                       intervals, boot_note)) + "\n"
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    return summary


# --- commands ------------------------------------------------------------------

def cmd_estimate(args):
    cfg, _ = _resolve_run_config(args)
    label, frac, est = _estimate(cfg, ingest(cfg.input, roles=cfg.roles))
    summary = _write_estimate_outputs(cfg, label, frac, est, Path(cfg.out_dir))
    sys.stdout.write(summary)
    return 0


def cmd_bootstrap(args):
    cfg, _ = _resolve_run_config(args)
    label, frac, est = _estimate(cfg, ingest(cfg.input, roles=cfg.roles))
    result = run_bootstrap(est, cfg.bootstrap_config(cfg.seed))
    intervals = {key: (run.lo, run.hi) for key, run in result.runs.items()}
    note = (
        f"bootstrap: B={cfg.boot_b}, level={cfg.level}, seed={cfg.seed}, "
        f"recompute_weights={cfg.recompute_weights}, "
        f"degenerate redraws={result.discarded}"
    )
    summary = _write_estimate_outputs(
        cfg, label, frac, est, Path(cfg.out_dir), intervals=intervals, boot_note=note,
        extra_diag=[("bootstrap_b", cfg.boot_b), ("level", cfg.level),
                    ("seed", cfg.seed)],
    )
    sys.stdout.write(summary)
    return 0


def cmd_simulate(args):
    config = read_config(args.config) if args.config else {}
    try:
        study = SimStudyConfig(
            sizes=_merge(args, config, "sizes", _int_list, (100, 200, 400)),
            replications=_merge(args, config, "replications", int, 1000),
            bootstrap_b=_merge(args, config, "boot_b", int, 1000),
            level=_merge(args, config, "level", float, 0.95),
            m=_merge(args, config, "grid_m", int, 100),
            bandwidth_constant=_merge(args, config, "bandwidth_c", float, 5.5),
            seed=_merge(args, config, "seed", int, 20240801),
            recompute_weights=_merge(args, config, "recompute_weights", _bool, True),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(_merge(args, config, "out_dir", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    report = run_study(study)
    report.write_csv(out / "simulation.csv")
    report.write_manifest(out / "manifest.txt")
    sys.stdout.write(
        f"simulation study done: {len(report.rows)} rows -> {out / 'simulation.csv'}\n"
    )
    return 0


def _sweep_values(args, config):
    lo = _merge(args, config, "from", int, None)
    hi = _merge(args, config, "to", int, None)
    if lo is None or hi is None:
        raise UsageError("sweep needs --from and --to")
    values = list(range(lo, hi + 1))
    if not values:
        raise UsageError(f"empty sweep range: from {lo} to {hi}")
    return values


def cmd_sweep(args):
    cfg, config = _resolve_run_config(args, default_scenario="identity")
    if cfg.roles.xstar:
        raise UsageError("sweep builds its own scenarios; drop --xstar")
    if cfg.scenario_text != "identity":
        raise UsageError("sweep builds its own scenarios; drop --scenario")
    param = _merge(args, config, "param", str, None)
    if param not in ("s", "sprime"):
        raise UsageError("--param must be s (max_with) or sprime (conditional_max)")
    column = _merge(args, config, "column", str, "cedu")
    trigger = _merge(args, config, "trigger", str, "pedu")
    floor = _merge(args, config, "floor", float, 16.0)
    if not math.isfinite(floor):
        raise UsageError(f"--floor must be finite, got {floor}")
    values = _sweep_values(args, config)
    configs = [cfg.bootstrap_config(derived_seed(cfg.seed, (index,)))
               for index in range(len(values))]

    table = ingest(cfg.input, roles=cfg.roles)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the manipulated covariates of every value, for one kernel pass
    xstars, fracs = None, []
    for index, value in enumerate(values):
        if param == "s":
            change = Transform("max_with", column, float(value))
        else:
            change = Transform("conditional_max", column, float(value), trigger, floor)
        xstar_columns, frac = apply_scenario(table, cfg.roles, ScenarioSpec((change,)))
        sample = build_sample(table, cfg.roles, xstar_columns=xstar_columns)
        if xstars is None:
            xstars = np.empty((len(values),) + sample.xstar.shape)
        xstars[index] = sample.xstar
        fracs.append(frac)
    try:
        family = estimates(
            sample, xstars, cfg.kernel(), BandwidthRule(constant=cfg.bandwidth_c),
            cfg.grid_m,
        )
    except BandwidthTooSmallError as err:
        raise BandwidthTooSmallError(
            err.columns, err.h, where=f"{param}={values[err.value]}"
        ) from None
    # the replicates of every value on one set of workers
    results = run_bootstraps(zip(family, configs))
    rows = []
    for value, frac, result in zip(values, fracs, results):
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


def cmd_synth_data(args):
    config = read_config(args.config) if args.config else {}
    try:
        synth = SynthConfig(
            n=_merge(args, config, "n", int, 3895),
            seed=_merge(args, config, "seed", int, 20240801),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(_merge(args, config, "out_dir", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    path = out / "synth.csv"
    write_table(synth_table(synth), path)
    sys.stdout.write(f"synthetic dataset: n={synth.n} -> {path}\n")
    return 0


# --- argument wiring -----------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--seed", type=int, help="master RNG seed")


def _add_roles(parser):
    parser.add_argument("--input", help="headered CSV input file")
    parser.add_argument("--y1", help="first outcome column")
    parser.add_argument("--y2", help="second outcome column")
    parser.add_argument("--x", type=_csv_list, help="covariate columns, comma-separated")
    parser.add_argument("--discrete", type=_csv_list,
                        help="covariate columns matched exactly instead of smoothed")
    parser.add_argument("--xstar", type=_csv_list,
                        help="explicit counterfactual covariate columns")
    parser.add_argument("--scenario", help='e.g. "max_with(cedu, 16)"')
    parser.add_argument("--grid-m", dest="grid_m", type=int,
                        help="copula grid resolution (default 100)")
    parser.add_argument("--bandwidth-c", dest="bandwidth_c", type=float,
                        help="bandwidth constant c in h = c * scale * n^(-1/3)")
    parser.add_argument("--kernel", dest="kernel",
                        choices=("epanechnikov", "gaussian_truncated", "higher_order"),
                        help="kernel family (default epanechnikov)")
    parser.add_argument("--kernel-order", dest="kernel_order", type=int,
                        help="moment order for the higher_order family")


def _add_bootstrap(parser):
    parser.add_argument("--boot-b", dest="boot_b", type=int,
                        help="bootstrap replicates (default 1000)")
    parser.add_argument("--level", type=float, help="interval level (default 0.95)")
    parser.add_argument("--recompute-weights", dest="recompute_weights",
                        action="store_const", const=True,
                        help="resample rows and rebuild kernel weights per replicate")


def build_parser():
    parser = _Parser(
        prog="cfcopula",
        description="counterfactual copula estimation and inference",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_est = sub.add_parser("estimate", help="point estimates and measures")
    _add_common(p_est)
    _add_roles(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_boot = sub.add_parser("bootstrap", help="estimates plus bootstrap intervals")
    _add_common(p_boot)
    _add_roles(p_boot)
    _add_bootstrap(p_boot)
    p_boot.set_defaults(func=cmd_bootstrap)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study")
    _add_common(p_sim)
    p_sim.add_argument("--sizes", type=_int_list, help="sample sizes, comma-separated")
    p_sim.add_argument("--replications", type=int, help="Monte Carlo repetitions")
    p_sim.add_argument("--boot-b", dest="boot_b", type=int,
                       help="bootstrap replicates per repetition (0 skips)")
    p_sim.add_argument("--level", type=float)
    p_sim.add_argument("--grid-m", dest="grid_m", type=int)
    p_sim.add_argument("--bandwidth-c", dest="bandwidth_c", type=float)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="scenario-family sweep table")
    _add_common(p_sweep)
    _add_roles(p_sweep)
    _add_bootstrap(p_sweep)
    p_sweep.add_argument("--param", choices=("s", "sprime"),
                         help="s: max_with sweep; sprime: conditional_max sweep")
    p_sweep.add_argument("--from", dest="from", type=int,
                         help="first parameter value (inclusive)")
    p_sweep.add_argument("--to", dest="to", type=int,
                         help="last parameter value (inclusive)")
    p_sweep.add_argument("--column", help="column the scenario raises (default cedu)")
    p_sweep.add_argument("--trigger", help="trigger column for sprime (default pedu)")
    p_sweep.add_argument("--floor", type=float,
                         help="conditional_max floor (default 16)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser("synth-data", help="write the synthetic dataset")
    _add_common(p_synth)
    p_synth.add_argument("--n", type=int, help="number of rows (default 3895)")
    p_synth.set_defaults(func=cmd_synth_data)
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
                return args.func(args)
            finally:
                for warning in caught:
                    print(f"warning: {warning.category.__name__}: {warning.message}",
                          file=sys.stderr)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
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
