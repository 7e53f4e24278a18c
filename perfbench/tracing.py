"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces selected public functions of the ``cfcopula``
modules with timing wrappers, in every module namespace that holds them
(``cli`` imports ``counterfactual_weights`` by name, ``bootstrap`` calls
``association.measures_from_grid`` through the module, and so on), and
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/`` is
changed.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np


# A counter gets the tracer, the call's arguments by parameter name (defaults
# applied) and the call's result.

def _count_weights(tracer, call, result):
    tracer.counts["copula.weights.target_cols"] += np.shape(call["xstar"])[0]
    if tracer.weight_calls is not None:
        tracer.weight_calls.append(call)


def _count_kernel(tracer, call, result):
    tracer.counts["kernels.kernel_1d.points"] += np.size(call["u"])


def _count_grid(tracer, call, result):
    tracer.counts["copula.grid.atoms"] += np.size(call["u1"])


def _count_bootstrap(tracer, call, result):
    tracer.counts["bootstrap.replicates"] += call["config"].B
    tracer.counts["bootstrap.redraws"] += result.discarded


def _count_study(tracer, call, result):
    config = call["config"]
    tracer.counts["simulation.study.replications"] += (
        config.replications * len(config.sizes)
    )


# (module, public function, layer name, counter)
LAYERS = (
    ("cfcopula.cli", "main", "cli", None),
    ("cfcopula.data", "ingest", "data.ingest", None),
    ("cfcopula.data", "write_grid_csv", "data.write_grid", None),
    ("cfcopula.scenarios", "apply_scenario", "scenarios.apply", None),
    ("cfcopula.kernels", "kernel_1d", "kernels.kernel_1d", _count_kernel),
    ("cfcopula.copula", "counterfactual_weights", "copula.weights", _count_weights),
    ("cfcopula.copula", "margin_ranks", "copula.ranks", None),
    ("cfcopula.copula", "weighted_rank_copula_values", "copula.grid", _count_grid),
    ("cfcopula.copula", "empirical_copula", "copula.point", None),
    ("cfcopula.copula", "counterfactual_copula", "copula.point", None),
    ("cfcopula.association", "measures_from_grid", "association.measures", None),
    ("cfcopula.bootstrap", "run_bootstrap", "bootstrap.run", _count_bootstrap),
    ("cfcopula.bootstrap", "multinomial_counts", "bootstrap.draw", None),
    ("cfcopula.bootstrap", "bootstrap_replicate", "bootstrap.recompute", None),
    ("cfcopula.simulation", "run_study", "simulation.study", _count_study),
    ("cfcopula.simulation", "dgp_draw", "simulation.dgp", None),
    ("cfcopula.simulation", "gaussian_copula_grid", "simulation.truth", None),
)


class Tracer:
    """Spans and counts at the layer boundaries of one benchmark run."""

    def __init__(self):
        # (run id, span id, parent span id or -1, name, start, end)
        self.spans = []
        self.counts = collections.Counter()
        self.run_id = 0
        # argument dicts of weights calls while capturing, else None
        self.weight_calls = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (self.run_id, span_id, parent, name, start, end)
            if counter is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                counter(self, call.arguments, result)
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for module_name, func_name, layer, counter in LAYERS:
            fn = getattr(sys.modules.get(module_name), func_name, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(layer, fn, counter)
        for module_name, module in list(sys.modules.items()):
            if module_name != "cfcopula" and not module_name.startswith("cfcopula."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(f"{run_id},{span_id},{parent},{name},{start!r},{end!r}\n")


def span_totals(spans):
    """Inclusive time, call count and self time per layer name."""
    total = collections.defaultdict(float)
    calls = collections.Counter()
    children = collections.defaultdict(float)
    for _, _, parent, name, start, end in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            children[parent] += end - start
    self_time = collections.defaultdict(float)
    for _, span_id, _, name, start, end in spans:
        self_time[name] += (end - start) - children[span_id]
    return total, calls, self_time


def layer_metrics(tracer, ops):
    """Per-layer metrics averaged over ``ops`` traced operations."""
    total, calls, self_time = span_totals(tracer.spans)
    recompute_ms = [1e3 * (end - start) for *_, name, start, end in tracer.spans
                    if name == "bootstrap.recompute"]
    counts = tracer.counts
    metrics = {}
    for name in ("copula.weights", "kernels.kernel_1d", "copula.grid", "copula.ranks",
                 "association.measures", "bootstrap.run", "bootstrap.draw",
                 "bootstrap.recompute", "data.ingest", "data.write_grid",
                 "scenarios.apply"):
        metrics[f"{name}.calls"] = calls[name] / ops
        metrics[f"{name}.s"] = total[name] / ops
    for name in ("kernels.kernel_1d.points", "copula.weights.target_cols",
                 "copula.grid.atoms", "bootstrap.replicates", "bootstrap.redraws",
                 "simulation.study.replications"):
        metrics[name] = counts[name] / ops
    metrics["copula.point.s"] = total["copula.point"] / ops
    metrics["bootstrap.self_s"] = self_time["bootstrap.run"] / ops
    metrics["bootstrap.replicate_ms"] = (
        1e3 * total["bootstrap.run"] / counts["bootstrap.replicates"]
        if counts["bootstrap.replicates"] else 0.0
    )
    metrics["bootstrap.recompute.p50_ms"] = _percentile(recompute_ms, 50)
    metrics["bootstrap.recompute.p99_ms"] = _percentile(recompute_ms, 99)
    for name in ("simulation.study", "simulation.dgp", "simulation.truth"):
        metrics[f"{name}.s"] = total[name] / ops
    metrics["cli.self_s"] = self_time["cli"] / ops
    return metrics


def _percentile(values, p):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def weight_input_properties(calls, kernel_1d, default_kernel):
    """Distinct-target share and kernel nonzero share over captured weights calls.

    These are properties of the inputs, computed outside timing with the
    program's own one-dimensional kernel: a target row counts as distinct
    once per call, and a kernel entry is nonzero when every coordinate of
    the product kernel is.
    """
    distinct = targets = nonzero = entries = 0
    for call in calls:
        x = np.asarray(call["x"], dtype=float)
        xstar = np.asarray(call["xstar"], dtype=float)
        x = x.reshape(x.shape[0], -1)
        xstar = xstar.reshape(xstar.shape[0], -1)
        n, d = x.shape
        kernel = call["kernel"] or default_kernel
        h = np.broadcast_to(np.asarray(call["h"], dtype=float), (d,))
        mask = call["discrete_mask"]
        mask = np.zeros(d, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        distinct += np.unique(xstar, axis=0).shape[0]
        targets += xstar.shape[0]
        for start in range(0, xstar.shape[0], 512):
            block = xstar[start:start + 512]
            support = np.ones((n, block.shape[0]), dtype=bool)
            for c in range(d):
                diff = x[:, c][:, None] - block[:, c][None, :]
                if mask[c]:
                    support &= diff == 0.0
                else:
                    support &= kernel_1d(kernel, diff / h[c]) != 0.0
            nonzero += int(np.count_nonzero(support))
        entries += n * xstar.shape[0]
    return {
        "copula.weights.distinct_target_frac": distinct / targets if targets else 0.0,
        "copula.weights.kernel_nnz_frac": nonzero / entries if entries else 0.0,
    }
