"""Spans around calls into the package's public functions, recorded from outside.

`Tracer.active()` swaps each traced function for a wrapper, at the place the
caller looks it up (a module attribute or a class attribute), and restores the
original on exit. The program's code is not modified. A wrapper records a span
``[id, parent, group, name, start, end]`` in memory and adds its counts to the
current group; a group is one round of a workload (or ``"setup"``), so the
spans of one round share that identifier.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

from tailseries import diagnostics, distributions, estimators, experiments, extremal, rng
from tailseries import serialize, simulate

_SERIES_LAYER = {simulate.LINEAR_AR1: "simulate.series.linear",
                 simulate.NONLINEAR_AR1: "simulate.series.nonlinear",
                 simulate.SRE: "simulate.series.sre"}


def _series_name(a):
    return _SERIES_LAYER[a["model"].variant]


# (owner, attribute, span name or function of the bound arguments, counts).
# The owner is the module or class that defines the function; `Tracer.active`
# also rebinds every name a tailseries module imported it under.
TARGETS = (
    (rng.RngState, "uniforms", "rng.uniforms",
     lambda a, r: {"rng.uniforms.draws": a["n"]}),
    (rng, "uniforms_for_bases", "rng.uniforms_for_bases",
     lambda a, r: {"rng.uniforms_for_bases.draws": a["bases"].size * a["n_draws"]}),
    (distributions, "sample", "distributions.sample",
     lambda a, r: {"distributions.sample.draws": a["n"]}),
    (simulate, "simulate_series", _series_name,
     lambda a, r: {_series_name(a) + ".steps": a["model"].burnin + a["n"]}),
    (simulate, "simulate_walks", "simulate.walks",
     lambda a, r: {"simulate.walks.paths": a["n_paths"],
                   "simulate.walks.bytes_computed": a["n_paths"] * a["horizon"] * 8}),
    (simulate.TwoPointLaw, "sample_from_uniforms", "simulate.law_sample", None),
    (simulate.LognormalLaw, "sample_from_uniforms", "simulate.law_sample", None),
    (simulate, "solve_kappa", "simulate.solve_kappa", None),
    (experiments, "true_quantile", "experiments.truth", None),
    (experiments, "run_quantile_experiment", "experiments.replicates", None),
    (experiments, "summarize_estimates", "experiments.summary", None),
    (experiments, "test_power_experiment", "experiments.power", None),
    (estimators, "weissman_direct_curve", "estimators.direct_curve",
     lambda a, r: {"estimators.direct_curve.calls": 1}),
    (estimators, "weissman_model_ar1_curve", "estimators.model_curve",
     lambda a, r: {"estimators.model_curve.calls": 1}),
    (diagnostics, "turning_point_test", "diagnostics.tests",
     lambda a, r: {"diagnostics.tests.calls": 1}),
    (diagnostics, "difference_sign_test", "diagnostics.tests",
     lambda a, r: {"diagnostics.tests.calls": 1}),
    (diagnostics, "ljung_box_curve", "diagnostics.tests",
     lambda a, r: {"diagnostics.tests.calls": 1}),
    (extremal, "extremal_index", "extremal.theta", None),
    (extremal, "cluster_size_probs", "extremal.cluster", None),
    (extremal, "hill_avar_sre", "extremal.hill_avar", None),
    (extremal, "joint_exceedance", "extremal.joint", None),
    (serialize, "dump_json", "serialize",
     lambda a, r: {"serialize.bytes": len(r.encode())}),
    (serialize, "dump_csv", "serialize",
     lambda a, r: {"serialize.bytes": len(r.encode())}),
)

# Per-layer metrics: name -> (unit, kind, span names or count key).
# "s" sums span durations, "self_s" subtracts the time of child spans.
# test_power_experiment is the power study's replicate loop, so it counts
# toward experiments.replicates as well as experiments.power.
LAYER_METRICS = {
    "rng.uniforms.draws": ("count", "count", "rng.uniforms.draws"),
    "rng.uniforms.s": ("s", "s", ("rng.uniforms",)),
    "rng.uniforms_for_bases.draws": ("count", "count", "rng.uniforms_for_bases.draws"),
    "rng.uniforms_for_bases.s": ("s", "s", ("rng.uniforms_for_bases",)),
    "distributions.sample.draws": ("count", "count", "distributions.sample.draws"),
    "distributions.sample.self_s": ("s", "self_s", ("distributions.sample",)),
    "simulate.series.linear.steps": ("count", "count", "simulate.series.linear.steps"),
    "simulate.series.linear.self_s": ("s", "self_s", ("simulate.series.linear",)),
    "simulate.series.nonlinear.steps": ("count", "count", "simulate.series.nonlinear.steps"),
    "simulate.series.nonlinear.self_s": ("s", "self_s", ("simulate.series.nonlinear",)),
    "simulate.walks.paths": ("count", "count", "simulate.walks.paths"),
    "simulate.walks.self_s": ("s", "self_s", ("simulate.walks",)),
    "simulate.walks.bytes_computed": ("bytes", "count", "simulate.walks.bytes_computed"),
    "simulate.law_sample.s": ("s", "s", ("simulate.law_sample",)),
    "simulate.solve_kappa.s": ("s", "setup_s", ("simulate.solve_kappa",)),
    "experiments.truth.s": ("s", "s", ("experiments.truth",)),
    "experiments.truth.self_s": ("s", "self_s", ("experiments.truth",)),
    "experiments.replicates.s": ("s", "s", ("experiments.replicates", "experiments.power")),
    "experiments.summary.s": ("s", "s", ("experiments.summary",)),
    "experiments.power.s": ("s", "s", ("experiments.power",)),
    "estimators.direct_curve.calls": ("count", "count", "estimators.direct_curve.calls"),
    "estimators.direct_curve.s": ("s", "s", ("estimators.direct_curve",)),
    "estimators.model_curve.calls": ("count", "count", "estimators.model_curve.calls"),
    "estimators.model_curve.s": ("s", "s", ("estimators.model_curve",)),
    "diagnostics.tests.calls": ("count", "count", "diagnostics.tests.calls"),
    "diagnostics.tests.s": ("s", "s", ("diagnostics.tests",)),
    "extremal.theta.s": ("s", "s", ("extremal.theta",)),
    "extremal.cluster.s": ("s", "s", ("extremal.cluster",)),
    "extremal.hill_avar.s": ("s", "s", ("extremal.hill_avar",)),
    "extremal.joint.s": ("s", "s", ("extremal.joint",)),
    "serialize.bytes": ("bytes", "count", "serialize.bytes"),
    "serialize.s": ("s", "s", ("serialize",)),
    "trace.spans": ("count", "count", "trace.spans"),
}


class Tracer:
    """In-memory span recorder; `group` names the round spans are filed under."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.group = "setup"
        self._stack = []

    def _wrap(self, fn, name, count):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            bound = sig.bind(*args, **kwargs).arguments if (count or callable(name)) else None
            span = [len(self.spans), parent, self.group,
                    name(bound) if callable(name) else name, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            counts = self.counts[self.group]
            counts["trace.spans"] += 1
            if count:
                for key, value in count(bound, result).items():
                    counts[key] += int(value)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        saved = []
        try:
            modules = [m for key, m in sys.modules.items()
                       if key == "tailseries" or key.startswith("tailseries.")]
            for owner, attr, name, count in TARGETS:
                fn = owner.__dict__[attr]
                traced = self._wrap(fn, name, count)
                holders = [owner] + [m for m in modules
                                     if m is not owner and vars(m).get(attr) is fn]
                for holder in holders:
                    saved.append((holder, attr, fn))
                    setattr(holder, attr, traced)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def group_times(self) -> dict:
        """{group: {span name: [total s, self s]}}."""
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for sid, _, group, name, start, end in self.spans:
            entry = out[group][name]
            entry[0] += end - start
            entry[1] += end - start - child_time[sid]
        return out

    def layer_metrics(self, rounds) -> dict:
        """Per-layer metrics: the median over ``rounds`` (group ids) of each value.

        Counts are returned as ints; a layer a round never calls reads 0.
        """
        times = self.group_times()
        out = {}
        for metric, (unit, kind, key) in LAYER_METRICS.items():
            if kind == "count":
                value = statistics.median(self.counts[g][key] for g in rounds)
                value = int(value) if value == int(value) else value
            elif kind == "setup_s":
                value = sum(times["setup"][n][0] for n in key)
            else:
                col = 0 if kind == "s" else 1
                value = statistics.median(sum(times[g][n][col] for n in key) for g in rounds)
            out[metric] = {"value": value, "unit": unit}
        return out

    def round_counts(self, group) -> dict:
        return dict(self.counts[group])

    def dump(self, path):
        """Write every span as JSON: name, start, end (s), parent id, group."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "group": group}
                for sid, parent, group, name, start, end in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")
