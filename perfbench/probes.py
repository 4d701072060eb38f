"""Measurement from outside the program: function patches, the control-step
latency probe, and the span trace of the traced pass.

Every patch replaces a function at the name its caller looks up. `bench`
imports `train_mlp`, `simulate` and `track_trajectory` by name and `control`
imports `step` by name, so the patches go on `xfertrack.bench.train_mlp`,
`xfertrack.control.step` and so on; patching the defining module instead
would time nothing. Methods are patched on their class, which is where
instance lookups land.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from xfertrack import bench, control, gp, inverse, stability, systems

# an observe whose factorization needed more than the default jitter
JITTER_ESCALATION = gp.DEFAULT_JITTER


@contextmanager
def patched(patches):
    """Install (owner, attribute, replacement) triples; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class StepLatencyProbe:
    """Times `TransferController.control_step` for online-strategy runs.

    This is the only patch of an untraced pass."""

    def __init__(self):
        self.samples_ns = []

    def patches(self):
        original = control.TransferController.control_step
        samples = self.samples_ns

        @functools.wraps(original)
        def control_step(ctrl, *args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return original(ctrl, *args, **kwargs)
            finally:
                if ctrl.online is not None:
                    samples.append(perf_counter_ns() - t0)

        return [(control.TransferController, "control_step", control_step)]


class Tracer:
    """In-memory span trace of one pass.

    A span is (name, start, end, parent, pass id); the parent is the span
    open on the stack when it began, or -1. Counts that are not time sit
    in `counts`."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.vocab = {}
        self.name_ids = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self.vocab.setdefault(name, len(self.vocab)))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(-1)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        """Span every call of fn. name is a string or a function of the
        call's (args, kwargs); after(args, result) sees each return."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def count_calls(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- the layer boundaries ------------------------------------------------

    def patches(self):
        counts = self.counts
        span = self.wrap
        Ctrl = control.TransferController
        Gp = gp.GpWindowModel

        def after_train(args, model):
            counts["inverse.epochs"] += int(model.epochs_run or 0)

        def strategy_name(args, kwargs):
            return "bench." + (args[1] if len(args) > 1 else kwargs["strategy"])

        def after_strategy(args, res):
            counts["bench.aborted_runs"] += int(res.aborted)

        def step_name(args, kwargs):
            return "control.online_step" if args[0].online is not None \
                else "control.offline_step"

        def after_select_gain(args, alpha):
            g = args[0].gain
            if isinstance(g, control.EstimatedGain):
                counts["control.gain_floor_hits"] += abs(alpha) == g.floor
                counts["control.gain_cap_hits"] += abs(alpha) == g.cap

        original_observe = Gp.observe

        @functools.wraps(original_observe)
        def observe(model, *args, **kwargs):
            rejected = model.rejected_count
            idx = self.open("gp.observe")
            try:
                out = original_observe(model, *args, **kwargs)
            finally:
                self.close(idx)
            counts["gp.rejected_obs"] += model.rejected_count - rejected
            jitter = model.jitter
            counts["gp.jitter_escalations"] += (jitter is not None
                                                and jitter > JITTER_ESCALATION)
            return out

        return [
            (bench, "build_training_dataset",
             span(bench.build_training_dataset, "inverse.dataset")),
            (bench, "train_mlp", span(bench.train_mlp, "inverse.train", after_train)),
            (inverse.MlpInverseModel, "reference",
             span(inverse.MlpInverseModel.reference, "inverse.reference")),
            (inverse.AnalyticInverse, "reference",
             span(inverse.AnalyticInverse.reference, "inverse.reference")),
            (Gp, "observe", observe),
            (Gp, "fit_hyperparams", span(Gp.fit_hyperparams, "gp.refit")),
            (Gp, "log_marginal_likelihood",
             self.count_calls(Gp.log_marginal_likelihood, "gp.lml_evals")),
            (Gp, "predict", span(Gp.predict, "gp.predict")),
            (Gp, "mean_derivative", span(Gp.mean_derivative, "gp.mean_derivative")),
            (Ctrl, "control_step", span(Ctrl.control_step, step_name)),
            (Ctrl, "select_gain",
             span(Ctrl.select_gain, "control.select_gain", after_select_gain)),
            (control, "step", span(control.step, "systems.step")),
            (systems, "step", span(systems.step, "systems.step")),
            (bench, "simulate", span(bench.simulate, "systems.simulate")),
            (bench, "run_strategy",
             span(bench.run_strategy, strategy_name, after_strategy)),
            (bench, "metrics", span(bench.metrics, "bench.metrics")),
            (control.StepLog, "to_csv", span(control.StepLog.to_csv, "bench.csv_write")),
            (stability, "fit_prediction_budget",
             span(stability.fit_prediction_budget, "stability.budget_fit")),
            (stability, "stability_report",
             span(stability.stability_report, "stability.report")),
        ]

    # -- analysis --------------------------------------------------------------

    def spans(self) -> "SpanTable":
        return SpanTable(self.pass_id, list(self.vocab), self.name_ids, self.starts,
                         self.ends, self.parents)


class SpanTable:
    """Columnar spans of one pass, with durations and self times in ns."""

    def __init__(self, pass_id, vocab, name_ids, starts, ends, parents):
        self.pass_id = pass_id
        self.vocab = list(vocab)
        self.name_ids = np.asarray(name_ids, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.durations = self.ends - self.starts
        child = np.zeros(self.starts.size, dtype=np.int64)
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], self.durations[has_parent])
        self.self_times = self.durations - child

    def nesting_violations(self) -> int:
        """Spans left open, or children not inside their parent's interval."""
        open_spans = int(np.count_nonzero(self.ends < 0))
        kids = np.flatnonzero(self.parents >= 0)
        par = self.parents[kids]
        outside = ((self.starts[kids] < self.starts[par])
                   | (self.ends[kids] > self.ends[par]))
        return open_spans + int(np.count_nonzero(outside))

    def mask(self, name: str) -> np.ndarray:
        if name not in self.vocab:
            return np.zeros(self.starts.size, dtype=bool)
        return self.name_ids == self.vocab.index(name)

    def with_child(self, parent_name: str, child_name: str) -> np.ndarray:
        """Mask of parent_name spans that have a direct child_name span."""
        out = np.zeros(self.starts.size, dtype=bool)
        out[self.parents[self.mask(child_name)]] = True
        return out & self.mask(parent_name)

    def write(self, path: Path):
        np.savez(path, pass_id=np.int64(self.pass_id), names=np.asarray(self.vocab),
                 name_ids=self.name_ids, starts=self.starts, ends=self.ends,
                 parents=self.parents)


US, MS, S = 1e3, 1e6, 1e9


def _pct(values_ns, q, scale):
    return float(np.percentile(values_ns, q)) / scale if len(values_ns) else 0.0


def _total(values_ns, scale):
    return float(values_ns.sum()) / scale


def layer_metrics(table: SpanTable, counts: Counter) -> dict:
    """The per-layer figures of one traced pass, keyed by metric name."""
    dur = table.durations
    sel = table.self_times

    def of(name):
        return dur[table.mask(name)]

    refit = of("gp.refit")
    plain_observe = dur[table.mask("gp.observe")
                        & ~table.with_child("gp.observe", "gp.refit")]
    predict = of("gp.predict")
    mean_deriv = of("gp.mean_derivative")
    reference = of("inverse.reference")
    plant = of("systems.step")
    return {
        "inverse.dataset_s": _total(of("inverse.dataset"), S),
        "inverse.train_s": _total(of("inverse.train"), S),
        "inverse.epochs": counts["inverse.epochs"],
        "inverse.reference_us_p50": _pct(reference, 50, US),
        "inverse.reference_calls": int(reference.size),
        "gp.refit_count": int(refit.size),
        "gp.lml_evals": counts["gp.lml_evals"],
        "gp.refit_ms_p50": _pct(refit, 50, MS),
        "gp.refit_ms_p99": _pct(refit, 99, MS),
        "gp.refit_s": _total(refit, S),
        "gp.observe_calls": int(np.count_nonzero(table.mask("gp.observe"))),
        "gp.observe_us_p50": _pct(plain_observe, 50, US),
        "gp.observe_us_p99": _pct(plain_observe, 99, US),
        "gp.predict_calls": int(predict.size),
        "gp.predict_us_p50": _pct(predict, 50, US),
        "gp.predict_us_p99": _pct(predict, 99, US),
        "gp.mean_derivative_calls": int(mean_deriv.size),
        "gp.mean_derivative_us_p50": _pct(mean_deriv, 50, US),
        "gp.jitter_escalations": counts["gp.jitter_escalations"],
        "gp.rejected_obs": counts["gp.rejected_obs"],
        "control.online_step_self_us_p50":
            _pct(sel[table.mask("control.online_step")], 50, US),
        "control.offline_step_us_p50": _pct(of("control.offline_step"), 50, US),
        "control.select_gain_us_p50": _pct(of("control.select_gain"), 50, US),
        "control.gain_floor_hits": counts["control.gain_floor_hits"],
        "control.gain_cap_hits": counts["control.gain_cap_hits"],
        "systems.step_us_p50": _pct(plant, 50, US),
        "systems.simulate_s": _total(of("systems.simulate"), S),
        "systems.plant_steps": int(plant.size),
        "bench.baseline_s": _total(of("bench.baseline"), S),
        "bench.offline_s": _total(of("bench.offline"), S),
        "bench.online_s": _total(of("bench.online"), S),
        "bench.csv_write_s": _total(of("bench.csv_write"), S),
        "bench.metrics_ms": _total(of("bench.metrics"), MS),
        "bench.aborted_runs": counts["bench.aborted_runs"],
        "stability.budget_fit_ms": _pct(of("stability.budget_fit"), 50, MS),
        "stability.report_ms": _pct(of("stability.report"), 50, MS),
    }


# metrics that are exact counts: they must repeat identically across passes
COUNT_METRICS = ("inverse.epochs", "inverse.reference_calls", "gp.refit_count",
                 "gp.lml_evals", "gp.observe_calls", "gp.predict_calls",
                 "gp.mean_derivative_calls", "gp.jitter_escalations",
                 "gp.rejected_obs", "control.gain_floor_hits",
                 "control.gain_cap_hits", "systems.plant_steps",
                 "bench.aborted_runs")
