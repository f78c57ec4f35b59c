"""In-memory span recorder that wraps kinloc's module-level calls from outside.

``Tracer.install()`` replaces each function listed in ``TRACED`` with a
wrapper that records one span per call: (id, name, start, end, parent id,
trial id).  The replacement is made in every loaded ``kinloc`` module that
holds the function, so names imported with ``from .estim import ...`` are
traced too.  ``uninstall()`` puts the originals back.  Nothing under ``src/``
is edited.  Spans are timed with ``time.perf_counter`` unless another clock
is given; the per-item probe of an untraced run uses ``time.thread_time``.

A *trial* is one ``montecarlo.run_trial`` call (sweeps) or one
``estim.estimate_all`` call made by a caller outside kinloc (the estimate
stream); every span opened inside it carries its trial id.  Worker threads of
the trial pool start with an empty stack, so their spans take the innermost
open span of the installing thread (``run_ensemble``) as parent.
"""

import itertools
import sys
import threading
import time

import numpy as np

# (module, attribute, span name); a name may be refined per call by _LABELS
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "_sweep_csv", "cli.sweep_csv"),
    ("montecarlo", "sweep_velocity_experiment", "montecarlo.sweep"),
    ("montecarlo", "sweep_acceleration_experiment", "montecarlo.sweep"),
    ("montecarlo", "run_ensemble", "montecarlo.run_ensemble"),
    ("montecarlo", "run_trial", "montecarlo.run_trial"),
    ("montecarlo", "sample_truth", "montecarlo.sample_truth"),
    ("montecarlo", "rmse", "montecarlo.rmse"),
    ("model", "synthesize_measurements", "model.synthesize_measurements"),
    ("estim", "estimate_all", "estim.estimate_all"),
    ("estim", "estimate_position", "estim.estimate_position"),
    ("estim", "estimate_velocity", "estim.estimate_velocity"),
    ("estim", "estimate_acceleration", "estim.estimate_acceleration"),
    ("_kernels", "position_solve", "_kernels.position_solve"),
    ("_kernels", "system_rows", "_kernels.system_rows"),
    ("_kernels", "wls_solve2", "_kernels.wls_solve2"),
    ("svgplot", "sweep_figure", "svgplot.sweep_figure"),
)

TRIAL_ROOTS = ("montecarlo.run_trial", "estim.estimate_all")


def _weight_label(position):
    """Span-name suffix ``.ls``/``.wls`` from a stage call's weight_rule argument."""
    def label(args, kwargs):
        rule = kwargs.get("weight_rule", args[position] if len(args) > position else None)
        # the stage default is the inverse-range (WLS) rule
        return ".ls" if rule is not None and rule.mode == "uniform" else ".wls"
    return label


_LABELS = {
    "estim.estimate_velocity": _weight_label(3),
    "estim.estimate_acceleration": _weight_label(4),
}


class Tracer:
    """Records spans while installed; ``spans`` holds completed ones in exit order."""

    def __init__(self, functions=TRACED, clock=time.perf_counter, after=None):
        self.functions = functions
        self.clock = clock
        self.after = after          # called after each span is recorded, outside it
        self.spans = []
        self._local = threading.local()
        self._main_stack = []
        self._patched = []          # (module, attribute, original)

    def install(self):
        self.spans = []
        self._ids = itertools.count()
        self._trials = itertools.count()
        self._main_stack = []
        self._local.stack = self._main_stack
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kinloc" or n.startswith("kinloc."))]
        wrappers = {}
        for module_name, attribute, span_name in self.functions:
            original = getattr(sys.modules["kinloc." + module_name], attribute)
            if original not in wrappers:
                wrappers[original] = self._wrap(original, span_name)
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((module, attribute, value))
                    setattr(module, attribute, wrappers[value])

    def uninstall(self):
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, span_name):
        local = self._local
        label = _LABELS.get(span_name)
        starts_trial = span_name in TRIAL_ROOTS
        clock = self.clock
        after = self.after
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, trial = stack[-1]
            elif tracer._main_stack:
                parent, trial = tracer._main_stack[-1]
            else:
                parent, trial = -1, -1
            if starts_trial:
                trial = next(tracer._trials)
            name = span_name + label(args, kwargs) if label else span_name
            span_id = next(tracer._ids)
            stack.append((span_id, trial))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, trial))
                if after is not None:
                    after()

        traced.__wrapped__ = fn
        return traced


class SpanTable:
    """Column view of one invocation's spans, indexed by span id."""

    def __init__(self, spans):
        spans = sorted(spans)
        if [s[0] for s in spans] != list(range(len(spans))):
            raise ValueError("span ids must be dense and unique")
        self.names = np.array([s[1] for s in spans], dtype=object)
        self.start = np.array([s[2] for s in spans], dtype=np.float64)
        self.end = np.array([s[3] for s in spans], dtype=np.float64)
        self.parent = np.array([s[4] for s in spans], dtype=np.int64)
        self.trial = np.array([s[5] for s in spans], dtype=np.int64)
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=len(spans))
        # a span's children run one after another on its thread, so their
        # durations add up to the covered time; the exception is run_ensemble
        # with a thread pool, whose self time is never reported
        self.self_time = self.duration - child_time

    def __len__(self):
        return len(self.names)

    def mask(self, *prefixes):
        return np.array([n.startswith(prefixes) for n in self.names], dtype=bool)

    def per_trial(self, values, mask):
        """Sum of ``values`` over the masked spans of each trial, indexed by trial id."""
        sel = mask & (self.trial >= 0)
        return np.bincount(self.trial[sel], weights=values[sel],
                           minlength=int(self.trial.max()) + 1 if len(self) else 0)

    def trials(self):
        return int(self.trial.max()) + 1 if len(self) and self.trial.max() >= 0 else 0

    def count(self, name):
        return int(np.count_nonzero(self.names == name))

    def durations(self, name):
        return self.duration[self.names == name]


def layer_samples(table, threads):
    """Per-layer samples of one traced invocation, in seconds or counts.

    Returns a dict: metric name -> array of samples (per call or per trial),
    plus exact per-trial call counts.
    """
    trials = table.trials()
    out = {}
    for name in ("montecarlo.sample_truth", "model.synthesize_measurements",
                 "montecarlo.rmse", "cli.sweep_csv", "svgplot.sweep_figure",
                 "estim.estimate_position",
                 "estim.estimate_velocity.ls", "estim.estimate_velocity.wls",
                 "estim.estimate_acceleration.ls", "estim.estimate_acceleration.wls",
                 "_kernels.position_solve", "_kernels.system_rows", "_kernels.wls_solve2"):
        out[name] = table.durations(name)
    out["montecarlo.run_trial.self"] = table.self_time[table.names == "montecarlo.run_trial"]
    if trials:
        estim_mask = table.mask("estim.")
        # outermost estim spans per trial: estimate_all, or the stages run_trial calls
        outer = estim_mask & ~np.isin(table.parent, np.flatnonzero(estim_mask))
        out["estim.estimate_all"] = table.per_trial(table.duration, outer)
        out["estim.self"] = table.per_trial(table.self_time, estim_mask)
    else:
        out["estim.estimate_all"] = out["estim.self"] = np.zeros(0)
    busy = table.durations("montecarlo.run_trial").sum()
    ensemble = table.durations("montecarlo.run_ensemble").sum()
    out["montecarlo.parallel_efficiency"] = (
        np.array([busy / (threads * ensemble)]) if ensemble > 0 else np.zeros(0))
    counts = {name: (table.count(name) / trials if trials else 0.0)
              for name in ("_kernels.system_rows", "_kernels.wls_solve2")}
    return out, counts, trials
