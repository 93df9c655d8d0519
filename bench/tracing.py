"""Span recording around heavyfed's layers, from outside the package.

The tracer replaces module attributes with timing wrappers for the duration
of a ``with tracer.installed():`` block and puts the originals back after it.
Wrappers pass arguments and return values through untouched.  A target that
no longer exists (a later refactor removed or folded it) is listed in
``tracer.absent`` and skipped; the run goes on without it.

Each span is ``[name, start, end, parent index, rep]``.  Spans stay in memory
until ``write``.  Self time is a span's duration minus the time its direct
children cover; calls are strictly nested on one thread, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# |a| + b beyond this is the regime smoothed_truncate's docstring calls
# extreme (its closed form cancels there).  This describes the input, so it
# is fixed here and not read from the implementation.
EXTREME_INPUT = 1e3

AGGREGATION_RULES = (
    "aggregate",
    "mean",
    "coord_trimmed_mean",
    "norm_trimmed_mean",
    "coord_median",
    "geometric_median",
    "krum",
    "bulyan",
)

# (heavyfed module, attribute, span name).  engine and estimator import
# these names into their own namespace, so they are wrapped where they are
# looked up; runner imports engine.run as ``run``.
TARGETS = (
    ("runner", "run", "engine.run"),
    ("engine", "build_data", "datagen.build_data"),
    ("engine", "partition", "datagen.partition"),
    ("engine", "robust_gradient", "estimator.robust_gradient"),
    ("engine", "per_sample_gradients", "losses.per_sample_gradients"),
    ("engine", "empirical_risk", "losses.empirical_risk"),
    ("engine", "project", "engine.project"),
    ("estimator", "per_sample_gradients", "losses.per_sample_gradients"),
    ("estimator", "smoothed_truncate", "estimator.smoothed_truncate"),
    ("adversary", "select_byzantine", "adversary.select_byzantine"),
    ("adversary", "corrupt", "adversary.corrupt"),
    ("compression", "compress", "compression.compress"),
    ("compression", "decompress", "compression.decompress"),
    ("compression", "nominal_bytes", "compression.nominal_bytes"),
    *(("aggregation", rule, f"aggregation.{rule}") for rule in AGGREGATION_RULES),
)

# layer -> span names whose self time belongs to it
LAYERS = {
    "datagen": ("datagen.build_data", "datagen.partition"),
    "losses": ("losses.per_sample_gradients", "losses.empirical_risk"),
    "estimator": ("estimator.robust_gradient", "estimator.smoothed_truncate"),
    "adversary": ("adversary.select_byzantine", "adversary.corrupt"),
    "compression": ("compression.compress", "compression.decompress", "compression.nominal_bytes"),
    "aggregation": tuple(f"aggregation.{rule}" for rule in AGGREGATION_RULES),
    "engine": ("engine.run", "engine.project"),
}

ROOT = "runner.run_experiment"


def _rep_of(args, kwargs):
    if "rep" in kwargs:
        return kwargs["rep"]
    return args[1] if len(args) > 1 else 0


def _count_truncate(tracer, args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"], dtype=float)
    b = np.asarray(args[1] if len(args) > 1 else kwargs["b"], dtype=float)
    tracer.counters["estimator.smoothed_truncate.elems"] += np.broadcast(a, b).size
    tracer.counters["estimator.smoothed_truncate.extreme"] += int(
        np.count_nonzero(np.abs(a) + np.abs(b) > EXTREME_INPUT)
    )


def _count_gradients(tracer, args, kwargs, result):
    tracer.counters["losses.per_sample_gradients.elems"] += int(np.size(result))


def _count_bytes(tracer, args, kwargs, result):
    tracer.counters["compression.nominal_bytes.sum"] += int(result)


# span name -> hook run after the span closes, with the call's arguments and
# result; hooks only read them
COUNTERS = {
    "estimator.smoothed_truncate": _count_truncate,
    "losses.per_sample_gradients": _count_gradients,
    "compression.nominal_bytes": _count_bytes,
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.absent = []
        self._stack = []
        self._rep = None

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._rep])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name):
        """A wrapper recording one span per call to ``fn``; transparent otherwise."""
        hook = COUNTERS.get(name)
        sets_rep = name == "engine.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sets_rep:
                self._rep = _rep_of(args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if sets_rep:
                    self._rep = None
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target that exists; restore the originals on exit."""
        patched = []
        try:
            for module_name, attr, name in targets:
                try:
                    module = importlib.import_module(f"heavyfed.{module_name}")
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(original, name))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rep in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "rep": rep}) + "\n")


def self_times(spans):
    """Per span name: (calls, total duration, total self time)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
    return {name: tuple(v) for name, v in stats.items()}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the traced calls (unit attached by the caller)."""
    stats = self_times(tracer.spans)
    counters = tracer.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def us_per_call(name):
        n, total, _ = stats.get(name, (0, 0.0, 0.0))
        return 1e6 * total / n if n else 0.0

    def ns_per(name, elems):
        return 1e9 * self_s(name) / elems if elems else 0.0

    wall = stats.get(ROOT, (0, 0.0, 0.0))[1]
    layer_self = {layer: sum(self_s(n) for n in names) for layer, names in LAYERS.items()}

    def share(layer):
        return layer_self[layer] / wall if wall else 0.0

    psg_elems = counters["losses.per_sample_gradients.elems"]
    st_elems = counters["estimator.smoothed_truncate.elems"]
    return {
        "datagen.build_data.self_s": self_s("datagen.build_data"),
        "datagen.partition.self_s": self_s("datagen.partition"),
        "losses.per_sample_gradients.calls": calls("losses.per_sample_gradients"),
        "losses.per_sample_gradients.elems": psg_elems,
        "losses.per_sample_gradients.ns_per_elem": ns_per("losses.per_sample_gradients", psg_elems),
        "losses.empirical_risk.self_s": self_s("losses.empirical_risk"),
        "losses.share": share("losses"),
        "estimator.robust_gradient.calls": calls("estimator.robust_gradient"),
        "estimator.smoothed_truncate.elems": st_elems,
        "estimator.smoothed_truncate.ns_per_elem": ns_per("estimator.smoothed_truncate", st_elems),
        "estimator.extreme_frac": counters["estimator.smoothed_truncate.extreme"] / st_elems if st_elems else 0.0,
        "estimator.self_s": layer_self["estimator"],
        "estimator.share": share("estimator"),
        "adversary.select_byzantine.us_per_call": us_per_call("adversary.select_byzantine"),
        "adversary.corrupt.us_per_call": us_per_call("adversary.corrupt"),
        "adversary.share": share("adversary"),
        "compression.compress.us_per_call": us_per_call("compression.compress"),
        "compression.decompress.us_per_call": us_per_call("compression.decompress"),
        "compression.calls": calls("compression.compress") + calls("compression.decompress"),
        "compression.nominal_bytes.sum": counters["compression.nominal_bytes.sum"],
        "compression.share": share("compression"),
        "aggregation.coord_trimmed_mean.us_per_call": us_per_call("aggregation.coord_trimmed_mean"),
        "aggregation.norm_trimmed_mean.us_per_call": us_per_call("aggregation.norm_trimmed_mean"),
        "aggregation.bulyan.us_per_call": us_per_call("aggregation.bulyan"),
        "aggregation.share": share("aggregation"),
        "engine.run.calls": calls("engine.run"),
        "engine.self_s": layer_self["engine"],
        "engine.share": share("engine"),
        "engine.project.us_per_call": us_per_call("engine.project"),
        "runner.self_s": self_s(ROOT),
    }
