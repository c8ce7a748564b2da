"""Span tracing installed from outside the package.

The tracer replaces selected locobf functions with timing wrappers in
every module namespace that holds them, so calls made inside the
package are seen too, and restores the originals afterwards. Spans stay
in memory as (name, start, end, parent, round) tuples until the run
writes them out; per-layer metrics are reduced from them at the end.
"""

import contextlib
import functools
import sys
import time
import tracemalloc

import numpy as np

# (span name, function name[, class name]). Each function is looked up
# in whichever locobf module defines it, so the benchmark keeps finding
# a function that moves between modules.
TARGETS = (
    ("domain.synth", "synth_domain"),
    ("domain.admission", "satisfies_error_bound"),
    ("domain.geometry", "diameter"),
    ("domain.geometry", "prior_mass"),
    ("hilbert.order", "order_domain"),
    ("partition.best", "best_hilbert_partition"),
    ("partition.walk", "partition_on_ordering"),
    ("partition.validate", "validate", "Partition"),
    ("qkmeans.search", "qk_partition"),
    ("qkmeans.k", "_search_k"),
    ("qkmeans.seed", "seed_centers"),
    ("qkmeans.round", "assign_round"),
    ("mechanism.build", "build_matrix"),
    ("mechanism.baseline", "build_matrix_constant"),
    ("mechanism.sample", "sample_pseudo"),
    ("adversary.metrics", "compute_metrics"),
    ("cli.sweep", "run_sweep"),
    ("cli.cell", "_run_cell"),
    ("cli.wtd", "worker_travel_distance"),
)

SETUP = -1  # round index of spans recorded during the traced set-up


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "locobf" or name.startswith("locobf."))]


def _find(modules, attr, cls_name=None):
    """The defining object for attr (or cls_name.attr), or None."""
    for mod in modules:
        if cls_name is not None:
            cls = vars(mod).get(cls_name)
            if isinstance(cls, type) and cls.__module__ == mod.__name__ and attr in vars(cls):
                return cls
            continue
        obj = vars(mod).get(attr)
        if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            return obj
    return None


class NullTracer:
    """Stand-in used for untraced runs: spans and pauses cost nothing."""

    round = SETUP

    def span(self, name):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    """Spans and counts around the wrapped locobf calls of one run."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # (counter name, round) -> total
        self.peak_bytes = 0  # tracemalloc peak inside compute_metrics
        self.round = SETUP
        self.active = False
        self.missing = []
        self._stack = []
        self._restore = []

    # -- recording --------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, (self._stack[-2] if len(self._stack) > 1 else -1)

    def _close(self, idx, name, start, end, parent):
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.round)

    def count(self, name, value):
        key = (name, self.round)
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, time.perf_counter(), parent)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) leave no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name, fn):
        clock = time.perf_counter
        post = _POST.get(name)
        measure_memory = name == "adversary.metrics"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx, parent = self._open()
            if measure_memory:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(idx, name, start, end, parent)
                if measure_memory:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if post is not None:
                post(self, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        modules = _package_modules()
        for target in TARGETS:
            name, attr = target[0], target[1]
            cls_name = target[2] if len(target) > 2 else None
            owner = _find(modules, attr, cls_name)
            if owner is None:
                self.missing.append(f"{cls_name + '.' if cls_name else ''}{attr}")
                continue
            if cls_name is not None:
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            wrapper = self._wrap(name, owner)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._restore.append((mod, key, owner))
                        setattr(mod, key, wrapper)
        self.active = True

    def uninstall(self):
        self.active = False
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write(self, path):
        """One line per span: id name start end parent round (times in s)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tround\n")
            for i, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{rnd}\n")

    def layer_metrics(self, rounds):
        """Per-layer values for one traced set-up plus one average round."""
        total = {}
        calls = {}
        self_time = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            weight = 1.0 if rnd == SETUP else 1.0 / rounds
            dur = end - start
            total[name] = total.get(name, 0.0) + weight * dur
            calls[name] = calls.get(name, 0.0) + weight
            self_time[name] = self_time.get(name, 0.0) + weight * (dur - child[i])
        counted = {}
        for (name, rnd), value in self.counts.items():
            counted[name] = counted.get(name, 0.0) + (value if rnd == SETUP else value / rounds)

        def s(table, name):
            return float(table.get(name, 0.0))

        def n(table, name):
            return int(round(table.get(name, 0.0)))

        return {
            "domain.synth_s": (s(total, "domain.synth"), "s"),
            "domain.admission_calls": (n(calls, "domain.admission"), "count"),
            "domain.admission_s": (s(total, "domain.admission"), "s"),
            "domain.geometry_calls": (n(calls, "domain.geometry"), "count"),
            "domain.geometry_s": (s(total, "domain.geometry"), "s"),
            "hilbert.order_s": (s(total, "hilbert.order"), "s"),
            "hilbert.orderings": (n(calls, "hilbert.order"), "count"),
            "partition.walks": (n(calls, "partition.walk"), "count"),
            "partition.walk_self_s": (s(self_time, "partition.walk"), "s"),
            "partition.validate_s": (s(total, "partition.validate"), "s"),
            "qkmeans.search_s": (s(total, "qkmeans.search"), "s"),
            "qkmeans.k_tried": (n(calls, "qkmeans.k"), "count"),
            "qkmeans.restarts": (n(calls, "qkmeans.seed"), "count"),
            "qkmeans.rounds": (n(calls, "qkmeans.round"), "count"),
            "qkmeans.round_self_s": (s(self_time, "qkmeans.round"), "s"),
            "qkmeans.seed_s": (s(total, "qkmeans.seed"), "s"),
            "mechanism.build_s": (s(total, "mechanism.build"), "s"),
            "mechanism.baseline_s": (s(total, "mechanism.baseline"), "s"),
            "mechanism.draws": (n(counted, "mechanism.draws"), "count"),
            "mechanism.sample_s": (s(total, "mechanism.sample"), "s"),
            "mechanism.zero_entries": (n(counted, "mechanism.zero_entries"), "count"),
            "adversary.metrics_s": (s(total, "adversary.metrics"), "s"),
            "adversary.peak_mib": (self.peak_bytes / 2**20, "MiB"),
            "cli.cells": (n(calls, "cli.cell"), "count"),
            "cli.sweep_self_s": (s(self_time, "cli.sweep"), "s"),
            "cli.wtd_rounds": (n(calls, "cli.wtd"), "count"),
            "cli.wtd_round_self_s": (s(self_time, "cli.wtd"), "s"),
            "trace.spans": (int(round(sum(v for k, v in calls.items()
                                          if not k.startswith("bench.")))), "count"),
        }


def _count_draws(tracer, result):
    tracer.count("mechanism.draws", int(np.size(result)))


def _count_zeros(tracer, result):
    tracer.count("mechanism.zero_entries", int(np.count_nonzero(result.rows == 0.0)))


_POST = {
    "mechanism.sample": _count_draws,
    "mechanism.build": _count_zeros,
}
