"""Span recorder for the traced run.

Each public function of a pipenet layer is wrapped where its callers look
it up: netspec imports close, stack, build_FG, isothermal_nominal and the
make_* constructors by name, so those are wrapped in netspec's namespace;
composites imports linearize_2d and iso_coefficients by name; the other
modules call their siblings through module attributes. A wrapper appends
one span (name, parent span, start, end) to arrays held in memory; write()
saves them when the run ends. The wrappers are installed only around a
traced job, so checks and untraced jobs run the plain functions.

Two hot functions are only counted, because a span per call would cost
more than the call: SignalLabel.__str__ (label renders) and cli._precision
(one call per printed cell, also timed in sum). Their time stays in the
self time of the span that encloses them.

A span's self time is its duration minus the durations of its children.
The self times of one job's spans add up to its root span, cli.main.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter_ns

import numpy as np

# per-layer metric -> the spans whose self times it sums
SELF_TIMES = {
    "cli.self_s": ("cli.main",),
    "netspec.parse_s": ("netspec.load", "netspec.parse", "netspec.override_gain"),
    "netspec.steady_state_s": ("netspec.network_steady_state",),
    "netspec.build_elements_s": ("netspec.build_elements",),
    "netspec.elaborate_s": ("netspec.elaborate", "netspec.build_closed"),
    "steady_state.solve_s": ("steady_state.isothermal_nominal",),
    "pipe_dynamics.linearize_s": ("pipe_dynamics.linearize_2d", "pipe_dynamics.iso_coefficients"),
    "composites.make_s": ("composites.make_pipe", "composites.make_joint",
                          "composites.make_branch", "composites.make_series",
                          "composites.make_gain"),
    "core.model_check_s": ("core.StateSpaceModel.__post_init__",),
    "core.label_lookup_s": ("core._index_of",),
    "interconnect.stack_s": ("interconnect.stack",),
    "interconnect.build_FG_s": ("interconnect.build_FG",),
    "interconnect.close_s": ("interconnect.close",),
    "analysis.eigenvalues_s": ("analysis.eigenvalues",),
    "analysis.sweep_self_s": ("analysis.stability_margin_sweep",),
    "analysis.transfer_at_s": ("analysis.transfer_at",),
    "analysis.freq_response_self_s": ("analysis.freq_response",),
    "simulate.zoh_s": ("simulate.zoh_discretize",),
    "simulate.lti_self_s": ("simulate.simulate_lti",),
}

# per-layer metric -> the spans it counts
SPAN_COUNTS = {
    "netspec.builds": ("netspec.build_closed",),
    "steady_state.solves": ("steady_state.isothermal_nominal",),
    "pipe_dynamics.linearizations": SELF_TIMES["pipe_dynamics.linearize_s"],
    "composites.elements": SELF_TIMES["composites.make_s"],
    "core.models": ("core.StateSpaceModel.__post_init__",),
    "core.label_lookups": ("core._index_of",),
    "analysis.freq_points": ("analysis.transfer_at",),
}

# counted without spans, per job
COUNTERS = ("core.label_renders", "cli.precision_calls", "cli.precision_ns", "simulate.steps")


def _targets():
    """(owner, attribute, span name) for every wrapped function."""
    from pipenet import analysis, cli, composites, core, netspec, simulate

    t = [(cli, "main", "cli.main")]
    for fn in ("load", "parse", "override_gain", "network_steady_state",
               "build_elements", "elaborate", "build_closed"):
        t.append((netspec, fn, f"netspec.{fn}"))
    t.append((netspec, "isothermal_nominal", "steady_state.isothermal_nominal"))
    for fn in ("make_pipe", "make_joint", "make_branch", "make_series", "make_gain"):
        t.append((netspec, fn, f"composites.{fn}"))
    for fn in ("stack", "build_FG", "close"):
        t.append((netspec, fn, f"interconnect.{fn}"))
    t.append((analysis, "close", "interconnect.close"))
    for fn in ("linearize_2d", "iso_coefficients"):
        t.append((composites, fn, f"pipe_dynamics.{fn}"))
    t.append((core.StateSpaceModel, "__post_init__", "core.StateSpaceModel.__post_init__"))
    t.append((core, "_index_of", "core._index_of"))
    for fn in ("eigenvalues", "stability_margin_sweep", "freq_response", "transfer_at"):
        t.append((analysis, fn, f"analysis.{fn}"))
    for fn in ("simulate_lti", "zoh_discretize"):
        t.append((simulate, fn, f"simulate.{fn}"))
    return t


class Tracer:
    """Records spans of the wrapped functions during traced jobs."""

    def __init__(self):
        from pipenet import cli, core

        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.job_bounds: list[tuple[int, int]] = []
        self.job_counts: list[dict] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._patches = []
        ids: dict[str, int] = {}
        for owner, attr, span in _targets():
            fn = getattr(owner, attr)
            wrapped = self._span(fn, ids.setdefault(span, len(ids)))
            if span == "simulate.simulate_lti":
                wrapped = self._steps(wrapped)
            self._patches.append((owner, attr, fn, wrapped))
        self.names = list(ids)
        label_str = core.SignalLabel.__str__
        self._patches.append((core.SignalLabel, "__str__", label_str,
                              self._counted(label_str)))
        self._patches.append((cli, "_precision", cli._precision, self._timed(cli._precision)))

    def _span(self, fn, nid):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(self):
            counts["core.label_renders"] += 1
            return fn(self)
        return wrapper

    def _timed(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper():
            t0 = perf_counter_ns()
            try:
                return fn()
            finally:
                counts["cli.precision_ns"] += perf_counter_ns() - t0
                counts["cli.precision_calls"] += 1
        return wrapper

    def _steps(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(model, t, *args, **kwargs):
            counts["simulate.steps"] += len(t) - 1
            return fn(model, t, *args, **kwargs)
        return wrapper

    def begin_job(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self._first = len(self.name)

    def end_job(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        self.job_bounds.append((self._first, len(self.name)))
        self.job_counts.append(dict(self.counts))
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    def job_metrics(self) -> list[dict]:
        """Per traced job: the self-time sums, span counts and counters above."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        ids = {n: i for i, n in enumerate(self.names)}
        sweep, eig = ids["analysis.stability_margin_sweep"], ids["analysis.eigenvalues"]
        in_sweep = (name == eig) & has & (name[np.where(has, parent, 0)] == sweep)
        out = []
        for (lo, hi), counts in zip(self.job_bounds, self.job_counts):
            by_name = np.bincount(name[lo:hi], weights=own[lo:hi], minlength=len(ids))
            n_by_name = np.bincount(name[lo:hi], minlength=len(ids))
            m = {k: float(sum(by_name[ids[s]] for s in spans)) for k, spans in SELF_TIMES.items()}
            m.update({k: int(sum(n_by_name[ids[s]] for s in spans))
                      for k, spans in SPAN_COUNTS.items()})
            m["analysis.sweep_steps"] = int(in_sweep[lo:hi].sum())
            m.update(counts)
            m["cli.precision_s"] = m.pop("cli.precision_ns") * 1e-9
            m["trace.spans"] = hi - lo
            m["trace.self_sum_s"] = float(own[lo:hi].sum())
            out.append(m)
        return out

    def write(self, path):
        """Save every span (name, parent, start, end in ns) and the job bounds."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 job_bounds=np.array(self.job_bounds, dtype=np.int64).reshape(-1, 2),
                 names=np.array(json.dumps(self.names)))
