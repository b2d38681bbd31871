"""Spans recorded by wrapping attributes of the ``cmte`` modules.

The package is not edited: a :class:`Hooks` object replaces chosen module
attributes with wrappers for the length of a ``with`` block and restores
them afterwards.  Each call of a wrapped attribute records one span
(name, start, end, parent) in memory; a wrapper may also keep a small
note about the call (an iteration count, a route set).  A name that the
package no longer has is recorded as absent, so metrics built on it
read as ``None`` instead of failing or reading zero.  An ``after``
callback, if given, runs after each wrapped call, outside its span.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

COUNT = object()  # hook value: count the calls, record no span

# Wrapped in every run: the calls whose duration or result the workloads
# report end to end (one span per solve or per Monte-Carlo estimate).
OPERATION_HOOKS = {
    "scenario.extragradient_solve": lambda a, kw, out: (out.iterations, out.converged),
    "scenario.build_route_set": lambda a, kw, out: out,  # the route set, checked
    "montecarlo.mc_link_moments": lambda a, kw, out: a[3].samples,
    "montecarlo.mc_tail_means": lambda a, kw, out: a[3].samples,
}

# Wrapped in traced runs only: every layer boundary the per-layer
# metrics are built from.
LAYER_HOOKS = {
    "network.load_network": lambda a, kw, out: out.n_links,
    "network.build_route_set": lambda a, kw, out: out.n_routes,
    "solver.extragradient_solve": lambda a, kw, out: (out.iterations, out.converged),
    "solver.assemble_F": None,
    "solver.route_moments": None,
    "solver.risk_coefficient": COUNT,  # one ndtri per F: only the count matters
    "solver.project": None,
    "solver.natural_residual": None,
    "solver.link_flows": None,
    "solver.wardrop_check": None,
    "bpr.link_moments_vector": None,
    "scenario.run_scenario": None,
    "scenario.emit_results": lambda a, kw, out: sum(p.stat().st_size for p in out),
    "scenario.wardrop_check": None,
    "scenario.route_moments": None,
    "scenario.link_moments_vector": None,
    "scenario.link_flows": None,
    "montecarlo.oracle_report": lambda a, kw, out: sum(r[4] == "fail" for r in out[0]),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Hooks:
    """Wrap ``cmte`` module attributes named "module.attr" while active."""

    names: dict
    after: Callable[[], None] | None = None
    spans: list[Span] = field(default_factory=list)
    hooked: set[str] = field(default_factory=set)
    absent: set[str] = field(default_factory=set)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def __enter__(self) -> "Hooks":
        for name, note in self.names.items():
            module_name, attr = name.split(".")
            try:
                module = importlib.import_module(f"cmte.{module_name}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            self._saved.append((module, attr, fn))
            self.hooked.add(name)
            setattr(module, attr, self._wrap(name, fn, note))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, note):
        spans, stack, clock, after = self.spans, self._stack, time.perf_counter, self.after
        if note is COUNT:
            counts = self.counts
            counts[name] = 0

            def counter(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                try:
                    span.note = note(args, kwargs, out)
                except (AttributeError, IndexError, TypeError):
                    span.note = None  # the call's signature or result changed
            if after is not None:
                after()
            return out

        return wrapper

    def since(self, index: int) -> list[Span]:
        return self.spans[index:]

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON columns: a name table, then per
        span its name's index, start, end (perf_counter seconds) and the
        index of its parent span (-1 at top level)."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "name": [index[s.name] for s in self.spans],
               "start": [s.start for s in self.spans],
               "end": [s.end for s in self.spans],
               "parent": [s.parent for s in self.spans], "counts": self.counts}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def durations(spans: list[Span], *names: str) -> list[float]:
    return [s.duration for s in spans if s.name in names]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration less the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(h: Hooks) -> dict[str, float | int | None]:
    """Per-layer counts and busy times over every span ``h`` recorded.

    A metric reads ``None`` when none of the names it is built from was
    hooked, and a ratio reads 0 on a workload that runs no solve.  Steps
    and backtracks are derived from the current solver's structure: one
    F(u) before the loop, then per iteration the F(u_bar) trials of the
    backtracking search and one F(u) after the accepted step, except in
    the iteration that meets the tolerance.
    """
    spans = h.spans
    self_t = self_times(spans)

    def present(names):
        return any(n in h.hooked for n in names)

    def total(*names):
        return sum(s.duration for s in spans if s.name in names) if present(names) else None

    def count(*names):
        if not present(names):
            return None
        return sum(s.name in names for s in spans) + sum(h.counts.get(n, 0) for n in names)

    def self_total(name):
        return (sum(t for s, t in zip(spans, self_t) if s.name == name)
                if present([name]) else None)

    def notes(*names):
        return [s.note for s in spans if s.name in names and s.note is not None]

    solve_names = ("scenario.extragradient_solve", "solver.extragradient_solve")
    solve_of = []
    for i, s in enumerate(spans):
        solve_of.append(i if s.name in solve_names
                        else solve_of[s.parent] if s.parent >= 0 else -1)
    solves = [i for i, s in enumerate(spans) if s.name in solve_names and s.note]
    iterations = sum(spans[i].note[0] for i in solves) if present(solve_names) else None

    f_evals = count("solver.assemble_F")
    trials = accepted = 0
    if f_evals is not None:
        per_solve = dict.fromkeys(solves, 0)
        for s, j in zip(spans, solve_of):
            if s.name == "solver.assemble_F" and j in per_solve:
                per_solve[j] += 1
        for j, evals in per_solve.items():
            its, converged = spans[j].note
            trials += evals - its if converged else evals - 1 - its
            accepted += its - 1 if converged else its
    moments = count("solver.route_moments")
    routes = [rs.n_routes if hasattr(rs, "n_routes") else rs
              for rs in notes("network.build_route_set", "scenario.build_route_set")]
    return {
        "solver.iterations": iterations,
        "solver.F_evals": f_evals,
        "solver.backtracks": trials - accepted if f_evals is not None else None,
        "solver.step_accept_ratio": (accepted / max(trials, 1) if f_evals is not None
                                     else None),
        "solver.moments_per_F": (moments / max(f_evals, 1)
                                 if f_evals is not None and moments is not None else None),
        "solver.assemble_F_self_s": self_total("solver.assemble_F"),
        "solver.project_s": total("solver.project"),
        "solver.natural_residual_s": total("solver.natural_residual"),
        "solver.wardrop_check_s": total("solver.wardrop_check", "scenario.wardrop_check"),
        "bpr.route_moments_s": total("solver.route_moments", "scenario.route_moments"),
        "bpr.link_moments_vector_s": total("bpr.link_moments_vector",
                                           "scenario.link_moments_vector"),
        "bpr.route_moments_calls": count("solver.route_moments", "scenario.route_moments"),
        "indices.risk_coefficient_calls": count("solver.risk_coefficient"),
        "network.load_network_s": total("network.load_network"),
        "network.build_route_set_s": total("network.build_route_set",
                                           "scenario.build_route_set"),
        "network.link_flows_s": total("solver.link_flows", "scenario.link_flows"),
        "network.routes": max(routes, default=0),
        "network.links": max(notes("network.load_network"), default=0),
        "scenario.run_scenario_self_s": self_total("scenario.run_scenario"),
        "scenario.emit_results_s": total("scenario.emit_results"),
        "scenario.bytes_written": (sum(notes("scenario.emit_results"))
                                   if present(["scenario.emit_results"]) else None),
        "montecarlo.mc_link_moments_s": total("montecarlo.mc_link_moments"),
        "montecarlo.mc_tail_means_s": total("montecarlo.mc_tail_means"),
        "montecarlo.samples": (sum(notes("montecarlo.mc_link_moments",
                                         "montecarlo.mc_tail_means"))
                               if present(["montecarlo.mc_link_moments",
                                           "montecarlo.mc_tail_means"]) else None),
        "montecarlo.claims_failed": (sum(notes("montecarlo.oracle_report"))
                                     if present(["montecarlo.oracle_report"]) else None),
    }
