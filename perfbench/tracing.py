"""Span tracing around the public boundaries of each ``monomap`` layer.

The tracer wraps functions and methods from outside the program:

* a module function is replaced at every ``monomap`` module attribute that
  holds it, i.e. at the names its callers look up (``from .x import f``
  makes a second name for ``f``);
* a method is replaced on its class, under every class attribute that holds
  it (``ExtendedMap.__call__`` is ``ExtendedMap.eval``).

Each span records its name, start, end and parent span, and how many points
(or steps) the call carried.  Spans stay in memory until ``write`` saves
them.  A boundary the program no longer has is listed in ``absent`` and
does not stop the run.  Times are ``perf_counter_ns`` wall clock, taken in a
single-threaded process.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

import numpy as np


def _xy_points(args, kwargs):
    """Number of points in a (self, x, y) call."""
    x = args[1] if len(args) > 1 else kwargs.get("x")
    y = args[2] if len(args) > 2 else kwargs.get("y")
    return np.broadcast(np.asarray(x), np.asarray(y)).size


def _state_rows(args, kwargs):
    """Number of states in an EmbeddedSystem.step(self, state) call."""
    s = np.asarray(args[1] if len(args) > 1 else kwargs["state"])
    return 1 if s.ndim <= 1 else s.shape[0]


def _orbit_steps(args, kwargs):
    """Steps of an iterate_orbit(map_spec, x0, x_m1, n, ...) call."""
    return int(args[3] if len(args) > 3 else kwargs["n"])


# (span name, module, attribute path, counter or None).  Several targets may
# share one span name; the per-layer metrics are defined on span names.
BOUNDARIES = [
    ("map_model.F", "monomap.map_model", "MapSpec.__call__", _xy_points),
    ("geometry.contains", "monomap.geometry", "DomainSpec.contains", _xy_points),
    ("geometry.classify", "monomap.geometry", "DomainSpec.classify", None),
    ("extension.eval", "monomap.extension", "ExtendedMap.eval", _xy_points),
    ("extension.build", "monomap.extension", "extend_rectangle", None),
    ("extension.build", "monomap.extension", "extend_convex", None),
    ("extension.build", "monomap.extension", "extend_semiconvex", None),
    ("extension.audit", "monomap.extension", "audit_extension", None),
    ("extension.to_dict", "monomap.extension", "ExtendedMap.to_dict", None),
    ("fixed_points.find_artificial", "monomap.fixed_points", "find_artificial", None),
    ("fixed_points.oracle_sweep", "monomap.fixed_points", "oracle_sweep", None),
    ("fixed_points.check_oracle_consistency", "monomap.fixed_points",
     "check_oracle_consistency", None),
    ("fixed_points.find_equilibria", "monomap.fixed_points", "find_equilibria", None),
    ("embedding.step", "monomap.embedding", "EmbeddedSystem.step", _state_rows),
    ("embedding.run_corner_chains", "monomap.embedding", "run_corner_chains", None),
    ("embedding.check_order_preserving", "monomap.embedding",
     "check_order_preserving", None),
    ("stability.certify", "monomap.stability", "certify", None),
    ("stability.verify_invariance", "monomap.stability", "verify_invariance", None),
    ("stability.iterate_orbit", "monomap.stability", "iterate_orbit", _orbit_steps),
] + [
    ("report", "monomap.report", name, None)
    for name in ("dumps_json", "write_json", "write_orbits_csv",
                 "write_chains_csv", "render_pieces_svg", "render_phase_svg",
                 "render_orbit_svg", "render_certificate_md")
]

# fields of one span record
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = []
        self.absent: list = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, counter=None):
        """``fn`` wrapped so that every call records one span."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = counter(args, kwargs) if counter is not None else 0
            rec = [nid, clock(), 0, stack[-1] if stack else -1, n]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, boundaries=BOUNDARIES) -> None:
        for name, module, path, counter in boundaries:
            try:
                mod = importlib.import_module(module)
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{path}")
                continue
            wrapped = self.wrap(name, fn, counter)
            if outer:  # a method: every class attribute holding it
                for key, value in list(owner.__dict__.items()):
                    if value is fn:
                        self._replace(owner, key, wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if mname.startswith("monomap") and m is not None:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._replace(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path) -> None:
        """Save the spans as gzipped JSON: names, then one
        [name, start_ns, end_ns, parent, count] row per span."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "fields": ["name", "start_ns", "end_ns", "parent", "count"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans.
# ---------------------------------------------------------------------------


class SpanIndex:
    """Durations, self times and ancestry of a span list."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        spans = tracer.spans
        self.dur = [s[END] - s[START] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]

    def ids(self, name):
        nid = self.t.names.index(name) if name in self.t.names else -1
        return [i for i, s in enumerate(self.t.spans) if s[NAME] == nid]

    def has_ancestor(self, i, name_ids) -> bool:
        p = self.t.spans[i][PARENT]
        while p >= 0:
            if self.t.spans[p][NAME] in name_ids:
                return True
            p = self.t.spans[p][PARENT]
        return False

    def outer_s(self, name) -> float:
        """Time under spans of ``name``, nested ones counted once."""
        nid = {self.t.names.index(name)} if name in self.t.names else set()
        return sum(self.dur[i] for i in self.ids(name)
                   if not self.has_ancestor(i, nid)) / 1e9

    def self_s(self, name) -> float:
        return sum(self.self_ns[i] for i in self.ids(name)) / 1e9


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every per-layer metric (name -> value).  ``extra`` supplies those
    read from the artifacts or timed outside the spans."""
    ix = SpanIndex(tracer)
    spans = tracer.spans
    m = {}

    F = ix.ids("map_model.F")
    m["map_model.F.calls"] = len(F)
    m["map_model.F.self_s"] = ix.self_s("map_model.F")

    c = ix.ids("geometry.contains")
    m["geometry.contains.calls"] = len(c)
    m["geometry.contains.points"] = sum(spans[i][COUNT] for i in c)
    m["geometry.contains.self_s"] = ix.self_s("geometry.contains")
    m["geometry.contains.scalar_us"] = _mean(
        [ix.self_ns[i] / 1e3 for i in c if spans[i][COUNT] == 1])
    m["geometry.classify.s"] = ix.outer_s("geometry.classify")

    e = ix.ids("extension.eval")
    m["extension.eval.calls"] = len(e)
    m["extension.eval.points"] = sum(spans[i][COUNT] for i in e)
    m["extension.eval.self_s"] = ix.self_s("extension.eval")
    m["extension.eval.small_us"] = _mean(
        [ix.self_ns[i] / 1e3 for i in e if spans[i][COUNT] <= 8])
    bulk = [i for i in e if spans[i][COUNT] >= 10_000]
    bulk_pts = sum(spans[i][COUNT] for i in bulk)
    m["extension.eval.bulk_ns"] = (
        sum(ix.self_ns[i] for i in bulk) / bulk_pts if bulk_pts else 0.0)
    for stage in ("build", "audit", "to_dict"):
        m[f"extension.{stage}.s"] = ix.outer_s(f"extension.{stage}")

    fp_names = ["fixed_points.find_artificial", "fixed_points.oracle_sweep",
                "fixed_points.check_oracle_consistency",
                "fixed_points.find_equilibria"]
    for name in fp_names:
        m[f"{name}.s"] = ix.outer_s(name)
    fp_ids = {tracer.names.index(n) for n in fp_names if n in tracer.names}
    m["fixed_points.map_points"] = sum(
        spans[i][COUNT] for i in F if ix.has_ancestor(i, fp_ids))

    st = ix.ids("embedding.step")
    m["embedding.step.calls"] = len(st)
    m["embedding.step.states"] = sum(spans[i][COUNT] for i in st)
    m["embedding.step.self_s"] = ix.self_s("embedding.step")
    m["embedding.step.us"] = _mean([ix.dur[i] / 1e3 for i in st])
    m["embedding.chain_steps"] = extra["chain_steps"]
    # steps the certify loop makes itself once the corner chains are done
    chains_end = {spans[i][PARENT]: spans[i][END]
                  for i in ix.ids("embedding.run_corner_chains")}
    m["embedding.meet_steps"] = sum(
        1 for i in st
        if spans[i][PARENT] in chains_end
        and spans[i][START] >= chains_end[spans[i][PARENT]])
    m["embedding.run_corner_chains.s"] = ix.outer_s("embedding.run_corner_chains")
    m["embedding.check_order_preserving.s"] = ix.outer_s(
        "embedding.check_order_preserving")

    m["stability.certify.s"] = ix.outer_s("stability.certify")
    m["stability.certify.self_s"] = ix.self_s("stability.certify")
    m["stability.verify_invariance.s"] = ix.outer_s("stability.verify_invariance")
    m["stability.iterate_orbit.s"] = ix.outer_s("stability.iterate_orbit")
    m["stability.iterate_orbit.steps"] = sum(
        spans[i][COUNT] for i in ix.ids("stability.iterate_orbit"))

    m["report.s"] = ix.outer_s("report")
    m["report.bytes"] = extra["report_bytes"]
    m["cli.self_s"] = ix.self_s("cli.main")
    m["trace.overhead_s"] = extra["overhead_s"]
    return m


# unit of each per-layer metric
UNITS = {
    "calls": "count", "points": "count", "states": "count", "steps": "count",
    "chain_steps": "count", "meet_steps": "count", "map_points": "count",
    "bytes": "bytes", "scalar_us": "us", "small_us": "us", "us": "us",
    "bulk_ns": "ns",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "s")
