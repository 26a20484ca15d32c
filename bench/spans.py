"""Outside-in tracing for the mfclt benchmark.

Spans are recorded around the calls into each layer of the package by
replacing, for the duration of a traced run, the names that callers look up:
module globals bound by ``from .x import y`` (``mfclt.cli.theoretical_covariance``,
``mfclt.clt_engine.evaluate``, ``mfclt.measures.linprog``, ...) and class
attributes (``DiscreteMeasure.quantile``, ``Law.sample``).  Nothing under
``src/`` is edited; leaving ``Installed`` puts every original object back.

A span is (trace id, id, parent id, name, start, end, thread, error, counts).
Spans live in memory and are written as JSONL once the run ends.  The layer of
a span is its name up to the first dot.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import threading
import time
from collections import Counter
from typing import Callable, Iterable

LAYERS = ("cli", "mean_field", "clt_engine", "functionals", "measures", "laws",
          "stats", "rng")


@dataclasses.dataclass
class Span:
    trace_id: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    thread: int = 0
    error: str | None = None
    counts: Counter = dataclasses.field(default_factory=Counter)

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts for one traced run.

    Parent links follow the calling thread's open spans.  A span opened on a
    thread with no open span (a replication running in an engine's thread
    pool) takes as parent the innermost open span of the thread that opened
    the first span: in mfclt only the engines, called from that thread, start
    pools, so that span is the one waiting on the pool.
    """

    def __init__(self, trace_id: str, clock: Callable[[], float] = time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.errors: dict[str, list[BaseException]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[Span] | None = None
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                if self._root_stack is None:
                    self._root_stack = stack
        return stack

    def _current(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        root = self._root_stack
        return root[-1] if root else None

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = self._current(stack)
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(self.trace_id, span_id, parent.id if parent else None, name,
                    self.clock(), thread=threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span, exc: BaseException | None = None) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if exc is not None:
            span.error = type(exc).__name__
            with self._lock:
                seen = self.errors.setdefault(span.layer, [])
                if not any(e is exc for e in seen):
                    seen.append(exc)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; it records an exception that leaves it."""
        span = self.open(name)
        try:
            yield span
        except BaseException as exc:
            self.close(span, exc)
            raise
        self.close(span)

    def add(self, name: str, n: int) -> None:
        """Count n units of work at the current span (and in the run total)."""
        span = self._current(self._stack())
        with self._lock:
            self.counts[name] += n
            if span is not None:
                span.counts[name] += n

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = max(self.gauges.get(name, 0), value)

    def write_jsonl(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "trace_id": s.trace_id, "id": s.id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                    "thread": s.thread, "error": s.error,
                    "counts": dict(s.counts)}) + "\n")


CountFn = Callable[[tuple, dict, object], dict]


def traced(tracer: Tracer, fn: Callable, name: str,
           count: CountFn | None = None) -> Callable:
    """``fn`` inside a span named ``name``; same return value, same exception."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    tracer.add(key, n)
        return result

    wrapper.__bench_traced__ = True
    return wrapper


# ---------------------------------------------------------------------------
# the wrapped names


def _one(key: str) -> CountFn:
    return lambda args, kwargs, result: {key: 1}


def _draws(args, kwargs, result) -> dict:
    return {"laws.draws": int(result.shape[0])}


def _artifact_bytes(args, kwargs, result) -> dict:
    """Report and CSV bytes; manifests carry wall time, so their size varies."""
    path, text = args
    if path.endswith(".manifest.json"):
        return {}
    return {"cli.artifact_bytes": len(text.encode("utf-8"))}


# (span name, module or class path under mfclt, attribute, count)
TARGETS: tuple[tuple[str, str, str, CountFn | None], ...] = (
    ("cli.artifacts", "cli", "_write", _artifact_bytes),
    ("mean_field.theoretical_covariance", "cli", "theoretical_covariance", None),
    ("mean_field.fluctuation_process", "cli", "fluctuation_process", None),
    ("mean_field.cramer_wold_normality", "cli", "cramer_wold_normality", None),
    ("mean_field.master_lfd_batch", "mean_field", "master_lfd_batch", None),
    ("mean_field.simulate_limit_reference", "mean_field",
     "simulate_limit_reference", None),
    ("clt_engine.run_clt_experiment", "cli", "run_clt_experiment", None),
    ("clt_engine.run_clt_experiment", "clt_engine", "run_clt_experiment", None),
    ("clt_engine.remainder_scaling", "cli", "remainder_scaling", None),
    ("clt_engine.decompose_many", "clt_engine", "decompose_many", None),
    ("clt_engine.asymptotic_variance", "clt_engine", "asymptotic_variance", None),
    ("clt_engine.draw", "clt_engine", "_draw", _one("clt_engine.replications")),
    ("functionals.evaluate", "clt_engine", "evaluate", None),
    ("functionals.evaluate", "mean_field", "evaluate", None),
    ("functionals.derivative_pairing", "cli", "derivative_pairing", None),
    ("functionals.gateaux_numeric", "cli", "gateaux_numeric", None),
    ("measures.quantile", "measures.DiscreteMeasure", "quantile", None),
    ("measures.distance", "cli", "distance", None),
    ("measures.distance", "measures", "distance", None),
    ("measures.metric_axiom_suite", "cli", "metric_axiom_suite", None),
    ("measures.lp", "measures", "linprog", _one("measures.lp_solves")),
    ("laws.sample", "laws.Law", "sample", _draws),
    ("laws.proxy_points", "laws.Law", "proxy_points", None),
    ("stats.empirical_cov", "clt_engine", "empirical_cov", None),
    ("stats.empirical_cov", "mean_field", "empirical_cov", None),
    ("stats.ks_test_normal", "clt_engine", "ks_test_normal", None),
    ("stats.ks_test_normal", "mean_field", "ks_test_normal", None),
    ("rng.stream", "rng", "stream", _one("rng.streams")),
    ("rng.stream", "cli", "stream", _one("rng.streams")),
    ("rng.stream", "clt_engine", "stream", _one("rng.streams")),
    ("rng.stream", "mean_field", "stream", _one("rng.streams")),
    ("rng.stream", "laws", "stream", _one("rng.streams")),
)


def _resolve(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"mfclt.{module}")
    return getattr(owner, cls) if cls else owner


def counting_model(tracer: Tracer, model):
    """Copy of an MkvModel whose drift counts Euler steps and particle-steps.

    ``_integrate`` evaluates the drift once per step on the (B, n, d) state.
    """
    drift = model.drift

    def counted(x, mu):
        tracer.add("mean_field.euler_steps", 1)
        tracer.add("mean_field.particle_steps", int(x.shape[0] * x.shape[1]))
        tracer.gauge_max("mean_field.peak_batch_bytes", x.nbytes)
        return drift(x, mu)

    return dataclasses.replace(model, drift=counted)


class Installed:
    """Context manager: patch every target for ``tracer``, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> Tracer:
        try:
            for name, path, attr, count in TARGETS:
                owner = _resolve(path)
                original = getattr(owner, attr)
                if getattr(original, "__bench_traced__", False):
                    raise RuntimeError(f"{path}.{attr} is already traced")
                self._patch(owner, attr, traced(self.tracer, original, name, count))
            cli = _resolve("cli")
            make_model = cli.make_model
            tracer = self.tracer
            self._patch(cli, "make_model", functools.wraps(make_model)(
                lambda name: counting_model(tracer, make_model(name))))
        except BaseException:
            self.__exit__()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Parent/child index over the spans of one run."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        self.up: dict[int, tuple[Span, ...]] = {}  # ancestors, innermost first
        by_id = {s.id: s for s in spans}
        for s in sorted(spans, key=lambda s: s.id):  # parents open first
            parent = by_id.get(s.parent) if s.parent is not None else None
            self.up[s.id] = (parent,) + self.up[parent.id] if parent else ()
            if parent is not None:
                self.children.setdefault(parent.id, []).append(s)

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.id, [])
        return span.duration - covered(((k.start, k.end) for k in kids),
                                       span.start, span.end)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str, under: str | None = None) -> float:
        """Summed duration of the outermost spans called ``name`` (optionally
        only those with an ancestor called ``under``)."""
        out = 0.0
        for s in self.named(name):
            up = {a.name for a in self.up[s.id]}
            if name in up or (under is not None and under not in up):
                continue
            out += s.duration
        return out

    def self_total(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def subtree_count(self, name: str, key: str) -> int:
        """Count ``key`` made inside spans called ``name`` (outermost ones)."""
        return sum(s.counts[key] for s in self.spans if s.counts.get(key) and (
            s.name == name or any(a.name == name for a in self.up[s.id])))

    def layer_entry_total(self, layer: str) -> float:
        """Summed duration of spans of ``layer`` with no ancestor in ``layer``."""
        return sum(s.duration for s in self.spans if s.layer == layer
                   and not any(a.layer == layer for a in self.up[s.id]))


def layer_metrics(tracer: Tracer, run_span: Span) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (``run_span`` is its root)."""
    tree = SpanTree(tracer.spans)
    c = tracer.counts
    cov, fluct = "mean_field.theoretical_covariance", "mean_field.fluctuation_process"
    cov_steps = tree.subtree_count(cov, "mean_field.particle_steps")
    fluct_steps = tree.subtree_count(fluct, "mean_field.particle_steps")
    reps = c["clt_engine.replications"]
    layer_spans = [s for s in tracer.spans if s.layer in LAYERS and s.name != "cli.main"]
    m = {
        "mean_field.cov_term2.self_s": tree.self_total(cov),
        "mean_field.cov_term1.s": tree.total("mean_field.master_lfd_batch", under=cov),
        "mean_field.theoretical_covariance.s": tree.total(cov),
        "mean_field.fluctuation_process.self_s": tree.self_total(fluct),
        "mean_field.simulate_limit_reference.s":
            tree.total("mean_field.simulate_limit_reference"),
        "mean_field.euler_steps": c["mean_field.euler_steps"],
        "mean_field.particle_steps": c["mean_field.particle_steps"],
        "mean_field.ns_per_particle_step.cov":
            1e9 * tree.total(cov) / cov_steps if cov_steps else 0.0,
        "mean_field.ns_per_particle_step.fluct":
            1e9 * tree.total(fluct) / fluct_steps if fluct_steps else 0.0,
        "mean_field.peak_batch_bytes": tracer.gauges.get("mean_field.peak_batch_bytes", 0),
        "clt_engine.run_clt_experiment.self_s":
            tree.self_total("clt_engine.run_clt_experiment"),
        "clt_engine.asymptotic_variance.s": tree.total("clt_engine.asymptotic_variance"),
        "clt_engine.decompose_many.self_s": tree.self_total("clt_engine.decompose_many"),
        "clt_engine.replications": reps,
        "clt_engine.us_per_replication":
            1e6 * tree.layer_entry_total("clt_engine") / reps if reps else 0.0,
        "functionals.evaluate.s": tree.total("functionals.evaluate"),
        "functionals.evaluate.calls": len(tree.named("functionals.evaluate")),
        "functionals.derivative_pairing.s": tree.total("functionals.derivative_pairing"),
        "functionals.gateaux_numeric.s": tree.total("functionals.gateaux_numeric"),
        "measures.quantile.s": tree.total("measures.quantile"),
        "measures.quantile.calls": len(tree.named("measures.quantile")),
        "measures.distance.s": tree.total("measures.distance"),
        "measures.distance.calls": len(tree.named("measures.distance")),
        "measures.lp_solves": c["measures.lp_solves"],
        "measures.lp.s": tree.total("measures.lp"),
        "laws.sample.s": tree.total("laws.sample"),
        "laws.draws": c["laws.draws"],
        "laws.proxy_points.s": tree.total("laws.proxy_points"),
        "stats.empirical_cov.s": tree.total("stats.empirical_cov"),
        "stats.ks_test_normal.s": tree.total("stats.ks_test_normal"),
        "rng.streams": c["rng.streams"],
        "rng.stream.s": tree.total("rng.stream"),
        "cli.artifacts.s": tree.total("cli.artifacts"),
        "cli.artifact_bytes": c["cli.artifact_bytes"],
        "trace.uncovered_frac": 1.0 - covered(
            ((s.start, s.end) for s in layer_spans),
            run_span.start, run_span.end) / run_span.duration,
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = len(tracer.errors.get(layer, []))
    return m
