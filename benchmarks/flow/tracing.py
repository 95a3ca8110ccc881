"""Layer spans for the flow benchmark, recorded from outside ``src/``.

A :class:`Tracer` replaces public module attributes (functions and
methods) with timing wrappers for the length of a ``with`` block, and
passes a time-stamping ``telemetry=`` sink to the two kernels that
accept one (the analytic placer and the batched router), so their own
phase spans join the same timeline.  Nothing in the program changes:
the wrappers call the originals and are removed on exit.

Spans stay in memory.  :func:`span_tree` gives each span a parent by
time containment and its self time (duration minus the part covered by
its children); :func:`chrome_trace` renders them as Chrome trace-event
JSON, which Perfetto and ``chrome://tracing`` load.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

#: (module, attribute, span name).  ``attribute`` may be ``Class.method``.
#: Names use the layer's module as the prefix.
HOOKS = (
    ("repro.orchestrate.resilience", "run", "orchestrate.run"),
    # Renamed to ``stage.<name>`` from the returned stage outcome.
    ("repro.orchestrate.executor", "run_stage", "stage"),
    ("repro.lint", "lint_flow", "lint"),
    ("repro.lint", "lint_netlist", "lint"),
    ("repro.orchestrate.cache", "ResultCache.get", "orchestrate.cache_get"),
    ("repro.orchestrate.cache", "ResultCache.put", "orchestrate.cache_put"),
    ("repro.orchestrate.cache", "encode_value", "orchestrate.encode"),
    ("repro.orchestrate.cache", "decode_value", "orchestrate.decode"),
    ("repro.synthesis.network", "LogicNetwork.optimize",
     "synthesis.network_optimize"),
    ("repro.synthesis.flow", "optimize_aig", "synthesis.aig_optimize"),
    ("repro.synthesis.mapping", "map_aig", "synthesis.map"),
    ("repro.synthesis.sizing", "size_gates", "synthesis.size"),
    ("repro.place.analytic", "analytic_place", "place.analytic_place"),
    ("repro.place.placement", "Placement.net_lengths", "place.net_lengths"),
    ("repro.place.placement", "Placement.total_hpwl", "place.total_hpwl"),
    ("repro.route.batched", "batched_route", "route.batched_route"),
    ("repro.timing", "IncrementalTimingAnalyzer.analyze", "timing.sta"),
    ("repro.power.analysis", "power_report", "power.estimate"),
)

#: Kernels whose signature takes ``telemetry=``; the tracer passes its
#: own sink so their phase spans (``place_solve``, ``route_expand``, ...)
#: are recorded as ``place.solve``, ``route.expand``, ...
SINK_KERNELS = ("place.analytic_place", "route.batched_route")

#: The batched router's phases overlap: ``route.expand`` and
#: ``route.commit`` run inside the first routing pass *and* inside each
#: ``route.negotiate`` round, so the five ``phase_ms`` entries must not
#: be summed.
ROUTE_PHASES = ("decompose", "expand", "negotiate", "commit", "emit")


@dataclass
class TraceSpan:
    """One timed call: perf-counter start and end, in seconds."""

    name: str
    start: float
    end: float
    args: dict = field(default_factory=dict)
    parent: int | None = None
    self_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class _StampingSink:
    """A ``telemetry=`` sink that places kernel spans on the timeline.

    ``kernel_span`` records a span when its block ends, so the record
    time is the end and ``wall_s`` gives the start.
    """

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def record(self, span) -> None:
        end = time.perf_counter()
        layer, _, phase = span.stage.partition("_")
        self.tracer.spans.append(TraceSpan(
            f"{layer}.{phase}" if phase else layer,
            end - span.wall_s, end))


class Tracer:
    """Wrap the layer entry points in :data:`HOOKS` while active.

    Besides spans it keeps counters a wrapper can see in the call's
    result: cache hits and misses, encoded bytes, mapped cells, the
    router's ``phase_ms`` and failed nets.
    """

    def __init__(self):
        self.spans: list[TraceSpan] = []
        self.counters: dict[str, float] = {}
        self._undo: list = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        after = {"stage": self._stage_done,
                 "orchestrate.cache_get": self._cache_get_done,
                 "orchestrate.encode": self._encode_done,
                 "synthesis.map": self._map_done,
                 "route.batched_route": self._route_done}
        try:
            for module, attr, name in HOOKS:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, functools.wraps(original)(
                    self._wrapper(original, name, after.get(name))))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name: str, after):
        inject = name in SINK_KERNELS

        def wrapper(*args, **kwargs):
            if inject and kwargs.get("telemetry") is None:
                kwargs["telemetry"] = _StampingSink(self)
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            span = TraceSpan(name, t0, time.perf_counter())
            if after is not None:
                after(span, result)
            self.spans.append(span)
            return result

        return wrapper

    # -- result hooks ----------------------------------------------------

    def _stage_done(self, span: TraceSpan, outcome) -> None:
        # ``executor.run_stage`` returns the stage's telemetry ``Span``
        # (the object the run's ``telemetry=`` sink receives); its wall
        # time is the stage metric, the wrapper supplies the timestamps.
        span.name = f"stage.{outcome.name}"
        span.args = {"wall_s": outcome.span.wall_s,
                     "cache": outcome.span.cache,
                     "status": outcome.span.status}

    def _cache_get_done(self, span, result) -> None:
        self.count("orchestrate.cache_hits" if result[0]
                   else "orchestrate.cache_misses")

    def _encode_done(self, span, blob) -> None:
        self.count("orchestrate.cache_bytes", len(blob))

    def _map_done(self, span, netlist) -> None:
        self.count("synthesis.cells", netlist.num_instances())

    def _route_done(self, span, routing) -> None:
        for phase in ROUTE_PHASES:
            self.count(f"route.{phase}_ms",
                       routing.phase_ms.get(f"route_{phase}", 0.0))
        self.count("route.failed_nets", len(routing.failed))


# ----------------------------------------------------------------------
# Analysis of a finished trace.


def span_tree(spans: list[TraceSpan]) -> list[TraceSpan]:
    """Sort spans by start, set each parent by time containment, and
    fill in self times.  Returns the sorted list (parents index it)."""
    eps = 1e-6
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    stack: list[int] = []
    covered = [0.0] * len(ordered)
    for i, span in enumerate(ordered):
        while stack and ordered[stack[-1]].end < span.end - eps:
            stack.pop()
        span.parent = stack[-1] if stack else None
        if span.parent is not None:
            covered[span.parent] += span.dur
        stack.append(i)
    for span, child_s in zip(ordered, covered):
        span.self_s = span.dur - child_s
    return ordered


def layer_metrics(spans: list[TraceSpan], counters: dict,
                  op_s: float) -> dict:
    """Per-layer totals of one traced op.

    Each span name gives ``<name>_s`` (summed inclusive time); a span
    named only by its module gives ``<module>.s``.  Stage metrics use
    the stage telemetry span's own wall time, and
    ``orchestrate.unattributed_s`` is the op's time outside them.
    """
    out: dict[str, float] = dict(counters)
    for span in spans:
        if span.name.startswith("route.") and \
                span.name[6:] in ROUTE_PHASES:
            continue                  # reported from phase_ms, in ms
        key = f"{span.name}_s" if "." in span.name else f"{span.name}.s"
        out[key] = out.get(key, 0.0) + span.args.get("wall_s", span.dur)
    staged = sum(v for k, v in out.items() if k.startswith("stage."))
    out["orchestrate.unattributed_s"] = op_s - staged
    lookups = out.get("orchestrate.cache_hits", 0) + \
        out.get("orchestrate.cache_misses", 0)
    if lookups:
        out["orchestrate.cache_hit_rate"] = \
            out.get("orchestrate.cache_hits", 0) / lookups
    return out


def self_times(spans: list[TraceSpan]) -> dict:
    """name -> {calls, total_s, self_s}, from :func:`span_tree` output."""
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name,
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.dur
        row["self_s"] += span.self_s
    return table


def chrome_trace(spans: list[TraceSpan]) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    if not spans:
        return {"traceEvents": []}
    t0 = min(s.start for s in spans)
    events = []
    for span in spans:
        parent = spans[span.parent].name if span.parent is not None \
            else None
        events.append({
            "name": span.name, "cat": span.name.split(".")[0],
            "ph": "X", "pid": 1, "tid": 1,
            "ts": (span.start - t0) * 1e6, "dur": span.dur * 1e6,
            "args": {**span.args, "self_ms": span.self_s * 1e3,
                     "parent": parent}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
