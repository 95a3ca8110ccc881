"""Run telemetry: structured per-stage spans and aggregate reports.

Every stage execution — cached or not — produces a :class:`Span`
recording wall time, status, cache disposition, the content key of
its store entry, and peak RSS when the platform exposes it.  Spans
aggregate into a :class:`RunReport`, the observability substrate
behind the E7 throughput claim ("1M instances/day on multicore farms"
needs metering before it needs more cores), and persist with their
run's record in the run database
(:class:`repro.learn.rundb.RunDatabase`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

try:
    import resource
except ImportError:          # pragma: no cover - non-POSIX platforms
    resource = None


@contextmanager
def kernel_span(sink: "TelemetrySink | None", stage: str):
    """Record one kernel execution (STA, place, route, ...) as a
    :class:`Span` in ``sink``; a ``None`` sink records nothing.

    The analytic placer records one per phase and the batched router
    one per routing phase, so kernel wall times reach the same
    :class:`TelemetrySink` the flow stages use.  Exceptions mark the
    span ``failed`` and re-raise.
    """
    if sink is None:
        yield
        return
    t0 = time.perf_counter()
    status = "ok"
    try:
        yield
    except BaseException:
        status = "failed"
        raise
    finally:
        sink.record(Span(stage=stage,
                         wall_s=time.perf_counter() - t0,
                         status=status,
                         peak_rss_kb=peak_rss_kb()))


def peak_rss_kb() -> int | None:
    """Peak resident set size of this process in KiB, if measurable."""
    if resource is None:
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class Span:
    """One stage execution (or cache hit, or skip).

    ``key`` is the stage's content key when the run had a store (see
    :func:`~repro.orchestrate.executor.run_stage`), so it names the
    entry the stage read or wrote: in a journaled run, its blob is
    ``journal.store.entry_path(span.key)``.
    """

    stage: str
    wall_s: float
    status: str = "ok"          # ok | failed | skipped
    cache: str | None = None    # "hit" | "miss" | None (no store)
    peak_rss_kb: int | None = None
    job: int | None = None      # sweep job index, when part of a sweep
    notes: tuple = ()           # lint findings, rendered
    key: str | None = None      # content key, with a store

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["notes"] = list(self.notes)
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "Span":
        payload = dict(payload)
        payload["notes"] = tuple(payload.get("notes", ()))
        return Span(**payload)


@dataclass
class RunReport:
    """Aggregate view over a collection of spans."""

    spans: int = 0
    wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    failed: int = 0
    skipped: int = 0
    peak_rss_kb: int | None = None
    by_stage: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Cache hits over cacheable executions."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> str:
        """One-line report string."""
        return (
            f"{self.spans} spans, {self.wall_s:.3f} s, "
            f"cache {self.cache_hits}/{self.cache_hits + self.cache_misses} "
            f"hit ({self.hit_rate:.0%}), {self.failed} failed, "
            f"{self.skipped} skipped"
        )


class TelemetrySink:
    """Collects spans from one or more runs."""

    def __init__(self):
        self.spans: list[Span] = []

    def record(self, span: Span) -> None:
        self.spans.append(span)

    def extend(self, spans) -> None:
        for span in spans:
            self.record(span)

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------

    def report(self) -> RunReport:
        """Aggregate the collected spans."""
        rep = RunReport(spans=len(self.spans))
        rss = [s.peak_rss_kb for s in self.spans
               if s.peak_rss_kb is not None]
        rep.peak_rss_kb = max(rss) if rss else None
        for span in self.spans:
            rep.wall_s += span.wall_s
            rep.cache_hits += span.cache == "hit"
            rep.cache_misses += span.cache == "miss"
            rep.failed += span.status == "failed"
            rep.skipped += span.status == "skipped"
            agg = rep.by_stage.setdefault(
                span.stage, {"calls": 0, "wall_s": 0.0, "hits": 0})
            agg["calls"] += 1
            agg["wall_s"] += span.wall_s
            agg["hits"] += span.cache == "hit"
        return rep
