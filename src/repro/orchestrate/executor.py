"""The stage executor: one flow run, one stage at a time.

:class:`SerialExecutor` walks the DAG in topological order and hands
each stage to :func:`run_stage`, which consults the result cache, runs
the stage once, in the calling thread, and emits a telemetry span
either way.  Stages are deterministic, so there is no retry: running a
failed stage again would fail the same way.  A failed *optional* stage
(e.g. CTS) marks the run ``degraded`` and its output ``None``; a
failed required stage marks its transitive dependents skipped and
raises :class:`StageError`, so the caller sees the original traceback
and a journaled run stays resumable.

Resilience hooks (see :mod:`repro.orchestrate.resilience`): a
``journal`` write-ahead-logs every completed stage so a killed process
can resume, and before running a stage the executor asks it to replay
a verified checkpoint instead (spans carry ``cache="journal"``); a
``chaos`` policy deterministically injects stage faults and
:class:`WorkerCrash` kills for fault-injection testing.

Parallelism lives one level up: :func:`repro.orchestrate.run_sweep`
runs whole flow jobs on a process pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.orchestrate.cache import stage_key
from repro.orchestrate.telemetry import Span, peak_rss_kb


class StageError(RuntimeError):
    """A required stage failed."""

    def __init__(self, stage: str, cause=None):
        super().__init__(
            f"stage {stage!r} failed"
            + (f": {cause!r}" if cause is not None else ""))
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # Default Exception reduction would replay only the formatted
        # message into our two-argument __init__; this keeps stage
        # errors picklable across the sweep pool boundary.
        return (self.__class__, (self.stage, self.cause))


class WorkerCrash(BaseException):
    """A worker died mid-run (or chaos simulated one dying).

    Derives from ``BaseException`` — like ``KeyboardInterrupt`` — so
    the executor's ``except Exception`` never records it as a stage
    failure: a crash aborts the whole run, leaving the journal's
    completed prefix on disk for
    :func:`repro.orchestrate.resilience.resume_run`.
    """

    def __init__(self, stage: str):
        super().__init__(f"worker crashed in stage {stage!r}")
        self.stage = stage


def cache_inputs(stage, ctx) -> dict:
    """The content-hash domain of a stage execution.

    Dependencies and declared params, except that when ``knobs`` is set
    the whole ``options`` object is replaced by just the named
    attributes — so flipping an unrelated knob leaves this stage's key
    (and its cached result) intact.
    """
    inputs = {dep: ctx[dep] for dep in stage.deps}
    for param in stage.params:
        if stage.knobs and param == "options":
            continue
        inputs[param] = ctx[param]
    if stage.knobs:
        options = ctx["options"]
        inputs["__knobs__"] = {k: getattr(options, k)
                               for k in stage.knobs}
    return inputs


@dataclass
class StageOutcome:
    """What happened when one stage was executed."""

    name: str
    value: object
    span: Span
    error: Exception | None = None
    key: str | None = None       # content-hash key, with a cache


def run_stage(stage, ctx, cache=None, *, chaos=None) -> StageOutcome:
    """Execute one stage in-process, once: cache lookup, call, span.

    A stage that raises is recorded as ``failed`` with its exception
    on the outcome; it is not run again.  ``chaos`` (a
    :class:`~repro.orchestrate.resilience.ChaosPolicy`) may inject a
    fault into the call.
    """
    child_ctx = {k: ctx[k] for k in (*stage.deps, *stage.params)}
    t0 = time.perf_counter()
    key = None
    if cache is not None:
        key = stage_key(stage.name, stage.version,
                        cache_inputs(stage, ctx))
        hit, value = cache.get(key)
        if hit:
            span = Span(stage.name, time.perf_counter() - t0,
                        cache="hit", peak_rss_kb=peak_rss_kb())
            return StageOutcome(stage.name, value, span, key=key)

    value = error = None
    try:
        if chaos is not None:
            chaos.in_stage(stage.name)
        value = stage.fn(child_ctx)
    except Exception as err:   # noqa: BLE001 - recorded in span
        error = err
    span = Span(stage.name, time.perf_counter() - t0,
                status="ok" if error is None else "failed",
                cache=None if key is None else "miss",
                peak_rss_kb=peak_rss_kb())
    if error is None and key is not None:
        cache.put(key, value)
    return StageOutcome(stage.name, value, span, error, key=key)


@dataclass
class RunResult:
    """Outcome of executing a whole DAG once."""

    outputs: dict
    status: str                      # ok | degraded
    spans: list
    wall_s: float
    replayed: list = field(default_factory=list)   # from a run journal


class SerialExecutor:
    """Run stages one at a time in topological order."""

    def __init__(self, chaos=None):
        self.chaos = chaos

    def run(self, dag, params, cache=None, sink=None,
            journal=None) -> RunResult:
        t0 = time.perf_counter()
        outputs: dict = {}
        spans: list = []
        replayed: list = []
        degraded = False
        try:
            for stage in dag.topological_order():
                if journal is not None:
                    hit, value = journal.replay(stage.name)
                    if hit:
                        # Zero-cost ``cache="journal"`` spans, so
                        # telemetry counts exactly what a resume skipped.
                        outputs[stage.name] = value
                        replayed.append(stage.name)
                        spans.append(Span(stage.name, 0.0,
                                          cache="journal"))
                        continue
                if self.chaos is not None:
                    self.chaos.pre_stage(stage.name)   # may crash
                outcome = run_stage(stage, {**params, **outputs},
                                    cache=cache, chaos=self.chaos)
                spans.append(outcome.span)
                if outcome.error is None:
                    outputs[stage.name] = outcome.value
                    if journal is not None:
                        # Best effort: an output the journal cannot
                        # store re-executes on resume.
                        try:
                            journal.record(outcome.name, outcome.value,
                                           key=outcome.key,
                                           wall_s=outcome.span.wall_s)
                        except Exception:   # noqa: BLE001
                            pass
                    continue
                if stage.optional:
                    outputs[stage.name] = None
                    degraded = True
                    continue
                spans.extend(Span(name, 0.0, status="skipped")
                             for name in sorted(dag.dependents(stage.name)))
                raise StageError(stage.name,
                                 outcome.error) from outcome.error
        finally:
            if sink is not None:
                sink.extend(spans)
        return RunResult(outputs=outputs,
                         status="degraded" if degraded else "ok",
                         spans=spans, wall_s=time.perf_counter() - t0,
                         replayed=replayed)
