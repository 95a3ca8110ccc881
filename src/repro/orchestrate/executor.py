"""The stage executor: one flow run, one stage at a time.

:class:`SerialExecutor` walks the DAG in topological order and hands
each stage to :func:`run_stage`, which consults the result cache, runs
with bounded retry and jittered exponential backoff (under an optional
per-run :class:`RetryBudget`), enforces the stage timeout, and emits a
telemetry span either way.  A failed *optional* stage
(e.g. CTS) marks the run ``degraded`` and its output ``None``; a
failed required stage kills its transitive dependents and — under
``strict`` — raises :class:`StageError` so single-run callers see the
original traceback.

Resilience hooks (see :mod:`repro.orchestrate.resilience`): a
``journal`` write-ahead-logs every completed stage so a killed process
can resume; ``preloaded`` seeds outputs replayed from such a journal
(spans carry ``cache="journal"``); a ``chaos`` policy deterministically
injects stage faults, timeouts, and :class:`WorkerCrash` kills for
fault-injection testing.

Parallelism lives one level up: :func:`repro.orchestrate.run_sweep`
runs whole flow jobs on a process pool.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.orchestrate.cache import stage_key
from repro.orchestrate.telemetry import Span, peak_rss_kb


class StageError(RuntimeError):
    """A required stage exhausted its retries."""

    def __init__(self, stage: str, attempts: int, cause=None):
        super().__init__(
            f"stage {stage!r} failed after {attempts} attempt(s)"
            + (f": {cause!r}" if cause is not None else ""))
        self.stage = stage
        self.attempts = attempts
        self.cause = cause

    def __reduce__(self):
        # Default Exception reduction would replay only the formatted
        # message into our three-argument __init__; this keeps stage
        # errors picklable across the sweep pool boundary.
        return (self.__class__, (self.stage, self.attempts, self.cause))


class StageTimeout(StageError):
    """A stage exceeded its ``timeout_s`` budget."""


class WorkerCrash(BaseException):
    """A worker died mid-run (or chaos simulated one dying).

    Derives from ``BaseException`` — like ``KeyboardInterrupt`` — so
    the retry machinery and blanket stage-error handlers never absorb
    it: a crash aborts the whole run, leaving the journal's completed
    prefix on disk for :func:`repro.orchestrate.resilience.resume_run`.
    """

    def __init__(self, stage: str):
        super().__init__(f"worker crashed in stage {stage!r}")
        self.stage = stage


@dataclass
class RetryBudget:
    """A per-run cap on total retries across all stages.

    Individual stages still declare their own ``retries``, but one
    pathologically flaky run cannot burn unbounded wall time: once the
    shared budget is spent, further failures become terminal
    immediately.
    """

    limit: int
    used: int = 0

    def take(self) -> bool:
        """Consume one retry; ``False`` when the budget is exhausted."""
        if self.used >= self.limit:
            return False
        self.used += 1
        return True

    @property
    def remaining(self) -> int:
        return max(self.limit - self.used, 0)


def backoff_delay(base_s: float, attempt: int, *,
                  jitter: float = 0.25) -> float:
    """Exponential backoff with multiplicative jitter.

    ``base_s * 2**attempt`` scaled by a uniform factor in
    ``[1, 1 + jitter]`` — the jitter decorrelates retry storms when a
    sweep's workers all hit the same transient fault together.
    """
    return base_s * (2 ** attempt) * (1.0 + random.uniform(0.0, jitter))


# Threads abandoned by timed-out stages, oldest first.  Python offers
# no safe thread preemption, so a timeout can only orphan its worker;
# this registry makes the leak observable (``leaked_threads``) and
# bounded (``MAX_ABANDONED_THREADS``).
_abandoned_lock = threading.Lock()
_abandoned_threads: list = []

#: Cap on concurrently-alive abandoned threads.  At the cap, the next
#: timeout blocks until the oldest orphan finishes — backpressure
#: instead of unbounded thread growth.  (A stage that never returns
#: can therefore stall the flow here; that is the documented trade for
#: a hard bound.)
MAX_ABANDONED_THREADS = 32


def leaked_threads() -> int:
    """How many timed-out stage threads are still running."""
    with _abandoned_lock:
        _abandoned_threads[:] = [t for t in _abandoned_threads
                                 if t.is_alive()]
        return len(_abandoned_threads)


def _abandon_thread(worker) -> None:
    """Register an orphaned stage thread, enforcing the cap."""
    with _abandoned_lock:
        _abandoned_threads[:] = [t for t in _abandoned_threads
                                 if t.is_alive()]
        _abandoned_threads.append(worker)
    while True:
        with _abandoned_lock:
            _abandoned_threads[:] = [t for t in _abandoned_threads
                                     if t.is_alive()]
            if len(_abandoned_threads) <= MAX_ABANDONED_THREADS:
                return
            oldest = _abandoned_threads[0]
        oldest.join(0.05)


def _call_with_timeout(fn, ctx, timeout_s):
    """Run ``fn(ctx)``, bounding wall time when ``timeout_s`` is set.

    The bounded path runs in a daemon thread; on timeout the thread is
    abandoned (Python offers no safe preemption) and the stage is
    reported as timed out.  Abandoned threads keep running until their
    stage function returns on its own; they are tracked in a registry
    capped at :data:`MAX_ABANDONED_THREADS` and surfaced per-span as
    ``leaked_threads``.
    """
    if not timeout_s:
        return fn(ctx)
    box: dict = {}

    def target():
        try:
            box["value"] = fn(ctx)
        except BaseException as err:   # noqa: BLE001 - reraised below
            box["error"] = err

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        _abandon_thread(worker)
        raise StageTimeout("<stage>", 1)
    if "error" in box:
        raise box["error"]
    return box["value"]


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
    error: BaseException | None = None
    key: str | None = None       # content-hash key, when cacheable


def run_stage(stage, ctx, cache=None, *, chaos=None,
              budget=None) -> StageOutcome:
    """Execute one stage in-process: cache, retries, timeout, span.

    ``chaos`` (a :class:`~repro.orchestrate.resilience.ChaosPolicy`)
    may inject a fault per attempt and corrupt the freshly written
    cache entry; ``budget`` (a :class:`RetryBudget`) gates every retry
    after the first attempt.
    """
    child_ctx = {k: ctx[k] for k in (*stage.deps, *stage.params)}
    t0 = time.perf_counter()
    key = None
    if cache is not None and stage.cacheable:
        key = stage_key(stage.name, stage.version,
                        cache_inputs(stage, ctx))
        hit, value = cache.get(key)
        if hit:
            span = Span(stage.name, time.perf_counter() - t0,
                        cache="hit", peak_rss_kb=peak_rss_kb(),
                        leaked_threads=leaked_threads())
            return StageOutcome(stage.name, value, span, key=key)

    error: BaseException | None = None
    status = "failed"
    value = None
    attempts = 0
    for attempt in range(stage.retries + 1):
        attempts = attempt + 1
        try:
            if chaos is not None:
                chaos.on_attempt(stage.name, attempt)
            value = _call_with_timeout(stage.fn, child_ctx,
                                       stage.timeout_s)
            status = "ok"
            error = None
            break
        except StageTimeout:
            status = "timeout"
            error = StageTimeout(stage.name, attempts)
        except WorkerCrash:
            raise                  # a kill is not a stage failure
        except BaseException as err:   # noqa: BLE001 - recorded in span
            status = "failed"
            error = err
        if attempt >= stage.retries:
            break
        if budget is not None and not budget.take():
            break                  # per-run retry budget exhausted
        time.sleep(backoff_delay(stage.backoff_s, attempt))

    span = Span(stage.name, time.perf_counter() - t0, status=status,
                cache=None if key is None else "miss",
                retries=attempts - 1, peak_rss_kb=peak_rss_kb(),
                leaked_threads=leaked_threads())
    if status == "ok" and key is not None:
        cache.put(key, value)
        if chaos is not None:
            chaos.after_put(cache, key)
    return StageOutcome(stage.name, value, span, error, key=key)


@dataclass
class RunResult:
    """Outcome of executing a whole DAG once."""

    outputs: dict
    status: str                      # ok | degraded | failed
    spans: list
    wall_s: float
    failed: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    replayed: list = field(default_factory=list)   # from a run journal


def _journal_outcome(journal, outcome) -> None:
    """Write-ahead-log one completed stage (best effort: an output the
    journal cannot pickle simply re-executes on resume)."""
    if journal is None:
        return
    try:
        journal.record(outcome.name, outcome.value, key=outcome.key,
                       wall_s=outcome.span.wall_s)
    except Exception:   # noqa: BLE001 - journaling must not kill runs
        pass


def _sanitize_boundary(sanitizer, name, value, spans) -> None:
    """Run the opt-in stage-boundary sanitizer on one completed stage.

    The span (``sanitize:<stage>``) is recorded even when strict mode
    raises, so the corrupting stage is named in telemetry either way.
    """
    if sanitizer is None:
        return
    try:
        sanitizer.check(name, value)
    finally:
        report = sanitizer.reports.get(name)
        if report is not None:
            spans.append(Span(
                f"sanitize:{name}", report.wall_s,
                status="failed" if report.errors else "ok",
                notes=tuple(str(f) for f in report.findings[:8])))


class SerialExecutor:
    """Run stages one at a time in topological order."""

    def __init__(self, chaos=None):
        self.chaos = chaos

    def run(self, dag, params, cache=None, sink=None, strict=True,
            journal=None, preloaded=None, budget=None,
            sanitizer=None) -> RunResult:
        t0 = time.perf_counter()
        # Journal replays get zero-cost ``cache="journal"`` spans, so
        # telemetry counts exactly what a resume skipped.
        outputs = {name: value for name, value in (preloaded or {}).items()
                   if name in dag.stages}
        replayed = list(outputs)
        spans = [Span(name, 0.0, cache="journal") for name in replayed]
        failed: list = []
        skipped: list = []
        degraded = False
        try:
            for stage in dag.topological_order():
                if stage.name in outputs or stage.name in skipped:
                    continue
                if self.chaos is not None:
                    self.chaos.pre_stage(stage.name)   # may crash
                outcome = run_stage(stage, {**params, **outputs},
                                    cache=cache, chaos=self.chaos,
                                    budget=budget)
                spans.append(outcome.span)
                if outcome.span.status == "ok" or \
                        outcome.span.cache == "hit":
                    outputs[stage.name] = outcome.value
                    _journal_outcome(journal, outcome)
                    _sanitize_boundary(sanitizer, stage.name,
                                       outcome.value, spans)
                    continue
                if stage.optional:
                    outputs[stage.name] = None
                    degraded = True
                    continue
                failed.append(stage.name)
                for name in sorted(dag.dependents(stage.name)):
                    if name not in outputs and name not in skipped:
                        skipped.append(name)
                        spans.append(Span(name, 0.0, status="skipped"))
                if strict:
                    if isinstance(outcome.error, StageError):
                        raise outcome.error
                    raise StageError(stage.name, outcome.span.retries + 1,
                                     outcome.error) from outcome.error
        finally:
            if sink is not None:
                sink.extend(spans)
        status = "failed" if failed else ("degraded" if degraded else "ok")
        return RunResult(outputs=outputs, status=status, spans=spans,
                         wall_s=time.perf_counter() - t0, failed=failed,
                         skipped=skipped, replayed=replayed)
