"""The stage executor: one flow run, one stage at a time.

:func:`run_stages` walks a stage table in its declared order and hands
each stage to :func:`run_stage`, which consults the result cache, runs
the stage once, in the calling thread, and emits a telemetry span
either way.  The table is checked before anything runs: a duplicate
name, a dep that names no earlier stage, a param the run does not
provide, or a knob that is not an attribute of the run's options
raises ``ValueError``; :func:`run_stage` checks its one stage the
same way, so a direct call is refused too.  A stage sees exactly what
its cache key hashes: its deps, its params and, when it declares
``knobs``, an options view holding only those attributes, so reading
any other option fails the stage with ``AttributeError``.
Stages are deterministic, so there is no retry: running a failed stage
again would fail the same way.  A failed *optional* stage (e.g. CTS)
marks the run ``degraded`` and its output ``None``; a failed required
stage marks its transitive dependents skipped and raises
:class:`StageError`, so the caller sees the original traceback and a
journaled run stays resumable.

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
from types import SimpleNamespace

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


def _check_stage(stage, outputs, params) -> None:
    """Refuse ``stage`` with ``ValueError`` unless each of its deps
    names one of ``outputs``, each of its params is in ``params``, and
    each of its knobs is an attribute of ``params["options"]``."""
    for dep in stage.deps:
        if dep not in outputs:
            raise ValueError(f"stage {stage.name!r} depends on {dep!r}, "
                             f"which names no earlier stage")
    for param in stage.params:
        if param not in params:
            raise ValueError(f"stage {stage.name!r} reads param "
                             f"{param!r}, which the run does not provide")
    options = params.get("options")
    for knob in stage.knobs:
        if not hasattr(options, knob):
            raise ValueError(f"stage {stage.name!r} declares knob "
                             f"{knob!r}, which is not an attribute of "
                             f"{type(options).__name__}")


def cache_inputs(stage, ctx) -> dict:
    """The content-hash domain of a stage execution: the ``ctx`` that
    :func:`run_stage` hands the stage, with a knob view hashed as the
    dict of its knobs, so flipping an option outside them leaves this
    stage's key (and its cached result) intact."""
    inputs = dict(ctx)
    if stage.knobs:
        inputs["__knobs__"] = vars(inputs.pop("options"))
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

    The stage's ``ctx`` holds its deps and params only; with ``knobs``
    its ``ctx["options"]`` is a ``SimpleNamespace`` of just those
    attributes.  A ``ctx`` that lacks one of the stage's deps or
    params, or whose options lack one of its knobs, raises
    ``ValueError`` naming the stage, before any cache lookup or span.
    A stage that raises is recorded as ``failed`` with its exception
    on the outcome; it is not run again.  ``chaos`` (a
    :class:`~repro.orchestrate.resilience.ChaosPolicy`) may inject a
    fault into the call.
    """
    _check_stage(stage, ctx, ctx)
    child_ctx = {k: ctx[k] for k in (*stage.deps, *stage.params)}
    if stage.knobs:
        options = ctx["options"]
        child_ctx["options"] = SimpleNamespace(
            **{knob: getattr(options, knob) for knob in stage.knobs})
    t0 = time.perf_counter()
    key = None
    if cache is not None:
        key = stage_key(stage.name, cache_inputs(stage, child_ctx))
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
    """Outcome of running a whole stage table once."""

    outputs: dict
    status: str                      # ok | degraded
    wall_s: float
    replayed: list = field(default_factory=list)   # from a run journal


def run_stages(stages, params, *, cache=None, sink=None, journal=None,
               chaos=None) -> RunResult:
    """Run ``stages`` once each, in their declared order, with the run
    parameters ``params``; ``sink`` receives every span, also when a
    stage fails."""
    stages = tuple(stages)
    earlier: set = set()
    for stage in stages:
        if stage.name in earlier:
            raise ValueError(f"duplicate stage {stage.name!r}")
        _check_stage(stage, earlier, params)
        earlier.add(stage.name)

    t0 = time.perf_counter()
    outputs: dict = {}
    spans: list = []
    replayed: list = []
    degraded = False
    try:
        for position, stage in enumerate(stages):
            if journal is not None:
                hit, value = journal.replay(stage.name)
                if hit:
                    # Zero-cost ``cache="journal"`` spans, so telemetry
                    # counts exactly what a resume skipped.
                    outputs[stage.name] = value
                    replayed.append(stage.name)
                    spans.append(Span(stage.name, 0.0, cache="journal"))
                    continue
            if chaos is not None:
                chaos.pre_stage(stage.name)   # may crash
            outcome = run_stage(stage, {**params, **outputs},
                                cache=cache, chaos=chaos)
            spans.append(outcome.span)
            if outcome.error is None:
                outputs[stage.name] = outcome.value
                if journal is not None:
                    # Best effort: an output the journal cannot store
                    # re-executes on resume.
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
            # Deps point backwards, so one forward scan finds every
            # transitive dependent.
            dead = {stage.name}
            for later in stages[position + 1:]:
                if dead.intersection(later.deps):
                    dead.add(later.name)
            spans.extend(Span(name, 0.0, status="skipped")
                         for name in sorted(dead - {stage.name}))
            raise StageError(stage.name,
                             outcome.error) from outcome.error
    finally:
        if sink is not None:
            sink.extend(spans)
    return RunResult(outputs=outputs,
                     status="degraded" if degraded else "ok",
                     wall_s=time.perf_counter() - t0, replayed=replayed)
