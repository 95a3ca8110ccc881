"""Batch front-end: run many flow jobs, serial or in parallel.

``run_sweep`` is the harness the benches use to demonstrate E7-style
throughput: N flow jobs over a list of :class:`FlowOptions` variants,
executed by a process pool (``jobs > 1``) or a shared-cache serial
loop (``jobs = 1``).  Results come back in input order regardless of
completion order, so a parallel sweep is result-for-result identical
to a serial one for seeded flows.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

from repro.orchestrate.cache import ResultCache
from repro.orchestrate.telemetry import TelemetrySink


@dataclass
class SweepResult:
    """Outcome of one ``run_sweep`` call."""

    results: list
    wall_s: float
    jobs: int

    def __len__(self) -> int:
        return len(self.results)

    @property
    def degraded(self) -> list:
        """Indices of jobs that finished degraded (an optional stage
        failed)."""
        return [i for i, r in enumerate(self.results)
                if str(getattr(r, "status", "ok")) == "degraded"]

    def summary(self) -> str:
        per_job = self.wall_s / max(len(self.results), 1)
        return (f"{len(self.results)} jobs with jobs={self.jobs}: "
                f"{self.wall_s:.3f} s wall ({per_job * 1000:.0f} ms/job"
                f", {len(self.degraded)} degraded)")


def _run_job(subject, library, options, cache, flow_fn, job):
    """One flow job: its result and its spans, tagged with ``job``."""
    if flow_fn is not None:
        return flow_fn(subject, library, options), []
    from repro.orchestrate.resilience import run
    sink = TelemetrySink()
    result = run(subject, library, options, cache=cache,
                 telemetry=sink)
    for span in sink.spans:
        span.job = job
    return result, sink.spans


def _run_one(payload):
    """Pool worker (module-level for pickling): one job over a cache
    on the parent's disk tier."""
    subject, library, options, cache_dir, flow_fn, job = payload
    cache = ResultCache(disk_dir=cache_dir) if cache_dir else None
    return _run_job(subject, library, options, cache, flow_fn, job)


def run_sweep(subject, library, options_list, *, jobs: int = 1,
              cache=None, telemetry=None, run_db=None,
              flow_fn=None) -> SweepResult:
    """Run one flow job per entry of ``options_list``.

    ``subject`` is either a single design (swept over option variants,
    the ablation shape) or a sequence matching ``options_list`` (one
    design per job, the throughput shape).  With ``jobs > 1`` the jobs
    run in a ``multiprocessing`` pool; the disk tier of ``cache`` (a
    :class:`~repro.orchestrate.cache.ResultCache`), when it has one,
    then gives the workers a shared on-disk result cache, while serial
    sweeps share the whole ``cache``.  A memory-only ``cache`` cannot
    cross process boundaries and is ignored by parallel sweeps.  A
    killed sweep recovers by running again over the same disk tier:
    every stage its jobs completed is a ``hit``.
    ``flow_fn`` substitutes the flow body (module-level callable
    ``fn(subject, library, options)``) for harness tests and custom
    flows.

    Per-job telemetry spans land in ``telemetry`` tagged with their
    job index.  With ``run_db`` (a
    :class:`~repro.learn.rundb.RunDatabase`), the calling process logs
    one record per job, in job order, exactly as ``run(...,
    run_db=)`` logs a run: its QoR and those same spans.  Jobs of a
    ``flow_fn`` log nothing.
    """
    options_list = list(options_list)
    if isinstance(subject, (list, tuple)):
        if len(subject) != len(options_list):
            raise ValueError(
                f"{len(subject)} subjects for {len(options_list)} "
                f"option sets")
        subjects = list(subject)
    else:
        subjects = [subject] * len(options_list)

    t0 = time.perf_counter()
    if jobs <= 1 or not options_list:
        outcomes = [_run_job(subj, library, options, cache, flow_fn, i)
                    for i, (subj, options)
                    in enumerate(zip(subjects, options_list))]
    else:
        # Workers cannot share the parent's memory tier, but they can
        # share its disk store.
        cache_dir = cache.disk_dir if cache is not None else None
        payloads = [(subj, library, options, cache_dir, flow_fn, i)
                    for i, (subj, options)
                    in enumerate(zip(subjects, options_list))]
        with multiprocessing.Pool(min(jobs, len(payloads))) as pool:
            outcomes = pool.map(_run_one, payloads)

    if telemetry is not None:
        for _, spans in outcomes:
            telemetry.extend(spans)
    if run_db is not None and flow_fn is None:
        from repro.orchestrate.flows import _log_run
        for result, spans in outcomes:
            _log_run(run_db, result, spans)
    return SweepResult(results=[result for result, _ in outcomes],
                       wall_s=time.perf_counter() - t0, jobs=jobs)
