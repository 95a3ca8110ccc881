"""Flow orchestration: an ordered stage table, content-hash caching,
parallel sweeps, crash-safe journaling, and run telemetry.

The scaling substrate behind the E7 throughput claim — and, since the
resilience layer landed, the *one* documented flow API:

* :func:`run` — execute the implementation flow (cache, telemetry,
  optional run journal, chaos injection).
* :func:`resume_run` — finish a journaled run after a crash; the
  stages in the run's content-keyed store are cache hits, only the
  frontier re-executes, and the final metrics are bit-identical to an
  uninterrupted run.

Underneath: declare a flow as a table of stages in execution order
(:mod:`~repro.orchestrate.dag`, :data:`STAGES`), replay unchanged
stages from checksummed content-addressed stores, the caller's cache
and a journaled run's own (:mod:`~repro.orchestrate.cache`), run each
flow's stages in order (:mod:`~repro.orchestrate.executor`)
and independent flow jobs on a process pool
(:mod:`~repro.orchestrate.sweep`),
journal and fault-inject (:mod:`~repro.orchestrate.resilience`),
and meter every stage with structured spans
(:mod:`~repro.orchestrate.telemetry`).
"""

from repro.core.flow import FlowOptions, FlowResult, FlowStatus
from repro.lint.report import LintReport
from repro.orchestrate.cache import (
    CacheStats,
    CorruptEntry,
    ResultCache,
    seal_blob,
    stable_hash,
    stage_key,
    unseal_blob,
)
from repro.orchestrate.dag import Stage
from repro.orchestrate.executor import (
    RunResult,
    StageError,
    WorkerCrash,
    run_stage,
    run_stages,
)
from repro.orchestrate.flows import STAGES
from repro.orchestrate.resilience import (
    ChaosFailure,
    ChaosPolicy,
    JournalError,
    RunJournal,
    corrupt_file,
    resumable_runs,
    resume_run,
    run,
)
from repro.orchestrate.sweep import SweepResult, run_sweep
from repro.orchestrate.telemetry import (
    RunReport,
    Span,
    TelemetrySink,
    peak_rss_kb,
)

__all__ = [
    "CacheStats",
    "ChaosFailure",
    "ChaosPolicy",
    "CorruptEntry",
    "FlowOptions",
    "FlowResult",
    "FlowStatus",
    "JournalError",
    "LintReport",
    "ResultCache",
    "RunJournal",
    "RunReport",
    "RunResult",
    "STAGES",
    "Span",
    "Stage",
    "StageError",
    "SweepResult",
    "TelemetrySink",
    "WorkerCrash",
    "corrupt_file",
    "peak_rss_kb",
    "resumable_runs",
    "resume_run",
    "run",
    "run_stage",
    "run_stages",
    "run_sweep",
    "seal_blob",
    "stable_hash",
    "stage_key",
    "unseal_blob",
]
