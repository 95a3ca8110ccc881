"""Crash-safe flow runs: the run journal, the resume engine, and the
deterministic fault-injection (chaos) harness.

This module is the production hardening the panelists' economics
demand: an EDA farm run is hours long, and a killed worker, a failed
stage, or a rotted cache entry must cost *one stage*, not the run.
Recovery is by resume, not by retry: each stage runs once, and a run
that dies (a required-stage failure raises and leaves its journal
unfinished) is finished by :func:`resume_run`.  Three pieces deliver that:

* :class:`RunJournal` — a run's sealed inputs, its completion marker,
  and its own content-keyed :class:`ResultCache` disk tier: the stage
  loop puts every completed stage there under the same content key a
  caller's cache uses.  Entries publish through the cache's one
  atomic writer (tmp, fsync, rename), so a kill at any byte boundary
  leaves each entry whole or absent, and an entry that verifies is a
  stage that completed.
* :func:`run` / :func:`resume_run` — the one documented flow API.
  ``run(subject, library, options, journal_root=...)`` journals as it
  goes; after a crash, ``resume_run(run_id, journal_root=...)``
  reloads the sealed inputs and runs the flow again over the same
  stores, so every completed stage is an ordinary cache ``hit`` and
  only the frontier runs.  A resumed run's signoff metrics are
  bit-identical to an uninterrupted run's (the chaos soak in
  ``tests/test_resilience.py`` enforces this).
* :class:`ChaosPolicy` — fault injection at named stages: stage
  exceptions and worker crashes (:class:`WorkerCrash`), so a scenario
  replays exactly.
"""

from __future__ import annotations

import json
import pickle
import random
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.core.flow import FlowStatus
from repro.orchestrate.cache import (
    CorruptEntry,
    ResultCache,
    atomic_write,
    decode_value,
    encode_value,
    seal_blob,
    unseal_blob,
)
from repro.orchestrate.executor import WorkerCrash
from repro.orchestrate.telemetry import TelemetrySink

_PICKLE_PROTOCOL = 4


class JournalError(RuntimeError):
    """The run journal is missing or structurally unusable."""


class ChaosFailure(RuntimeError):
    """A fault injected by :class:`ChaosPolicy`: the stage fails."""


# ----------------------------------------------------------------------
# Write-ahead run journal


class RunJournal:
    """One journaled run on disk: its inputs, its completion marker and
    its content-keyed result store.

    Layout under ``root/run_id/``::

        meta.json          run metadata + completion marker
        inputs.pkl         sealed pickle of (subject, library, options)
        blobs/<key>.pkl    ``store``, a ResultCache disk tier keyed by
                           each stage's content key: the sealed codec
                           blob of that stage's output (designs as
                           columnar ``.pnl`` bytes)
        blobs/quarantine/  corrupted blobs moved aside on detection

    The stage loop fills :attr:`store` like any cache, and a span's
    ``key`` names its stage's blob (``store.entry_path(span.key)``).
    A blob that is present and verifies is a completed stage; one that
    fails verification is quarantined and reported as a miss, so its
    stage re-executes on resume and is never replayed from bad bytes.
    """

    #: v3: stage blobs are keyed by content, with no index.
    #: :func:`resume_run` refuses a journal of any other version.
    SCHEMA_VERSION = 3

    def __init__(self, root, run_id: str):
        self.root = Path(root)
        self.run_id = run_id
        self.dir = self.root / run_id
        self.blob_dir = self.dir / "blobs"
        self.meta_path = self.dir / "meta.json"
        self.inputs_path = self.dir / "inputs.pkl"
        self.store = ResultCache(max_memory_entries=1,
                                 disk_dir=self.blob_dir)

    # -- creation / discovery ------------------------------------------

    @classmethod
    def create(cls, root, run_id: str, subject, library,
               options) -> "RunJournal":
        """Start a journal: persist inputs and a running meta record."""
        journal = cls(root, run_id)
        if journal.meta_path.exists():
            raise JournalError(f"run {run_id!r} already journaled "
                               f"under {journal.root}")
        # The subject rides the packed codec like every stage blob;
        # library and options stay pickled (they are the rehydration
        # context, not design data).
        inputs = pickle.dumps((encode_value(subject), library, options),
                              protocol=_PICKLE_PROTOCOL)
        atomic_write(journal.inputs_path, seal_blob(inputs, "inputs"))
        journal._write_meta({
            "run_id": run_id,
            "schema_version": cls.SCHEMA_VERSION,
            "status": "running",
            "flow_status": None,
            "created_unix": time.time(),
        })
        return journal

    @classmethod
    def open(cls, root, run_id: str) -> "RunJournal":
        """Attach to an existing journal; raises if there is none."""
        if not (Path(root) / run_id / "meta.json").exists():
            raise JournalError(
                f"no journal for run {run_id!r} under {Path(root)}")
        return cls(root, run_id)

    @staticmethod
    def list_runs(root) -> list:
        """Run ids journaled under ``root``, oldest directory first."""
        root = Path(root)
        if not root.is_dir():
            return []
        runs = [p for p in root.iterdir()
                if (p / "meta.json").exists()]
        runs.sort(key=lambda p: p.stat().st_mtime)
        return [p.name for p in runs]

    # -- metadata ------------------------------------------------------

    def _write_meta(self, meta: dict) -> None:
        atomic_write(self.meta_path, json.dumps(meta, indent=1).encode())

    def meta(self) -> dict:
        """The run's metadata; :class:`JournalError` when it rotted."""
        try:
            meta = json.loads(self.meta_path.read_bytes())
        except ValueError as err:    # undecodable bytes or bad JSON
            raise JournalError(
                f"run {self.run_id!r}: meta.json unreadable "
                f"({err})") from err
        if not isinstance(meta, dict):
            raise JournalError(
                f"run {self.run_id!r}: meta.json is not an object")
        return meta

    @property
    def is_complete(self) -> bool:
        return self.meta().get("status") == "complete"

    def finish(self, flow_status) -> None:
        """Mark the run complete (it no longer needs resuming)."""
        meta = self.meta()
        meta["status"] = "complete"
        meta["flow_status"] = str(flow_status)
        self._write_meta(meta)

    def load_inputs(self):
        """``(subject, library, options)`` as journaled at create time."""
        try:
            blob = unseal_blob(self.inputs_path.read_bytes(), "inputs")
            subject, library, options = pickle.loads(blob)
            subject = decode_value(subject)
        except (OSError, CorruptEntry) as err:
            raise JournalError(
                f"run {self.run_id!r}: inputs unreadable "
                f"({err}); cannot resume") from err
        return subject, library, options


def resumable_runs(journal_root) -> list:
    """Run ids under ``journal_root`` that never reached completion —
    the work list after a farm node dies."""
    out = []
    for run_id in RunJournal.list_runs(journal_root):
        try:
            if not RunJournal.open(journal_root, run_id).is_complete:
                out.append(run_id)
        except (JournalError, OSError):
            out.append(run_id)       # unreadable meta: still resumable
    return out


# ----------------------------------------------------------------------
# Deterministic fault injection


@dataclass(frozen=True)
class ChaosPolicy:
    """Fault injection at named stages for the stage executor.

    Stateless and frozen: ``crash_stages`` names the stages before
    which the run is killed, ``fail_stages`` those whose one execution
    raises, so every scenario replays exactly (the soak test's kill
    switches).
    """

    crash_stages: tuple = ()
    fail_stages: tuple = ()

    # -- executor hooks ------------------------------------------------

    def pre_stage(self, stage: str) -> None:
        """Called by the executor before scheduling ``stage``; raising
        :class:`WorkerCrash` aborts the run like a killed process."""
        if stage in self.crash_stages:
            raise WorkerCrash(stage)

    def in_stage(self, stage: str) -> None:
        """Called inside the stage's one execution; raising
        :class:`ChaosFailure` fails the stage like any stage error."""
        if stage in self.fail_stages:
            raise ChaosFailure(f"chaos fault in {stage!r}")


def corrupt_file(path, *, seed: int = 0) -> bool:
    """Flip one deterministic byte of ``path`` (bit-rot simulation)."""
    path = Path(path)
    if not path.exists():
        return False
    data = bytearray(path.read_bytes())
    if not data:
        return False
    pos = random.Random(f"{seed}|{path.name}").randrange(len(data))
    data[pos] ^= 0xFF
    path.write_bytes(bytes(data))
    return True


# ----------------------------------------------------------------------
# The unified flow API


def run(subject, library, options=None, *, run_db=None, cache=None,
        telemetry=None, journal_root=None, run_id: str | None = None,
        chaos=None):
    """Run the implementation flow — the single documented entry point.

    * ``run_db`` — a :class:`~repro.learn.rundb.RunDatabase` that
      receives one record of the run's QoR and telemetry spans.
    * ``cache`` — a :class:`~repro.orchestrate.cache.ResultCache`;
      stages whose inputs are unchanged replay from it.
    * ``telemetry`` — a :class:`~repro.orchestrate.telemetry.TelemetrySink`
      collecting one span per stage.
    * ``journal_root`` — journal the run under ``journal_root/run_id``
      (``run_id`` is generated when omitted; read it back from
      ``result.run_id``): the sealed inputs, then every completed
      stage in the run's own store, which is looked up before
      ``cache``.  If the process dies mid-run, :func:`resume_run`
      finishes the job.  A ``run_id`` without ``journal_root`` raises
      ``ValueError`` before any stage runs.
    * ``chaos`` — a :class:`ChaosPolicy` injecting faults at named
      stages, for resilience testing.

    Each stage runs once.  A failed required stage raises
    :class:`~repro.orchestrate.executor.StageError` after recording a
    ``failed`` span and one ``skipped`` span per dependent, and leaves
    the journal resumable.  A ``Netlist`` subject is linted before any
    stage runs (see :mod:`repro.lint`): errors become a failed ``lint``
    span and the run proceeds; the report is ``result.lint``.

    Returns a :class:`~repro.core.flow.FlowResult`; its ``status`` is a
    :class:`~repro.core.flow.FlowStatus` (never ``RESUMED``) and its
    ``run_id`` echoes the journal id when journaling was on.
    """
    from repro.orchestrate.flows import implement_flow
    journal = None
    if journal_root is not None:
        run_id = run_id or _new_run_id()
        journal = RunJournal.create(journal_root, run_id, subject,
                                    library, options)
    elif run_id is not None:
        raise ValueError(f"run_id {run_id!r} names a run journal; "
                         f"pass journal_root= too")
    result = implement_flow(
        subject, library, options, run_db=run_db,
        caches=_stores(journal, cache), telemetry=telemetry,
        run_id=run_id, chaos=chaos)
    if journal is not None:
        journal.finish(result.status)
    return result


def resume_run(run_id: str, *, journal_root, run_db=None, cache=None,
               telemetry=None):
    """Finish an interrupted journaled run.

    Inputs (subject, library, options) are reloaded from the journal
    and the flow runs again over the run's store and ``cache``, so
    every stage whose blob verifies is an ordinary ``cache="hit"``
    span, and only the frontier — stages the crash cut short, plus any
    whose blob rotted — actually runs.  The final metrics are
    bit-identical to an uninterrupted run; ``result.status`` is
    ``FlowStatus.RESUMED`` when the run is ok and any stage hit.

    With ``run_db``, the resumed run logs one record like any other
    run: its replayed stages are the ``hit`` spans, its executed
    stages the rest, and its ``run_id`` names the journal.

    A journal written under another :attr:`RunJournal.SCHEMA_VERSION`
    raises :class:`JournalError` naming both versions.
    """
    from repro.orchestrate.flows import implement_flow
    journal = RunJournal.open(journal_root, run_id)
    version = journal.meta().get("schema_version")
    if version != RunJournal.SCHEMA_VERSION:
        raise JournalError(
            f"run {run_id!r}: journal schema_version {version!r}, this "
            f"build reads {RunJournal.SCHEMA_VERSION}; cannot resume")
    subject, library, options = journal.load_inputs()
    sink = telemetry if telemetry is not None else TelemetrySink()
    n_before = len(sink)
    result = implement_flow(
        subject, library, options, run_db=run_db,
        caches=_stores(journal, cache), telemetry=sink, run_id=run_id)
    if result.status is FlowStatus.OK and any(
            span.cache == "hit" for span in sink.spans[n_before:]):
        result.status = FlowStatus.RESUMED
    journal.finish(result.status)
    return result


def _stores(journal, cache) -> tuple:
    """A run's stores in lookup order: its journal's, then the
    caller's ``cache``, each when there is one."""
    stores = (None if journal is None else journal.store, cache)
    return tuple(store for store in stores if store is not None)


def _new_run_id() -> str:
    return uuid.uuid4().hex[:12]
