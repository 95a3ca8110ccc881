"""Crash-safe flow runs: the write-ahead run journal, the resume
engine, and the deterministic fault-injection (chaos) harness.

This module is the production hardening the panelists' economics
demand: an EDA farm run is hours long, and a killed worker, a failed
stage, or a rotted cache entry must cost *one stage*, not the run.
Recovery is by resume, not by retry: each stage runs once, and a run
that dies (a required-stage failure raises and leaves its journal
unfinished) is finished by :func:`resume_run`.  Three pieces deliver that:

* :class:`RunJournal` — every completed stage is checkpointed to disk
  (sealed blob in a per-run result store + append-only JSONL index).
  Records are published blob-first, index-second, each fsynced, so a
  kill at any byte boundary leaves a prefix of verifiable records and
  never a torn one.
* :func:`run` / :func:`resume_run` — the one documented flow API.
  ``run(subject, library, options, journal_root=...)`` journals as it
  goes; after a crash, ``resume_run(run_id, journal_root=...)``
  reloads the pickled inputs, replays every verified stage from the
  journal, and re-executes only the frontier.  A resumed run's signoff
  metrics are bit-identical to an uninterrupted run's (the chaos soak
  in ``tests/test_resilience.py`` enforces this).
* :class:`ChaosPolicy` — fault injection at named stages: stage
  exceptions and worker crashes (:class:`WorkerCrash`), so a scenario
  replays exactly.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.orchestrate.cache import (
    CorruptEntry,
    ResultCache,
    atomic_write,
    decode_value,
    encode_value,
    seal_blob,
    stable_hash,
    unseal_blob,
)
from repro.orchestrate.executor import WorkerCrash

_PICKLE_PROTOCOL = 4


class JournalError(RuntimeError):
    """The run journal is missing or structurally unusable."""


class ChaosFailure(RuntimeError):
    """A fault injected by :class:`ChaosPolicy`: the stage fails."""


# ----------------------------------------------------------------------
# Write-ahead run journal


class RunJournal:
    """Append-only, checksummed checkpoint log of one flow run.

    Layout under ``root/run_id/``::

        meta.json        run metadata + completion marker
        inputs.pkl       sealed pickle of (subject, library, options)
        journal.jsonl    one line per completed stage (the index)
        blobs/<stage>.pkl  ``store``, a ResultCache keyed by stage
                           name: sealed codec blob of that stage's
                           output (designs as columnar ``.pnl`` bytes)
        blobs/quarantine/  corrupted blobs moved aside on detection

    Crash safety: :meth:`record` publishes the blob atomically
    (tmp + fsync + rename) *before* appending its index line (also
    fsynced).  The index is the source of truth — a blob without an
    index line (kill between the two writes) is simply ignored, and an
    index line whose blob fails verification is quarantined by the
    store and reported as a miss.  Either way the stage re-executes on
    resume; it can never be replayed from bad bytes.
    """

    #: v2: the subject is always journaled as a codec frame.
    #: :func:`resume_run` refuses a journal of any other version.
    SCHEMA_VERSION = 2

    def __init__(self, root, run_id: str):
        self.root = Path(root)
        self.run_id = run_id
        self.dir = self.root / run_id
        self.blob_dir = self.dir / "blobs"
        self.meta_path = self.dir / "meta.json"
        self.index_path = self.dir / "journal.jsonl"
        self.inputs_path = self.dir / "inputs.pkl"
        self.store = ResultCache(max_memory_entries=1,
                                 disk_dir=self.blob_dir)
        self._journaled: frozenset = frozenset()

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
            "fingerprint": stable_hash(
                {"options": options, "subject": type(subject).__name__}),
            "status": "running",
            "flow_status": None,
            "created_unix": time.time(),
        })
        return journal

    @classmethod
    def open(cls, root, run_id: str) -> "RunJournal":
        """Attach to an existing journal and read its index (the
        stages :meth:`replay` may return); raises if there is none."""
        if not (Path(root) / run_id / "meta.json").exists():
            raise JournalError(
                f"no journal for run {run_id!r} under {Path(root)}")
        journal = cls(root, run_id)
        journal._journaled = frozenset(
            entry["stage"] for entry in journal.entries())
        return journal

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

    # -- the write-ahead log -------------------------------------------

    def record(self, stage: str, value, *, key: str | None = None,
               wall_s: float = 0.0) -> None:
        """Checkpoint one completed stage: blob first, index second.

        Stage outputs go into :attr:`store` under the stage name,
        through the packed-design codec
        (:func:`~repro.orchestrate.cache.encode_value`): a netlist or
        placement journals as columnar ``.pnl`` bytes, sharing the
        packing pass with the result cache.  A blob the store could not
        publish gets no index line: :class:`JournalError` is raised
        and the stage re-executes on resume.
        """
        if not self.store.put(stage, value):
            raise JournalError(f"blob of stage {stage!r} not published")
        line = json.dumps({"stage": stage, "key": key, "wall_s": wall_s,
                           "blob": self.store.entry_path(stage).name})
        with self.index_path.open("a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def entries(self) -> list:
        """Parsed index records, last-write-wins per stage, in order.

        A line that is not a JSON object naming a ``stage`` — the torn
        tail of an interrupted append, or a line that rotted on disk —
        is ignored, so its stage re-executes on resume.
        """
        if not self.index_path.exists():
            return []
        by_stage: dict = {}
        for line in self.index_path.read_bytes().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:       # torn, or undecodable bytes
                continue
            if isinstance(entry, dict) and \
                    isinstance(entry.get("stage"), str):
                by_stage[entry["stage"]] = entry
        return list(by_stage.values())

    def replay(self, stage: str):
        """``(True, fresh_copy)`` when ``stage`` can be replayed.

        Only a stage the index listed at :meth:`open` replays, and only
        if its blob verifies; a blob that fails is quarantined by the
        store and reported as ``(False, None)``, so the stage
        re-executes instead of trusting bad bytes.
        """
        if stage not in self._journaled:
            return False, None
        return self.store.get(stage)

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
    * ``journal_root`` — checkpoint every completed stage under
      ``journal_root/run_id`` (``run_id`` is generated when omitted;
      read it back from ``result.run_id``).  If the process dies
      mid-run, :func:`resume_run` finishes the job.
    * ``chaos`` — a :class:`ChaosPolicy` injecting faults at named
      stages, for resilience testing.

    Each stage runs once.  A failed required stage raises
    :class:`~repro.orchestrate.executor.StageError` after recording a
    ``failed`` span and one ``skipped`` span per dependent, and leaves
    the journal resumable.  A ``Netlist`` subject is linted before any
    stage runs (see :mod:`repro.lint`): errors become a failed ``lint``
    span and the run proceeds; the report is ``result.lint``.

    Returns a :class:`~repro.core.flow.FlowResult`; its ``status`` is a
    :class:`~repro.core.flow.FlowStatus` and its ``run_id`` echoes the
    journal id when journaling was on.
    """
    from repro.orchestrate.flows import implement_flow
    journal = None
    if journal_root is not None:
        run_id = run_id or _new_run_id()
        journal = RunJournal.create(journal_root, run_id, subject,
                                    library, options)
    result = implement_flow(
        subject, library, options, run_db=run_db, cache=cache,
        telemetry=telemetry, journal=journal, chaos=chaos)
    if journal is not None:
        journal.finish(result.status)
    return result


def resume_run(run_id: str, *, journal_root, run_db=None, cache=None,
               telemetry=None):
    """Finish an interrupted journaled run.

    Inputs (subject, library, options) are reloaded from the journal,
    every checkpointed stage whose blob verifies is replayed without
    re-execution (its span carries ``cache="journal"``), and only the
    frontier — stages the crash cut short, plus anything whose index
    line or blob rotted — actually runs.  The final metrics
    are bit-identical to an uninterrupted run; ``result.status`` is
    ``FlowStatus.RESUMED`` when any stage was replayed.

    With ``run_db``, the resumed run logs one record like any other
    run: its replayed stages are the spans with ``cache="journal"``,
    its executed stages the rest, and its ``run_id`` names the
    journal.

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
    result = implement_flow(
        subject, library, options, run_db=run_db, cache=cache,
        telemetry=telemetry, journal=journal)
    journal.finish(result.status)
    return result


def _new_run_id() -> str:
    return uuid.uuid4().hex[:12]
