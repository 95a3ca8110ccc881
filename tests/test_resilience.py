"""Tests for repro.orchestrate.resilience: the run journal and its
content-keyed store, checkpoint/resume, chaos fault injection,
sealed-cache corruption handling, and the unified
``run``/``resume_run`` flow API.

The acceptance centerpiece is the chaos soak
(:class:`TestChaosSoak`): 20+ seeded kill/corruption scenarios, each
of which must resume to signoff metrics bit-identical to an
uninterrupted run while re-executing only the frontier.
"""

import errno
import multiprocessing
import os
import pickle
import random
import signal

import pytest

import repro.orchestrate.cache

from repro.core import FlowOptions, FlowStatus
from repro.learn import RunDatabase
from repro.netlist import build_library, registered_cloud
from repro.orchestrate import (
    ChaosFailure,
    ChaosPolicy,
    CorruptEntry,
    JournalError,
    ResultCache,
    RunJournal,
    Stage,
    StageError,
    TelemetrySink,
    WorkerCrash,
    corrupt_file,
    resumable_runs,
    resume_run,
    run,
    run_stage,
    run_stages,
    seal_blob,
    stage_key,
    unseal_blob,
)
from repro.orchestrate.flows import STAGE_NAMES
from repro.tech import get_node


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"),
                         vt_flavors=("lvt", "rvt", "hvt"))


def small_design(lib, seed=3):
    return registered_cloud(8, 16, 120, lib, seed=seed)


OPTS = dict(scan=True, cts=True)


def qor(result):
    """The signoff fingerprint the bit-identical claims compare."""
    return (result.delay_ps, result.power_uw, result.hpwl_um,
            result.routed_wirelength, result.overflow,
            result.instances, result.area_um2)


@pytest.fixture(scope="module")
def clean_qor(lib):
    """Signoff metrics of one uninterrupted run — the soak baseline."""
    return qor(run(small_design(lib), lib, FlowOptions(**OPTS)))


# ----------------------------------------------------------------------
# Sealed blobs and the run journal


class TestSealedBlobs:
    def test_roundtrip(self):
        data = pickle.dumps({"x": 1})
        assert unseal_blob(seal_blob(data, "k"), "k") == data

    def test_detects_flip_truncation_and_wrong_key(self):
        sealed = seal_blob(b"payload-bytes", "key-a")
        flipped = bytearray(sealed)
        flipped[-1] ^= 0xFF
        for bad, expect in [
            (bytes(flipped), "checksum"),
            (sealed[:-4], "checksum"),
            (b"garbage", "unsealed"),
            (sealed[: len(sealed) // 4], "truncated"),
        ]:
            with pytest.raises(CorruptEntry, match=expect):
                unseal_blob(bad, "key-a")
        with pytest.raises(CorruptEntry, match="sealed for key"):
            unseal_blob(sealed, "key-b")


class TestRunJournal:
    def test_duplicate_create_rejected(self, tmp_path):
        RunJournal.create(tmp_path, "r1", None, None, None)
        with pytest.raises(Exception, match="already journaled"):
            RunJournal.create(tmp_path, "r1", None, None, None)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(Exception, match="no journal"):
            RunJournal.open(tmp_path, "ghost")

    def test_corrupted_blob_quarantined_and_dropped(self, tmp_path):
        journal = RunJournal.create(tmp_path, "r1", None, None, None)
        key_a, key_b = (stage_key(name, {}) for name in ("a", "b"))
        journal.store.put(key_a, 1)
        journal.store.put(key_b, 2)
        corrupt_file(journal.store.entry_path(key_a), seed=7)
        reopened = RunJournal.open(tmp_path, "r1")
        assert reopened.store.get(key_a) == (False, None)
        assert reopened.store.get(key_b) == (True, 2)
        assert (journal.blob_dir / "quarantine"
                / f"{key_a}.pkl").exists()

    def test_unpublished_blob_gets_no_index_line(self, tmp_path, lib,
                                                 monkeypatch, clean_qor):
        # On a full disk a journaled run completes without checkpoints:
        # its store counts every failed write, and its resume
        # re-executes every stage.
        def disk_full(path, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        journals = []
        create = RunJournal.create.__func__

        def create_and_keep(cls, *args, **kwargs):
            journals.append(create(cls, *args, **kwargs))
            return journals[-1]

        monkeypatch.setattr(RunJournal, "create",
                            classmethod(create_and_keep))
        monkeypatch.setattr(repro.orchestrate.cache, "atomic_write",
                            disk_full)
        result = run(small_design(lib), lib, FlowOptions(**OPTS),
                     journal_root=tmp_path, run_id="full")
        assert qor(result) == clean_qor
        assert journals[0].store.stats.write_failures == \
            len(STAGE_NAMES)
        monkeypatch.undo()
        assert not list(journals[0].blob_dir.glob("*.pkl"))
        sink = TelemetrySink()
        resumed = resume_run("full", journal_root=tmp_path,
                             telemetry=sink)
        assert qor(resumed) == clean_qor
        assert resumed.status is FlowStatus.OK
        assert [s.cache for s in sink.spans] == ["miss"] * 6

    def test_write_ahead_fsync_order(self, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync

        def logged_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        # Every disk-tier put makes its entry durable, a journal's
        # store included.
        cache = ResultCache(disk_dir=tmp_path / "cache")
        journal = RunJournal.create(tmp_path / "runs", "r1", None,
                                    None, None)
        keys = [stage_key("s", {"x": i}) for i in range(3)]
        for store in (cache, journal.store):
            for key in keys:
                store.put(key, {"qor": key})
            assert all(store.entry_path(key).stat().st_ino in synced
                       for key in keys)

    def test_completion_marker_and_resumable_listing(self, tmp_path):
        done = RunJournal.create(tmp_path, "done", None, None, None)
        RunJournal.create(tmp_path, "stuck", None, None, None)
        done.finish(FlowStatus.OK)
        assert done.is_complete
        assert done.meta()["flow_status"] == "ok"
        assert resumable_runs(tmp_path) == ["stuck"]

    def test_rotted_meta_still_resumable_but_refused(self, tmp_path):
        for run_id in ("r0", "r1", "r2"):
            RunJournal.create(tmp_path, run_id, "subj", None,
                              FlowOptions())
        assert corrupt_file(tmp_path / "r1" / "meta.json", seed=0)
        assert sorted(resumable_runs(tmp_path)) == ["r0", "r1", "r2"]
        with pytest.raises(JournalError, match="meta.json"):
            resume_run("r1", journal_root=tmp_path)

    def test_old_schema_journal_refused(self, tmp_path):
        journal = RunJournal.create(tmp_path, "old", "subj", None,
                                    FlowOptions())
        meta = journal.meta()
        meta["schema_version"] = 2
        journal._write_meta(meta)
        with pytest.raises(JournalError,
                           match=r"schema_version 2, this build reads 3"):
            resume_run("old", journal_root=tmp_path)


# ----------------------------------------------------------------------
# Disk-cache corruption: quarantine and recompute (satellite)


def _double(ctx):
    _double.calls += 1
    return ctx["x"] * 2


_double.calls = 0


def _mark_unpickled():
    _mark_unpickled.calls += 1
    return "unpickled"


_mark_unpickled.calls = 0


class _Tripwire:
    """Pickles to a call of :func:`_mark_unpickled`."""

    def __reduce__(self):
        return (_mark_unpickled, ())


class TestCacheCorruption:
    def _cache_with_entry(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        key = stage_key("s", {"x": 1})
        cache.put(key, {"qor": 42})
        return cache, key

    def test_truncated_entry_is_miss_and_quarantined(self, tmp_path):
        cache, key = self._cache_with_entry(tmp_path)
        path = cache.entry_path(key)
        path.write_bytes(path.read_bytes()[: 10])
        fresh = ResultCache(disk_dir=tmp_path)
        hit, _ = fresh.get(key)
        assert not hit
        assert fresh.stats.corrupt == 1
        assert (tmp_path / "quarantine" / path.name).exists()
        assert not path.exists()

    def test_flipped_byte_is_miss(self, tmp_path):
        cache, key = self._cache_with_entry(tmp_path)
        assert corrupt_file(cache.entry_path(key), seed=11)
        fresh = ResultCache(disk_dir=tmp_path)
        assert not fresh.get(key)[0]
        assert fresh.stats.corrupt == 1

    def test_entry_under_wrong_key_is_miss(self, tmp_path):
        cache, key = self._cache_with_entry(tmp_path)
        other = stage_key("s", {"x": 2})
        os.replace(cache.entry_path(key), cache.entry_path(other))
        fresh = ResultCache(disk_dir=tmp_path)
        assert not fresh.get(other)[0]
        assert fresh.stats.corrupt == 1

    def test_legacy_unsealed_entry_is_miss(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        key = stage_key("s", {"x": 1})
        cache.entry_path(key).write_bytes(pickle.dumps({"qor": 42}))
        assert not cache.get(key)[0]
        assert cache.stats.corrupt == 1

    def test_unframed_blob_is_miss_never_unpickled(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        key = stage_key("s", {"x": 1})
        cache.entry_path(key).write_bytes(
            seal_blob(pickle.dumps(_Tripwire()), key))
        _mark_unpickled.calls = 0
        assert not cache.get(key)[0]
        assert cache.stats.corrupt == 1
        assert _mark_unpickled.calls == 0

    def test_run_stage_recomputes_over_bad_entry(self, tmp_path):
        """The satellite bug: a bad disk entry used to raise out of
        ``run_stage``; now it falls back to recompute and republishes
        a clean entry."""
        stage = Stage("double", _double, params=("x",))
        _double.calls = 0
        cache = ResultCache(disk_dir=tmp_path)
        first = run_stage(stage, {"x": 21}, caches=(cache,))
        assert first.value == 42 and _double.calls == 1
        corrupt_file(cache.entry_path(first.span.key), seed=3)
        fresh = ResultCache(disk_dir=tmp_path)
        again = run_stage(stage, {"x": 21}, caches=(fresh,))
        assert again.span.status == "ok" and again.value == 42
        assert again.span.cache == "miss" and _double.calls == 2
        # The recompute republished a verifiable entry.
        repaired = ResultCache(disk_dir=tmp_path)
        hit, value = repaired.get(first.span.key)
        assert hit and value == 42


# ----------------------------------------------------------------------
# Chaos policy: determinism, one attempt per stage


def _ok(ctx):
    return "fine"


class TestChaosPolicy:
    def test_injected_fault_fails_the_stage(self):
        chaos = ChaosPolicy(fail_stages=("flaky",))
        table = (Stage("flaky", _ok), Stage("after", _ok, deps=("flaky",)))
        sink = TelemetrySink()
        with pytest.raises(StageError, match="chaos fault") as info:
            run_stages(table, {}, sink=sink, chaos=chaos)
        assert isinstance(info.value.cause, ChaosFailure)
        assert [s.status for s in sink.spans] == ["failed", "skipped"]

    def test_chaos_crash_aborts_run(self):
        chaos = ChaosPolicy(crash_stages=("boom",))
        table = (Stage("first", _ok), Stage("boom", _ok, deps=("first",)))
        with pytest.raises(WorkerCrash, match="boom"):
            run_stages(table, {}, chaos=chaos)


# ----------------------------------------------------------------------
# The unified API and status enum (satellites)


class TestUnifiedApi:
    def test_run_is_the_facade(self, lib):
        result = run(small_design(lib), lib, FlowOptions(**OPTS))
        assert result.status is FlowStatus.OK
        assert result.run_id is None      # no journaling requested
        assert set(result.stage_runtimes) == set(STAGE_NAMES)

    def test_failed_stage_is_recovered_by_resume(self, lib, tmp_path,
                                                 clean_qor):
        # A stage runs once: a fault fails the journaled run, which
        # stays resumable, and the resume re-runs only the frontier.
        with pytest.raises(StageError, match="routing") as info:
            run(small_design(lib), lib, FlowOptions(**OPTS),
                journal_root=tmp_path, run_id="flaky",
                chaos=ChaosPolicy(fail_stages=("routing",)))
        assert isinstance(info.value.cause, ChaosFailure)
        assert resumable_runs(tmp_path) == ["flaky"]
        sink = TelemetrySink()
        resumed = resume_run("flaky", journal_root=tmp_path,
                             telemetry=sink)
        assert qor(resumed) == clean_qor
        assert {s.stage for s in sink.spans if s.cache != "hit"} \
            == {"routing", "signoff"}

    def test_status_enum_is_string_compatible(self):
        assert FlowStatus.OK == "ok"
        assert str(FlowStatus.RESUMED) == "resumed"
        assert f"{FlowStatus.DEGRADED}" == "degraded"
        with pytest.raises(ValueError):     # failures raise instead
            FlowStatus("failed")

    def test_required_failure_raises_and_stays_resumable(
            self, lib, tmp_path):
        sink = TelemetrySink()
        with pytest.raises(StageError) as info:
            run(small_design(lib), lib, FlowOptions(**OPTS),
                telemetry=sink, journal_root=tmp_path, run_id="dies",
                chaos=ChaosPolicy(fail_stages=("dft",)))
        assert info.value.stage == "dft"
        assert [(s.stage, s.status) for s in sink.spans] == [
            ("synthesis", "ok"), ("placement", "ok"), ("dft", "failed"),
            ("cts", "skipped"), ("routing", "skipped"),
            ("signoff", "skipped")]
        assert resumable_runs(tmp_path) == ["dies"]

    def test_run_id_without_journal_root_raises(self, lib):
        # The id would name no journal: refused before any span or
        # record, as out-of-range options are.
        sink, db = TelemetrySink(), RunDatabase()
        with pytest.raises(ValueError, match="journal_root"):
            run(small_design(lib), lib, FlowOptions(**OPTS),
                run_id="lost", telemetry=sink, run_db=db)
        assert sink.spans == [] and len(db) == 0

    def test_journaled_run_reports_run_id(self, lib, tmp_path):
        result = run(small_design(lib), lib, FlowOptions(**OPTS),
                     journal_root=tmp_path, run_id="named")
        assert result.run_id == "named"
        assert RunJournal.open(tmp_path, "named").is_complete
        assert resumable_runs(tmp_path) == []


# ----------------------------------------------------------------------
# Checkpoint/resume


class TestResume:
    def test_resume_after_kill_at_each_stage(self, lib, tmp_path,
                                             clean_qor):
        for kill in STAGE_NAMES:
            run_id = f"kill-{kill}"
            with pytest.raises(WorkerCrash, match=kill):
                run(small_design(lib), lib, FlowOptions(**OPTS),
                    journal_root=tmp_path, run_id=run_id,
                    chaos=ChaosPolicy(crash_stages=(kill,)))
            sink = TelemetrySink()
            resumed = resume_run(run_id, journal_root=tmp_path,
                                 telemetry=sink)
            assert qor(resumed) == clean_qor, kill
            assert resumed.status is FlowStatus.RESUMED or \
                kill == STAGE_NAMES[0]   # nothing journaled: plain ok
            replayed = {s.stage for s in sink.spans if s.cache == "hit"}
            executed = {s.stage for s in sink.spans if s.cache != "hit"}
            assert replayed.isdisjoint(executed)
            assert kill in executed      # the cut stage re-runs
            assert replayed | executed == set(STAGE_NAMES)

    def test_resume_of_complete_run_replays_everything(
            self, lib, tmp_path, clean_qor):
        run(small_design(lib), lib, FlowOptions(**OPTS),
            journal_root=tmp_path, run_id="done")
        sink = TelemetrySink()
        resumed = resume_run("done", journal_root=tmp_path,
                             telemetry=sink)
        assert qor(resumed) == clean_qor
        assert resumed.status is FlowStatus.RESUMED
        assert [s.cache for s in sink.spans] == ["hit"] * 6

    def test_resumed_run_logs_one_record(self, lib, tmp_path):
        # The crashed run logs nothing; its resume logs one record,
        # linked to the journal by ``run_id``.
        db = RunDatabase()
        with pytest.raises(WorkerCrash):
            run(small_design(lib), lib, FlowOptions(**OPTS), run_db=db,
                journal_root=tmp_path, run_id="rec",
                chaos=ChaosPolicy(crash_stages=("routing",)))
        resume_run("rec", journal_root=tmp_path, run_db=db)
        path = tmp_path / "db.json"
        db.save(path)
        loaded = RunDatabase.load(path)
        assert len(loaded) == 1
        record = loaded.records[0]
        assert record.run_id == "rec"
        assert record.spans == db.records[0].spans
        replayed = [s.stage for s in record.spans if s.cache == "hit"]
        executed = [s.stage for s in record.spans if s.cache != "hit"]
        assert replayed == ["synthesis", "placement", "dft", "cts"]
        assert executed == ["routing", "signoff"]
        # Each span's key names the journal blob its stage used.
        store = RunJournal.open(tmp_path, "rec").store
        assert all(store.entry_path(s.key).exists()
                   for s in record.spans)

    def test_cache_hits_are_checkpointed(self, lib, tmp_path,
                                         clean_qor):
        # Stages served by the caller's cache still land in the run's
        # store, so a resume without that cache finds them.
        cache = ResultCache()
        run(small_design(lib), lib, FlowOptions(**OPTS), cache=cache)
        with pytest.raises(WorkerCrash, match="signoff"):
            run(small_design(lib), lib, FlowOptions(**OPTS), cache=cache,
                journal_root=tmp_path, run_id="warm",
                chaos=ChaosPolicy(crash_stages=("signoff",)))
        sink = TelemetrySink()
        resumed = resume_run("warm", journal_root=tmp_path,
                             telemetry=sink)
        assert qor(resumed) == clean_qor
        assert resumed.status is FlowStatus.RESUMED
        assert [(s.stage, s.cache) for s in sink.spans] == [
            (stage, "hit") for stage in STAGE_NAMES[:-1]] + [
            ("signoff", "miss")]


def _run_and_die(journal_root, run_id, kill_stage):
    """Child-process body: start a journaled run, SIGKILL ourselves
    when the flow reaches ``kill_stage`` (a real process death, not a
    simulated one)."""
    lib = build_library(get_node("28nm"),
                        vt_flavors=("lvt", "rvt", "hvt"))
    run(small_design(lib), lib, FlowOptions(**OPTS),
        journal_root=journal_root, run_id=run_id,
        chaos=_SigkillAt(kill_stage))


class _SigkillAt:
    """Chaos stand-in whose kill point is an actual SIGKILL."""

    def __init__(self, stage):
        self.stage = stage

    def pre_stage(self, stage):
        if stage == self.stage:
            os.kill(os.getpid(), signal.SIGKILL)

    def in_stage(self, stage):
        pass


class TestProcessKill:
    def test_sigkilled_process_resumes_bit_identical(
            self, tmp_path, clean_qor):
        child = multiprocessing.Process(
            target=_run_and_die, args=(tmp_path, "killed", "routing"))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        assert resumable_runs(tmp_path) == ["killed"]
        resumed = resume_run("killed", journal_root=tmp_path)
        assert qor(resumed) == clean_qor
        assert resumed.status is FlowStatus.RESUMED


# ----------------------------------------------------------------------
# The chaos soak: the acceptance criterion


def _soak_scenarios(n_seeds=20):
    """Seeded kill/corruption scenarios: which stage dies, and whether
    a journal blob or a cache entry additionally rots."""
    out = []
    for seed in range(n_seeds):
        rng = random.Random(seed)
        out.append({
            "seed": seed,
            "kill": rng.choice(STAGE_NAMES[1:]),   # after >=1 stage
            "rot": rng.choice(("none", "journal", "cache")),
        })
    return out


class TestChaosSoak:
    @pytest.mark.parametrize(
        "scenario", _soak_scenarios(),
        ids=lambda s: f"seed{s['seed']}-{s['kill']}-{s['rot']}")
    def test_interrupted_run_resumes_bit_identical(
            self, scenario, lib, tmp_path, clean_qor):
        seed, kill = scenario["seed"], scenario["kill"]
        run_id = f"soak{seed}"
        cache = ResultCache(disk_dir=tmp_path / "cache") \
            if scenario["rot"] == "cache" else None
        crashed = TelemetrySink()
        with pytest.raises(WorkerCrash, match=kill):
            run(small_design(lib), lib, FlowOptions(**OPTS),
                journal_root=tmp_path, run_id=run_id, cache=cache,
                telemetry=crashed,
                chaos=ChaosPolicy(crash_stages=(kill,)))

        # The stages the crashed run completed, and their blobs' keys.
        keys = {s.stage: s.key for s in crashed.spans
                if s.status == "ok"}
        journaled = set(keys)
        journal = RunJournal.open(tmp_path, run_id)
        rotted = None
        if scenario["rot"] == "journal" and journaled:
            rotted = sorted(journaled)[seed % len(journaled)]
            assert corrupt_file(journal.store.entry_path(keys[rotted]),
                                seed=seed)
        elif scenario["rot"] == "cache":
            entries = [p for p in (tmp_path / "cache").glob("*.pkl")]
            if entries:
                assert corrupt_file(entries[seed % len(entries)],
                                    seed=seed)
            cache = ResultCache(disk_dir=tmp_path / "cache")

        sink = TelemetrySink()
        resumed = resume_run(run_id, journal_root=tmp_path,
                             cache=cache, telemetry=sink)

        # 1. Bit-identical signoff metrics.
        assert qor(resumed) == clean_qor, scenario
        # 2. Only the frontier re-executed: every completed stage
        #    whose blob verifies hit, the rotted one (if any) re-ran.
        replayed = {s.stage for s in sink.spans if s.cache == "hit"}
        executed = {s.stage for s in sink.spans if s.cache != "hit"}
        expected_replay = journaled - ({rotted} if rotted else set())
        assert replayed == expected_replay, scenario
        assert executed == set(STAGE_NAMES) - expected_replay, scenario
        assert resumed.status is FlowStatus.RESUMED or not replayed
        assert RunJournal.open(tmp_path, run_id).is_complete
