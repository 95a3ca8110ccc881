"""Tests for repro.orchestrate: the ordered stage table, content-hash
caching, the executor (one attempt per stage, degraded runs), sweeps,
telemetry, and the names retired from them."""

import dataclasses
import errno
import hashlib
import pickle
import re
import time

import numpy as np
import pytest

from repro.core import FlowOptions
import repro.learn.rundb
from repro.learn import RunDatabase
from repro.netlist import build_library, registered_cloud
import repro.orchestrate.cache
import repro.place.analytic
from repro.orchestrate import (
    STAGES,
    ChaosPolicy,
    ResultCache,
    RunJournal,
    Stage,
    StageError,
    TelemetrySink,
    resume_run,
    run,
    run_stages,
    run_sweep,
    stable_hash,
    stage_key,
)
from repro.orchestrate.cache import decode_value, encode_value
from repro.place import Placement, analytic_place
from repro.route import route_placement, sequential_route
from repro.tech import get_node


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"),
                         vt_flavors=("lvt", "rvt", "hvt"))


def small_design(lib, seed=3):
    return registered_cloud(8, 16, 120, lib, seed=seed)


# ----------------------------------------------------------------------
# The stage table: stages run in declared order, deps point backwards


class TestDag:
    def test_topological_order_respects_deps(self):
        seen = []

        def stage(name, value, deps=()):
            def fn(ctx):
                seen.append(name)
                return value + sum(ctx[d] for d in deps)
            return Stage(name, fn, deps=deps)

        run = run_stages((stage("a", 1), stage("b", 2, ("a",)),
                          stage("c", 3, ("a", "b"))), {})
        assert seen == ["a", "b", "c"]
        assert run.outputs == {"a": 1, "b": 3, "c": 7}

    def test_cycle_detection(self):
        # A cycle cannot be declared in order: its first stage names a
        # later one, and the table is refused before anything runs.
        ran = []
        table = (Stage("a", ran.append, deps=("b",)),
                 Stage("b", ran.append, deps=("a",)))
        with pytest.raises(ValueError, match="'a' depends on 'b'"):
            run_stages(table, {})
        assert ran == []

    def test_unknown_dep_rejected(self):
        sink = TelemetrySink()
        table = (Stage("a", lambda ctx: 1),
                 Stage("b", lambda ctx: 2, deps=("ghost",)))
        with pytest.raises(ValueError, match="ghost"):
            run_stages(table, {}, sink=sink)
        assert sink.spans == []

    def test_duplicate_stage_rejected(self):
        table = (Stage("a", lambda ctx: 1), Stage("a", lambda ctx: 2))
        with pytest.raises(ValueError, match="duplicate"):
            run_stages(table, {})

    def test_dependents_transitive(self):
        table = (Stage("a", lambda ctx: 1 / 0),
                 Stage("b", lambda ctx: 2, deps=("a",)),
                 Stage("d", lambda ctx: 4),
                 Stage("c", lambda ctx: 3, deps=("b",)))
        sink = TelemetrySink()
        with pytest.raises(StageError, match="'a'"):
            run_stages(table, {}, sink=sink)
        assert [(s.stage, s.status) for s in sink.spans] == \
            [("a", "failed"), ("b", "skipped"), ("c", "skipped")]

    def test_shipped_table_names(self):
        from repro.orchestrate.flows import STAGE_NAMES
        assert STAGE_NAMES == tuple(s.name for s in STAGES) == (
            "synthesis", "placement", "dft", "cts", "routing",
            "signoff")
        assert not hasattr(STAGES[0], "version")


# ----------------------------------------------------------------------
# Content-hash cache


class TestCache:
    def test_stable_hash_dict_order_independent(self):
        assert stable_hash({"a": 1, "b": [2.5, "x"]}) == \
            stable_hash({"b": [2.5, "x"], "a": 1})

    def test_stable_hash_distinguishes_values(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})
        assert stable_hash(FlowOptions()) != \
            stable_hash(FlowOptions(routing_iterations=2))

    def test_hit_miss_and_invalidation_on_input_change(self):
        cache = ResultCache()
        k1 = stage_key("route", {"iters": 4})
        cache.put(k1, "result-4")
        hit, value = cache.get(k1)
        assert hit and value == "result-4"
        # One knob changed -> different key -> miss.
        hit, _ = cache.get(stage_key("route", {"iters": 5}))
        assert not hit
        # The same inputs under another stage name miss too.
        hit, _ = cache.get(stage_key("place", {"iters": 4}))
        assert not hit
        assert cache.stats.hits == 1 and cache.stats.misses == 2

    def test_disk_store_survives_new_instance(self, tmp_path):
        key = stage_key("s", {"x": 1})
        ResultCache(disk_dir=tmp_path).put(key, {"qor": 42})
        fresh = ResultCache(disk_dir=tmp_path)
        hit, value = fresh.get(key)
        assert hit and value == {"qor": 42}
        assert fresh.stats.disk_hits == 1

    def test_hits_return_fresh_copies(self):
        cache = ResultCache()
        cache.put("k", {"mutable": [1]})
        _, first = cache.get("k")
        first["mutable"].append(2)
        _, second = cache.get("k")
        assert second == {"mutable": [1]}

    def test_lru_eviction(self):
        cache = ResultCache(max_memory_entries=2)
        for i in range(4):
            cache.put(f"k{i}", i)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert not cache.get("k0")[0]
        assert cache.get("k3")[0]


def placed_cloud(lib, gates=300, flops=16):
    return analytic_place(registered_cloud(8, flops, gates, lib, seed=3),
                          seed=0)


def placement_key(placement):
    return stage_key("dft", {"placement": placement})


def _bump(points, name, axis=0):
    """Move one point up by one ulp along ``axis``."""
    xy = list(points[name])
    xy[axis] = float(np.nextafter(xy[axis], np.inf))
    points[name] = tuple(xy)


class TestPlacementKeys:
    """Keys over a placement tell placements apart exactly as a walk
    over every dataclass field would, at a cost that does not grow
    with the design."""

    def test_one_ulp_cell_move_changes_key(self, lib):
        placement = placed_cloud(lib)
        names = list(placement.positions)
        base = placement_key(placement)
        for name in (names[0], names[len(names) // 2], names[-1]):
            for axis in (0, 1):
                saved = placement.positions[name]
                _bump(placement.positions, name, axis)
                assert placement_key(placement) != base, (name, axis)
                placement.positions[name] = saved
        assert placement_key(placement) == base

    def test_signed_zero_changes_key(self, lib):
        placement = placed_cloud(lib)
        name = next(iter(placement.positions))
        placement.positions[name] = (0.0, 1.0)
        zero = placement_key(placement)
        placement.positions[name] = (-0.0, 1.0)
        assert placement_key(placement) != zero

    def test_every_field_changes_key(self, lib):
        def resize_one(p):
            gate = next(iter(p.netlist.gates.values()))
            swap = "_hvt" if gate.cell.name.endswith("_rvt") else "_rvt"
            p.netlist.resize_gate(gate.name, gate.cell.name[:-4] + swap)

        perturb = {
            "netlist": resize_one,
            "die_w_um": lambda p: setattr(p, "die_w_um",
                                          p.die_w_um + 0.5),
            "die_h_um": lambda p: setattr(p, "die_h_um",
                                          p.die_h_um + 0.5),
            "positions": lambda p: _bump(p.positions,
                                         next(iter(p.positions))),
            "pad_positions": lambda p: _bump(
                p.pad_positions, next(iter(p.pad_positions)), axis=1),
            "row_height_um": lambda p: setattr(p, "row_height_um",
                                               p.row_height_um * 2),
        }
        # A field added to Placement must be added here (and so to the
        # digest) before this test passes again.
        assert set(perturb) == {f.name for f in dataclasses.fields(
            Placement)}
        for name, edit in perturb.items():
            placement = placed_cloud(lib)
            base = placement_key(placement)
            edit(placement)
            assert placement_key(placement) != base, name

    def test_fresh_name_counter_changes_key(self, lib):
        placement = placed_cloud(lib)
        base = placement_key(placement)
        placement.netlist._counter += 1
        assert placement_key(placement) != base

    def test_insertion_order_does_not_change_key(self, lib):
        placement = placed_cloud(lib)
        twin = Placement(
            netlist=placement.netlist, die_w_um=placement.die_w_um,
            die_h_um=placement.die_h_um,
            positions=dict(reversed(placement.positions.items())),
            pad_positions=dict(reversed(
                placement.pad_positions.items())),
            row_height_um=placement.row_height_um)
        assert list(twin.positions) != list(placement.positions)
        assert placement_key(twin) == placement_key(placement)

    def test_codec_roundtrip_keeps_key(self, lib):
        placement = placed_cloud(lib)
        clone = decode_value(encode_value(placement))
        assert placement_key(clone) == placement_key(placement)

    def test_empty_tables_are_keyed(self, lib):
        nl = small_design(lib)
        empty = Placement(netlist=nl, die_w_um=10.0, die_h_um=10.0)
        one_pad = Placement(netlist=nl, die_w_um=10.0, die_h_um=10.0,
                            pad_positions={"a": (0.0, 0.0)})
        assert placement_key(empty) != placement_key(one_pad)

    def test_key_cost_does_not_grow_with_the_design(self, lib,
                                                    monkeypatch):
        real = hashlib.sha256
        created = []

        def counting(*args, **kwargs):
            created.append(1)
            return real(*args, **kwargs)

        small = placed_cloud(lib, 500, 16)
        # The empty placement pins that the columnar digest, not a
        # per-entry fallback walk, keys empty tables too.
        designs = [Placement(netlist=small.netlist, die_w_um=10.0,
                             die_h_um=10.0),
                   small, placed_cloud(lib, 2000, 32)]
        counts = []
        for placement in designs:
            placement_key(placement)     # memoize the netlist digest
            monkeypatch.setattr(hashlib, "sha256", counting)
            created.clear()
            placement_key(placement)
            monkeypatch.setattr(hashlib, "sha256", real)
            counts.append(len(created))
        assert len(set(counts)) == 1, counts


# ----------------------------------------------------------------------
# Executor: one attempt per stage, degradation


class TestExecutor:
    def test_required_failure_raises_strict(self):
        with pytest.raises(StageError, match="dead") as info:
            run_stages((Stage("dead", lambda ctx: 1 / 0),), {})
        assert isinstance(info.value.cause, ZeroDivisionError)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_stage_error_pickles(self):
        err = pickle.loads(pickle.dumps(
            StageError("dead", ValueError("boom"))))
        assert err.stage == "dead" and str(err) == \
            "stage 'dead' failed: ValueError('boom')"
        assert isinstance(err.cause, ValueError)

    def test_interrupt_is_not_a_stage_failure(self):
        def interrupted(ctx):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_stages((Stage("ctrl_c", interrupted),), {})

    def test_retired_retry_and_timeout_knobs_raise(self):
        for knob in ("retries", "timeout_s", "backoff_s"):
            with pytest.raises(TypeError, match=knob):
                Stage("s", lambda ctx: 1, **{knob: 1})
        with pytest.raises(TypeError, match="max_retries"):
            run(None, None, FlowOptions(), max_retries=3)
        with pytest.raises(TypeError, match="version"):
            Stage("s", lambda ctx: 1, version="2")

    @pytest.mark.parametrize("knob",
                             ["strict", "dag", "lint", "sanitize"])
    def test_retired_flow_knobs_raise(self, knob, tmp_path):
        with pytest.raises(TypeError, match=knob):
            run(None, None, FlowOptions(), **{knob: None})
        with pytest.raises(TypeError, match=knob):
            resume_run("r", journal_root=tmp_path, **{knob: None})
        with pytest.raises(TypeError, match="cacheable"):
            Stage("s", lambda ctx: 1, cacheable=False)
        # Parallel sweeps share ``cache.disk_dir``; a resume is not
        # fault-injected.
        with pytest.raises(TypeError, match="cache_dir"):
            run_sweep(None, None, [], cache_dir=tmp_path)
        with pytest.raises(TypeError, match="chaos"):
            resume_run("r", journal_root=tmp_path, chaos=None)
        # A journaled run is a run over its own store: the executor
        # takes one tuple of stores, and there is no journal replay.
        for retired in ("journal", "cache"):
            with pytest.raises(TypeError, match=retired):
                run_stages((), {}, **{retired: None})
        with pytest.raises(TypeError, match="journal_root"):
            run_sweep(None, None, [], journal_root=tmp_path)
        for name in ("record", "entries", "replay", "index_path"):
            assert not hasattr(RunJournal, name), name

    def test_optional_failure_degrades_and_dependents_run(self):
        table = (Stage("base", lambda ctx: 10),
                 Stage("shaky", lambda ctx: 1 / 0,
                       deps=("base",), optional=True),
                 Stage("after", lambda ctx: (ctx["base"], ctx["shaky"]),
                       deps=("base", "shaky")))
        run = run_stages(table, {})
        assert run.status == "degraded"
        assert run.outputs["shaky"] is None
        assert run.outputs["after"] == (10, None)

    def test_required_failure_skips_dependents(self):
        table = (Stage("boom", lambda ctx: 1 / 0),
                 Stage("child", lambda ctx: 1, deps=("boom",)),
                 Stage("island", lambda ctx: 2))
        sink = TelemetrySink()
        with pytest.raises(StageError, match="boom"):
            run_stages(table, {}, sink=sink)
        assert [(s.stage, s.status) for s in sink.spans] == \
            [("boom", "failed"), ("child", "skipped")]

    def test_caching_skips_execution(self):
        calls = {"n": 0}

        def expensive(ctx):
            calls["n"] += 1
            return ctx["x"] * 2

        table = (Stage("double", expensive, params=("x",)),)
        cache = ResultCache()
        sink = TelemetrySink()
        first = run_stages(table, {"x": 21}, caches=(cache,))
        again = run_stages(table, {"x": 21}, caches=(cache,), sink=sink)
        other = run_stages(table, {"x": 4}, caches=(cache,))
        assert first.outputs["double"] == again.outputs["double"] == 42
        assert other.outputs["double"] == 8
        assert calls["n"] == 2   # second run replayed from cache
        assert [s.cache for s in sink.spans] == ["hit"]


# ----------------------------------------------------------------------
# The implement flow on the stage table


def _qor(result):
    return (result.delay_ps, result.power_uw, result.hpwl_um,
            result.routed_wirelength, result.overflow,
            result.instances, result.area_um2)


class TestImplementDag:
    def test_legacy_wrapper_unchanged(self, lib):
        nl = small_design(lib)
        result = run(nl, lib, FlowOptions(scan=True, cts=True))
        # Scan goes into a copy: the subject keeps its plain flops.
        assert result.netlist is not nl
        assert any(g.cell.is_scan
                   for g in result.netlist.sequential_gates())
        assert not any(g.cell.is_scan for g in nl.sequential_gates())
        assert result.status == "ok"
        assert set(result.stage_runtimes) == {
            "synthesis", "placement", "dft", "cts", "routing",
            "signoff"}

    def test_cached_rerun_skips_every_stage(self, lib):
        cache = ResultCache()
        sink1, sink2 = TelemetrySink(), TelemetrySink()
        opts = FlowOptions(scan=True, cts=True)
        first = run(small_design(lib), lib, opts,
                    cache=cache, telemetry=sink1)
        second = run(small_design(lib), lib, opts,
                     cache=cache, telemetry=sink2)
        assert [s.cache for s in sink1.spans] == ["miss"] * 6
        assert [s.cache for s in sink2.spans] == ["hit"] * 6
        assert (first.delay_ps, first.power_uw, first.hpwl_um,
                first.routed_wirelength) == \
               (second.delay_ps, second.power_uw, second.hpwl_um,
                second.routed_wirelength)

    def test_knob_change_reruns_only_downstream(self, lib):
        cache = ResultCache()
        run(small_design(lib), lib, FlowOptions(), cache=cache)
        sink = TelemetrySink()
        run(small_design(lib), lib, FlowOptions(routing_iterations=2),
            cache=cache, telemetry=sink)
        dispositions = {s.stage: s.cache for s in sink.spans}
        assert dispositions["routing"] == "miss"
        for stage in ("synthesis", "placement", "dft", "cts",
                      "signoff"):
            assert dispositions[stage] == "hit", stage

    def test_run_db_gets_telemetry(self, lib):
        # The record holds the very spans the caller's sink received.
        db = RunDatabase()
        sink = TelemetrySink()
        run(small_design(lib), lib, FlowOptions.basic(), run_db=db,
            telemetry=sink)
        assert len(db) == 1
        record = db.records[0]
        assert record.spans == sink.spans
        assert [s.stage for s in record.spans] == \
            [stage.name for stage in STAGES]
        assert record.run_id is None      # not journaled
        profile = sink.report().by_stage
        assert all(p["calls"] == 1 for p in profile.values())

    def test_run_db_knobs_are_the_dag_knobs(self, lib):
        db = RunDatabase()
        run(small_design(lib), lib, FlowOptions(), run_db=db)
        knobs = db.records[0].knobs
        assert set(knobs) == {knob for stage in STAGES
                              for knob in stage.knobs}
        assert knobs["routing_layers"] == 6

    def test_run_has_no_jobs_option(self, lib):
        with pytest.raises(TypeError, match="jobs"):
            run(small_design(lib), lib, FlowOptions(), jobs=2)

    def test_one_subject_runs_twice_with_scan(self, lib):
        design = small_design(lib)
        digest = design.content_digest()
        opts = FlowOptions(scan=True, cts=True)
        first = run(design, lib, opts)
        second = run(design, lib, opts)
        assert _qor(first) == _qor(second)
        assert design.content_digest() == digest
        assert first.netlist.content_digest() == \
            second.netlist.content_digest() != digest

    def test_unwritable_cache_disk_costs_only_the_caching(
            self, lib, tmp_path, monkeypatch):
        def disk_full(path, data):
            raise OSError(errno.ENOSPC, "No space left on device",
                          str(path))

        design = registered_cloud(8, 24, 300, lib, seed=0)
        clean = run(design, lib, FlowOptions(cts=True))
        monkeypatch.setattr(repro.orchestrate.cache, "atomic_write",
                            disk_full)
        cache = ResultCache(disk_dir=tmp_path)
        sink = TelemetrySink()
        result = run(design, lib, FlowOptions(cts=True), cache=cache,
                     telemetry=sink)
        assert [(s.stage, s.status) for s in sink.spans] == \
            [(name, "ok") for name in
             ("synthesis", "placement", "dft", "cts", "routing",
              "signoff")]
        assert _qor(result) == _qor(clean)
        assert cache.stats.write_failures == cache.stats.puts == 6
        assert list(tmp_path.iterdir()) == []
        assert len(cache) == 6          # the memory tier still serves


# ----------------------------------------------------------------------
# Sweeps


def _nap_flow(subject, library, options):
    """Stand-in flow job: sleeps like a tool run, returns its seed."""
    time.sleep(0.15)
    return options.seed


def _quick_flow(subject, library, options):
    return options.seed * 2


class TestSweep:
    def test_parallel_equals_serial_result_for_result(self, lib):
        options_list = [FlowOptions(seed=i, detailed_passes=1)
                        for i in range(4)]
        serial = run_sweep(small_design(lib), lib, options_list,
                           jobs=1)
        parallel = run_sweep(small_design(lib), lib, options_list,
                             jobs=2)
        def as_qor(r):
            return (r.delay_ps, r.power_uw, r.hpwl_um,
                    r.routed_wirelength, r.overflow)

        assert [as_qor(r) for r in serial.results] == \
               [as_qor(r) for r in parallel.results]

    def test_sweep_shares_cache_across_jobs(self, lib):
        # Two identical jobs: the second replays entirely from cache.
        cache = ResultCache()
        sink = TelemetrySink()
        sweep = run_sweep(small_design(lib), lib,
                          [FlowOptions(), FlowOptions()],
                          jobs=1, cache=cache, telemetry=sink)
        assert len(sweep.results) == 2
        assert cache.stats.hits == 6 and cache.stats.misses == 6
        hits = [s for s in sink.spans if s.cache == "hit"]
        assert {s.job for s in hits} == {1}

    def test_parallel_jobs_share_the_cache_disk_tier(self, lib, tmp_path):
        # Workers cannot see the parent's memory tier; the disk tier of
        # ``cache`` is how parallel jobs reuse stage results.
        options_list = [FlowOptions(routing_iterations=r) for r in (1, 2)]
        run_sweep(small_design(lib), lib, options_list, jobs=2,
                  cache=ResultCache(disk_dir=tmp_path))
        assert list(tmp_path.glob("*.pkl"))
        sink = TelemetrySink()
        run_sweep(small_design(lib), lib, options_list, jobs=2,
                  cache=ResultCache(disk_dir=tmp_path), telemetry=sink)
        assert [s.cache for s in sink.spans] == ["hit"] * 12
        assert [s.job for s in sink.spans] == [0] * 6 + [1] * 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_logs_one_record_per_job(self, lib, jobs):
        # Serial and pool sweeps alike: one run-database record per
        # job, in job order, holding that job's QoR and its spans.
        options_list = [FlowOptions(seed=i, routing_iterations=2)
                        for i in range(2)]
        db, sink = RunDatabase(), TelemetrySink()
        sweep = run_sweep(small_design(lib), lib, options_list, jobs=jobs,
                          telemetry=sink, run_db=db)
        assert len(db) == len(options_list)
        for job, (record, result) in enumerate(zip(db.records,
                                                   sweep.results)):
            assert record.spans
            assert record.spans == [s for s in sink.spans if s.job == job]
            assert record.knobs["seed"] == job
            assert record.qor == {
                "hpwl_um": result.hpwl_um, "overflow": result.overflow,
                "delay_ps": result.delay_ps, "power_uw": result.power_uw,
                "runtime_s": result.runtime_s}
            assert record.run_id is None

    def test_flow_fn_sweep_logs_nothing(self):
        db = RunDatabase()
        run_sweep(None, None, [FlowOptions()], flow_fn=_quick_flow,
                  run_db=db)
        assert len(db) == 0

    def test_empty_sweep_returns_no_results(self, lib):
        # ``jobs=2`` used to raise from ``multiprocessing.Pool(0)``.
        for jobs in (1, 2):
            sweep = run_sweep(small_design(lib), lib, [], jobs=jobs)
            assert len(sweep) == 0

    def test_subject_list_must_match(self, lib):
        with pytest.raises(ValueError, match="subjects"):
            run_sweep([1, 2], lib, [FlowOptions()], flow_fn=_quick_flow)

    def test_results_in_input_order(self):
        options_list = [FlowOptions(seed=i) for i in range(8)]
        sweep = run_sweep(None, None, options_list, jobs=3,
                          flow_fn=_quick_flow)
        assert sweep.results == [i * 2 for i in range(8)]

    @pytest.mark.benchmark
    def test_parallel_sweep_speedup(self):
        """run_sweep(jobs=4) on 8 jobs beats jobs=1 by >= 1.3x.

        Jobs are sleep-bound so the assertion measures scheduling
        concurrency, which holds on any core count (non-flaky).
        """
        options_list = [FlowOptions(seed=i) for i in range(8)]
        serial = run_sweep(None, None, options_list, jobs=1,
                           flow_fn=_nap_flow)
        parallel = run_sweep(None, None, options_list, jobs=4,
                             flow_fn=_nap_flow)
        assert serial.results == parallel.results
        assert serial.wall_s >= 1.3 * parallel.wall_s, \
            f"serial {serial.wall_s:.2f}s vs parallel " \
            f"{parallel.wall_s:.2f}s"


# ----------------------------------------------------------------------
# Telemetry


class TestTelemetry:
    def test_report_aggregates(self, lib):
        cache = ResultCache()
        sink = TelemetrySink()
        run(small_design(lib), lib, FlowOptions(), cache=cache,
            telemetry=sink)
        run(small_design(lib), lib, FlowOptions(), cache=cache,
            telemetry=sink)
        report = sink.report()
        assert report.spans == 12
        assert report.cache_hits == 6 and report.cache_misses == 6
        assert report.hit_rate == 0.5
        assert report.by_stage["routing"]["calls"] == 2
        assert "12 spans" in report.summary()

    def test_rundb_telemetry_persists(self, tmp_path, lib):
        db = RunDatabase()
        run(small_design(lib), lib, FlowOptions.basic(), run_db=db)
        path = tmp_path / "runs.json"
        db.save(path)
        loaded = RunDatabase.load(path)
        assert len(loaded) == 1
        spans = loaded.records[0].spans
        assert spans == db.records[0].spans
        assert len(spans) == 6
        before, after = TelemetrySink(), TelemetrySink()
        before.extend(db.records[0].spans)
        after.extend(spans)
        assert after.report() == before.report()

    def test_rundb_loads_legacy_list_format(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text('[{"design": "d", "features": {}, '
                        '"knobs": {}, "qor": {}, "tags": []}]')
        with pytest.raises(ValueError, match="legacy.json"):
            RunDatabase.load(path)

    @pytest.mark.parametrize("key", ["telemetry", "recovery"])
    def test_rundb_refuses_separate_span_lists(self, tmp_path, key):
        # Spans live in their run's record; a file with a list beside
        # ``runs`` is refused instead of losing that list on load.
        path = tmp_path / "split.json"
        path.write_text('{"runs": [], "%s": []}' % key)
        with pytest.raises(ValueError, match=f"split.json.*{key}"):
            RunDatabase.load(path)


# ----------------------------------------------------------------------
# Retired names: one telemetry record, named chaos injection points,
# one analytic placement path


#: Each retired name, as ``Owner.attribute`` or ``callable-keyword``,
#: and an expression that uses it.  A retired keyword fails when the
#: call binds, before the body runs.
RETIRED = {
    "rundb.TelemetryRecord": lambda: repro.learn.rundb.TelemetryRecord,
    "rundb.RecoveryRecord": lambda: repro.learn.rundb.RecoveryRecord,
    "RunDatabase.telemetry": lambda: RunDatabase().telemetry,
    "RunDatabase.recovery": lambda: RunDatabase().recovery,
    "RunDatabase.log_telemetry": lambda: RunDatabase.log_telemetry,
    "RunDatabase.log_recovery": lambda: RunDatabase.log_recovery,
    "RunDatabase.stage_profile": lambda: RunDatabase.stage_profile,
    "TelemetrySink.emit_jsonl": lambda: TelemetrySink.emit_jsonl,
    "TelemetrySink.load_jsonl": lambda: TelemetrySink.load_jsonl,
    "RunResult.spans": lambda: run_stages((), {}).spans,
    "SweepResult.spans": lambda: run_sweep(None, None, []).spans,
    "route_placement-telemetry":
        lambda: route_placement(None, telemetry=None),
    "sequential_route-telemetry":
        lambda: sequential_route(None, telemetry=None),
    "ChaosPolicy-seed": lambda: ChaosPolicy(seed=0),
    "ChaosPolicy-crash_rate": lambda: ChaosPolicy(crash_rate=0.0),
    "ChaosPolicy-fail_rate": lambda: ChaosPolicy(fail_rate=0.0),
    "FlowOptions-spreading_passes":
        lambda: FlowOptions(spreading_passes=3),
    "analytic_place-max_iterations":
        lambda: analytic_place(None, max_iterations=24),
    "analytic.CLUSTER_ABOVE": lambda: repro.place.analytic.CLUSTER_ABOVE,
    "analytic._coarsen": lambda: repro.place.analytic._coarsen,
}


class TestRetiredNames:
    @pytest.mark.parametrize("case", list(RETIRED))
    def test_retired_name_is_gone(self, case):
        # An attribute raises AttributeError and a keyword TypeError,
        # each naming it.
        error = TypeError if "-" in case else AttributeError
        name = re.split(r"[.-]", case)[-1]
        with pytest.raises(error, match=f"'{name}'"):
            RETIRED[case]()
