"""Tests for the whole-flow engine registry (PR 10).

Every flow stage — synthesis, placement, CTS, routing, sizing — now
resolves through :mod:`repro.engines`.  Covered here: registry
round-trips for all five stages, did-you-mean hints for the new
stages, ``FlowOptions`` construction-time validation of the new knobs,
bit-identical default-flow results versus the pre-refactor hard-coded
paths (replicated inline), stage cache-key sensitivity to each new
engine knob, refusal of unknown engine names on run and resume, the
``axes()``/``engine_space()``/``engine_grid_options()`` ablation-grid
plumbing, and the ``python -m repro.engines`` CLI.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.flow import FlowOptions
from repro.engines import (
    UnknownEngineError,
    axes,
    default_engine,
    engine_names,
    get_engine,
    stage_names,
)
from repro.learn.tuner import engine_space
from repro.netlist import build_library, registered_cloud
from repro.netlist.generators import random_aig
from repro.orchestrate import (
    ResultCache,
    TelemetrySink,
    engine_grid_options,
    resume_run,
    run,
    run_sweep,
)
from repro.synthesis.flow import SynthesisFlow
from repro.tech import get_node

ALL_STAGES = ("synthesis", "placement", "cts", "routing", "sizing")

QUICK = dict(spreading_passes=1, detailed_passes=0,
             routing_iterations=1)


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"),
                         vt_flavors=("lvt", "rvt", "hvt"))


def seq_design(lib, seed=3, flops=16, gates=120):
    # Fresh per call: the flow mutates its subject (scan insertion).
    return registered_cloud(8, flops, gates, lib, seed=seed)


def qor(result):
    return (result.delay_ps, result.power_uw, result.hpwl_um,
            result.routed_wirelength, result.overflow,
            result.instances, result.area_um2)


# ----------------------------------------------------------------------
# Registry round-trip: all five stages


class TestFiveStages:
    def test_every_stage_registered(self):
        assert set(ALL_STAGES) <= set(stage_names())
        assert axes() == {s: engine_names(s) for s in stage_names()}

    def test_expected_engines_and_defaults(self):
        assert engine_names("synthesis") == ("area", "delay",
                                             "trivial")
        assert engine_names("cts") == ("htree", "spine")
        assert engine_names("sizing") == ("incremental", "scalar")
        assert default_engine("synthesis") == "area"
        assert default_engine("cts") == "htree"
        assert default_engine("sizing") == "incremental"

    @pytest.mark.parametrize("stage", ALL_STAGES)
    def test_round_trip_every_engine(self, stage):
        for name in engine_names(stage):
            spec = get_engine(stage, name)
            assert spec.stage == stage and spec.name == name
            assert callable(spec.load())
        assert default_engine(stage) in engine_names(stage)


# ----------------------------------------------------------------------
# Aliases, hints, and early FlowOptions validation


class TestAliasesAndValidation:
    def test_typo_gets_did_you_mean_hint(self):
        with pytest.raises(UnknownEngineError,
                           match=r"did you mean 'htree'"):
            get_engine("cts", "h-tree")
        with pytest.raises(UnknownEngineError,
                           match=r"did you mean 'incremental'"):
            get_engine("sizing", "incrmental")
        with pytest.raises(UnknownEngineError,
                           match=r"did you mean 'trivial'"):
            get_engine("synthesis", "trivail")

    def test_flow_options_reject_typos_early(self):
        with pytest.raises(ValueError, match="synth_engine"):
            FlowOptions(synth_engine="aera")
        with pytest.raises(ValueError, match="cts_engine"):
            FlowOptions(cts_engine="h-tree")
        with pytest.raises(ValueError, match="sizing_engine"):
            FlowOptions(sizing_engine="scaler")

    def test_retired_name_is_unknown_with_hint(self):
        with pytest.raises(UnknownEngineError,
                           match=r"did you mean 'spine'"):
            FlowOptions(cts_engine="naive_spine")

    def test_synthesis_flow_rejects_typo_in_constructor(self, lib):
        with pytest.raises(UnknownEngineError, match="synthesis"):
            SynthesisFlow(lib, engine="aera")
        with pytest.raises(UnknownEngineError, match="sizing"):
            SynthesisFlow(lib, sizing_engine="scaler")


# ----------------------------------------------------------------------
# Bit-identical default paths (before/after the refactor)


class TestDefaultParity:
    def test_default_mapper_matches_legacy_map_aig(self, lib):
        """The registry's default synthesis path reproduces the old
        hard-coded ``map_aig``/``size_gates``/``assign_vt`` sequence
        bit-for-bit (compared by canonical content digest)."""
        from repro.synthesis.mapping import map_aig
        from repro.synthesis.sizing import assign_vt, size_gates
        from repro.synthesis.rewrite import optimize_aig
        from repro.synthesis.network import LogicNetwork
        from repro.timing import WireModel

        def subject():
            return random_aig(8, 80, 4, seed=17)

        # The pre-refactor 2016-era body, replicated inline.
        wm = WireModel.for_node(lib.node)
        network = LogicNetwork.from_aig(subject())
        network.optimize(effort="high")
        aig = optimize_aig(network.to_aig(), effort="high")
        legacy = map_aig(aig, lib, mode="area", cut_size=4)
        size_gates(legacy, wire_model=wm, clock_period_ps=2000.0)
        assign_vt(legacy, wire_model=wm, clock_period_ps=2000.0)

        res = SynthesisFlow(lib, "2016", 2000.0).run(subject())
        assert res.netlist.to_packed().content_digest() == \
            legacy.to_packed().content_digest()

    def test_default_cts_matches_legacy_call(self, lib):
        from repro.place import global_place
        from repro.timing.cts import synthesize_clock_tree
        placed = global_place(seq_design(lib, flops=24, gates=160),
                              seed=0)
        kernel = get_engine("cts", "htree").load()
        via_registry = kernel(placed)
        direct = synthesize_clock_tree(placed)
        assert via_registry.sink_delays == direct.sink_delays
        assert via_registry.wirelength_um == direct.wirelength_um

    def test_default_flow_identical_to_explicit_engines(self, lib):
        """Named-default engines and implicit defaults are the same
        flow: sign-off-identical FlowResults."""
        implicit = run(seq_design(lib), lib,
                       FlowOptions(scan=True, cts=True, **QUICK))
        explicit = run(seq_design(lib), lib,
                       FlowOptions(scan=True, cts=True,
                                   synth_engine="area",
                                   place_engine="analytic",
                                   cts_engine="htree",
                                   routing_engine="batched",
                                   sizing_engine="incremental",
                                   **QUICK))
        assert qor(implicit) == qor(explicit)
        assert implicit.clock_skew_ps == explicit.clock_skew_ps

    def test_sizing_engines_bit_identical(self, lib):
        inc = SynthesisFlow(lib, "2016", 1000.0,
                            sizing_engine="incremental") \
            .run(random_aig(8, 80, 4, seed=9))
        sca = SynthesisFlow(lib, "2016", 1000.0,
                            sizing_engine="scalar") \
            .run(random_aig(8, 80, 4, seed=9))
        assert inc.netlist.to_packed().content_digest() == \
            sca.netlist.to_packed().content_digest()
        assert inc.delay_ps == sca.delay_ps

    def test_cts_engines_actually_differ(self, lib):
        opts = dict(cts=True, **QUICK)
        htree = run(seq_design(lib, flops=32, gates=200), lib,
                    FlowOptions(cts_engine="htree", **opts))
        spine = run(seq_design(lib, flops=32, gates=200), lib,
                    FlowOptions(cts_engine="spine", **opts))
        assert htree.clock_tree is not None
        assert spine.clock_tree is not None
        assert htree.clock_skew_ps < spine.clock_skew_ps


# ----------------------------------------------------------------------
# Cache keys: each new knob invalidates exactly its stage


class TestCacheKeys:
    def _span(self, lib, cache, stage, **kw):
        sink = TelemetrySink()
        run(seq_design(lib), lib, FlowOptions(cts=True, **QUICK, **kw),
            cache=cache, telemetry=sink)
        return next(s for s in sink.spans if s.stage == stage)

    @pytest.mark.parametrize("stage,knob,other", [
        ("synthesis", "synth_engine", "delay"),
        ("synthesis", "sizing_engine", "scalar"),
        ("cts", "cts_engine", "spine"),
    ])
    def test_engine_knob_in_stage_cache_key(self, lib, stage, knob,
                                            other):
        cache = ResultCache()
        assert self._span(lib, cache, stage).cache != "hit"
        # Same options again: the stage must replay from cache.
        assert self._span(lib, cache, stage).cache == "hit"
        # Flipping the engine knob must miss — then hit once cached.
        assert self._span(lib, cache, stage,
                          **{knob: other}).cache != "hit"
        assert self._span(lib, cache, stage,
                          **{knob: other}).cache == "hit"


# ----------------------------------------------------------------------
# Unknown engine names are refused, never replaced


class TestJournalResume:
    def test_unknown_engine_raises_on_run_and_resume(self, lib,
                                                     tmp_path):
        options = FlowOptions(cts=True, **QUICK)
        # Bypass construction-time validation the way an unpickled
        # journal record does.
        options.cts_engine = "engine-nobody-remembers"
        named = r"cts engine 'engine-nobody-remembers'"
        with pytest.raises(UnknownEngineError, match=named):
            run(seq_design(lib), lib, options,
                journal_root=tmp_path, run_id="unknown")
        with pytest.raises(UnknownEngineError, match=named):
            resume_run("unknown", journal_root=tmp_path)


# ----------------------------------------------------------------------
# The ablation grid: axes() -> engine_space -> run_sweep


class TestAblationGrid:
    def test_engine_space_grid_shape(self):
        space = engine_space(("synthesis", "cts", "sizing"))
        grid = space.grid()
        assert len(grid) == 3 * 2 * 2
        assert {tuple(sorted(g)) for g in grid} == {
            ("cts_engine", "sizing_engine", "synth_engine")}
        # Entries splat straight into FlowOptions.
        for knobs in grid:
            FlowOptions(**knobs)

    def test_engine_space_unknown_stage_raises(self):
        with pytest.raises(ValueError):
            engine_space(("no-such-stage",))

    def test_sweep_ablates_synthesis_x_cts_x_sizing(self, lib):
        """The acceptance-criteria sweep: every synthesis×CTS×sizing
        combination runs through ``run_sweep`` from one
        ``axes()``-derived grid."""
        options_list = engine_grid_options(
            stages=("synthesis", "cts", "sizing"), cts=True, **QUICK)
        assert len(options_list) == 12
        aig = random_aig(8, 60, 4, seed=5)
        sweep = run_sweep(aig, lib, options_list)
        assert len(sweep.results) == 12
        assert all(str(r.status) == "ok" for r in sweep.results)
        # The synthesis axis is a real ablation: different mappers
        # give different mapped netlists.
        by_mapper = {}
        for opts, res in zip(options_list, sweep.results):
            by_mapper.setdefault(opts.synth_engine,
                                 set()).add(res.instances)
        assert len({min(v) for v in by_mapper.values()}) >= 2


# ----------------------------------------------------------------------
# The catalog CLI


class TestEnginesCli:
    def _run(self, *args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.engines", *args],
            capture_output=True, text=True, env={"PYTHONPATH": src})

    def test_text_lists_all_stages(self):
        proc = self._run()
        assert proc.returncode == 0
        for stage in ALL_STAGES:
            assert stage in proc.stdout
        assert "* htree" in proc.stdout       # default marker

    def test_json_catalog_matches_registry(self):
        proc = self._run("--json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert set(ALL_STAGES) <= set(data)
        assert data["cts"]["default"] == "htree"
        names = [e["name"] for e in data["sizing"]["engines"]]
        assert names == list(engine_names("sizing"))
        assert set(data["cts"]) == {"default", "engines"}

    def test_single_stage_and_unknown_stage(self):
        proc = self._run("sizing")
        assert proc.returncode == 0
        assert "incremental" in proc.stdout
        assert "placement" not in proc.stdout
        bad = self._run("no-such-stage")
        assert bad.returncode == 2
        assert "unknown stage" in bad.stderr
