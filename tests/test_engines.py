"""Tests for the one kernel each flow stage runs, and for the checks
on the options that drive them.

Covered here: the synthesis and CTS stages give bit-identical results
to direct calls of their kernels (``map_aig``/``size_gates``/
``assign_vt`` and ``synthesize_clock_tree``), the retired
engine-selection names raise ``TypeError``, and
:meth:`FlowOptions.validate` rejects every out-of-range field at
construction and again before any stage of ``run`` or ``resume_run``.
"""

import math

import pytest

from repro.core.flow import FlowOptions
from repro.netlist import build_library, registered_cloud
from repro.netlist.generators import random_aig
from repro.orchestrate import (
    RunJournal,
    TelemetrySink,
    resumable_runs,
    resume_run,
    run,
)
from repro.synthesis.flow import SynthesisFlow
from repro.tech import get_node

QUICK = dict(detailed_passes=0, routing_iterations=1)


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"),
                         vt_flavors=("lvt", "rvt", "hvt"))


def seq_design(lib, seed=3, flops=16, gates=120):
    return registered_cloud(8, flops, gates, lib, seed=seed)


# ----------------------------------------------------------------------
# Retired names and out-of-range options


class TestAliasesAndValidation:
    def test_flow_options_reject_typos_early(self):
        for knob in ("synth_engine", "place_engine", "cts_engine",
                     "routing_engine", "sizing_engine", "utilisation"):
            with pytest.raises(TypeError, match=knob):
                FlowOptions(**{knob: "area"})

    def test_synthesis_flow_rejects_typo_in_constructor(self, lib):
        with pytest.raises(TypeError, match="engine"):
            SynthesisFlow(lib, engine="area")
        with pytest.raises(TypeError, match="sizing_engine"):
            SynthesisFlow(lib, sizing_engine="scalar")

    @pytest.mark.parametrize("field,value", [
        ("era", "2026"),
        ("era", 2016),
        ("utilization", True),
        ("utilization", 1.5),
        ("utilization", math.nan),
        ("detailed_passes", -1),
        ("detailed_passes", 1.0),
        ("routing_layers", True),
        ("routing_iterations", 0),
        ("gcell_um", math.inf),
        ("gcell_um", 0.0),
        ("scan", "no"),
        ("scan", 1),
        ("scan_chains", 0),
        ("layout_aware_scan", None),
        ("cts", "yes"),
        ("clock_period_ps", math.nan),
        ("clock_period_ps", -500.0),
        ("freq_ghz", -1.0),
        ("freq_ghz", True),
        ("seed", -1),
        ("seed", True),
    ])
    def test_flow_options_reject_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field}="):
            FlowOptions(**{field: value})


# ----------------------------------------------------------------------
# Each stage is its kernel, bit for bit


class TestDefaultParity:
    def test_default_mapper_matches_legacy_map_aig(self, lib):
        """The 2016 recipe is the ``map_aig``/``size_gates``/
        ``assign_vt`` sequence, bit for bit (compared by canonical
        content digest)."""
        from repro.synthesis.mapping import map_aig
        from repro.synthesis.sizing import assign_vt, size_gates
        from repro.synthesis.rewrite import optimize_aig
        from repro.synthesis.network import LogicNetwork
        from repro.timing import WireModel

        def subject():
            return random_aig(8, 80, 4, seed=17)

        # The 2016-era body, replicated inline.
        wm = WireModel.for_node(lib.node)
        network = LogicNetwork.from_aig(subject())
        network.optimize(effort="high")
        aig = optimize_aig(network.to_aig())
        legacy = map_aig(aig, lib, cut_size=4)
        size_gates(legacy, wire_model=wm, clock_period_ps=2000.0)
        assign_vt(legacy, wire_model=wm, clock_period_ps=2000.0)

        res = SynthesisFlow(lib, "2016", 2000.0).run(subject())
        assert res.netlist.to_packed().content_digest() == \
            legacy.to_packed().content_digest()

    def test_default_cts_matches_legacy_call(self, lib):
        from repro.timing.cts import synthesize_clock_tree
        result = run(seq_design(lib, flops=24, gates=160), lib,
                     FlowOptions(cts=True, **QUICK))
        direct = synthesize_clock_tree(result.placement)
        assert result.clock_tree.sink_delays == direct.sink_delays
        assert result.clock_tree.wirelength_um == direct.wirelength_um


# ----------------------------------------------------------------------
# Options that skipped the constructor check are refused before any
# stage runs


class TestJournalResume:
    def test_changed_options_raise_before_any_stage(self, lib):
        options = FlowOptions(cts=True, **QUICK)
        options.utilization = 2.0
        sink = TelemetrySink()
        with pytest.raises(ValueError, match=r"^utilization=2\.0"):
            run(seq_design(lib), lib, options, telemetry=sink)
        assert sink.spans == []

    def test_out_of_range_journal_options_raise_on_resume(
            self, lib, tmp_path):
        # Out-of-range options pickled into a journal's inputs, as a
        # build with looser checks could have written them.
        options = FlowOptions(**QUICK)
        options.freq_ghz = -1.0
        RunJournal.create(tmp_path, "bad", seq_design(lib), lib, options)
        sink = TelemetrySink()
        with pytest.raises(ValueError, match=r"^freq_ghz=-1\.0"):
            resume_run("bad", journal_root=tmp_path, telemetry=sink)
        assert sink.spans == []
        assert resumable_runs(tmp_path) == ["bad"]
        assert not RunJournal.open(tmp_path, "bad").is_complete
