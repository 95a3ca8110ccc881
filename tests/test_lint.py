"""Tests for repro.lint: netlist rules, purity, gating.

Covers the full static-analysis surface: the fixture sweep over every
generator/benchmark circuit (all must be error-clean), seeded
violations for each netlist rule, waivers and report export, the stage
table checks the executor makes on every run (which replaced the flow
lint rules), the AST purity checker, the flow's pre-run netlist lint,
and the invariant that the shipped stage table is purity-clean.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lint
from repro.lint import (
    INVARIANT_RULE_IDS,
    LintConfig,
    REGISTRY,
    Severity,
    Waivers,
    check_stage_purity,
    lint_design,
    lint_flow,
    lint_netlist,
)
from repro.lint.__main__ import main as lint_main
from repro.netlist import build_library, random_aig
from repro.netlist.benchmark_circuits import all_benchmark_circuits
from repro.netlist.circuit import Netlist
from repro.netlist.generators import (
    carry_lookahead_adder,
    crossbar_switch,
    hierarchical_soc,
    lfsr,
    logic_cloud,
    multiplier,
    registered_cloud,
    ripple_carry_adder,
)
from repro.netlist.io import write_verilog
from repro.orchestrate import (
    STAGES,
    FlowOptions,
    ResultCache,
    Stage,
    StageError,
    TelemetrySink,
    run,
    run_stage,
    run_stages,
)
from repro.tech import get_node


LIB = build_library(get_node("28nm"),
                    vt_flavors=("lvt", "rvt", "hvt"))


@pytest.fixture(scope="module")
def lib():
    return LIB


def _all_generator_circuits(lib):
    yield "rca16", ripple_carry_adder(16, lib)
    yield "cla16", carry_lookahead_adder(16, lib)
    yield "mult8", multiplier(8, lib)
    yield "cloud", logic_cloud(16, 8, 300, lib, seed=3)
    yield "regcloud", registered_cloud(12, 16, 250, lib, seed=5)
    yield "xbar", crossbar_switch(4, 4, lib)
    yield "lfsr16", lfsr(16, lib)


# ----------------------------------------------------------------------
# Satellite: fixture sweep — every shipped circuit is error-clean.


class TestFixtureSweep:
    def test_generators_error_clean(self, lib):
        for name, nl in _all_generator_circuits(lib):
            report = lint_netlist(nl)
            assert not report.errors, \
                f"{name}: {[str(f) for f in report.errors]}"

    def test_benchmarks_error_and_warning_clean(self, lib):
        for name, nl in all_benchmark_circuits(lib).items():
            report = lint_netlist(nl)
            assert not report.errors, \
                f"{name}: {[str(f) for f in report.errors]}"
            # The hand-built benchmark circuits carry no dead logic
            # either (the priority encoder used to).
            assert not report.warnings, \
                f"{name}: {[str(f) for f in report.warnings]}"

    def test_hierarchical_soc_clean(self, lib):
        soc = hierarchical_soc(3, 80, lib, seed=2)
        report = lint_design(soc)
        assert not report.errors, \
            [str(f) for f in report.errors]

    def test_clean_report_renders(self, lib):
        report = lint_netlist(lfsr(8, lib))
        assert report.ok
        assert "0 errors" in report.summary()


# ----------------------------------------------------------------------
# Netlist rules, one seeded violation each.


class TestNetlistRules:
    def test_net001_undriven_pin(self, lib):
        nl = lfsr(8, lib)
        gate = next(iter(nl.gates.values()))
        gate.pins[next(iter(gate.pins))] = "ghost_net"
        report = lint_netlist(nl)
        assert any(f.rule_id == "NET-001" for f in report.errors)

    def test_net002_multi_driven(self, lib):
        nl = lfsr(8, lib)
        gates = list(nl.gates.values())
        gates[4].output = gates[2].output   # bypasses the API guard
        report = lint_netlist(nl)
        finding = next(f for f in report.errors
                       if f.rule_id == "NET-002")
        assert gates[2].output in finding.message

    def test_net004_dangling_po(self, lib):
        nl = lfsr(8, lib)
        nl.primary_outputs.append("no_such_net")
        report = lint_netlist(nl)
        assert any(f.rule_id == "NET-004" for f in report.errors)

    def test_net004_duplicate_po_downgrades(self, lib):
        nl = lfsr(8, lib)
        nl.primary_outputs.append(nl.primary_outputs[0])
        report = lint_netlist(nl)
        dupes = [f for f in report.findings if f.rule_id == "NET-004"]
        assert dupes and all(f.severity is Severity.WARNING
                             for f in dupes)

    def test_net005_combinational_cycle(self, lib):
        nl = Netlist("loop", lib)
        a = nl.add_input("a")
        g1 = nl.add_gate("NAND2_X1_rvt", [a, a])
        g2 = nl.add_gate("NAND2_X1_rvt", [g1.output, a])
        nl.add_output(g2.output)
        g1.pins["B"] = g2.output            # close the comb loop
        report = lint_netlist(nl)
        assert any(f.rule_id == "NET-005" for f in report.errors)

    def test_net006_fanout_overload(self, lib):
        nl = Netlist("fan", lib)
        a = nl.add_input("a")
        src = nl.add_gate("INV_X1_rvt", [a]).output
        for _ in range(10):
            nl.add_output(nl.add_gate("INV_X1_rvt", [src]).output)
        report = lint_netlist(nl, config=LintConfig(max_fanout=4))
        assert any(f.rule_id == "NET-006" for f in report.warnings)

    def test_net007_dead_cone(self, lib):
        nl = Netlist("dead", lib)
        a = nl.add_input("a")
        live = nl.add_gate("INV_X1_rvt", [a]).output
        nl.add_output(live)
        nl.add_gate("INV_X1_rvt", [a])      # output never consumed
        report = lint_netlist(nl)
        assert any(f.rule_id == "NET-007" for f in report.warnings)

    def test_net008_hierarchy_port_mismatch(self, lib):
        soc = hierarchical_soc(2, 60, lib, seed=1)
        # Point one instance port map at a nonexistent module port.
        inst = soc.instances[0]
        port = next(iter(inst.input_map))
        inst.input_map["bogus_port"] = inst.input_map.pop(port)
        report = lint_design(soc)
        finding = next(f for f in report.errors
                       if f.rule_id == "NET-008")
        assert "bogus_port" in finding.message

    def test_finding_cap_truncates(self, lib):
        nl = Netlist("dead", lib)
        a = nl.add_input("a")
        nl.add_output(nl.add_gate("INV_X1_rvt", [a]).output)
        for _ in range(30):
            nl.add_gate("INV_X1_rvt", [a])
        config = LintConfig(max_findings_per_rule=5)
        report = lint_netlist(nl, config=config)
        dead = [f for f in report.findings if f.rule_id == "NET-007"]
        assert len(dead) == 5
        assert report.truncated.get("NET-007", 0) >= 25

    @pytest.mark.parametrize("cap", [0, -1])
    def test_finding_cap_below_one_rejected(self, lib, tmp_path, cap):
        # A cap below 1 used to truncate every error away and report a
        # broken netlist clean (exit 0, ``"ok": true``).
        nl = lfsr(8, lib)
        gate = next(iter(nl.gates.values()))
        gate.pins[next(iter(gate.pins))] = "ghost_net"   # NET-001
        path = tmp_path / "bad.v"
        path.write_text(write_verilog(nl))
        assert lint_main([str(path)]) == 1
        with pytest.raises(ValueError, match="max_findings_per_rule"):
            LintConfig(max_findings_per_rule=cap)
        with pytest.raises(SystemExit) as exit_info:
            lint_main([str(path), f"--max-findings={cap}"])
        assert exit_info.value.code == 2


# ----------------------------------------------------------------------
# Waivers and report export.


class TestReports:
    def test_waiver_marks_not_drops(self, lib):
        nl = lfsr(8, lib)
        nl.primary_outputs.append("no_such_net")
        waivers = Waivers()
        waivers.add("NET-004", "*", reason="known dangling")
        report = lint_netlist(nl, waivers=waivers)
        assert report.ok                     # waived => gate passes
        waived = [f for f in report.findings if f.waived]
        assert waived and waived[0].waive_reason == "known dangling"

    def test_waiver_file_roundtrip(self, lib, tmp_path):
        path = tmp_path / "waivers.txt"
        path.write_text("# project waivers\n"
                        "NET-007 u_inv* # scaffold cones\n")
        waivers = Waivers.load(path)
        nl = Netlist("dead", lib)
        a = nl.add_input("a")
        nl.add_output(nl.add_gate("INV_X1_rvt", [a]).output)
        nl.add_gate("INV_X1_rvt", [a])
        report = lint_netlist(nl, waivers=waivers)
        assert all(f.waived for f in report.findings
                   if f.rule_id == "NET-007")

    def test_json_export_shape(self, lib):
        nl = lfsr(8, lib)
        nl.primary_outputs.append("no_such_net")
        payload = json.loads(lint_netlist(nl).to_json())
        assert payload["schema_version"] >= 1
        assert payload["counts"]["errors"] >= 1
        finding = payload["findings"][0]
        assert {"rule_id", "severity", "message",
                "location"} <= set(finding)

    def test_sarif_export_shape(self, lib):
        nl = lfsr(8, lib)
        nl.primary_outputs.append("no_such_net")
        sarif = lint_netlist(nl).to_sarif()
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in
                    run["tool"]["driver"]["rules"]}
        assert "NET-004" in rule_ids
        assert any(r["ruleId"] == "NET-004"
                   for r in run["results"])

    def test_registry_ids_unique_and_scoped(self):
        ids = REGISTRY.ids()
        assert len(ids) == len(set(ids))
        assert {"NET-001", "NET-002"} <= set(REGISTRY.ids("netlist"))
        assert REGISTRY.ids("hierarchy") == ["NET-008"]


# ----------------------------------------------------------------------
# Satellite: the driver guards behind the linter's back.


class TestDriverGuards:
    def test_add_gate_rejects_second_driver(self, lib):
        nl = lfsr(8, lib)
        victim = next(iter(nl.gates.values())).output
        with pytest.raises(ValueError, match="already driven"):
            nl.add_gate("INV_X1_rvt", [nl.primary_inputs[0]],
                        output=victim)

    def test_add_gate_rejects_phantom_pins(self, lib):
        nl = Netlist("t", lib)
        a = nl.add_input("a")
        b = nl.add_input("b")
        with pytest.raises(ValueError, match="no pins"):
            nl.add_gate("INV_X1_rvt", {"A": a, "Z": b})

    def test_rewire_pin_rejects_unknown_net(self, lib):
        nl = lfsr(8, lib)
        gate = next(iter(nl.gates.values()))
        pin = next(iter(gate.pins))
        with pytest.raises(ValueError, match="does not exist"):
            nl.rewire_pin(gate.name, pin, "phantom_net")

    def test_rewire_pin_to_driven_net_still_works(self, lib):
        nl = lfsr(8, lib)
        gates = list(nl.gates.values())
        pin = next(iter(gates[0].pins))
        nl.rewire_pin(gates[0].name, pin, gates[-1].output)
        assert gates[0].pins[pin] == gates[-1].output


# ----------------------------------------------------------------------
# The stage table: what the retired FLOW rules checked, the executor
# enforces on every run; ``lint_flow`` is the purity check of a table.


def _stage_ok(ctx):
    return ctx["subject"]


def _stage_typo(ctx):
    return ctx["sythesis"]          # deliberate ctx-key typo


def _reads_bound_option(ctx):
    options = ctx["options"]
    return options.seed + options.utilization


def _reads_unpacked_option(ctx):
    subject, options = ctx["subject"], ctx["options"]
    return subject if options.seed else options.utilization


def _reads_option_inline(ctx):
    return ctx["options"].seed * ctx["options"].utilization


def _reads_option_through_two_names(ctx):
    options: object = ctx["options"]
    opts = options
    return opts.seed + opts.utilization


def _reads_option_through_a_chained_assignment(ctx):
    opts = options = ctx["options"]
    return opts.seed + options.utilization


def _utilization(options):
    return options.utilization


def _passes_options_whole(ctx):
    return _utilization(ctx["options"])


def _reads_option_by_name(ctx):
    options = ctx.get("options")
    return sum(getattr(options, name) for name in ("seed", "utilization"))


def _passes_ctx_whole(ctx):
    return _reads_bound_option(ctx)


def _reads_knobs_only(ctx):
    opts = ctx["options"]
    return opts.seed


def _run_specimen(fn, knobs, cache=None):
    table = (Stage("s", fn, params=("subject", "options"), knobs=knobs),)
    return run_stages(table, {"subject": 1, "options": FlowOptions()},
                      cache=cache)


def _assert_fails_outside_knobs(fn):
    """``fn``, as a stage whose only knob is ``seed``, fails on its
    ``options.utilization`` read, with a cache and without."""
    for cache in (None, ResultCache()):
        with pytest.raises(StageError, match="'s'") as info:
            _run_specimen(fn, ("seed",), cache)
        assert isinstance(info.value.__cause__, AttributeError)
        assert "utilization" in str(info.value.__cause__)


class TestFlowRules:
    def test_missing_producer(self):
        ran = []
        sink = TelemetrySink()
        table = (Stage("a", ran.append, params=("subject",)),
                 Stage("b", _stage_ok, deps=("nonexistent",)))
        for cache in (None, ResultCache()):
            with pytest.raises(ValueError,
                               match="stage 'b' .*names no earlier stage"):
                run_stages(table, {"subject": 1}, cache=cache, sink=sink)
        assert ran == [] and sink.spans == []

    def test_stage_cycle(self):
        # A cycle needs a dep on a later stage: the table is refused at
        # the first stage of the cycle, before either stage runs.
        ran = []
        table = (Stage("a", ran.append, deps=("b",)),
                 Stage("b", ran.append, deps=("a",)))
        with pytest.raises(ValueError,
                           match="stage 'a' depends on 'b', which names "
                                 "no earlier stage"):
            run_stages(table, {})
        assert ran == []

    def test_retired_graph_rules_are_gone(self):
        assert not [i for i in REGISTRY.ids() if i.startswith("FLOW-")]
        for name in ("DEFAULT_RUN_PARAMS", "FlowLintContext",
                     "check_flow_purity"):
            assert not hasattr(repro.lint, name)
        with pytest.raises(TypeError):
            lint_flow(STAGES, FlowOptions())

    def test_unknown_knob(self):
        ran = []
        sink = TelemetrySink()
        table = (Stage("a", ran.append, params=("subject",)),
                 Stage("b", _reads_knobs_only, params=("options",),
                       knobs=("seed", "utilizatoin")))   # typo
        for cache in (None, ResultCache()):
            with pytest.raises(ValueError, match="'utilizatoin'"):
                run_stages(table, {"subject": 1, "options": FlowOptions()},
                           cache=cache, sink=sink)
            # A direct call checks its one stage the same way.
            with pytest.raises(ValueError,
                               match="stage 'b' .*'utilizatoin'"):
                run_stage(table[1], {"options": FlowOptions()},
                          cache=cache)
        assert ran == [] and sink.spans == []

    def test_unprovided_param(self):
        ran = []
        sink = TelemetrySink()
        table = (Stage("a", ran.append, params=("subject",)),
                 Stage("b", _stage_ok, params=("no_such_param",)))
        with pytest.raises(ValueError, match="'no_such_param'"):
            run_stages(table, {"subject": 1}, sink=sink)
        with pytest.raises(ValueError, match="stage 'b' .*'no_such_param'"):
            run_stage(table[1], {"subject": 1})
        assert ran == [] and sink.spans == []

    def test_undeclared_ctx_read(self):
        # A stage's ctx holds its declared keys only.
        table = (Stage("synthesis", _stage_ok, params=("subject",)),
                 Stage("place", _stage_typo, deps=("synthesis",)))
        with pytest.raises(StageError, match="'place'") as info:
            run_stages(table, {"subject": 1})
        assert isinstance(info.value.__cause__, KeyError)
        assert "sythesis" in str(info.value.__cause__)

    @pytest.mark.parametrize("fn", [_reads_bound_option,
                                    _reads_unpacked_option,
                                    _reads_option_inline,
                                    _reads_option_through_two_names])
    def test_option_read_outside_knobs(self, fn):
        _assert_fails_outside_knobs(fn)
        # Without knobs the stage sees every option.
        assert _run_specimen(fn, ()).status == "ok"

    @pytest.mark.parametrize("fn", [
        _passes_options_whole, _reads_option_by_name, _passes_ctx_whole,
        _reads_option_through_a_chained_assignment])
    def test_options_used_whole(self, fn):
        # Options (or ctx) handed on whole, or read by a computed name,
        # stay held to the knobs: within them the stage runs, and a
        # read outside them fails wherever it happens.
        assert _run_specimen(fn, ("seed", "utilization")).status == "ok"
        _assert_fails_outside_knobs(fn)

    def test_option_reads_through_an_alias_within_knobs(self):
        run = _run_specimen(_reads_knobs_only, ("seed",))
        assert run.outputs["s"] == FlowOptions().seed
        # The options a stage sees hold its knobs and nothing else.
        table = (Stage("s", lambda ctx: ctx["options"],
                       params=("options",), knobs=("seed", "cts")),)
        seen = run_stages(table, {"options": FlowOptions()}).outputs["s"]
        assert vars(seen) == {"seed": 0, "cts": False}

    def test_implement_dag_is_clean(self):
        # The shipped table passes the purity check.
        report = lint_flow(STAGES)
        assert not report.errors, [str(f) for f in report.errors]
        assert not report.warnings, \
            [str(f) for f in report.warnings]

    def test_flow_lint_overhead_under_50ms(self):
        assert lint_flow(STAGES).wall_s < 0.050


# ----------------------------------------------------------------------
# Purity checker.


class TestPurity:
    def test_unseeded_random_flagged(self):
        from _lint_stage_samples import draws_random
        findings = check_stage_purity(draws_random)
        assert any(f.rule_id == "PURE-002" and
                   f.severity is Severity.ERROR for f in findings)

    def test_wall_clock_flagged(self):
        from _lint_stage_samples import reads_clock
        findings = check_stage_purity(reads_clock)
        assert any(f.rule_id == "PURE-001" for f in findings)

    def test_environ_read_flagged(self):
        from _lint_stage_samples import reads_env
        findings = check_stage_purity(reads_env)
        assert any(f.rule_id == "PURE-003" for f in findings)

    def test_global_mutation_flagged(self):
        from _lint_stage_samples import mutates_global
        findings = check_stage_purity(mutates_global)
        assert any(f.rule_id == "PURE-004" for f in findings)

    def test_seeded_rng_is_clean(self):
        from _lint_stage_samples import seeded_rng
        findings = check_stage_purity(seeded_rng)
        assert not [f for f in findings
                    if f.severity is Severity.ERROR]

    def test_inline_waiver_marks_finding(self):
        from _lint_stage_samples import waived_clock
        findings = check_stage_purity(waived_clock)
        flagged = [f for f in findings if f.rule_id == "PURE-001"]
        assert flagged and all(f.waived for f in flagged)

    def test_location_names_module_and_line(self):
        from _lint_stage_samples import draws_random
        finding = next(f for f in check_stage_purity(draws_random)
                       if f.rule_id == "PURE-002")
        assert "_lint_stage_samples" in finding.location
        assert ":" in finding.location


# ----------------------------------------------------------------------
# Orchestrator integration: the pre-run netlist lint.


class TestGateIntegration:
    def test_lint_errors_land_in_a_failed_span(self, lib):
        nl = lfsr(8, lib)
        nl.primary_outputs.append("no_such_net")   # NET-004 error
        sink = TelemetrySink()
        with pytest.raises(StageError) as info:
            run(nl, lib, FlowOptions(), telemetry=sink)
        assert info.value.stage == "signoff"
        first = sink.spans[0]
        assert first.stage == "lint" and first.status == "failed"
        assert any("NET-004" in note for note in first.notes)

    def test_clean_run_attaches_report(self, lib):
        result = run(lfsr(8, lib), lib, FlowOptions())
        assert result.lint is not None and result.lint.ok

    def test_run_does_not_lint_the_flow_graph(self, lib, monkeypatch):
        # The stage table is fixed code, checked once by
        # ``test_implement_dag_is_clean``, not on every run.
        def refuse(*args, **kwargs):
            raise AssertionError("lint_flow called by run")

        monkeypatch.setattr(repro.lint, "lint_flow", refuse)
        result = run(lfsr(8, lib), lib, FlowOptions())
        assert result.status == "ok"

    def test_report_holds_netlist_findings_only(self, lib):
        aig = run(random_aig(6, 40, 3, seed=1), lib, FlowOptions())
        assert aig.lint is None
        nl = lfsr(8, lib)
        nl.add_gate("INV_X1_rvt", [nl.primary_inputs[0]])  # dead cone
        result = run(nl, lib, FlowOptions())
        assert result.lint.findings
        assert all(f.rule_id.startswith("NET-")
                   for f in result.lint.findings)

    def test_lint_notes_persist_in_run_database(self, lib, tmp_path):
        # A phantom pin (NET-003) is a lint error the flow runs through.
        from repro.learn.rundb import RunDatabase
        nl = lfsr(8, lib)
        next(iter(nl.gates.values())).pins["EXTRA"] = \
            nl.primary_inputs[0]
        db = RunDatabase()
        run(nl, lib, FlowOptions(), run_db=db)
        path = tmp_path / "runs.json"
        db.save(path)
        lint = RunDatabase.load(path).records[0].spans[0]
        assert lint.stage == "lint" and lint.status == "failed"
        assert lint.notes == db.records[0].spans[0].notes
        assert any("NET-003" in note for note in lint.notes)

    def test_rundb_accepts_noted_spans(self, tmp_path):
        from repro.learn.rundb import RunDatabase, RunRecord
        from repro.orchestrate import Span
        db = RunDatabase()
        db.log(RunRecord("d", {}, {}, {}, spans=[
            Span("lint", 0.01, status="failed",
                 notes=("ERROR NET-002 [q2]: boom",))]))
        path = tmp_path / "runs.json"
        db.save(path)
        assert RunDatabase.load(path).records[0].spans[0].notes == \
            ("ERROR NET-002 [q2]: boom",)


# ----------------------------------------------------------------------
# Property: optimization passes preserve lint cleanliness.


class TestLintPreservation:
    @given(st.tuples(
        st.integers(min_value=3, max_value=8),       # inputs
        st.integers(min_value=10, max_value=100),    # ands
        st.integers(min_value=1, max_value=5),       # outputs
        st.integers(min_value=0, max_value=10_000),  # seed
    ))
    @settings(max_examples=12, deadline=None)
    def test_synthesis_sizing_placement_stay_clean(self, params):
        from repro.netlist import random_aig
        from repro.place import global_place
        from repro.synthesis import map_aig
        from repro.synthesis.sizing import assign_vt, size_gates
        n, a, o, seed = params
        nl = map_aig(random_aig(n, a, o, seed=seed), LIB)
        def invariant_findings(netlist):
            return [f for f in lint_netlist(netlist).findings
                    if f.rule_id in INVARIANT_RULE_IDS]

        assert not invariant_findings(nl), \
            "mapping produced a lint-dirty netlist"
        size_gates(nl)
        assign_vt(nl)
        assert not invariant_findings(nl), \
            "sizing/Vt assignment broke a netlist invariant"
        placement = global_place(nl, seed=0, utilization=0.5)
        assert not invariant_findings(placement.netlist), \
            "placement broke a netlist invariant"
