"""Tests for repro.lint: netlist rules, purity, gating.

Covers the static-analysis surface: the fixture sweep over every
generator/benchmark circuit (all must be error-clean), seeded
violations for each netlist rule at the fixed limits, the exact
findings (text, order and truncation) pinned on a small corpus, the
stage table checks the executor makes on every run (which replaced the
flow lint rules), the AST purity checker, the flow's pre-run netlist
lint, and the invariant that the shipped stage table is purity-clean.
"""

import hashlib
import importlib.util

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.lint
from repro.lint import (
    INVARIANT_RULE_IDS,
    Severity,
    check_stage_purity,
    lint_flow,
    lint_netlist,
)
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
from repro.synthesis import map_aig
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
        for module in soc.modules.values():
            report = lint_netlist(module.netlist)
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
        # 300 readers pass the fanout backstop (256); 60 INV_X1 readers
        # stay under it but load the INV_X1 driver past 48x its own
        # input cap.
        report = lint_netlist(_fanout(lib, 300))
        (finding,) = report.warnings
        assert finding.rule_id == "NET-006"
        assert "fanout 300 exceeds max_fanout 256" in finding.message
        report = lint_netlist(_fanout(lib, 60))
        (finding,) = report.warnings
        assert finding.rule_id == "NET-006"
        assert "on INV_X1_rvt exceeds 48x its input cap" in \
            finding.message
        assert not lint_netlist(_fanout(lib, 40)).findings

    def test_net007_dead_cone(self, lib):
        nl = Netlist("dead", lib)
        a = nl.add_input("a")
        live = nl.add_gate("INV_X1_rvt", [a]).output
        nl.add_output(live)
        nl.add_gate("INV_X1_rvt", [a])      # output never consumed
        report = lint_netlist(nl)
        assert any(f.rule_id == "NET-007" for f in report.warnings)

    def test_finding_cap_truncates(self, lib):
        report = lint_netlist(_dead_inverters(lib, 80))
        dead = [f for f in report.findings if f.rule_id == "NET-007"]
        assert len(dead) == 50
        assert report.truncated == {"NET-007": 30}
        assert "NET-007: 30 further finding(s)" in report.render()

    def test_rule_ids_unique_and_ordered(self):
        # One tuple holds every rule, in report order; the invariants
        # are its error-severity rules.
        from repro.lint.netlist_rules import RULES
        ids = [rule_id for rule_id, _, _ in RULES]
        assert ids == [f"NET-00{k}" for k in range(1, 8)]
        assert tuple(rule_id for rule_id, severity, _ in RULES
                     if severity is Severity.ERROR) == INVARIANT_RULE_IDS

    def test_lint_netlist_takes_only_the_netlist(self, lib):
        # Nothing about a lint is settable: the limits are module
        # constants, and there are no waivers and no command line.
        nl = lfsr(8, lib)
        for keyword in ("config", "waivers"):
            with pytest.raises(TypeError):
                lint_netlist(nl, **{keyword: None})
        assert importlib.util.find_spec("repro.lint.__main__") is None


# ----------------------------------------------------------------------
# The exact findings, pinned: text, subject, location, order and the
# truncation counts, one SHA-256 per design of a small corpus.


def _fanout(lib, readers):
    """One INV_X1 driving ``readers`` INV_X1 loads, each an output."""
    nl = Netlist(f"fan{readers}", lib)
    src = nl.add_gate("INV_X1_rvt", [nl.add_input("a")]).output
    for _ in range(readers):
        nl.add_output(nl.add_gate("INV_X1_rvt", [src]).output)
    return nl


def _dead_inverters(lib, count):
    """One live inverter and ``count`` whose outputs nothing reads."""
    nl = Netlist("dead", lib)
    a = nl.add_input("a")
    nl.add_output(nl.add_gate("INV_X1_rvt", [a]).output)
    for _ in range(count):
        nl.add_gate("INV_X1_rvt", [a])
    return nl


def _seeded_violations(lib):
    """One netlist per invariant rule, broken behind the API guards."""
    nl = lfsr(8, lib)
    gate = next(iter(nl.gates.values()))
    gate.pins[next(iter(gate.pins))] = "ghost_net"
    yield "net001", nl
    nl = lfsr(8, lib)
    gates = list(nl.gates.values())
    gates[4].output = gates[2].output
    gates[5].output = nl.primary_inputs[0]
    yield "net002", nl
    nl = lfsr(8, lib)
    gates = list(nl.gates.values())
    gates[0].pins["EXTRA"] = nl.primary_inputs[0]
    del gates[1].pins[next(iter(gates[1].pins))]
    yield "net003", nl
    nl = lfsr(8, lib)
    nl.primary_outputs.append("no_such_net")
    nl.primary_outputs.append(nl.primary_outputs[0])
    nl.primary_outputs.append("no_such_net")
    yield "net004", nl
    nl = Netlist("loop", lib)
    a = nl.add_input("a")
    g1 = nl.add_gate("NAND2_X1_rvt", [a, a])
    g2 = nl.add_gate("NAND2_X1_rvt", [g1.output, a])
    nl.add_output(g2.output)
    g1.pins["B"] = g2.output
    yield "net005", nl


def _pinned_corpus(lib):
    yield from _all_generator_circuits(lib)
    yield from all_benchmark_circuits(lib).items()
    soc = hierarchical_soc(3, 80, lib, seed=2)
    for name, module in soc.modules.items():
        yield name, module.netlist
    yield from _seeded_violations(lib)
    yield "fan60", _fanout(lib, 60)
    yield "fan300", _fanout(lib, 300)
    yield "dead80", _dead_inverters(lib, 80)
    yield "mapped", map_aig(random_aig(6, 60, 4, seed=11), lib)


def _findings_digest(report):
    rows = [(str(f), f.subject, f.location) for f in report.findings]
    rows += sorted(report.truncated.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


#: The digest of a report with no findings.
_CLEAN = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"

PINNED_FINDINGS = {
    "rca16": _CLEAN, "cla16": _CLEAN, "mult8": _CLEAN,
    "cloud":
        "6d166de25c827229c25b4c305c5e03be4a4989a65396ac062edca1f8c26dc8df",
    "regcloud":
        "69f8fe7f1689e37f8436e35a9e63c620f3aec2bc63ddf9461fbd85961dd8f33b",
    "xbar": _CLEAN, "lfsr16": _CLEAN,
    "c17": _CLEAN, "decoder": _CLEAN, "comparator": _CLEAN,
    "priority_encoder": _CLEAN, "popcount": _CLEAN,
    "parity_tree": _CLEAN, "gray_to_binary": _CLEAN,
    "block0":
        "153d3ee5cca247b43c8f05092107c54fd649dd5f5b16437f5179a852f53b5dca",
    "block1":
        "fbee97437fe36e77be1a4ffd94fd6177d4481cb01fcf08dd1d1a620b61f0cc26",
    "block2":
        "c6f5c2d69aec78afb6d9ce36bce7f0f08fe270f6c59966d59df8ded6d086a02f",
    "net001":
        "b85939c3fcc7164a4cbd7cd52a933d22dfee867543633835963e60f24bbcbb79",
    "net002":
        "d1588c6b808393ebcbc2f36bd2befc37fe1b5cdf88449a341dd2ab67274ac5c3",
    "net003":
        "4566b09a527f25bf8291e2bb93ff8cf7fefb1ed3531619f46d87de15c912c110",
    "net004":
        "c26727fee36d9e71fcc6c3ed6b7e244640faf32907979027ab5047fa367ebe4c",
    "net005":
        "0ed8225bce14e1ba10c13a2ba1a3b4fd34d62c271b8bb75e4186b143f476b771",
    "fan60":
        "f8f890db2a906aa77e43996f21d1cedb6c676f70898416df0e9db5771b1d380b",
    "fan300":
        "9f23c52d9c67cf1d12ed5668b996fa9cf2b59749f4212b006cf366e4aa341886",
    "dead80":
        "1c5bf7aecf96e9d8d488f05e41f9c34dfb9950efba70a8707c7d4e407564909e",
    "mapped": _CLEAN,
}


class TestPinnedFindings:
    def test_findings_match_pinned_digests(self, lib):
        digests = {name: _findings_digest(lint_netlist(nl))
                   for name, nl in _pinned_corpus(lib)}
        assert digests == PINNED_FINDINGS


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
        assert repro.lint.__all__ == [
            "Finding", "INVARIANT_RULE_IDS", "LintReport", "Severity",
            "check_stage_purity", "lint_flow", "lint_netlist"]
        for name in ("DEFAULT_RUN_PARAMS", "FlowLintContext",
                     "check_flow_purity", "REGISTRY", "Rule",
                     "RuleRegistry", "rule", "LintConfig", "Waiver",
                     "Waivers", "lint_design", "NetlistLintContext"):
            assert not hasattr(repro.lint, name), name
        for cls, name in ((repro.lint.LintReport, "to_json"),
                          (repro.lint.LintReport, "to_sarif"),
                          (repro.lint.LintReport, "merge"),
                          (repro.lint.Finding, "to_dict"),
                          (repro.lint.Severity, "sarif_level")):
            assert not hasattr(cls, name), name
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
    # Its outputs repeat a literal, which must still map to two
    # primary output nets (one net declared twice is NET-004).
    @example((4, 11, 3, 150))
    def test_synthesis_sizing_placement_stay_clean(self, params):
        from repro.netlist import random_aig
        from repro.place import global_place
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
