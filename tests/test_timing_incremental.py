"""Tests for the incremental timing engine, the netlist change
journal, and the memoized netlist views."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import Netlist, build_library
from repro.netlist.circuit import left_sum
from repro.netlist.generators import registered_cloud
from repro.orchestrate.telemetry import TelemetrySink, kernel_span
from repro.tech import get_node
from repro.timing import (
    IncrementalTimingAnalyzer,
    TimingAnalyzer,
    WireModel,
)

LIB = build_library(get_node("28nm"), vt_flavors=("lvt", "rvt", "hvt"))
WM = WireModel(cap_per_fanout_ff=0.8)
T = 150.0


def assert_matches_full(nl, inc, context=""):
    """The incremental report must equal a from-scratch scalar STA
    bit for bit: arrivals, requireds, WNS, slacks."""
    ref = TimingAnalyzer(nl, WM, T).analyze()
    got = inc.update()
    assert got.arrival_ps == ref.arrival_ps, context
    assert got.required_ps == ref.required_ps, context
    assert got.wns_ps == ref.wns_ps, context
    assert got.slacks() == {n: ref.slack_ps(n)
                            for n in ref.arrival_ps}, context
    assert got.critical_path == ref.critical_path, context


class TestIncrementalMatchesFull:
    """Randomized equivalence: any journaled edit sequence leaves the
    incremental engine bit-identical to a full scalar analysis."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_edit_sequences(self, data):
        seed = data.draw(st.integers(0, 999), label="design seed")
        nl = registered_cloud(6, 8, 60, LIB, seed=seed)
        inc = IncrementalTimingAnalyzer(nl, WM, T)
        inc.analyze()
        try:
            n_edits = data.draw(st.integers(1, 10), label="edits")
            for step in range(n_edits):
                op = data.draw(st.sampled_from(
                    ["resize", "resize", "rewire", "remove", "add"]),
                    label=f"op{step}")
                if op == "resize":
                    combs = nl.combinational_gates()
                    g = combs[data.draw(
                        st.integers(0, len(combs) - 1))]
                    base = g.cell.name.rsplit("_", 2)[0]
                    drive = data.draw(
                        st.sampled_from(["X1", "X2", "X4"]))
                    vt = data.draw(
                        st.sampled_from(["lvt", "rvt", "hvt"]))
                    cand = LIB.cells.get(f"{base}_{drive}_{vt}")
                    if cand is None:
                        continue
                    nl.resize_gate(g.name, cand)
                elif op == "rewire":
                    combs = nl.combinational_gates()
                    g = combs[data.draw(
                        st.integers(0, len(combs) - 1))]
                    pin = data.draw(st.sampled_from(sorted(g.pins)))
                    # PIs and flop Qs cannot create comb cycles.
                    safe = list(nl.primary_inputs) + [
                        f.output for f in nl.sequential_gates()]
                    tgt = safe[data.draw(
                        st.integers(0, len(safe) - 1))]
                    nl.rewire_pin(g.name, pin, tgt)
                elif op == "remove":
                    dead = [g for g in nl.combinational_gates()
                            if not nl.loads_of(g.output)
                            and g.output not in nl.primary_outputs]
                    if not dead:
                        continue
                    g = dead[data.draw(
                        st.integers(0, len(dead) - 1))]
                    nl.remove_gate(g.name)
                else:
                    src = nl.primary_inputs[data.draw(
                        st.integers(0, len(nl.primary_inputs) - 1))]
                    nl.add_gate("INV_X1_rvt", [src])
                assert_matches_full(nl, inc, f"{op} at step {step}")
        finally:
            inc.close()

    def test_pin_caps_add_left_to_right(self):
        # 100 loads of 0.1 fF: the left-to-right total differs from the
        # correctly rounded one (what Python 3.12's builtin sum gives),
        # and the scalar engine, the refresh after a resize and the
        # packed bincount must all add the same way.
        caps = [0.1] * 100
        assert left_sum(caps) != math.fsum(caps)
        tenth = dataclasses.replace(LIB["INV_X1_rvt"], name="INV_T",
                                    input_cap_ff=0.1)
        nl = Netlist("tenths", LIB)
        nl.add_gate(tenth, [nl.add_input("a")], "x")
        loads = [nl.add_gate(tenth, ["x"]) for _ in caps]
        for g in loads:
            nl.add_output(g.output)
        inc = IncrementalTimingAnalyzer(nl, WM, T)
        inc.analyze()
        assert_matches_full(nl, inc, "cold")
        nl.resize_gate(loads[3].name,
                       dataclasses.replace(tenth, name="INV_T2"))
        assert_matches_full(nl, inc, "after resize")

    def test_many_resizes_then_repropagate(self):
        for nl in (registered_cloud(8, 12, 150, LIB, seed=5),
                   registered_cloud(16, 48, 1500, LIB, seed=7)):
            with IncrementalTimingAnalyzer(nl, WM, T) as inc:
                inc.analyze()
                assert_matches_full(nl, inc, "cold")
                # 40 resize-and-revert pairs, each edit followed by a
                # cone-limited update(), leave the engine bit-identical
                # to a cold scalar analysis.
                combs = nl.combinational_gates()
                pairs = [(g.name, g.cell, LIB.cells[
                    g.cell.name.replace("_X1_", "_X2_")])
                    for g in combs[::len(combs) // 40][:40]]
                assert len(pairs) == 40
                for name, orig, other in pairs:
                    nl.resize_gate(name, other)
                    inc.update()
                    nl.resize_gate(name, orig)
                    inc.update()
                assert_matches_full(nl, inc, "40 resize-and-revert")
                for g in nl.combinational_gates()[::3]:
                    bigger = LIB.cells.get(
                        g.cell.name.replace("_X1_", "_X4_"))
                    if bigger is not None:
                        nl.resize_gate(g.name, bigger)
                ref = TimingAnalyzer(nl, WM, T).analyze()
                got = inc.update()
                assert got.arrival_ps == ref.arrival_ps
                assert got.required_ps == ref.required_ps
                assert got.wns_ps == ref.wns_ps

    def test_flop_resize_updates_setup_and_launch(self):
        nl = registered_cloud(6, 8, 80, LIB, seed=9)
        flop = nl.sequential_gates()[0]
        other = None
        for cell in LIB:
            if (cell.is_sequential and cell.inputs == flop.cell.inputs
                    and cell is not flop.cell):
                other = cell
                break
        if other is None:
            pytest.skip("library has a single compatible flop")
        with IncrementalTimingAnalyzer(nl, WM, T) as inc:
            inc.analyze()
            nl.resize_gate(flop.name, other)
            assert_matches_full(nl, inc, "flop resize")

    def test_report_api_mirrors_timing_report(self):
        nl = registered_cloud(6, 8, 60, LIB, seed=1)
        ref = TimingAnalyzer(nl, WM, T).analyze()
        with IncrementalTimingAnalyzer(nl, WM, T) as inc:
            got = inc.analyze()
        assert got.clock_period_ps == T
        assert got.critical_delay_ps == ref.critical_delay_ps
        assert got.fmax_ghz() == ref.fmax_ghz()
        some_net = next(iter(ref.arrival_ps))
        assert got.slack_ps(some_net) == ref.slack_ps(some_net)
        with pytest.raises(KeyError):
            got.slack_ps("no_such_net")


class TestChangeJournal:
    def test_subscribe_and_unsubscribe(self):
        nl = Netlist("j", LIB)
        seen = []
        unsub = nl.subscribe(seen.append)
        a = nl.add_input("a")
        g = nl.add_gate("INV_X1_rvt", [a])
        nl.resize_gate(g.name, "INV_X2_rvt")
        assert [e.kind for e in seen] == ["add_input", "add_gate",
                                         "resize"]
        assert seen[1].fanins == ("a",)
        unsub()
        nl.add_output(g.output)
        assert len(seen) == 3

    def test_structural_flag_and_version(self):
        nl = Netlist("v", LIB)
        a = nl.add_input("a")
        v0 = nl.struct_version
        g = nl.add_gate("INV_X1_rvt", [a])
        assert nl.struct_version > v0
        v1 = nl.struct_version
        nl.resize_gate(g.name, "INV_X2_rvt")   # non-structural
        assert nl.struct_version == v1
        nl.remove_gate(g.name)
        assert nl.struct_version > v1

    def test_resize_rejects_incompatible_footprint(self):
        nl = Netlist("r", LIB)
        a = nl.add_input("a")
        g = nl.add_gate("INV_X1_rvt", [a])
        with pytest.raises(ValueError):
            nl.resize_gate(g.name, "AND2_X1_rvt")

    def test_remove_gate_journal_snapshots_fanins(self):
        nl = Netlist("s", LIB)
        a = nl.add_input("a")
        b = nl.add_input("b")
        g = nl.add_gate("AND2_X1_rvt", [a, b])
        seen = []
        nl.subscribe(seen.append)
        nl.remove_gate(g.name)
        assert seen[-1].kind == "remove_gate"
        assert set(seen[-1].fanins) == {"a", "b"}


class TestMemoizedViews:
    def test_fanout_map_cached_until_structural_edit(self):
        nl = registered_cloud(4, 4, 20, LIB, seed=0)
        fan1 = nl.fanout_map()
        assert nl.fanout_map() is fan1
        assert nl.topological_gates() is nl.topological_gates()
        g = nl.combinational_gates()[0]
        nl.resize_gate(g.name, g.cell)      # no-op resize
        bigger = LIB.cells.get(g.cell.name.replace("_X1_", "_X2_"))
        if bigger is not None:
            nl.resize_gate(g.name, bigger)  # resize keeps views
        assert nl.fanout_map() is fan1
        nl.add_gate("INV_X1_rvt", [nl.primary_inputs[0]])
        assert nl.fanout_map() is not fan1

    def test_loads_of_reflects_rewires(self):
        nl = Netlist("l", LIB)
        a = nl.add_input("a")
        b = nl.add_input("b")
        g = nl.add_gate("INV_X1_rvt", [a])
        assert [p for _, p in nl.loads_of(a)] == ["A"]
        nl.rewire_pin(g.name, "A", b)
        assert nl.loads_of(a) == []
        assert [p for _, p in nl.loads_of(b)] == ["A"]

    def test_pickle_drops_acceleration_state(self):
        nl = registered_cloud(4, 4, 20, LIB, seed=0)
        fresh_blob = pickle.dumps(nl)
        nl.fanout_map()
        nl.topological_gates()
        with IncrementalTimingAnalyzer(nl, WM, T) as inc:
            inc.analyze()
            used_blob = pickle.dumps(nl)
        # Usage history (memos, subscribers) must not leak into the
        # pickled form, or flow-cache keys would stop matching.
        assert fresh_blob == used_blob
        clone = pickle.loads(used_blob)
        assert clone._view_cache == {} and clone._subscribers == []


class TestKernelSpan:
    def test_records_ok_span(self):
        sink = TelemetrySink()
        with kernel_span(sink, "sta_cold"):
            pass
        assert len(sink.spans) == 1
        span = sink.spans[0]
        assert span.stage == "sta_cold" and span.status == "ok"
        assert span.wall_s >= 0

    def test_failed_span_reraises(self):
        sink = TelemetrySink()
        with pytest.raises(RuntimeError):
            with kernel_span(sink, "boom"):
                raise RuntimeError("kernel died")
        assert sink.spans[0].status == "failed"

    def test_no_sink_records_nothing_and_reraises(self):
        with kernel_span(None, "sta_cold"):
            pass
        with pytest.raises(RuntimeError, match="kernel died"):
            with kernel_span(None, "boom"):
                raise RuntimeError("kernel died")


class TestRetimingBridge:
    def test_netlist_to_retiming_graph(self):
        from repro.synthesis.retiming import (
            HOST, retiming_graph_from_netlist)
        nl = registered_cloud(6, 8, 60, LIB, seed=4)
        g = retiming_graph_from_netlist(nl, wire_model=WM)
        g.validate()                 # every cycle carries a register
        assert HOST in g.delays and g.delays[HOST] == 0.0
        comb_names = {gt.name for gt in nl.combinational_gates()}
        assert set(g.delays) == comb_names | {HOST}
        # Node delays come from the timing engine's cached cell delays.
        with IncrementalTimingAnalyzer(nl, WM, T) as inc:
            delays = inc.gate_delays_ps()
        for name in comb_names:
            assert g.delays[name] == delays[name]
        assert g.clock_period() > 0

    def test_bridge_min_period_feasible(self):
        from repro.synthesis.retiming import retiming_graph_from_netlist
        nl = registered_cloud(4, 6, 30, LIB, seed=8)
        g = retiming_graph_from_netlist(nl, wire_model=WM)
        period, labels = g.min_period()
        assert period <= g.clock_period() + 1e-9
        assert g.apply(labels).clock_period() <= period + 1e-9
