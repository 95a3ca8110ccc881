"""Tests for networks, AIG optimization, mapping, sizing, and flows."""

import numpy as np
import pytest

from repro.netlist import Aig, build_library, random_aig
from repro.netlist.aig import lit_not
from repro.netlist.boolfunc import TruthTable
from repro.netlist.cubes import Cover
from repro.synthesis import (
    LogicNetwork,
    SynthesisFlow,
    balance,
    map_aig,
    refactor,
    rewrite,
    size_gates,
    assign_vt,
    trivial_map,
)
from repro.synthesis.cuts import cut_function, cut_volume, enumerate_cuts
from repro.synthesis.division import kernels
from repro.synthesis.espresso import espresso
from repro.synthesis.flow import decade_comparison
from repro.synthesis.rewrite import optimize_aig
from repro.tech import get_node
from repro.timing import TimingAnalyzer, WireModel


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"), vt_flavors=("lvt", "rvt", "hvt"))


def make_test_aig(seed=1, n=100):
    return random_aig(8, n, 6, seed=seed)


class TestCuts:
    def test_trivial_cut_present(self):
        aig = make_test_aig()
        cuts = enumerate_cuts(aig, 4)
        for n in range(aig.num_inputs + 1, aig.num_nodes):
            assert (n,) in cuts[n]

    def test_cut_sizes_bounded(self):
        aig = make_test_aig()
        cuts = enumerate_cuts(aig, 3)
        for n, cl in cuts.items():
            for c in cl:
                assert len(c) <= 3

    def test_cut_function_matches_simulation(self):
        aig = Aig(3)
        a, b, c = (aig.input_lit(i) for i in range(3))
        x = aig.and_(a, b)
        y = aig.or_(x, c)
        aig.add_output(y)
        node = y >> 1
        tt = cut_function(aig, node, (1, 2, 3))
        for m in range(8):
            av, bv, cv = m & 1, (m >> 1) & 1, (m >> 2) & 1
            want = bool((av and bv) or cv)
            # y is negated in the AIG (OR via De Morgan), so the node
            # function is the complement of the output.
            assert tt.evaluate(m) == (not want) or not (y & 1)

    def test_cut_volume(self):
        aig = Aig(4)
        lits = [aig.input_lit(i) for i in range(4)]
        x = aig.and_(lits[0], lits[1])
        y = aig.and_(lits[2], lits[3])
        z = aig.and_(x, y)
        assert cut_volume(aig, z >> 1, (1, 2, 3, 4)) == 3
        assert cut_volume(aig, z >> 1, (x >> 1, y >> 1)) == 1

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cuts(make_test_aig(), 1)


class TestAigOptimization:
    @pytest.mark.parametrize("opt", [balance, rewrite, refactor])
    def test_semantics_preserved(self, opt):
        aig = make_test_aig(seed=3)
        ref = aig.simulate_all()
        out = opt(aig)
        assert np.array_equal(out.simulate_all(), ref)

    def test_balance_reduces_chain_depth(self):
        # Each case is a chain x0 & l1 & l2 & ... over its links (``!``
        # complements one), with the AND count and depth it balances to.
        cases = [
            ("x1 x2 x3 x4 x5 x6 x7", 7, 3),  # eight distinct operands
            ("x1 x2 " * 10, 2, 2),           # a repeat counts once
            ("x1 x2 !x0", 0, 0),             # x0 & !x0 is constant 0
        ]
        for links, ands, depth in cases:
            aig = Aig(8)
            acc = aig.input_lit(0)
            for name in links.split():
                lit = aig.input_lit(int(name.lstrip("!x")))
                acc = aig.and_(acc, lit_not(lit) if name[0] == "!" else lit)
            aig.add_output(acc)
            assert aig.depth() == len(links.split())
            bal = balance(aig)
            assert (bal.num_ands, bal.depth()) == (ands, depth), links
            assert np.array_equal(bal.simulate_all(), aig.simulate_all())

    def test_balance_fold_keeps_levels(self):
        # r's tree is a & b & c with c = a & b: pairing a with b hits c,
        # and c & c folds to c, which must keep c at level 1.  s's tree
        # is g & h & c with g at level 2, so it balances to depth 3 by
        # pairing h with c first; with c recorded at level 2, the tie
        # with g pairs h with g and s ends at depth 4.
        aig = Aig(6)
        a, b, d, e, f, h = (aig.input_lit(i) for i in range(6))
        c = aig.and_(a, b)
        r = aig.and_(a, aig.and_(b, c))
        g = aig.and_(aig.and_(d, e), f)
        s = aig.and_(g, aig.and_(c, h))
        for out in (r, g, s):
            aig.add_output(out)
        bal = balance(aig)
        assert bal.depth() == 3
        assert np.array_equal(bal.simulate_all(), aig.simulate_all())

    def test_rewrite_never_grows(self):
        aig = make_test_aig(seed=5, n=200)
        out = rewrite(aig)
        assert out.num_ands <= aig.num_ands

    def test_optimize_script_levels(self):
        # The script starts with ``balance`` and only keeps rewrites
        # that shrink the graph, so it ends no larger than balancing.
        aig = make_test_aig(seed=9, n=150)
        out = optimize_aig(aig.copy())
        assert np.array_equal(out.simulate_all(), aig.simulate_all())
        assert out.num_ands <= balance(aig).num_ands


class TestLogicNetwork:
    def _xor_network(self):
        net = LogicNetwork("xor")
        net.add_input("a")
        net.add_input("b")
        net.add_node("y", [frozenset({("a", True), ("b", False)}),
                          frozenset({("a", False), ("b", True)})])
        net.set_output("y")
        return net

    def test_to_aig_semantics(self):
        net = self._xor_network()
        aig = net.to_aig()
        out = aig.simulate_all()[:, 0]
        assert list(out) == [False, True, True, False]

    def test_from_aig_roundtrip(self):
        aig = make_test_aig(seed=11)
        net = LogicNetwork.from_aig(aig)
        back = net.to_aig()
        assert np.array_equal(back.simulate_all(), aig.simulate_all())

    def test_sweep_removes_buffers(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("buf", [frozenset({("a", True)})])
        net.add_node("y", [frozenset({("buf", True)})])
        net.set_output("y")
        removed = net.sweep()
        assert removed >= 1
        assert "buf" not in net.nodes

    def test_eliminate_inlines_small_nodes(self):
        net = LogicNetwork()
        for n in "abcd":
            net.add_input(n)
        net.add_node("t", [frozenset({("a", True), ("b", True)})])
        net.add_node("y", [frozenset({("t", True), ("c", True)})])
        net.set_output("y")
        net.eliminate()
        assert "t" not in net.nodes
        aig = net.to_aig()
        out = aig.simulate_all()[:, 0]
        # y = a & b & c over inputs a,b,c,d
        for m in range(16):
            a, b, c = m & 1, (m >> 1) & 1, (m >> 2) & 1
            assert out[m] == bool(a and b and c)

    def test_extract_shares_kernels(self):
        net = LogicNetwork()
        for n in "abxy":
            net.add_input(n)
        net.add_node("f", [frozenset({("a", True), ("x", True)}),
                          frozenset({("b", True), ("x", True)})])
        net.add_node("g", [frozenset({("a", True), ("y", True)}),
                          frozenset({("b", True), ("y", True)})])
        net.set_output("f")
        net.set_output("g")
        before = net.literal_count()
        created = net.extract()
        assert created >= 1
        assert net.literal_count() < before

    def test_optimize_preserves_semantics(self):
        aig = make_test_aig(seed=13)
        net = LogicNetwork.from_aig(aig)
        net.optimize("high")
        out = net.to_aig()
        assert np.array_equal(out.simulate_all(), aig.simulate_all())

    def test_duplicate_names_rejected(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_input("a")
        with pytest.raises(ValueError):
            net.add_node("a", [])

    def test_cycle_detection(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("x", [frozenset({("y", True)})])
        net.add_node("y", [frozenset({("x", True)})])
        net.set_output("y")
        with pytest.raises(ValueError):
            net.topological_order()


class TestMapping:
    def test_area_map_equivalence(self, lib):
        aig = make_test_aig(seed=17)
        nl = map_aig(aig, lib)
        nl.validate()
        pats = np.random.default_rng(0).random((32, 8)) < 0.5
        assert np.array_equal(nl.simulate(pats), aig.simulate(pats))

    def test_trivial_map_equivalence(self, lib):
        aig = make_test_aig(seed=29)
        nl = trivial_map(aig, lib)
        nl.validate()
        pats = np.random.default_rng(2).random((32, 8)) < 0.5
        assert np.array_equal(nl.simulate(pats), aig.simulate(pats))

    def test_mapped_beats_trivial(self, lib):
        aig = make_test_aig(seed=31, n=300)
        assert map_aig(aig, lib).area_um2() < trivial_map(aig, lib).area_um2()

    def test_constant_output_uses_tie(self, lib):
        aig = Aig(2)
        aig.add_output(0, "zero")
        aig.add_output(1, "one")
        nl = map_aig(aig, lib)
        pats = np.zeros((1, 2), dtype=bool)
        out = nl.simulate(pats)
        assert out[0, 0] == False and out[0, 1] == True  # noqa: E712


class TestOneNetPerOutput:
    """Each AIG output is one primary output on a net of its own, in
    AIG order, even where outputs repeat a literal or a constant."""

    @staticmethod
    def _check(nl, aig):
        assert len(nl.primary_outputs) == len(aig.outputs)
        assert len(set(nl.primary_outputs)) == len(aig.outputs)
        pats = np.random.default_rng(5).random((64, aig.num_inputs)) < 0.5
        got, want = nl.simulate(pats), aig.simulate(pats)
        for k in range(len(aig.outputs)):
            assert np.array_equal(got[:, k], want[:, k]), k

    def test_repeated_literal(self, lib):
        aig = random_aig(4, 11, 3, seed=150)
        assert aig.outputs[1] == aig.outputs[2]
        self._check(map_aig(aig, lib), aig)
        self._check(trivial_map(aig, lib), aig)

    def test_repeated_constant(self, lib):
        aig = Aig(2)
        aig.add_output(0, "zero_a")
        aig.add_output(aig.input_lit(0), "a")
        aig.add_output(0, "zero_b")
        nl = map_aig(aig, lib)
        self._check(nl, aig)
        assert sum(g.cell.name == "TIELO" for g in nl.gates.values()) == 1

    def test_era_2016_flow(self, lib):
        # After optimization two of this AIG's 24 outputs are one
        # literal.
        aig = random_aig(24, 2000, 24, seed=1)
        result = SynthesisFlow(lib, "2016", 2000.0).run(aig)
        self._check(result.netlist, aig)


class TestSizingAndVt:
    def test_size_gates_improves_or_holds_delay(self, lib):
        aig = make_test_aig(seed=37, n=250)
        nl = map_aig(aig, lib,
                     cell_filter=lambda c: "_X1_" in c.name or
                     c.num_inputs == 0)
        report = size_gates(nl)
        assert report["after_ps"] <= report["before_ps"]

    def test_scalar_sizing_bit_identical(self, lib):
        """The full-STA-per-trial reference takes the same resize
        decisions as the default cone-limited incremental STA."""
        wm = WireModel.for_node(lib.node)
        outcomes = []
        for incremental in (True, False):
            nl = map_aig(random_aig(8, 80, 4, seed=9), lib)
            report = size_gates(nl, wire_model=wm, clock_period_ps=100.0,
                                incremental=incremental)
            outcomes.append((nl.to_packed().content_digest(), report))
        assert outcomes[0][1]["resized"] > 0
        assert outcomes[0] == outcomes[1]

    def test_sizing_preserves_function(self, lib):
        aig = make_test_aig(seed=41)
        nl = map_aig(aig, lib)
        pats = np.random.default_rng(3).random((16, 8)) < 0.5
        before = nl.simulate(pats)
        size_gates(nl)
        assert np.array_equal(nl.simulate(pats), before)

    def test_assign_vt_cuts_leakage_keeps_timing(self, lib):
        aig = make_test_aig(seed=43, n=250)
        nl = map_aig(aig, lib)
        slack_target = TimingAnalyzer(nl).analyze().critical_delay_ps * 2
        report = assign_vt(nl, clock_period_ps=slack_target)
        assert report["leak_after_nw"] < report["leak_before_nw"]
        final = TimingAnalyzer(nl, clock_period_ps=slack_target).analyze()
        assert final.wns_ps >= 0

    def test_assign_vt_requires_hvt(self):
        rvt_only = build_library(get_node("28nm"), vt_flavors=("rvt",))
        aig = make_test_aig()
        nl = map_aig(aig, rvt_only)
        with pytest.raises(ValueError):
            assign_vt(nl)


#: Keywords the synthesis entry points no longer take, with the value
#: each one defaulted to: every entry point runs the one recipe its
#: callers use.
RETIRED_KEYWORDS = [
    ("map_aig", "mode", "area"),
    ("map_aig", "per_node", 8),
    ("optimize_aig", "effort", "high"),
    ("rewrite", "cut_size", 4),
    ("rewrite", "per_node", 5),
    ("refactor", "max_support", 10),
    ("espresso", "max_loops", 8),
    ("kernels", "min_level", 0),
    ("size_gates", "max_passes", 4),
    ("assign_vt", "slack_margin_ps", 0.0),
    ("assign_vt", "incremental", True),
]


class TestRetiredKeywords:
    @pytest.mark.parametrize(
        "entry, keyword, value", RETIRED_KEYWORDS,
        ids=[f"{entry}-{keyword}" for entry, keyword, _ in RETIRED_KEYWORDS])
    def test_retired_keyword_raises(self, lib, entry, keyword, value):
        aig = make_test_aig()
        calls = {
            "map_aig": lambda **kw: map_aig(aig, lib, **kw),
            "optimize_aig": lambda **kw: optimize_aig(aig, **kw),
            "rewrite": lambda **kw: rewrite(aig, **kw),
            "refactor": lambda **kw: refactor(aig, **kw),
            "espresso": lambda **kw: espresso(Cover.from_truth_table(
                TruthTable.from_minterms([1, 2, 3], 2)), **kw),
            "kernels": lambda **kw: kernels(
                [frozenset({("a", True)}), frozenset({("b", True)})], **kw),
            "size_gates": lambda **kw: size_gates(map_aig(aig, lib), **kw),
            "assign_vt": lambda **kw: assign_vt(map_aig(aig, lib), **kw),
        }
        calls[entry]()  # the entry point runs without the keyword
        with pytest.raises(TypeError, match=keyword):
            calls[entry](**{keyword: value})


class TestEraFlows:
    def test_decade_comparison_monotone(self, lib):
        res = decade_comparison(
            lambda: random_aig(10, 220, 8, seed=47), lib,
            clock_period_ps=450)
        assert res["2016"].area_um2 <= res["2006"].area_um2
        # Delay: within noise on a single workload (the decade-level
        # geomean improvement is asserted by bench E1).
        assert res["2016"].delay_ps <= res["2006"].delay_ps * 1.05
        assert res["2016"].leakage_nw <= res["2006"].leakage_nw
        assert res["2006"].area_um2 <= res["1996"].area_um2 * 1.05

    def test_flows_functionally_equivalent(self, lib):
        res = decade_comparison(
            lambda: random_aig(9, 150, 5, seed=53), lib)
        pats = np.random.default_rng(4).random((32, 9)) < 0.5
        outs = [res[e].netlist.simulate(pats) for e in res]
        assert all(np.array_equal(outs[0], o) for o in outs[1:])

    def test_bad_era(self, lib):
        with pytest.raises(ValueError):
            SynthesisFlow(lib, era="2026")

    def test_summary_format(self, lib):
        res = SynthesisFlow(lib, "2006").run(random_aig(8, 80, 4, seed=59))
        s = res.summary()
        assert "2006" in s and "um2" in s
