"""Near-linear multi-level synthesis: oracles, goldens and op counts.

``LogicNetwork.sweep``/``eliminate`` visit only the readers of the
node they remove (a reader index); ``topological_order``, ``balance``
and ``cut_function`` walk explicit stacks; and ``optimize_aig``
factors each distinct cut function once per call.  None of that may
move an output bit, so this module checks the indexed passes against
verbatim copies of the quadratic (or recursive) originals on random
inputs, pins mapped-netlist digests recorded with the quadratic
passes, and counts operations instead of timing them.
"""

import importlib
import inspect
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import Aig, build_library, random_aig
from repro.netlist.aig import lit_is_neg, lit_not, lit_var
from repro.netlist.boolfunc import TruthTable
from repro.synthesis import LogicNetwork, SynthesisFlow
from repro.synthesis.cuts import cut_function, enumerate_cuts
from repro.synthesis.rewrite import balance, optimize_aig
from repro.tech import get_node

network_mod = importlib.import_module("repro.synthesis.network")
rewrite_mod = importlib.import_module("repro.synthesis.rewrite")
_cube_contradicts = network_mod._cube_contradicts
_dedupe_sop = network_mod._dedupe_sop


class QuadraticNetwork(LogicNetwork):
    """The passes as they were before the reader index, verbatim: every
    substitution rescans (and, in ``eliminate``, re-dedupes) every node
    and rebuilds all fan-out counts."""

    def fanout_counts(self) -> dict:
        """name -> number of nodes (plus outputs) reading it."""
        counts = {n: 0 for n in list(self.nodes) + self.inputs}
        for node in self.nodes.values():
            for dep in node.support():
                counts[dep] = counts.get(dep, 0) + 1
        for o in self.outputs:
            counts[o] = counts.get(o, 0) + 1
        return counts

    def topological_order(self) -> list:
        """Node names, fanins before fanouts; raises on cycles."""
        state: dict[str, int] = {}
        order: list[str] = []

        def visit(name: str) -> None:
            if name in self.inputs or name not in self.nodes:
                return
            mark = state.get(name, 0)
            if mark == 1:
                raise ValueError("cycle in logic network")
            if mark == 2:
                return
            state[name] = 1
            for dep in sorted(self.nodes[name].support()):
                visit(dep)
            state[name] = 2
            order.append(name)

        for name in sorted(self.nodes):
            visit(name)
        return order

    def sweep(self) -> int:
        """Remove buffer/constant nodes by substitution; returns count."""
        removed = 0
        changed = True
        while changed:
            changed = False
            for name in list(self.nodes):
                node = self.nodes[name]
                if name in self.outputs:
                    continue
                if len(node.sop) == 1 and len(node.sop[0]) == 1:
                    ((dep, phase),) = node.sop[0]
                    if phase:  # pure buffer: name == dep
                        self._substitute(name, dep)
                        del self.nodes[name]
                        removed += 1
                        changed = True
                elif not node.sop:
                    # Constant 0 node: propagate by deleting cubes that
                    # use it positively, dropping negative literals.
                    self._substitute_const(name, False)
                    del self.nodes[name]
                    removed += 1
                    changed = True
        return removed

    def _substitute(self, old: str, new: str) -> None:
        for node in self.nodes.values():
            new_sop = []
            for cube in node.sop:
                if (old, True) in cube:
                    cube = (cube - {(old, True)}) | {(new, True)}
                if (old, False) in cube:
                    cube = (cube - {(old, False)}) | {(new, False)}
                new_sop.append(cube)
            node.sop = new_sop

    def _substitute_const(self, name: str, value: bool) -> None:
        for node in self.nodes.values():
            new_sop = []
            for cube in node.sop:
                if (name, not value) in cube:
                    continue  # cube is false
                cube = cube - {(name, value)}
                new_sop.append(cube)
            node.sop = new_sop

    def eliminate(self, threshold: int = 0) -> int:
        """Collapse nodes whose extraction value <= threshold.

        The value of keeping node n with f fanouts and l literals is
        ``(f - 1) * (l - 1) - 1`` (literals saved by sharing); nodes at
        or below the threshold are inlined into their fanouts, as in
        SIS ``eliminate``.
        """
        eliminated = 0
        changed = True
        while changed:
            changed = False
            fan = self.fanout_counts()
            for name in list(self.nodes):
                if name in self.outputs:
                    continue
                node = self.nodes[name]
                f = fan.get(name, 0)
                lits = node.literal_count()
                value = (f - 1) * (lits - 1) - 1
                if value <= threshold and self._inline(name):
                    del self.nodes[name]
                    eliminated += 1
                    changed = True
                    fan = self.fanout_counts()
        return eliminated

    def _inline(self, name: str) -> bool:
        """Substitute node ``name`` into all its readers.

        Only positive uses can be inlined algebraically; if the node is
        read complemented anywhere, inlining is skipped (returns False).
        """
        node = self.nodes[name]
        for reader in self.nodes.values():
            for cube in reader.sop:
                if (name, False) in cube:
                    return False
        for reader in self.nodes.values():
            if reader.name == name:
                continue
            new_sop = []
            for cube in reader.sop:
                if (name, True) in cube:
                    rest = cube - {(name, True)}
                    for sub in node.sop:
                        merged = rest | sub
                        if not _cube_contradicts(merged):
                            new_sop.append(merged)
                else:
                    new_sop.append(cube)
            reader.sop = _dedupe_sop(new_sop)
        return True


# ----------------------------------------------------------------------
# Random networks
# ----------------------------------------------------------------------


@st.composite
def network_specs(draw):
    """(inputs, [(name, sop)], outputs) of a random DAG network.

    Node names are a random permutation, so name order (which
    ``topological_order`` follows) differs from insertion order (which
    the passes follow).  Cubes read earlier signals in either phase;
    SOPs may repeat a cube or hold a cube contained in another, may
    hold a contradictory cube (``x & ~x``), and may be empty
    (constant 0) or a single literal (a buffer).
    """
    inputs = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    count = draw(st.integers(1, 12))
    names = draw(st.permutations([f"n{k:02d}" for k in range(count)]))
    nodes = []
    signals = list(inputs)
    for name in names:
        # Bias reads towards recent nodes so fan-out chains form.
        literal = st.tuples(
            st.one_of(st.sampled_from(signals),
                      st.sampled_from(signals[-3:])),
            st.booleans())
        cubes = [frozenset(c) for c in draw(
            st.lists(st.lists(literal, min_size=1, max_size=3),
                     max_size=4))]
        for pick, lit in draw(st.lists(
                st.tuples(st.integers(0, 7), literal), max_size=2)):
            if cubes:  # a cube contained in an existing one
                cubes.append(cubes[pick % len(cubes)] | {lit})
        if cubes and draw(st.booleans()):
            cubes.append(cubes[draw(st.integers(0, len(cubes) - 1))])
        nodes.append((name, cubes))
        signals.append(name)
    outputs = draw(st.lists(st.sampled_from(signals), min_size=1,
                            max_size=4))
    return inputs, nodes, outputs


def build(spec, cls=LogicNetwork):
    inputs, nodes, outputs = spec
    net = cls()
    for name in inputs:
        net.add_input(name)
    for name, sop in nodes:
        net.add_node(name, sop)
    for name in outputs:
        net.set_output(name)
    return net


def sops(net):
    """Node names in dict order with their exact cube lists."""
    return [(name, list(node.sop)) for name, node in net.nodes.items()]


class TestEliminateOracle:
    @given(network_specs(), st.sampled_from([0, -1]))
    @settings(max_examples=300, deadline=None)
    def test_matches_quadratic_eliminate(self, spec, threshold):
        fast, ref = build(spec), build(spec, QuadraticNetwork)
        assert fast.eliminate(threshold) == ref.eliminate(threshold)
        assert sops(fast) == sops(ref)

    @given(network_specs(), st.sampled_from([0, -1]))
    @settings(max_examples=100, deadline=None)
    def test_repeat_after_extract_matches(self, spec, threshold):
        # Normalized networks (the state after a first eliminate) and
        # networks with freshly extracted kernels take the same path.
        fast, ref = build(spec), build(spec, QuadraticNetwork)
        for net in (fast, ref):
            net.eliminate(threshold)
            net.extract(max_kernels=3)
        assert fast.eliminate(threshold) == ref.eliminate(threshold)
        assert sops(fast) == sops(ref)

    def test_complemented_read_blocks_inline(self):
        net = LogicNetwork()
        for name in ("a", "b"):
            net.add_input(name)
        net.add_node("x", [frozenset({("a", True), ("b", True)})])
        net.add_node("y", [frozenset({("x", False)})])
        net.add_node("z", [frozenset({("x", True), ("a", False)})])
        net.set_output("y")
        net.set_output("z")
        assert net.eliminate(threshold=10) == 0
        assert list(net.nodes) == ["x", "y", "z"]


class TestSweepOracle:
    @given(network_specs())
    @settings(max_examples=300, deadline=None)
    def test_matches_quadratic_sweep(self, spec):
        fast, ref = build(spec), build(spec, QuadraticNetwork)
        assert fast.sweep() == ref.sweep()
        assert sops(fast) == sops(ref)


class TestScriptOracle:
    @given(network_specs(),
           st.sampled_from(["low", "medium", "high"]))
    @settings(max_examples=100, deadline=None)
    def test_full_script_matches(self, spec, effort):
        fast, ref = build(spec), build(spec, QuadraticNetwork)
        assert fast.optimize(effort) == ref.optimize(effort)
        assert sops(fast) == sops(ref)
        assert fast.topological_order() == ref.topological_order()


class TestTopologicalOrder:
    @given(network_specs())
    @settings(max_examples=200, deadline=None)
    def test_matches_recursive_order(self, spec):
        fast, ref = build(spec), build(spec, QuadraticNetwork)
        assert fast.topological_order() == ref.topological_order()
        assert fast.depth() == ref.depth()

    def test_deep_chain_sorted_deepest_first(self):
        # m00001 is the output and m01500 reads the inputs, so the
        # name-ordered walk starts at the bottom of a 1,500-level chain.
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        length = 1500
        net.add_node(f"m{length:05d}",
                     [frozenset({("a", True), ("b", True)})])
        for k in range(length - 1, 0, -1):
            side = "a" if k % 2 else "b"
            net.add_node(f"m{k:05d}", [frozenset(
                {(f"m{k + 1:05d}", True), (side, k % 3 != 0)})])
        net.set_output("m00001")
        order = net.topological_order()
        assert order == [f"m{k:05d}" for k in range(length, 0, -1)]
        assert net.depth() == length
        aig = net.to_aig()
        assert aig.num_ands == length
        assert aig.output_names == ["m00001"]

    def test_cycle_still_raises(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("x", [frozenset({("y", True), ("a", True)})])
        net.add_node("y", [frozenset({("x", True)})])
        with pytest.raises(ValueError, match="cycle"):
            net.topological_order()


def _cut_function_recursive(aig, root, leaves):
    """``cut_function`` as it was, verbatim: a recursive walk over
    ``TruthTable`` objects."""
    leaves = tuple(leaves)
    index = {leaf: i for i, leaf in enumerate(leaves)}
    nvars = len(leaves)
    memo: dict[int, TruthTable] = {}

    def node_tt(node: int) -> TruthTable:
        if node in index:
            return TruthTable.var(index[node], nvars)
        if node == 0:
            return TruthTable.const(False, nvars)
        got = memo.get(node)
        if got is not None:
            return got
        if not aig.is_and(node):
            raise ValueError(
                f"node {node} (an input) is outside the cut {leaves}")
        f0, f1 = aig.fanins(node)
        t0 = node_tt(lit_var(f0))
        if lit_is_neg(f0):
            t0 = ~t0
        t1 = node_tt(lit_var(f1))
        if lit_is_neg(f1):
            t1 = ~t1
        result = t0 & t1
        memo[node] = result
        return result

    return node_tt(root)


@st.composite
def aig_cuts(draw):
    """A random AIG (complemented edges included), a root (the constant
    node and the inputs included) and one of its cuts, in any leaf
    order; sometimes with the constant node as an extra leaf, and
    sometimes with a leaf dropped, which may leave the cone uncut."""
    aig = random_aig(draw(st.integers(2, 8)), draw(st.integers(1, 60)), 3,
                     seed=draw(st.integers(0, 2**16)))
    cuts = enumerate_cuts(aig, draw(st.integers(2, 6)), per_node=8)
    root = draw(st.sampled_from(sorted(cuts, reverse=True)))
    leaves = list(draw(st.sampled_from(cuts[root])))
    if draw(st.booleans()):
        leaves.append(0)
    if draw(st.booleans()):
        leaves.pop(draw(st.integers(0, len(leaves) - 1)))
    return aig, root, draw(st.permutations(leaves))


class TestCutFunction:
    @given(aig_cuts())
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive(self, case):
        aig, root, leaves = case
        try:
            want = _cut_function_recursive(aig, root, leaves)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                cut_function(aig, root, leaves)
        else:
            assert cut_function(aig, root, leaves) == want


class TestDeepChains:
    def test_optimize_aig_keeps_deep_chains(self):
        # Positive single-fanout links make one conjunction tree, which
        # ``balance`` collects; complemented links make one deep cone,
        # which ``cut_function`` evaluates for ``rewrite`` (the three
        # inputs cut every link) and ``refactor``.  The recursion
        # limit is set 100 frames above the current depth, so a
        # 250-link chain stands in for one past the default limit:
        # ``balance`` still collects the tree under every link, so it
        # is quadratic in a positive chain's depth (1,500 links take
        # about 2 s).  The positive chain is x0 & x1 & x2, which
        # balances to two ANDs, and one more link !x0 makes it 0.
        for complemented, contradiction in (
                (False, False), (False, True), (True, False)):
            aig = Aig(3)
            x = aig.input_lit(0)
            for k in range(250):
                x = aig.and_(lit_not(x) if complemented else x,
                             aig.input_lit(1 + k % 2))
            if contradiction:
                x = aig.and_(x, lit_not(aig.input_lit(0)))
            aig.add_output(x)
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(len(inspect.stack(0)) + 100)
            try:
                out = optimize_aig(aig)
                bal = balance(aig)
            finally:
                sys.setrecursionlimit(limit)
            assert np.array_equal(out.simulate_all(), aig.simulate_all())
            if not complemented:
                want = (0, 0) if contradiction else (2, 2)
                assert (bal.num_ands, bal.depth()) == want


# ----------------------------------------------------------------------
# Goldens and operation counts on the benchmark-sized AIG
# ----------------------------------------------------------------------

#: Mapped-netlist ``content_digest()`` of the 2016 flow at the default
#: ``FlowOptions`` clock (2000 ps), recorded with the quadratic passes.
GOLDEN_DIGESTS = {
    3: "017b30945d961f95f2bb71755330572b36ec30047b4ceb58a7c578c45d6e5aa8",
    4: "4bedf88576844751e433d6e27afac7cf5b9b08cc1df2a5d65ce9f45a997c45c0",
}

#: The same for the 1996 and 2006 recipes, keyed by (era, seed).  They
#: run the mapper's area cost too, and 2006 runs ``balance``.
ERA_GOLDEN_DIGESTS = {
    ("1996", 3):
        "a7546a24b67352d9c025f59c9364cb1278ecdf8b707f3c14625f2ad8f293292e",
    ("1996", 4):
        "9109118f65df304336c38072040a1689730f9e66ce81d74ab23bb95f5faa32af",
    ("2006", 3):
        "b31f8436661a93bcdffdc1584f16089b609f89c0feb91c8f00fee943e210e0a7",
    ("2006", 4):
        "01256d2fc9ad548a8e3af5b946e49ad5fbc2e84b3fa49a02f39537631888b392",
}


class TestGoldens:
    def test_mapped_netlist_digests_unchanged(self):
        lib = build_library(get_node("28nm"))
        for seed, digest in GOLDEN_DIGESTS.items():
            result = SynthesisFlow(lib, "2016", 2000.0).run(
                random_aig(24, 2000, 24, seed=seed))
            assert result.netlist.content_digest() == digest, seed

    def test_older_era_digests_unchanged(self):
        lib = build_library(get_node("28nm"))
        for (era, seed), digest in ERA_GOLDEN_DIGESTS.items():
            result = SynthesisFlow(lib, era, 2000.0).run(
                random_aig(24, 2000, 24, seed=seed))
            assert result.netlist.content_digest() == digest, (era, seed)


class TestOperationCounts:
    def test_eliminate_dedupes_linearly(self, monkeypatch):
        net = LogicNetwork.from_aig(random_aig(24, 2000, 24, seed=3))
        net.sweep()
        net.simplify()
        net.extract()
        calls = []

        def counting(sop):
            calls.append(1)
            return _dedupe_sop(sop)

        monkeypatch.setattr(network_mod, "_dedupe_sop", counting)
        nodes = net.node_count()
        assert net.eliminate(threshold=0) > 0
        # The quadratic pass made ~1.96 M calls here.
        assert len(calls) <= 4 * nodes

    def test_rewrite_factors_each_function_once(self, monkeypatch):
        aig = balance(random_aig(24, 2000, 24, seed=3))
        functions = []
        minimized = []
        cut_function = rewrite_mod.cut_function
        espresso_tt = rewrite_mod.espresso_tt

        def spy_cut(*args):
            tt = cut_function(*args)
            if not (tt.is_contradiction() or tt.is_tautology()):
                functions.append(tt)
            return tt

        def spy_espresso(tt):
            minimized.append(tt)
            return espresso_tt(tt)

        monkeypatch.setattr(rewrite_mod, "cut_function", spy_cut)
        monkeypatch.setattr(rewrite_mod, "espresso_tt", spy_espresso)
        # One rewrite pass, then the whole script: its rewrite, refactor
        # and rewrite passes share one memo.
        for optimize in (rewrite_mod.rewrite, rewrite_mod.optimize_aig):
            functions.clear()
            minimized.clear()
            optimize(aig)
            assert len(functions) > len(set(functions))
            assert sorted(minimized, key=repr) == \
                sorted(set(functions), key=repr)
