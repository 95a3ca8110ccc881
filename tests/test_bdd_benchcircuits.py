"""Tests for BDDs, equivalence checking, and benchmark circuits."""

import numpy as np
import pytest

from repro.netlist import build_library, random_aig
from repro.netlist.benchmark_circuits import (
    all_benchmark_circuits,
    c17,
    comparator,
    decoder,
    gray_to_binary,
    parity_tree,
    popcount,
    priority_encoder,
    reference_c17,
)
from repro.synthesis import map_aig, trivial_map
from repro.synthesis.bdd import (
    BDD_FALSE,
    BDD_TRUE,
    BddManager,
    check_equivalence,
    netlist_bdds,
)
from repro.synthesis.rewrite import optimize_aig
from repro.tech import get_node


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"), vt_flavors=("lvt", "rvt",
                                                       "hvt"))


class TestBddManager:
    def test_terminals(self):
        m = BddManager(2)
        assert m.not_(BDD_TRUE) == BDD_FALSE
        assert m.and_(BDD_TRUE, BDD_TRUE) == BDD_TRUE
        assert m.or_(BDD_FALSE, BDD_FALSE) == BDD_FALSE

    def test_canonicity(self):
        m = BddManager(3)
        a, b = m.var(0), m.var(1)
        # a&b built two ways is the same node.
        assert m.and_(a, b) == m.not_(m.or_(m.not_(a), m.not_(b)))
        # xor both ways.
        assert m.xor_(a, b) == m.xor_(b, a)

    def test_evaluate_matches_semantics(self):
        m = BddManager(3)
        a, b, c = (m.var(i) for i in range(3))
        f = m.or_(m.and_(a, b), c)
        for mt in range(8):
            env = {i: bool(mt >> i & 1) for i in range(3)}
            want = (env[0] and env[1]) or env[2]
            assert m.evaluate(f, env) == want

    def test_sat_count(self):
        m = BddManager(3)
        a, b, c = (m.var(i) for i in range(3))
        assert m.sat_count(m.and_(a, b)) == 2       # c free
        assert m.sat_count(m.or_(a, m.or_(b, c))) == 7
        assert m.sat_count(BDD_TRUE) == 8
        assert m.sat_count(BDD_FALSE) == 0

    def test_any_sat(self):
        m = BddManager(2)
        a, b = m.var(0), m.var(1)
        f = m.and_(a, m.not_(b))
        sat = m.any_sat(f)
        assert sat[0] is True and sat[1] is False
        assert m.any_sat(BDD_FALSE) is None

    def test_size_reduced(self):
        m = BddManager(4)
        # Parity of 4 vars: ROBDD size is linear (7 internal nodes).
        f = BDD_FALSE
        for i in range(4):
            f = m.xor_(f, m.var(i))
        assert m.size(f) == 7

    def test_var_bounds(self):
        m = BddManager(2)
        with pytest.raises(ValueError):
            m.var(2)


class TestEquivalenceChecking:
    def test_mapped_equivalent_to_trivial(self, lib):
        aig = random_aig(9, 150, 6, seed=7)
        rep = check_equivalence(map_aig(aig, lib), trivial_map(aig, lib))
        assert rep["equivalent"]
        assert rep["counterexample"] is None

    def test_optimized_pipeline_formally_equivalent(self, lib):
        aig = random_aig(8, 120, 5, seed=9)
        opt = optimize_aig(aig.copy())
        rep = check_equivalence(map_aig(aig, lib), map_aig(opt, lib))
        assert rep["equivalent"]

    def test_detects_injected_bug_with_counterexample(self, lib):
        aig = random_aig(8, 120, 5, seed=11)
        good = map_aig(aig, lib)
        bad = trivial_map(aig, lib)
        for g in bad.combinational_gates():
            if g.cell.name.startswith("AND2"):
                g.cell = lib["NAND2_X1_rvt"]
                break
        rep = check_equivalence(good, bad)
        assert not rep["equivalent"]
        cex = rep["counterexample"]
        assert cex is not None
        # The counterexample must actually distinguish the designs.
        vec = np.array([[cex.get(p, False)
                         for p in good.primary_inputs]], dtype=bool)
        assert not np.array_equal(good.simulate(vec),
                                  bad.simulate(vec))

    def test_interface_mismatch_rejected(self, lib):
        a = c17(lib)
        b = parity_tree(4, lib)
        with pytest.raises(ValueError):
            check_equivalence(a, b)

    def test_netlist_bdds_cover_outputs(self, lib):
        nl = c17(lib)
        _, bdds = netlist_bdds(nl)
        assert set(bdds) == set(nl.primary_outputs)


class TestBenchmarkCircuits:
    def test_c17_matches_reference(self, lib):
        nl = c17(lib)
        nl.validate()
        for m in range(32):
            bits = [bool(m >> i & 1) for i in range(5)]
            vec = np.array([bits], dtype=bool)
            got = nl.simulate(vec)[0]
            want = reference_c17(*bits)
            assert (got[0], got[1]) == want, m

    def test_decoder_one_hot(self, lib):
        bits = 3
        nl = decoder(bits, lib)
        nl.validate()
        for m in range(1 << bits):
            vec = np.array([[bool(m >> i & 1) for i in range(bits)]],
                           dtype=bool)
            out = nl.simulate(vec)[0]
            assert out.sum() == 1
            assert bool(out[m])

    def test_comparator(self, lib):
        bits = 4
        nl = comparator(bits, lib)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = int(rng.integers(0, 1 << bits))
            b = a if rng.random() < 0.5 else int(
                rng.integers(0, 1 << bits))
            vec = np.array([[bool(a >> i & 1) for i in range(bits)]
                            + [bool(b >> i & 1) for i in range(bits)]],
                           dtype=bool)
            assert nl.simulate(vec)[0][0] == (a == b)

    def test_priority_encoder(self, lib):
        bits = 4
        nl = priority_encoder(bits, lib)
        for m in range(1, 1 << bits):
            vec = np.array([[bool(m >> i & 1) for i in range(bits)]],
                           dtype=bool)
            out = nl.simulate(vec)[0]
            highest = max(i for i in range(bits) if m >> i & 1)
            assert out.sum() == 1
            assert bool(out[highest])

    def test_popcount(self, lib):
        bits = 6
        nl = popcount(bits, lib)
        for m in range(1 << bits):
            vec = np.array([[bool(m >> i & 1) for i in range(bits)]],
                           dtype=bool)
            out = nl.simulate(vec)[0]
            got = sum(int(v) << i for i, v in enumerate(out))
            assert got == bin(m).count("1"), m

    def test_parity(self, lib):
        bits = 8
        nl = parity_tree(bits, lib)
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = int(rng.integers(0, 1 << bits))
            vec = np.array([[bool(m >> i & 1) for i in range(bits)]],
                           dtype=bool)
            assert nl.simulate(vec)[0][0] == (bin(m).count("1") % 2 == 1)

    def test_gray_to_binary(self, lib):
        bits = 4
        nl = gray_to_binary(bits, lib)
        for value in range(1 << bits):
            gray = value ^ (value >> 1)
            vec = np.array([[bool(gray >> i & 1) for i in range(bits)]],
                           dtype=bool)
            out = nl.simulate(vec)[0]
            got = sum(int(v) << i for i, v in enumerate(out))
            assert got == value, value

    def test_all_factories_instantiate(self, lib):
        circuits = all_benchmark_circuits(lib)
        assert len(circuits) == 7
        for name, nl in circuits.items():
            nl.validate()
            assert nl.num_instances() > 0, name

    def test_size_validation(self, lib):
        with pytest.raises(ValueError):
            decoder(0, lib)
        with pytest.raises(ValueError):
            popcount(1, lib)
