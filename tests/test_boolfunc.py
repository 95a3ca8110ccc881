"""Tests for truth tables, cubes, and covers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.boolfunc import (
    MAX_VARS,
    TruthTable,
    tt_and2,
    tt_nand2,
    tt_nor2,
    tt_or2,
    tt_xor2,
)
from repro.netlist.cubes import (
    ABSENT,
    Cover,
    Cube,
    cover_covers_cube,
)


def random_tt(draw, nvars):
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << nvars)) - 1))
    return TruthTable(nvars, bits)


tts = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.builds(
        TruthTable,
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
    )
)


# Verbatim copies of the minterm loops that ``TruthTable.var``,
# ``Cube.to_truth_table`` and ``Cover.to_truth_table`` used before they
# became closed forms over ``var_mask``; the references below compare
# against them.
def _var_by_loop(index, nvars):
    if not 0 <= index < nvars:
        raise ValueError(f"var index {index} out of range for {nvars}")
    bits = 0
    for m in range(1 << nvars):
        if m >> index & 1:
            bits |= 1 << m
    return TruthTable(nvars, bits)


def _cube_tt_by_loop(cube):
    return TruthTable.from_minterms(cube.minterms(), cube.nvars)


def _cover_tt_by_loop(cover):
    bits = 0
    for m in range(1 << cover.nvars):
        if cover.evaluate(m):
            bits |= 1 << m
    return TruthTable(cover.nvars, bits)


cubes = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(*[st.sampled_from((0, 1, ABSENT))] * n).map(Cube))
covers = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.sampled_from((0, 1, ABSENT))] * n).map(Cube),
        max_size=6).map(lambda cs, n=n: Cover(cs, n)))


class TestClosedFormTables:
    def test_var_matches_loop_up_to_max_vars(self):
        for nvars in range(MAX_VARS + 1):
            for index in range(nvars):
                assert TruthTable.var(index, nvars) == \
                    _var_by_loop(index, nvars)

    def test_var_rejects_what_the_loop_rejects(self):
        for index, nvars in ((0, 0), (2, 2), (-1, 3)):
            with pytest.raises(ValueError):
                _var_by_loop(index, nvars)
            with pytest.raises(ValueError):
                TruthTable.var(index, nvars)
        with pytest.raises(ValueError):
            TruthTable.var(0, MAX_VARS + 1)

    @given(cubes)
    @settings(max_examples=200)
    def test_cube_table_matches_loop(self, cube):
        assert cube.to_truth_table() == _cube_tt_by_loop(cube)

    @given(covers)
    @settings(max_examples=200)
    def test_cover_table_matches_loop(self, cover):
        assert cover.to_truth_table() == _cover_tt_by_loop(cover)


class TestTruthTable:
    def test_const(self):
        assert TruthTable.const(True, 3).is_tautology()
        assert TruthTable.const(False, 3).is_contradiction()

    def test_var_projection(self):
        a = TruthTable.var(0, 3)
        for m in range(8):
            assert a.evaluate(m) == bool(m & 1)

    def test_basic_gates(self):
        assert tt_and2().minterms() == [3]
        assert tt_or2().minterms() == [1, 2, 3]
        assert tt_xor2().minterms() == [1, 2]
        assert (~tt_and2()).bits == tt_nand2().bits
        assert (~tt_or2()).bits == tt_nor2().bits

    def test_operators_match_semantics(self):
        a = TruthTable.var(0, 2)
        b = TruthTable.var(1, 2)
        assert (a & b).bits == tt_and2().bits
        assert (a | b).bits == tt_or2().bits
        assert (a ^ b).bits == tt_xor2().bits

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            TruthTable.var(0, 2) & TruthTable.var(0, 3)

    def test_from_string_roundtrip(self):
        s = "0111"
        assert TruthTable.from_string(s).to_binary_string() == s

    def test_from_string_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TruthTable.from_string("011")

    def test_from_minterms_bounds(self):
        with pytest.raises(ValueError):
            TruthTable.from_minterms([4], 2)

    def test_cofactor_and_support(self):
        f = tt_and2()
        # Cofactor keeps arity: f(a=1) = b, true wherever bit b is set.
        assert f.cofactor(0, True).minterms() == [2, 3]
        assert f.cofactor(0, False).is_contradiction()
        assert f.support() == [0, 1]
        g = TruthTable.var(0, 3)
        assert g.support() == [0]

    def test_expand_vars(self):
        a = TruthTable.var(0, 1)
        wide = a.expand_vars(3, mapping=[2])
        assert wide.bits == TruthTable.var(2, 3).bits

    def test_expand_vars_rejects_shrink(self):
        with pytest.raises(ValueError):
            tt_and2().expand_vars(1)

    def test_var_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.var(2, 2)

    @given(tts)
    @settings(max_examples=60)
    def test_double_negation(self, f):
        assert (~~f).bits == f.bits

    @given(tts)
    @settings(max_examples=60)
    def test_excluded_middle(self, f):
        assert (f | ~f).is_tautology()
        assert (f & ~f).is_contradiction()

    @given(tts)
    @settings(max_examples=60)
    def test_shannon_expansion(self, f):
        # f = x*f_x + x'*f_x'
        x = TruthTable.var(0, f.nvars)
        rebuilt = (x & f.cofactor(0, True)) | (~x & f.cofactor(0, False))
        assert rebuilt.bits == f.bits

    @given(tts)
    @settings(max_examples=60)
    def test_minterm_count_consistency(self, f):
        assert len(f.minterms()) == f.count_ones()


class TestCube:
    def test_universe_covers_everything(self):
        u = Cube.universe(3)
        assert all(u.contains_minterm(m) for m in range(8))
        assert u.literal_count() == 0

    def test_from_minterm(self):
        c = Cube.from_minterm(5, 3)
        assert c.literals == (1, 0, 1)
        assert c.minterms() == [5]

    def test_containment(self):
        big = Cube((1, ABSENT, ABSENT))
        small = Cube((1, 0, ABSENT))
        assert big.covers(small)
        assert not small.covers(big)

    def test_intersection(self):
        a = Cube((1, ABSENT))
        b = Cube((ABSENT, 0))
        assert a.intersect(b).literals == (1, 0)
        assert a.intersect(Cube((0, ABSENT))) is None

    def test_distance_and_consensus(self):
        a = Cube((1, 1, ABSENT))
        b = Cube((0, 1, ABSENT))
        assert a.distance(b) == 1
        cons = a.consensus(b)
        assert cons.literals == (ABSENT, 1, ABSENT)
        # Distance 2: no consensus.
        c = Cube((0, 0, ABSENT))
        assert a.consensus(c) is None

    def test_consensus_is_implied(self):
        # The consensus of two cubes is covered by their union.
        a = Cube((1, 1))
        b = Cube((0, 1))
        cons = a.consensus(b)
        cover = Cover([a, b], 2)
        assert all(cover.evaluate(m) for m in cons.minterms())

    def test_bad_literals_rejected(self):
        with pytest.raises(ValueError):
            Cube((3, 1))

    def test_minterms_enumeration(self):
        c = Cube((ABSENT, 1, ABSENT))
        assert c.minterms() == [2, 3, 6, 7]


class TestCover:
    def test_from_truth_table_roundtrip(self):
        f = tt_xor2()
        cov = Cover.from_truth_table(f)
        assert cov.to_truth_table().bits == f.bits

    def test_literal_and_cube_count(self):
        cov = Cover([Cube((1, 1)), Cube((0, ABSENT))], 2)
        assert cov.cube_count() == 2
        assert cov.literal_count() == 3

    def test_deduplicate_removes_contained(self):
        big = Cube((1, ABSENT))
        small = Cube((1, 0))
        cov = Cover([big, small, big], 2).deduplicate()
        assert cov.cube_count() == 1
        assert cov.cubes[0] == big

    def test_tautology_detection(self):
        assert Cover([Cube((1,)), Cube((0,))], 1).is_tautology()
        assert not Cover([Cube((1,))], 1).is_tautology()
        assert Cover([Cube.universe(3)], 3).is_tautology()
        assert not Cover.empty(2).is_tautology()

    def test_tautology_binate_split(self):
        # x*y + x*y' + x'  is a tautology needing a binate split.
        cov = Cover([Cube((1, 1)), Cube((1, 0)), Cube((0, ABSENT))], 2)
        assert cov.is_tautology()

    def test_cover_covers_cube(self):
        # x + x'y covers the cube y (since x + x'y = x + y).
        cov = Cover([Cube((1, ABSENT)), Cube((0, 1))], 2)
        assert cover_covers_cube(cov, Cube((ABSENT, 1)))
        assert not cover_covers_cube(cov, Cube((ABSENT, 0)))

    def test_add_without(self):
        cov = Cover.empty(2).add(Cube((1, 1)))
        assert cov.cube_count() == 1
        assert cov.without(0).cube_count() == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            Cover([Cube((1, 1, 1))], 2)
        with pytest.raises(ValueError):
            Cover.empty(2).add(Cube((1,)))

    @given(tts)
    @settings(max_examples=40)
    def test_minterm_cover_equivalence(self, f):
        assert Cover.from_truth_table(f).to_truth_table().bits == f.bits
