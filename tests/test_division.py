"""Tests for algebraic division, kernels, and factoring."""

import pytest

from repro.netlist.boolfunc import TruthTable
from repro.netlist.cubes import ABSENT, Cover
from repro.synthesis.division import (
    algebraic_divide,
    best_common_kernel,
    factor,
    factor_literal_count,
    kernel_value,
    kernels,
    make_cube,
    sop_from_cover,
    sop_is_algebraic,
    sop_literal_count,
    sop_support,
    sop_to_cover,
)


def lit(name, phase=True):
    return (name, phase)


def sop(*cubes):
    return [frozenset(c) for c in cubes]


class TestSopBasics:
    def test_literal_count_and_support(self):
        f = sop({lit("a"), lit("b")}, {lit("c")})
        assert sop_literal_count(f) == 3
        assert sop_support(f) == {"a", "b", "c"}

    def test_cover_roundtrip(self):
        f = TruthTable.from_minterms([1, 2], 2)  # xor
        cov = Cover.from_truth_table(f)
        s = sop_from_cover(cov, ["a", "b"])
        back = sop_to_cover(s, ["a", "b"])
        assert back.to_truth_table().bits == f.bits

    def test_contradictory_cube_is_dropped(self):
        # a & ~a is constant 0, so the cover is b alone whatever order
        # the cube's frozenset iterates in.
        cover = sop_to_cover(sop({lit("a"), lit("a", False)}, {lit("b")}),
                             ["a", "b"])
        assert cover.nvars == 2
        assert [c.literals for c in cover.cubes] == [(ABSENT, 1)]

    def test_is_algebraic(self):
        assert sop_is_algebraic(sop({lit("a")}, {lit("b"), lit("c")}))
        assert not sop_is_algebraic(sop({lit("a")}, {lit("a"), lit("b")}))


class TestDivision:
    def test_textbook_division(self):
        # f = ac + ad + bc + bd + e;  d = a + b
        f = sop({lit("a"), lit("c")}, {lit("a"), lit("d")},
                {lit("b"), lit("c")}, {lit("b"), lit("d")}, {lit("e")})
        d = sop({lit("a")}, {lit("b")})
        q, r = algebraic_divide(f, d)
        assert set(q) == {frozenset({lit("c")}), frozenset({lit("d")})}
        assert r == [frozenset({lit("e")})]

    def test_division_no_quotient(self):
        f = sop({lit("a"), lit("c")})
        d = sop({lit("b")})
        q, r = algebraic_divide(f, d)
        assert q == []
        assert r == f

    def test_division_by_empty_raises(self):
        with pytest.raises(ValueError):
            algebraic_divide(sop({lit("a")}), [])

    def test_algebraic_condition(self):
        # f = ab; dividing by a gives b, but dividing by ab-sharing
        # divisor must not produce variable overlap.
        f = sop({lit("a"), lit("b")})
        q, r = algebraic_divide(f, sop({lit("a")}))
        assert q == [frozenset({lit("b")})]
        assert r == []


class TestKernels:
    def test_textbook_kernels(self):
        # f = adf + aef + bdf + bef + cdf + cef + g
        #   = (a+b+c)(d+e)f + g
        names = "abcdefg"
        f = sop(*({lit(x), lit(y), lit("f")}
                  for x in "abc" for y in "de"),
                {lit("g")})
        ks = kernels(f)
        kernel_sets = [frozenset(frozenset(c) for c in k) for _, k in ks]
        # (d + e) must be among the kernels.
        de = frozenset({frozenset({lit("d")}), frozenset({lit("e")})})
        abc = frozenset({frozenset({lit("a")}), frozenset({lit("b")}),
                         frozenset({lit("c")})})
        assert de in kernel_sets
        assert abc in kernel_sets

    def test_cube_free_f_is_its_own_kernel(self):
        f = sop({lit("a")}, {lit("b")})
        ks = kernels(f)
        assert any(ck == frozenset() and
                   set(k) == set(f) for ck, k in ks)

    def test_no_kernels_in_single_cube(self):
        assert kernels(sop({lit("a"), lit("b")})) == []

    def test_kernel_value(self):
        k = sop({lit("a")}, {lit("b")})  # 2 cubes, 2 literals
        one_lit_ck = frozenset({lit("x")})
        # Each 1-literal-cokernel use saves 2 + 2*1 - 2 = 2 literals;
        # the body costs 2 once.
        assert kernel_value(k, [one_lit_ck, one_lit_ck]) == 2
        assert kernel_value(k, [one_lit_ck]) == 0
        # An empty-cokernel use saves body-1 literals.
        assert kernel_value(k, [frozenset()]) == -1

    def test_best_common_kernel(self):
        shared = [{lit("a"), lit("x")}, {lit("b"), lit("x")}]
        f1 = sop(*shared, {lit("c")})
        f2 = sop({lit("a"), lit("y")}, {lit("b"), lit("y")}, {lit("d")})
        best = best_common_kernel({"f1": f1, "f2": f2})
        assert best is not None
        kernel, value, users = best
        assert set(kernel) == {frozenset({lit("a")}),
                               frozenset({lit("b")})}
        assert set(users) == {"f1", "f2"}

    def test_best_common_kernel_none(self):
        f1 = sop({lit("a")})
        f2 = sop({lit("b")})
        assert best_common_kernel({"f1": f1, "f2": f2}) is None


class TestFactoring:
    def _eval_tree(self, tree, env):
        kind = tree[0]
        if kind == "const":
            return tree[1]
        if kind == "lit":
            _, name, phase = tree
            return env[name] if phase else not env[name]
        vals = [self._eval_tree(t, env) for t in tree[1]]
        return all(vals) if kind == "and" else any(vals)

    def _eval_sop(self, f, env):
        return any(
            all(env[n] if p else not env[n] for n, p in cube)
            for cube in f
        )

    def test_factor_equivalence_exhaustive(self):
        f = sop({lit("a"), lit("c")}, {lit("a"), lit("d")},
                {lit("b"), lit("c")}, {lit("b"), lit("d")},
                {lit("e", False)})
        tree = factor(f)
        names = sorted(sop_support(f))
        for m in range(1 << len(names)):
            env = {n: bool(m >> i & 1) for i, n in enumerate(names)}
            assert self._eval_tree(tree, env) == self._eval_sop(f, env)

    def test_factor_reduces_literals(self):
        # (a+b)(c+d) expanded has 8 literals; factored has 4.
        f = sop({lit("a"), lit("c")}, {lit("a"), lit("d")},
                {lit("b"), lit("c")}, {lit("b"), lit("d")})
        assert sop_literal_count(f) == 8
        assert factor_literal_count(f) <= 5

    def test_factor_constants(self):
        assert factor([]) == ("const", False)
        assert factor([frozenset()]) == ("const", True)

    def test_factor_single_literal(self):
        assert factor(sop({lit("a")})) == ("lit", "a", True)

    def test_factor_negative_literal(self):
        tree = factor(sop({lit("a", False)}))
        assert tree == ("lit", "a", False)
