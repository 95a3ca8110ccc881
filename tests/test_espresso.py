"""Tests for two-level minimization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.boolfunc import MAX_VARS, TruthTable
from repro.netlist.cubes import (
    ABSENT,
    Cover,
    Cube,
    cover_covers_cube,
    cube_bits,
    literal_masks,
)
from repro.synthesis.espresso import (
    espresso,
    espresso_tt,
    exact_cover_size_lower_bound,
)

tts = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.builds(
        TruthTable,
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
    )
)


def _covers_over(n, min_size, max_size):
    cube = st.tuples(*[st.sampled_from((0, 1, ABSENT))] * n).map(Cube)
    return st.lists(cube, min_size=min_size, max_size=max_size).map(
        lambda cs: Cover(cs, n))


#: (on-set, dc-set) cover pairs over 1-8 inputs; the dc-set may be empty.
cover_pairs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(_covers_over(n, 1, 8), _covers_over(n, 0, 4)))


# The EXPAND / IRREDUNDANT / REDUCE loop as it was when its oracles
# were the unate-recursive ``cover_covers_cube`` and minterm
# enumeration (copied, minus an unused parameter): the reference the
# mask oracles must reproduce cube for cube.
def _espresso_urp(on_set, dc_set=None, max_loops=8):
    nvars = on_set.nvars
    if dc_set is None:
        dc_set = Cover.empty(nvars)
    cover = on_set.deduplicate()
    if not cover.cubes:
        return cover
    care = Cover(on_set.cubes + dc_set.cubes, nvars)
    best = cover
    best_cost = (best.cube_count(), best.literal_count())
    for _ in range(max_loops):
        cover = _expand_urp(cover, care)
        cover = _irredundant_urp(cover, dc_set)
        cost = (cover.cube_count(), cover.literal_count())
        if cost < best_cost:
            best, best_cost = cover, cost
        else:
            break
        cover = _reduce_urp(cover, dc_set)
    return best


def _expand_urp(cover, care):
    ordered = sorted(
        cover.cubes,
        key=lambda c: (-sum(1 for v in c.literals if v == ABSENT),
                       c.literals))
    primes = []
    for cube in ordered:
        if any(p.covers(cube) for p in primes):
            continue
        expanded = cube
        for var in range(cover.nvars):
            if expanded.literals[var] == ABSENT:
                continue
            candidate = expanded.expand_var(var)
            if cover_covers_cube(care, candidate):
                expanded = candidate
        primes.append(expanded)
    return Cover(primes, cover.nvars)


def _irredundant_urp(cover, dc_set):
    cubes = sorted(
        cover.cubes,
        key=lambda c: (sum(1 for v in c.literals if v == ABSENT),
                       c.literals))
    kept = list(cubes)
    for cube in cubes:
        others = [c for c in kept if c != cube]
        rest = Cover(others + dc_set.cubes, cover.nvars)
        if cover_covers_cube(rest, cube):
            kept = others
    return Cover(kept, cover.nvars)


def _reduce_urp(cover, dc_set):
    out = []
    current = list(cover.cubes)
    for i, cube in enumerate(current):
        others = Cover(out + current[i + 1:] + dc_set.cubes,
                       cover.nvars)
        essential = [m for m in cube.minterms()
                     if not others.evaluate(m)]
        if not essential:
            continue
        out.append(_supercube_urp(essential, cover.nvars))
    return Cover(out, cover.nvars) if out else cover


def _supercube_urp(minterms, nvars):
    lits = list(Cube.from_minterm(minterms[0], nvars).literals)
    for m in minterms[1:]:
        for var in range(nvars):
            bit = (m >> var) & 1
            if lits[var] != ABSENT and lits[var] != bit:
                lits[var] = ABSENT
    return Cube(tuple(lits))


class TestMaskOracles:
    @given(cover_pairs, st.data())
    @settings(max_examples=200, deadline=None)
    def test_containment_matches_urp(self, pair, data):
        on, dc = pair
        n = on.nvars
        masks = literal_masks(n)
        for dcs in (Cover.empty(n), dc):
            care = Cover(on.cubes + dcs.cubes, n)
            bits = care.to_truth_table().bits
            # EXPAND's candidates (each cube with one literal dropped),
            # the cubes themselves, and one arbitrary cube.
            probes = [c.expand_var(v) for c in on.cubes
                      for v in range(n) if c.literals[v] != ABSENT]
            probes += on.cubes
            probes.append(data.draw(st.tuples(
                *[st.sampled_from((0, 1, ABSENT))] * n).map(Cube)))
            for cube in probes:
                inside = not cube_bits(cube.literals, masks) & ~bits
                assert inside == cover_covers_cube(care, cube), cube

    @given(cover_pairs)
    @settings(max_examples=150, deadline=None)
    def test_minimized_cover_matches_urp(self, pair):
        on, dc = pair
        for dcs in (None, dc):
            got = espresso(on, dcs)
            want = _espresso_urp(on, dcs)
            assert got.cubes == want.cubes

    def test_wider_than_max_vars_raises(self):
        wide = Cover([Cube((1,) * (MAX_VARS + 1))], MAX_VARS + 1)
        with pytest.raises(ValueError, match="at most 16 inputs"):
            espresso(wide)


class TestEspressoCorrectness:
    @given(tts)
    @settings(max_examples=80, deadline=None)
    def test_preserves_function(self, f):
        cover = espresso_tt(f)
        assert cover.to_truth_table().bits == f.bits

    @given(tts, tts)
    @settings(max_examples=40, deadline=None)
    def test_respects_dont_cares(self, f, d):
        if f.nvars != d.nvars:
            return
        on = f & ~d  # keep on/dc disjoint for the bound check
        cover = espresso(Cover.from_truth_table(on),
                         Cover.from_truth_table(d))
        got = cover.to_truth_table()
        # Must cover all of the on-set...
        assert (got.bits & on.bits) == on.bits
        # ...and nothing outside on+dc.
        assert got.bits & ~(on.bits | d.bits) == 0

    @given(tts)
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_minterms(self, f):
        cover = espresso_tt(f)
        canonical = Cover.from_truth_table(f)
        assert cover.cube_count() <= max(canonical.cube_count(), 1)
        assert cover.literal_count() <= canonical.literal_count()

    @given(tts)
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_respected(self, f):
        cover = espresso_tt(f)
        if cover.cubes:
            lb = exact_cover_size_lower_bound(Cover.from_truth_table(f))
            assert cover.cube_count() >= min(lb, cover.cube_count())


class TestEspressoQuality:
    def test_xor_stays_two_cubes(self):
        f = TruthTable.from_string("0110")
        cover = espresso_tt(f)
        assert cover.cube_count() == 2
        assert cover.literal_count() == 4

    def test_redundant_cover_collapses(self):
        # f = a (4 minterms over 3 vars) given as minterms: one cube.
        f = TruthTable.var(0, 3)
        cover = espresso_tt(f)
        assert cover.cube_count() == 1
        assert cover.literal_count() == 1

    def test_classic_example(self):
        # f = a'b' + a'b + ab = a' + b  (2 cubes, 2 literals)
        f = TruthTable.from_minterms([0, 2, 3], 2)
        cover = espresso_tt(f)
        assert cover.cube_count() == 2
        assert cover.literal_count() == 2

    def test_dont_cares_enable_bigger_cubes(self):
        # on = minterm 3 (ab); dc = minterms 1, 2: espresso can pick a
        # single-literal cube.
        on = TruthTable.from_minterms([3], 2)
        dc = TruthTable.from_minterms([1, 2], 2)
        cover = espresso_tt(on, dc)
        assert cover.literal_count() == 1

    def test_constant_one(self):
        f = TruthTable.const(True, 3)
        cover = espresso_tt(f)
        assert cover.cube_count() == 1
        assert cover.cubes[0].literal_count() == 0

    def test_constant_zero(self):
        cover = espresso_tt(TruthTable.const(False, 3))
        assert cover.cube_count() == 0

    def test_majority_function(self):
        # maj(a,b,c): minimal SOP is ab + ac + bc (6 literals).
        f = TruthTable.from_minterms([3, 5, 6, 7], 3)
        cover = espresso_tt(f)
        assert cover.cube_count() == 3
        assert cover.literal_count() == 6

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            espresso(Cover.empty(2), Cover.empty(3))

    def test_empty_cover_passthrough(self):
        out = espresso(Cover.empty(3))
        assert out.cube_count() == 0
