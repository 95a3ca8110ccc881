"""Two-level minimization: the EXPAND / IRREDUNDANT / REDUCE loop.

A faithful (single-output) implementation of the Espresso heuristic
loop.  Correctness is guaranteed by construction: every step preserves
``on_set <= cover <= on_set + dc_set``, verified by the property tests.

Covers here have at most ``MAX_VARS`` (16) inputs, so the containment
and essential-minterm oracles are exact operations on truth-table
masks: a cube's mask is the AND of its literals' masks and a cover's
the OR of its cubes' (:func:`repro.netlist.cubes.literal_masks`).  The
unate-recursive paradigm of the original
(:func:`repro.netlist.cubes.cover_covers_cube`) is the reference the
tests compare these oracles against.
"""

from __future__ import annotations

from repro.netlist.boolfunc import MAX_VARS, TruthTable
from repro.netlist.cubes import ABSENT, Cover, Cube, cube_bits, literal_masks

#: Safety bound on EXPAND/IRREDUNDANT/REDUCE passes.
_MAX_LOOPS = 8


def espresso(on_set: Cover, dc_set: Cover | None = None) -> Cover:
    """Minimize a cover heuristically.

    The EXPAND/IRREDUNDANT/REDUCE loop exits as soon as a full pass
    stops improving the (cube, literal) count, and after
    ``_MAX_LOOPS`` (8) passes at the latest.

    Parameters
    ----------
    on_set:
        Cover of the required minterms, over at most ``MAX_VARS`` (16)
        inputs; a wider cover raises ``ValueError``.
    dc_set:
        Optional cover of don't-care minterms (may overlap the on-set).

    Returns
    -------
    A cover ``F`` with ``on_set <= F <= on_set + dc_set`` and (locally)
    minimal cube and literal counts.
    """
    nvars = on_set.nvars
    if nvars > MAX_VARS:
        raise ValueError(
            f"espresso takes at most {MAX_VARS} inputs, not {nvars}")
    if dc_set is None:
        dc_set = Cover.empty(nvars)
    if dc_set.nvars != nvars:
        raise ValueError("on/dc arity mismatch")
    cover = on_set.deduplicate()
    if not cover.cubes:
        return cover
    masks = literal_masks(nvars)
    dc = dc_set.to_truth_table().bits
    care = on_set.to_truth_table().bits | dc

    best = cover
    best_cost = _cost(best)
    for _ in range(_MAX_LOOPS):
        cover = _expand(cover, care, masks)
        cover = _irredundant(cover, dc, masks)
        cost = _cost(cover)
        if cost < best_cost:
            best, best_cost = cover, cost
        else:
            break
        cover = _reduce(cover, dc, masks)
    return best


def espresso_tt(tt: TruthTable, dc: TruthTable | None = None) -> Cover:
    """Minimize a truth table; convenience wrapper for small functions."""
    on = Cover.from_truth_table(tt)
    dcs = Cover.from_truth_table(dc) if dc is not None else None
    return espresso(on, dcs)


def _cost(cover: Cover) -> tuple:
    return (cover.cube_count(), cover.literal_count())


def _expand(cover: Cover, care: int, masks: tuple) -> Cover:
    """Raise each cube maximally while staying inside the care set.

    Cubes are processed largest-first; literals are dropped greedily in
    a fixed variable order (Espresso uses a weighting heuristic; the
    fixed order keeps the implementation deterministic and is close in
    quality on the node sizes we see).  Cubes contained in an already
    expanded prime are dropped on the fly.  Dropping the literal of
    ``var`` adds the cube's minterms with bit ``var`` flipped: a shift
    of its mask by ``2**var``.
    """
    ordered = sorted(
        cover.cubes,
        key=lambda c: (-sum(1 for v in c.literals if v == ABSENT),
                       c.literals))
    primes: list[Cube] = []
    for cube in ordered:
        if any(p.covers(cube) for p in primes):
            continue
        lits = list(cube.literals)
        bits = cube_bits(lits, masks)
        for var, v in enumerate(lits):
            if v == ABSENT:
                continue
            shift = 1 << var
            raised = bits | (bits >> shift if v else bits << shift)
            if not raised & ~care:
                bits = raised
                lits[var] = ABSENT
        primes.append(Cube(tuple(lits)))
    return Cover(primes, cover.nvars)


def _irredundant(cover: Cover, dc: int, masks: tuple) -> Cover:
    """Drop cubes covered by the rest of the cover plus the don't-cares.

    Tries to drop the *largest-cost last* (smallest cubes first) so the
    survivors are the big primes.
    """
    cubes = sorted(
        cover.cubes,
        key=lambda c: (sum(1 for v in c.literals if v == ABSENT),
                       c.literals))
    bits = {c: cube_bits(c.literals, masks) for c in cubes}
    kept = list(cubes)
    for cube in cubes:
        others = [c for c in kept if c != cube]
        rest = dc
        for c in others:
            rest |= bits[c]
        if not bits[cube] & ~rest:
            kept = others
    return Cover(kept, cover.nvars)


def _reduce(cover: Cover, dc: int, masks: tuple) -> Cover:
    """Shrink each cube to the supercube of its essential minterms.

    A cube's essential minterms are those covered by no other cube of
    the (current) cover and not don't-care.  Reducing pulls cubes off
    their local optimum so the next EXPAND can escape it.
    """
    own = [cube_bits(c.literals, masks) for c in cover.cubes]
    # later[i]: the minterms of the cubes from cube i on, unreduced.
    later = [0] * (len(own) + 1)
    for i in range(len(own) - 1, -1, -1):
        later[i] = later[i + 1] | own[i]
    out: list[Cube] = []
    reduced = 0
    for i in range(len(own)):
        # Sequential REDUCE: earlier cubes participate in their already
        # reduced form, later ones unreduced — never both, or minterms
        # handed off to a cube that subsequently shrinks get lost.
        others = reduced | later[i + 1] | dc
        essential = own[i] & ~others
        if not essential:
            continue  # fully redundant; drop
        shrunk = _supercube(essential, masks)
        out.append(shrunk)
        reduced |= cube_bits(shrunk.literals, masks)
    return Cover(out, cover.nvars) if out else cover


def _supercube(bits: int, masks: tuple) -> Cube:
    """Smallest cube containing the (non-empty) minterm set ``bits``."""
    lits = []
    for neg, pos, _ in masks:
        if not bits & pos:
            lits.append(0)
        elif not bits & neg:
            lits.append(1)
        else:
            lits.append(ABSENT)
    return Cube(tuple(lits))


def exact_cover_size_lower_bound(on_set: Cover) -> int:
    """A cheap lower bound on the number of cubes any cover needs.

    Counts a maximal independent set of pairwise-disjoint on-set cubes;
    used by tests to sanity-check espresso's results.
    """
    chosen: list[Cube] = []
    for cube in sorted(on_set.cubes, key=lambda c: -c.literal_count()):
        if all(cube.intersect(c) is None for c in chosen):
            chosen.append(cube)
    return len(chosen)
