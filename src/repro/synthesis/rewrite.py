"""AIG optimization: balance, refactor, and cut-based rewriting.

These are the 2010s-generation optimizations that, stacked on top of
the classic two-level/multi-level passes, produce the decade-of-
improvement ladder of experiment E1.
"""

from __future__ import annotations

import heapq

from repro.netlist.aig import (
    AIG_FALSE,
    AIG_TRUE,
    Aig,
    lit_is_neg,
    lit_not,
    lit_var,
)
from repro.netlist.boolfunc import TruthTable
from repro.synthesis.cuts import cut_function, enumerate_cuts
from repro.synthesis.division import factor, sop_from_cover
from repro.synthesis.espresso import espresso_tt

#: Cut size, and non-trivial cuts kept per node, for :func:`rewrite`.
_REWRITE_CUT_SIZE = 4
_REWRITE_CUTS_PER_NODE = 5
#: Widest output cone (in inputs) that :func:`refactor` collapses.
_MAX_SUPPORT = 10


def balance(aig: Aig) -> Aig:
    """Depth-optimal restructuring of AND trees.

    Maximal conjunction trees (chains of ANDs linked by positive,
    single-fanout edges) are collected and rebuilt as balanced trees,
    pairing the shallowest operands first — the standard ``balance``
    pass.  A tree's repeated operands count once, and a tree that
    holds a literal and its complement is constant 0.  Node count
    never increases; depth typically drops.
    """
    new = Aig(aig.num_inputs, list(aig.input_names))
    mapping: dict[int, int] = {0: AIG_FALSE}
    for i in range(aig.num_inputs):
        mapping[i + 1] = new.input_lit(i)
    fanout = aig.fanout_counts()

    def collect(root: int) -> list:
        """The operands of the conjunction tree rooted at AND node
        ``root``, left to right, walked with an explicit stack."""
        operands = []
        stack = [(2 * root, True)]
        while stack:
            lit, top = stack.pop()
            node = lit_var(lit)
            if (not lit_is_neg(lit) and aig.is_and(node)
                    and (top or fanout[node] == 1)):
                f0, f1 = aig.fanins(node)
                stack.append((f1, False))
                stack.append((f0, False))
            else:
                operands.append(lit)
        return operands

    def translate(lit: int) -> int:
        node = lit_var(lit)
        base = mapping[node]
        return lit_not(base) if lit_is_neg(lit) else base

    levels_new: dict[int, int] = {}

    def level_of(lit: int) -> int:
        return levels_new.get(lit_var(lit), 0)

    for n in range(aig.num_inputs + 1, aig.num_nodes):
        # Translate to new-graph literals, each once, in first-seen
        # order; a literal beside its complement makes the tree 0.
        ops = dict.fromkeys(translate(o) for o in collect(n))
        if any(lit_not(o) in ops for o in ops):
            mapping[n] = AIG_FALSE
            continue
        # Pair shallowest-first, ties by arrival.  Only a node that
        # ``and_`` creates gets a level, so no level changes mid-tree.
        heap = [(level_of(o), k, o) for k, o in enumerate(ops)]
        heapq.heapify(heap)
        arrival = len(heap)
        while len(heap) > 1:
            _, _, a = heapq.heappop(heap)
            _, _, b = heapq.heappop(heap)
            before = new.num_nodes
            lit = new.and_(a, b)
            if new.num_nodes > before:
                levels_new[lit_var(lit)] = 1 + max(level_of(a), level_of(b))
            heapq.heappush(heap, (level_of(lit), arrival, lit))
            arrival += 1
        mapping[n] = heap[0][2]
    for lit, name in zip(aig.outputs, aig.output_names):
        new.add_output(translate(lit), name)
    return new.cleanup()


def _build_factored(aig: Aig, tree, leaf_lits: list) -> int:
    """Instantiate a factored expression tree into ``aig``."""
    kind = tree[0]
    if kind == "const":
        return AIG_TRUE if tree[1] else AIG_FALSE
    if kind == "lit":
        _, name, phase = tree
        lit = leaf_lits[name]
        return lit if phase else lit_not(lit)
    if kind == "and":
        acc = AIG_TRUE
        for child in tree[1]:
            acc = aig.and_(acc, _build_factored(aig, child, leaf_lits))
        return acc
    if kind == "or":
        acc = AIG_FALSE
        for child in tree[1]:
            acc = aig.or_(acc, _build_factored(aig, child, leaf_lits))
        return acc
    raise ValueError(f"bad factor tree node {kind!r}")


def _factored(tt: TruthTable, trees: dict):
    """Minimal-effort resynthesis of a small function: espresso, then
    quick-factor; returns the tree :func:`_build_factored` instantiates.
    The tree is a pure function of ``tt``, so it is memoized in
    ``trees`` and all uses of one function share one (read-only)
    tree."""
    tree = trees.get(tt)
    if tree is None:
        if tt.is_contradiction():
            tree = ("const", False)
        elif tt.is_tautology():
            tree = ("const", True)
        else:
            cover = espresso_tt(tt)
            tree = factor(sop_from_cover(cover, list(range(tt.nvars))))
        trees[tt] = tree
    return tree


def rewrite(aig: Aig) -> Aig:
    """Cut-based rewriting.

    Rebuilds the graph bottom-up.  For every AND node the rewriter
    considers (a) the direct reconstruction and (b) a resynthesis of
    each enumerated cut's function (espresso + quick-factor), and keeps
    whichever adds the fewest nodes to the new graph — structural
    hashing makes reuse of existing logic free.  Dead alternatives are
    swept by the final cleanup.  Cuts of different nodes often share
    a function, so each distinct truth table is factored once per call.
    The per-node choice is local: a resynthesized cut can duplicate
    logic that other fanouts still need, so a result larger than the
    (cleaned) input is discarded and the input returned instead.
    """
    return _rewrite(aig, {})


def _rewrite(aig: Aig, trees: dict) -> Aig:
    """:func:`rewrite` with the factored trees memoized in ``trees``."""
    cuts = enumerate_cuts(aig, _REWRITE_CUT_SIZE, _REWRITE_CUTS_PER_NODE)
    new = Aig(aig.num_inputs, list(aig.input_names))
    mapping: dict[int, int] = {0: AIG_FALSE}
    for i in range(aig.num_inputs):
        mapping[i + 1] = new.input_lit(i)

    for n in range(aig.num_inputs + 1, aig.num_nodes):
        f0, f1 = aig.fanins(n)
        a = mapping[lit_var(f0)] ^ (f0 & 1)
        b = mapping[lit_var(f1)] ^ (f1 & 1)
        before = new.num_nodes
        best_lit = new.and_(a, b)
        best_added = new.num_nodes - before
        for cut in cuts[n]:
            if len(cut) < 2 or cut == (n,):
                continue
            tree = _factored(cut_function(aig, n, cut), trees)
            leaf_lits = [mapping[leaf] for leaf in cut]
            start = new.num_nodes
            cand = _build_factored(new, tree, leaf_lits)
            added = new.num_nodes - start
            if added < best_added:
                best_lit, best_added = cand, added
        mapping[n] = best_lit
    for lit, name in zip(aig.outputs, aig.output_names):
        new.add_output(mapping[lit_var(lit)] ^ (lit & 1), name)
    result = new.cleanup()
    base = aig.cleanup()
    return result if result.num_ands <= base.num_ands else base


def refactor(aig: Aig) -> Aig:
    """Collapse-and-resynthesize outputs with small structural support.

    Each output cone whose support fits in ``_MAX_SUPPORT`` (10)
    inputs is collapsed to a truth table, minimized, factored, and
    rebuilt; the new cone is kept only if the overall graph shrinks.
    """
    return _refactor(aig, {})


def _refactor(aig: Aig, trees: dict) -> Aig:
    """:func:`refactor` with the factored trees memoized in ``trees``."""
    result = aig
    for out_idx in range(len(aig.outputs)):
        support = _output_support(result, out_idx)
        if not 1 <= len(support) <= _MAX_SUPPORT:
            continue
        candidate = _refactor_one(result, out_idx, support, trees)
        if candidate.num_ands < result.num_ands:
            result = candidate
    return result


def _output_support(aig: Aig, out_idx: int) -> list:
    lit = aig.outputs[out_idx]
    seen = set()
    support = []
    stack = [lit_var(lit)]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if aig.is_input(node):
            support.append(node)
        elif aig.is_and(node):
            f0, f1 = aig.fanins(node)
            stack.append(lit_var(f0))
            stack.append(lit_var(f1))
    return sorted(support)


def _refactor_one(aig: Aig, out_idx: int, support: list,
                  trees: dict) -> Aig:
    lit = aig.outputs[out_idx]
    tt = cut_function(aig, lit_var(lit), support)
    if lit_is_neg(lit):
        tt = ~tt
    new = Aig(aig.num_inputs, list(aig.input_names))
    mapping: dict[int, int] = {0: AIG_FALSE}
    for i in range(aig.num_inputs):
        mapping[i + 1] = new.input_lit(i)
    # Copy all other outputs' cones verbatim.
    for n in range(aig.num_inputs + 1, aig.num_nodes):
        f0, f1 = aig.fanins(n)
        a = mapping[lit_var(f0)] ^ (f0 & 1)
        b = mapping[lit_var(f1)] ^ (f1 & 1)
        mapping[n] = new.and_(a, b)
    leaf_lits = [mapping[leaf] for leaf in support]
    new_lit = _build_factored(new, _factored(tt, trees), leaf_lits)
    for k, (olit, name) in enumerate(zip(aig.outputs, aig.output_names)):
        if k == out_idx:
            new.add_output(new_lit, name)
        else:
            new.add_output(mapping[lit_var(olit)] ^ (olit & 1), name)
    return new.cleanup()


def optimize_aig(aig: Aig) -> Aig:
    """The AIG optimization script: balance, rewrite, refactor,
    balance, rewrite, balance (compare the ABC ``resyn2`` recipe).

    The passes of one call share one memo of factored trees, so each
    distinct cut function is minimized once per call.
    """
    trees: dict[TruthTable, tuple] = {}
    g = balance(aig)
    g = _rewrite(g, trees)
    g = _refactor(g, trees)
    g = balance(g)
    g = _rewrite(g, trees)
    return balance(g)
