"""K-feasible cut enumeration and cut functions on AIGs.

Shared by the rewriter (4-cuts resynthesized locally) and the
technology mapper (cuts matched against library cells).
"""

from __future__ import annotations

from repro.netlist.aig import Aig, lit_is_neg, lit_var
from repro.netlist.boolfunc import TruthTable
from repro.netlist.cubes import literal_masks


def enumerate_cuts(aig: Aig, k: int = 4, per_node: int = 8) -> dict:
    """All k-feasible cuts per node.

    Returns node -> list of cuts; each cut is a sorted tuple of leaf
    node ids.  The trivial cut ``(node,)`` is always included.  At most
    ``per_node`` non-trivial cuts are kept per node (smallest first),
    the standard priority-cut pruning.
    """
    if k < 2:
        raise ValueError("cut size must be >= 2")
    cuts: dict[int, list] = {0: [(0,)]}
    for i in range(1, aig.num_inputs + 1):
        cuts[i] = [(i,)]
    for n in range(aig.num_inputs + 1, aig.num_nodes):
        f0, f1 = aig.fanins(n)
        merged = set()
        for c0 in cuts[lit_var(f0)]:
            for c1 in cuts[lit_var(f1)]:
                u = tuple(sorted(set(c0) | set(c1)))
                if len(u) <= k:
                    merged.add(u)
        # Drop dominated cuts (supersets of another cut).
        pruned = []
        for c in sorted(merged, key=len):
            if not any(set(p) <= set(c) for p in pruned):
                pruned.append(c)
        cuts[n] = pruned[:per_node] + [(n,)]
    return cuts


def cut_function(aig: Aig, root: int, leaves) -> TruthTable:
    """Truth table of ``root``'s function over the cut ``leaves``.

    The table is over ``len(leaves)`` variables in leaf order.  Edge
    complementations inside the cone are folded into the table.  The
    cone is evaluated on integer masks with an explicit stack, so a
    deep cone does not hit the recursion limit.
    """
    leaves = tuple(leaves)
    nvars = len(leaves)
    masks = literal_masks(nvars)   # ValueError past MAX_VARS inputs
    full = (1 << (1 << nvars)) - 1
    value = {leaf: masks[i][1] for i, leaf in enumerate(leaves)}
    value.setdefault(0, 0)   # the constant node, unless it is a leaf
    stack = [root]
    while stack:
        node = stack[-1]
        if node in value:
            stack.pop()
            continue
        if not aig.is_and(node):
            raise ValueError(
                f"node {node} (an input) is outside the cut {leaves}")
        f0, f1 = aig.fanins(node)
        v0 = value.get(lit_var(f0))
        v1 = value.get(lit_var(f1))
        if v0 is None or v1 is None:
            # Fanin 0's cone first, as a recursive walk would go.
            if v1 is None:
                stack.append(lit_var(f1))
            if v0 is None:
                stack.append(lit_var(f0))
            continue
        stack.pop()
        if lit_is_neg(f0):
            v0 ^= full
        if lit_is_neg(f1):
            v1 ^= full
        value[node] = v0 & v1
    return TruthTable(nvars, value[root])


def cut_volume(aig: Aig, root: int, leaves) -> int:
    """Number of AND nodes strictly inside the cut cone."""
    leaves = set(leaves)
    seen = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if n in seen or n in leaves or not aig.is_and(n):
            continue
        seen.add(n)
        f0, f1 = aig.fanins(n)
        stack.append(lit_var(f0))
        stack.append(lit_var(f1))
    return len(seen)
