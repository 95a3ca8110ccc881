"""Cut-based technology mapping onto a standard-cell library.

Classic DP formulation: enumerate k-feasible cuts, match each cut's
function against library cells (inputs permuted, both output phases),
and choose per node the cover of minimum total cell area.  Negations
ride on inverters; structural sharing is preserved by memoized
instantiation.  Each AIG output becomes one primary output on a net of
its own: an output that repeats an earlier output's net (the same
literal, or the same constant) reads it through a buffer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.netlist.aig import Aig, lit_is_neg, lit_var
from repro.netlist.cells import Cell, CellLibrary
from repro.netlist.circuit import Netlist
from repro.synthesis.cuts import cut_function, enumerate_cuts

_MAX_MATCH_INPUTS = 4
#: Non-trivial cuts kept per node for matching.
_CUTS_PER_NODE = 8


@dataclass
class _Match:
    cut: tuple
    cell: Cell
    perm: tuple          # perm[pin_index] = cut leaf position
    inverted: bool       # True if the cell computes the complement


@dataclass
class _BaseGate:
    """Fallback choice: a 2-input gate straight over the AIG fanins."""

    cell: Cell
    flip: bool           # True for OR/NOR (fanins read complemented)


class _Matcher:
    """Precomputed (arity, truth-bits) -> matches index for a library."""

    def __init__(self, library: CellLibrary, cell_filter=None):
        self.table: dict[tuple, list] = {}
        for cell in library.combinational():
            if cell_filter is not None and not cell_filter(cell):
                continue
            k = cell.num_inputs
            if k > _MAX_MATCH_INPUTS or cell.function is None:
                continue
            for perm in itertools.permutations(range(k)):
                permuted = cell.function.expand_vars(k, list(perm))
                self.table.setdefault((k, permuted.bits), []).append(
                    (cell, perm))

    def matches(self, bits: int, nvars: int) -> list:
        return self.table.get((nvars, bits), [])


def map_aig(aig: Aig, library: CellLibrary, cut_size: int = 4,
            cell_filter=None) -> Netlist:
    """Map an AIG to a gate-level netlist of minimum total cell area.

    Parameters
    ----------
    aig:
        Subject graph.
    library:
        Target :class:`~repro.netlist.CellLibrary`.
    cut_size:
        Largest cut (in leaves) matched against a cell.
    cell_filter:
        Optional predicate restricting usable cells (e.g. only X1 RVT
        for a "2006 era" flow).

    Returns
    -------
    A :class:`~repro.netlist.Netlist` computing the same functions.
    """
    matcher = _Matcher(library, cell_filter)
    inv_cell = _cheapest_unary(library, 0b01, cell_filter, "inverter")
    inv_area = inv_cell.area_um2
    cuts = enumerate_cuts(aig, cut_size, _CUTS_PER_NODE)

    # DP over both polarities: cost[node] is the area of its cover.
    INF = float("inf")
    pos_cost: dict[int, float] = {0: INF}
    neg_cost: dict[int, float] = {0: INF}
    pos_choice: dict[int, object] = {}
    neg_choice: dict[int, object] = {}
    for i in range(1, aig.num_inputs + 1):
        pos_cost[i] = 0.0
        neg_cost[i] = inv_area
        neg_choice[i] = "inv"

    # Fallback two-input gates guarantee every AND node is coverable
    # even when no larger cut matches (e.g. mixed-phase fanins).
    base_gates = {
        name: _cheapest_function(library, bits, cell_filter)
        for name, bits in (("and", 0b1000), ("nand", 0b0111),
                           ("or", 0b1110), ("nor", 0b0001))
    }

    for n in range(aig.num_inputs + 1, aig.num_nodes):
        best_pos, best_pos_choice = INF, None
        best_neg, best_neg_choice = INF, None
        f0, f1 = aig.fanins(n)
        for kind, cell in base_gates.items():
            if cell is None:
                continue
            # AND/NAND read the fanins in their natural phase; OR/NOR
            # read them complemented (De Morgan).
            flip = kind in ("or", "nor")
            total = sum(
                neg_cost[lit_var(f)] if lit_is_neg(f) ^ flip
                else pos_cost[lit_var(f)] for f in (f0, f1)) + cell.area_um2
            choice = _BaseGate(cell, flip)
            if kind in ("and", "nor"):
                if total < best_pos:
                    best_pos, best_pos_choice = total, choice
            else:
                if total < best_neg:
                    best_neg, best_neg_choice = total, choice
        for cut in cuts[n]:
            if cut == (n,):
                continue
            if any(leaf != 0 and leaf not in pos_cost for leaf in cut):
                continue
            tt = cut_function(aig, n, cut)
            leaves_cost = sum(pos_cost[leaf] for leaf in cut if leaf != 0)
            for bits, inverted in ((tt.bits, False), ((~tt).bits, True)):
                for cell, perm in matcher.matches(bits, len(cut)):
                    cost = leaves_cost + cell.area_um2
                    match = _Match(cut, cell, perm, inverted)
                    if inverted:
                        if cost < best_neg:
                            best_neg, best_neg_choice = cost, match
                    else:
                        if cost < best_pos:
                            best_pos, best_pos_choice = cost, match
        # Close the polarity pair with inverters.
        via_inv_pos = best_neg + inv_area
        via_inv_neg = best_pos + inv_area
        if via_inv_pos < best_pos:
            best_pos, best_pos_choice = via_inv_pos, "inv"
        if via_inv_neg < best_neg:
            best_neg, best_neg_choice = via_inv_neg, "inv"
        if best_pos_choice is None and best_neg_choice is None:
            raise RuntimeError(
                f"no match for node {n}; library too sparse")
        pos_cost[n], pos_choice[n] = best_pos, best_pos_choice
        neg_cost[n], neg_choice[n] = best_neg, best_neg_choice

    # ------------------------------------------------------------------
    # Instantiate the chosen cover.
    # ------------------------------------------------------------------
    nl = Netlist("mapped_area", library)
    net_of: dict[tuple, str] = {}
    for i, name in enumerate(aig.input_names):
        net_of[(i + 1, False)] = nl.add_input(name)

    def instantiate(node: int, negated: bool) -> str:
        key = (node, negated)
        if key in net_of:
            return net_of[key]
        choice = (neg_choice if negated else pos_choice)[node]
        if choice == "inv":
            src = instantiate(node, not negated)
            gate = nl.add_gate(inv_cell, [src])
            net_of[key] = gate.output
            return gate.output
        if isinstance(choice, _BaseGate):
            nets = []
            for f in aig.fanins(node):
                v, neg = lit_var(f), lit_is_neg(f) ^ choice.flip
                nets.append(instantiate(v, neg))
            gate = nl.add_gate(choice.cell, nets)
            net_of[key] = gate.output
            return gate.output
        match: _Match = choice
        leaf_nets = {leaf: instantiate(leaf, False) for leaf in match.cut}
        # perm[pin] = leaf position: connect each cell pin accordingly.
        conns = {}
        for pin_idx, pin in enumerate(match.cell.inputs):
            conns[pin] = leaf_nets[match.cut[match.perm[pin_idx]]]
        gate = nl.add_gate(match.cell, conns)
        net_of[key] = gate.output
        return gate.output

    def const_net(value: bool) -> str:
        key = (0, value)
        if key not in net_of:
            tie = library.cells.get("TIEHI" if value else "TIELO")
            if tie is None:
                raise ValueError("constant output needs TIEHI/TIELO cells")
            net_of[key] = nl.add_gate(tie, {}).output
        return net_of[key]

    outputs = []
    for lit in aig.outputs:
        node = lit_var(lit)
        outputs.append(const_net(lit_is_neg(lit)) if node == 0
                       else instantiate(node, lit_is_neg(lit)))
    _declare_outputs(nl, outputs, lambda: _cheapest_unary(
        library, 0b10, cell_filter, "buffer"))
    return nl


def _declare_outputs(nl: Netlist, nets: list[str],
                     buffer: Callable[[], Cell]) -> None:
    """Declare one primary output per entry of ``nets``, in order; a net
    already declared is read through a new ``buffer()`` cell, so no
    two primary outputs share a net."""
    declared: set[str] = set()
    for net in nets:
        if net in declared:
            net = nl.add_gate(buffer(), [net]).output
        declared.add(net)
        nl.add_output(net)


def _cheapest_function(library: CellLibrary, bits: int, cell_filter):
    """Smallest usable 2-input cell computing the given truth bits."""
    candidates = [
        c for c in library.combinational()
        if c.num_inputs == 2 and c.function is not None
        and c.function.bits == bits
        and (cell_filter is None or cell_filter(c))
    ]
    return min(candidates, key=lambda c: c.area_um2) if candidates else None


def _cheapest_unary(library: CellLibrary, bits: int, cell_filter,
                    what: str) -> Cell:
    """Smallest usable 1-input cell computing the given truth bits
    (``0b01`` an inverter, ``0b10`` a buffer)."""
    candidates = [
        c for c in library.combinational()
        if c.num_inputs == 1 and c.function is not None
        and c.function.bits == bits
        and (cell_filter is None or cell_filter(c))
    ]
    if not candidates:
        raise ValueError(f"library has no usable {what}")
    return min(candidates, key=lambda c: c.area_um2)


def trivial_map(aig: Aig, library: CellLibrary) -> Netlist:
    """Naive 1-to-1 mapping: one AND2 per node, INVs on negated edges.

    The "no optimization" strawman baseline of the era comparisons.
    """
    nl = Netlist("trivial", library)
    and2 = library.cheapest("AND2")
    inv = library.cheapest("INV")
    net_of: dict[tuple, str] = {}
    for i, name in enumerate(aig.input_names):
        net_of[(i + 1, False)] = nl.add_input(name)

    def net_for(lit: int) -> str:
        node = lit_var(lit)
        neg = lit_is_neg(lit)
        key = (node, neg)
        if key in net_of:
            return net_of[key]
        if neg:
            src = net_for(2 * node)
            gate = nl.add_gate(inv, [src])
            net_of[key] = gate.output
            return gate.output
        f0, f1 = aig.fanins(node)
        gate = nl.add_gate(and2, [net_for(f0), net_for(f1)])
        net_of[key] = gate.output
        return gate.output

    if any(lit_var(lit) == 0 for lit in aig.outputs):
        raise ValueError("trivial_map cannot express constant outputs")
    _declare_outputs(nl, [net_for(lit) for lit in aig.outputs],
                     lambda: library.cheapest("BUF"))
    return nl
