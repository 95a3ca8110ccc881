"""Levelized bit-parallel logic simulation over the packed netlist.

One :class:`BitSimulator` serves every consumer of two-valued
simulation: ``Netlist.simulate`` / ``Netlist.next_state``, switching
activity for signoff power, and stuck-at fault simulation.

Each net is one row of ``words(patterns)`` ``uint64`` words; pattern
``p`` is bit ``p % 64`` of word ``p // 64`` (``np.packbits`` little bit
order), so the flow's 64-pattern signoff is one word per net.
Combinational gates are evaluated in groups that share a
:meth:`~repro.netlist.packed.PackedNetlist.comb_levels` level and a
truth table: a group is the OR of its on-set minterms over the gathered
input rows, or the complement of its off-set's OR, whichever has fewer
terms (at most four for the library's three-input cells).  The number
of groups is the number of distinct (level, function) pairs, which
grows with logic depth, not with the gate count.

Bits past ``patterns`` in a row's last word are padding with no
meaning; :func:`unpack` and :func:`toggle_counts` mask them, and every
other operation is bitwise, so padding never reaches a real bit.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.netlist.boolfunc import TruthTable
    from repro.netlist.circuit import Netlist

Words = Any       # npt.NDArray[np.uint64] (numpy is untyped here)
IntArray = Any    # npt.NDArray[np.int64]
BoolArray = Any   # npt.NDArray[np.bool_]

#: One group: output rows, input rows per pin position, the minterms
#: to OR, and whether the OR is complemented (off-set form).
Group = tuple[IntArray, tuple[IntArray, ...], tuple[int, ...], bool]

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# Set bits per byte value: a table popcount that also runs on numpy 1.x.
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)],
                      dtype=np.int64)


def words(patterns: int) -> int:
    """``uint64`` words per net row for ``patterns`` patterns."""
    return -(-patterns // 64)


def pack(bits: BoolArray) -> Words:
    """Pack ``(patterns, k)`` bool columns into ``(k, words)`` rows."""
    patterns, k = bits.shape
    octets = np.packbits(bits, axis=0, bitorder="little")
    buf = np.zeros((k, words(patterns) * 8), dtype=np.uint8)
    buf[:, :octets.shape[0]] = octets.T
    return buf.view("<u8").astype(np.uint64, copy=False)


def unpack(rows: Words, patterns: int) -> BoolArray:
    """``(k, words)`` rows back to ``(patterns, k)`` bool columns,
    dropping the padding bits."""
    octets = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(octets, axis=1, count=patterns,
                         bitorder="little")
    return np.ascontiguousarray(bits.T).view(np.bool_)


def word_mask(patterns: int) -> Words:
    """Per-word mask of the real (non-padding) pattern bits."""
    mask = np.full(words(patterns), _ALL_ONES, dtype=np.uint64)
    if patterns % 64:
        mask[-1] = np.uint64((1 << patterns % 64) - 1)
    return mask


def toggle_counts(before: Words, after: Words, patterns: int) -> IntArray:
    """Per row, the number of patterns whose bit differs (popcount)."""
    diff = (before ^ after) & word_mask(patterns)
    octets = np.ascontiguousarray(diff, dtype="<u8").view(np.uint8)
    return _POPCOUNT8[octets].sum(axis=1)


def _eval_group(values: Words, outs: IntArray, ins: tuple[IntArray, ...],
                minterms: tuple[int, ...], negate: bool) -> None:
    """Evaluate one (level, function) group of gates in place."""
    cols = [values[i] for i in ins]
    inverted: dict[int, Words] = {}
    acc: Words | None = None
    for m in minterms:
        term: Words | None = None
        for j, col in enumerate(cols):
            if not m >> j & 1:
                if j not in inverted:
                    inverted[j] = ~col
                col = inverted[j]
            term = col if term is None else term & col
        acc = term if acc is None else acc | term
    if acc is None:         # a constant: its shorter minterm set is empty
        acc = np.zeros((outs.size, values.shape[1]), dtype=np.uint64)
    values[outs] = ~acc if negate else acc


def _minterms(tt: TruthTable) -> tuple[tuple[int, ...], bool]:
    """The shorter of the on-set and the off-set, and whether it is the
    off-set (the group's OR must then be complemented)."""
    on = tuple(m for m in range(1 << tt.nvars) if tt.bits >> m & 1)
    off = tuple(m for m in range(1 << tt.nvars) if not tt.bits >> m & 1)
    return (off, True) if len(off) < len(on) else (on, False)


class BitSimulator:
    """A levelized evaluation plan for one netlist.

    Connectivity and levels come from the memoized
    ``Netlist.to_packed()`` view; cell functions come from the live
    ``Cell`` objects in gate order, so a cell swapped in place is
    simulated with its current function.  Build one per netlist state
    and :meth:`run` it as often as needed.

    Row-index attributes: ``primary_inputs``, ``primary_outputs``,
    ``flop_q`` (flop outputs, in ``sequential_gates()`` order) and
    ``comb_out`` (combinational gate outputs, in gate order).
    """

    def __init__(self, netlist: Netlist) -> None:
        packed = netlist.to_packed()
        level, cyclic = packed.comb_levels()
        if cyclic.size:
            raise ValueError("combinational cycle detected")
        G = packed.num_gates
        self.net_names: tuple[str, ...] = packed.net_names
        self.num_nets = packed.num_nets
        self.primary_inputs: IntArray = packed.primary_inputs.astype(
            np.int64)
        self.primary_outputs: IntArray = packed.primary_outputs.astype(
            np.int64)
        out = packed.gate_output.astype(np.int64)
        seq = packed.seq_gate_mask()
        flop_rows = np.flatnonzero(seq)
        comb_rows = np.flatnonzero(~seq)
        self.flop_q: IntArray = out[flop_rows]
        self.comb_out: IntArray = out[comb_rows]

        driven = np.zeros(self.num_nets, dtype=bool)
        driven[self.primary_inputs] = True
        driven[out] = True
        pnet = packed.pin_net.astype(np.int64)
        read = np.concatenate((pnet, self.primary_outputs))
        if not driven[read].all():
            bad = int(read[np.flatnonzero(~driven[read])[0]])
            raise ValueError(
                f"net {self.net_names[bad]!r} is read but not driven")

        # Distinct live cells (by identity) and each gate's index.
        cells = [g.cell for g in netlist.gates.values()]
        ids = list(map(id, cells))
        by_id = dict(zip(ids, cells))
        index = {key: i for i, key in enumerate(by_id)}
        uniq = list(by_id.values())
        gate_cell = np.fromiter(map(index.__getitem__, ids),
                                dtype=np.int64, count=G)

        # Pin slot -> position in its gate's cell.inputs (-1: not a
        # cell input), then the fanin table in cell pin order.
        pin_pos = np.array(
            [[c.inputs.index(p) if p in c.inputs else -1
              for p in packed.pin_names] for c in uniq],
            dtype=np.int64).reshape(len(uniq), len(packed.pin_names))
        pin_row = np.repeat(np.arange(G, dtype=np.int64),
                            np.diff(packed.pin_off.astype(np.int64)))
        pos = pin_pos[gate_cell[pin_row], packed.pin_name.astype(np.int64)]
        width = max((c.num_inputs for c in uniq), default=0)
        fanin = np.full((G, width), -1, dtype=np.int64)
        slot = pos >= 0
        fanin[pin_row[slot], pos[slot]] = pnet[slot]
        n_in = np.array([c.num_inputs for c in uniq],
                        dtype=np.int64)[gate_cell]
        missing = (fanin < 0) & (np.arange(width) < n_in[:, None])
        missing[flop_rows] = False
        if missing.any():
            g = int(np.flatnonzero(missing.any(axis=1))[0])
            raise ValueError(
                f"gate {packed.gate_names[g]!r} has an unconnected pin")

        # Group combinational gates by (level, truth table).
        functions: dict[TruthTable, int] = {}
        tt_of_cell = np.full(len(uniq), -1, dtype=np.int64)
        for u, c in enumerate(uniq):
            if not c.is_sequential:
                if c.function is None:
                    raise ValueError(
                        f"cannot evaluate sequential cell {c.name}")
                tt_of_cell[u] = functions.setdefault(
                    c.function, len(functions))
        forms = [_minterms(tt) for tt in functions]
        n_vars = [tt.nvars for tt in functions]
        gate_tt = tt_of_cell[gate_cell[comb_rows]]
        order = np.lexsort((gate_tt, level[comb_rows]))
        rows = comb_rows[order]
        key = level[rows] * max(len(forms), 1) + gate_tt[order]
        edges = ([0, *(np.flatnonzero(np.diff(key)) + 1).tolist(),
                  rows.size] if rows.size else [])
        self._groups: list[Group] = []
        self._group_of = np.full(self.num_nets, -1, dtype=np.int64)
        for gi, (s, e) in enumerate(zip(edges, edges[1:])):
            members = rows[s:e]
            f = int(gate_tt[order[s]])
            ins = tuple(np.ascontiguousarray(fanin[members, j])
                        for j in range(n_vars[f]))
            minterms, negate = forms[f]
            self._groups.append((out[members], ins, minterms, negate))
            self._group_of[out[members]] = gi

        # Flop D/SI/SE nets, resolved through the pin-name table.
        flop_of = np.full(G, -1, dtype=np.int64)
        flop_of[flop_rows] = np.arange(flop_rows.size, dtype=np.int64)
        slot_flop = flop_of[pin_row]
        self._flop_pins: dict[str, IntArray] = {}
        for name in ("D", "SI", "SE"):
            nets = np.full(flop_rows.size, -1, dtype=np.int64)
            if name in packed.pin_names:
                sel = (packed.pin_name == packed.pin_names.index(name)) \
                    & (slot_flop >= 0)
                nets[slot_flop[sel]] = pnet[sel]
            self._flop_pins[name] = nets
        self._flop_scan = np.array(
            [cells[i].is_scan for i in flop_rows.tolist()], dtype=bool)

    @cached_property
    def _net_row(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.net_names)}

    def _flop_nets(self, pin: str, flops: BoolArray | slice) -> IntArray:
        """Net rows of ``pin`` on the selected flops (``KeyError`` if
        one of them lacks the pin)."""
        nets = self._flop_pins[pin][flops]
        if (nets < 0).any():
            raise KeyError(pin)
        return nets

    def flop_d(self) -> IntArray:
        """Net row of every flop's D pin."""
        return self._flop_nets("D", slice(None))

    # ------------------------------------------------------------------

    def pack_inputs(self, input_vectors: Any, state: Any = None
                    ) -> tuple[Words, Words]:
        """Validate and pack ``(patterns, num PIs)`` input vectors and
        ``(patterns, num flops)`` flop Q values (zeros if omitted)."""
        vec = np.asarray(input_vectors, dtype=bool)
        n_pi = self.primary_inputs.size
        if vec.ndim != 2 or vec.shape[1] != n_pi:
            raise ValueError(
                f"input vectors must have shape (patterns, {n_pi}), "
                f"got {vec.shape}")
        want = (vec.shape[0], self.flop_q.size)
        if state is None:
            q = np.zeros(want, dtype=bool)
        else:
            q = np.asarray(state, dtype=bool)
            if q.shape != want:
                raise ValueError(
                    f"state must have shape {want}, got {q.shape}")
        return pack(vec), pack(q)

    def run(self, pi_rows: Words, q_rows: Words,
            stuck: tuple[str, int] | None = None) -> Words:
        """Evaluate every net; returns the ``(nets, words)`` value rows.

        ``stuck`` = (net name, 0 or 1) holds that net at a constant,
        written after the source fill (primary inputs, flop outputs)
        or right after its driver's group, so every reader sees it.
        """
        values = np.zeros((self.num_nets, pi_rows.shape[1]),
                          dtype=np.uint64)
        values[self.primary_inputs] = pi_rows
        values[self.flop_q] = q_rows
        # ``after``: the group whose evaluation the fault follows; -1
        # is the source fill, -2 means no fault.
        row, after, fill = -1, -2, np.uint64(0)
        if stuck is not None and stuck[0] in self._net_row:
            row = self._net_row[stuck[0]]
            after = int(self._group_of[row])
            fill = _ALL_ONES if stuck[1] else np.uint64(0)
        if after == -1:
            values[row] = fill
        for gi, group in enumerate(self._groups):
            _eval_group(values, *group)
            if gi == after:
                values[row] = fill
        return values

    def next_state_rows(self, values: Words) -> Words:
        """Flop D rows of one evaluation, through the scan mux
        (``SE ? SI : D``) for scan flops."""
        nxt = values[self.flop_d()]
        scan = self._flop_scan
        if scan.any():
            sel = values[self._flop_nets("SE", scan)]
            si = values[self._flop_nets("SI", scan)]
            nxt[scan] = (sel & si) | (~sel & nxt[scan])
        return nxt
