"""Mapped gate-level netlists.

A :class:`Netlist` is a named set of :class:`Gate` instances connected by
string-named nets, plus primary inputs and outputs.  Sequential cells
(flops) are gates whose cell has ``is_sequential``; their outputs act as
pseudo-primary-inputs and their D pins as pseudo-primary-outputs for
topological traversal, timing, and simulation.

This is the common currency between synthesis (which produces one),
timing/power (which analyze one), placement/routing (which lay one out),
and DFT (which edits one).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.netlist.bitsim import BitSimulator, unpack
from repro.netlist.cells import Cell, CellLibrary


def left_sum(values: Iterable[float]) -> float:
    """Sum floats strictly left to right.

    The builtin ``sum`` compensates float rounding from Python 3.12 on
    and adds left to right before it, so QoR sums use this instead:
    the result is the same on every supported Python, and it matches
    the left-to-right accumulation of the vectorized kernels
    (``np.bincount``, ``np.cumsum``).
    """
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class NetlistEdit:
    """One journal entry describing a netlist mutation.

    ``kind`` is one of ``add_input``, ``add_output``, ``add_gate``,
    ``remove_gate``, ``rewire``, ``replace_cell``, ``resize``.  The
    connectivity at the time of the edit is snapshotted (``fanins``,
    ``net``) so consumers such as the incremental timing engine can
    react to a ``remove_gate`` after the gate object is gone.
    """

    kind: str
    gate: str | None = None      # gate name involved, if any
    net: str | None = None       # output / declared net
    pin: str | None = None       # rewired pin
    old_net: str | None = None   # previous driver of a rewired pin
    fanins: tuple = ()           # gate's fanin nets at edit time

    @property
    def structural(self) -> bool:
        """True when the edit changes connectivity (not just a cell)."""
        return self.kind not in ("resize", "add_output")


@dataclass
class Gate:
    """One cell instance.

    ``pins`` maps input pin name -> driving net; ``output`` is the net
    driven by the cell output.
    """

    name: str
    cell: Cell
    pins: dict
    output: str

    def fanin_nets(self) -> list[str]:
        """Driving nets in the cell's declared pin order."""
        return [self.pins[p] for p in self.cell.inputs]


class Netlist:
    """A flat mapped network.

    Invariants (checked by :meth:`validate`):

    * every net has exactly one driver (a gate output or a primary input);
    * every gate input pin is connected;
    * primary outputs name existing nets.
    """

    def __init__(self, name: str, library: CellLibrary):
        self.name = name
        self.library = library
        self.gates: dict[str, Gate] = {}
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        self._driver: dict[str, str] = {}  # net -> gate name ("" for PI)
        self._counter = 0
        self._struct_version = 0           # bumped on connectivity edits
        self._edit_version = 0             # bumped on *every* edit
        self._view_cache: dict = {}        # memoized fanout/topo views
        self._packed_memo = None           # (edit_version, PackedNetlist)
        self._subscribers: list = []       # change-journal callbacks

    def __getstate__(self):
        """Pickle without the memoized views, journal subscribers, or
        version counters: they are per-process acceleration state, and
        including them would make structurally identical netlists hash
        (and cache-key) differently depending on usage history."""
        state = self.__dict__.copy()
        state["_view_cache"] = {}
        state["_subscribers"] = []
        state["_struct_version"] = 0
        state["_edit_version"] = 0
        state["_packed_memo"] = None
        return state

    def __setstate__(self, state):
        # Intern the attribute names like the default (no-__setstate__)
        # unpickling path does: without this, a pickle -> unpickle ->
        # pickle round trip is not byte-stable (the copy's dict keys
        # stop sharing identity with interned attribute names, so the
        # pickler's memo stream — and any cache key hashed from the
        # bytes — drifts).
        for k, v in state.items():
            self.__dict__[sys.intern(k)] = v
        # Blobs written before the packed-interchange fields existed
        # unpickle without them; backfill so memoization keeps working.
        self.__dict__.setdefault("_edit_version", 0)
        self.__dict__.setdefault("_packed_memo", None)

    # ------------------------------------------------------------------
    # Change journal
    # ------------------------------------------------------------------

    def subscribe(self, callback):
        """Register ``callback(edit: NetlistEdit)`` for every mutation.

        Returns a zero-argument unsubscribe function.  The incremental
        timing engine uses this to learn which gates changed between
        two analyses without diffing the whole netlist.
        """
        self._subscribers.append(callback)

        def unsubscribe():
            if callback in self._subscribers:
                self._subscribers.remove(callback)
        return unsubscribe

    @property
    def struct_version(self) -> int:
        """Monotonic counter of connectivity-changing edits."""
        return self._struct_version

    def _note(self, edit: NetlistEdit) -> None:
        self._edit_version += 1
        self._packed_memo = None
        if edit.structural:
            self._struct_version += 1
            self._view_cache.clear()
        for callback in self._subscribers:
            callback(edit)

    # ------------------------------------------------------------------
    # Columnar interchange
    # ------------------------------------------------------------------

    def to_packed(self):
        """The columnar :class:`~repro.netlist.packed.PackedNetlist`
        form of this netlist.

        Memoized on the edit journal (any journaled edit invalidates),
        so the cache key digest, cache blob, journal blob, and worker
        payload of one design all share a single packing pass.  Like
        the memoized views, the memo cannot see direct attribute
        assignments that bypass the journal (``gate.pins[...] = ...``);
        use :meth:`~repro.netlist.packed.PackedNetlist.from_netlist`
        for a guaranteed-fresh packing of a hand-mutated netlist.
        """
        from repro.netlist.packed import PackedNetlist
        memo = self._packed_memo
        if memo is not None and memo[0] == self._edit_version:
            return memo[1]
        packed = PackedNetlist.from_netlist(self)
        self._packed_memo = (self._edit_version, packed)
        return packed

    def content_digest(self) -> str:
        """Canonical insertion-order-independent SHA-256 of the design
        content (delegates to the memoized packed form); used as the
        cache-key identity of netlist-bearing stage inputs."""
        return self.to_packed().content_digest()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._driver:
            raise ValueError(f"net {net!r} already driven")
        self.primary_inputs.append(net)
        self._driver[net] = ""
        self._note(NetlistEdit(kind="add_input", net=net))
        return net

    def add_output(self, net: str) -> str:
        """Declare an existing net as a primary output."""
        self.primary_outputs.append(net)
        self._note(NetlistEdit(kind="add_output", net=net))
        return net

    def add_gate(self, cell: Cell | str, inputs, output: str | None = None,
                 name: str | None = None) -> Gate:
        """Instantiate a cell.

        ``inputs`` is a list of driving nets in pin order, or a dict of
        pin name -> net.  Returns the created :class:`Gate`.
        """
        if isinstance(cell, str):
            cell = self.library[cell]
        if isinstance(inputs, dict):
            pins = dict(inputs)
        else:
            if len(inputs) != len(cell.inputs):
                raise ValueError(
                    f"{cell.name} needs {len(cell.inputs)} inputs, "
                    f"got {len(inputs)}")
            pins = dict(zip(cell.inputs, inputs))
        missing = set(cell.inputs) - set(pins)
        if missing:
            raise ValueError(f"unconnected pins {sorted(missing)}")
        phantom = set(pins) - set(cell.inputs)
        if phantom:
            raise ValueError(
                f"{cell.name} has no pins {sorted(phantom)}")
        if name is None:
            name = self._fresh(f"u_{cell.name.lower()}")
        if name in self.gates:
            raise ValueError(f"duplicate gate name {name!r}")
        if output is None:
            output = self._fresh("n")
        if output in self._driver:
            raise ValueError(f"net {output!r} already driven")
        gate = Gate(name, cell, pins, output)
        self.gates[name] = gate
        self._driver[output] = name
        self._note(NetlistEdit(kind="add_gate", gate=name, net=output,
                               fanins=tuple(pins.values())))
        return gate

    def _fresh(self, prefix: str) -> str:
        while True:
            self._counter += 1
            cand = f"{prefix}{self._counter}"
            if cand not in self._driver and cand not in self.gates:
                return cand

    def remove_gate(self, name: str) -> None:
        """Delete a gate (its output net becomes undriven)."""
        gate = self.gates.pop(name)
        del self._driver[gate.output]
        self._note(NetlistEdit(kind="remove_gate", gate=name,
                               net=gate.output,
                               fanins=tuple(gate.pins.values())))

    def rewire_pin(self, gate_name: str, pin: str, net: str) -> None:
        """Reconnect one input pin of a gate to a different net.

        The target net must already exist (be driven by a gate or
        declared a primary input): rewiring to a phantom net would
        leave the pin floating and silently corrupt the memoized
        fanout/topological views.
        """
        gate = self.gates[gate_name]
        if pin not in gate.pins:
            raise KeyError(f"gate {gate_name} has no pin {pin}")
        if net not in self._driver:
            raise ValueError(
                f"cannot rewire {gate_name}.{pin} to {net!r}: "
                f"net does not exist (undriven)")
        old = gate.pins[pin]
        gate.pins[pin] = net
        self._note(NetlistEdit(kind="rewire", gate=gate_name, pin=pin,
                               net=net, old_net=old,
                               fanins=tuple(gate.pins.values())))

    def resize_gate(self, name: str, cell: Cell | str) -> Gate:
        """Swap a gate's cell for a footprint-compatible variant.

        The replacement must keep the pin list (same input names, same
        sequential-ness): drive-strength and Vt swaps qualify.  This is
        the journal-aware path the sizing loops use so the incremental
        timing engine sees the edit; use :meth:`replace_cell` for swaps
        that change the pinout.
        """
        if isinstance(cell, str):
            cell = self.library[cell]
        gate = self.gates[name]
        old = gate.cell
        if cell is old:
            return gate
        if (cell.inputs != old.inputs
                or cell.is_sequential != old.is_sequential):
            raise ValueError(
                f"{cell.name} is not footprint-compatible with "
                f"{old.name}; use replace_cell")
        gate.cell = cell
        self._note(NetlistEdit(kind="resize", gate=name, net=gate.output,
                               fanins=tuple(gate.pins.values())))
        return gate

    def replace_cell(self, name: str, cell: Cell | str,
                     extra_pins: dict | None = None) -> Gate:
        """Swap a gate's cell, connecting any new pins from
        ``extra_pins`` (pin name -> net).  Pins the new cell does not
        declare are dropped.  Used by scan insertion (DFF -> SDFF)."""
        if isinstance(cell, str):
            cell = self.library[cell]
        gate = self.gates[name]
        pins = {p: n for p, n in gate.pins.items() if p in cell.inputs}
        pins.update(extra_pins or {})
        missing = set(cell.inputs) - set(pins)
        if missing:
            raise ValueError(f"unconnected pins {sorted(missing)}")
        gate.cell = cell
        gate.pins = pins
        self._note(NetlistEdit(kind="replace_cell", gate=name,
                               net=gate.output,
                               fanins=tuple(pins.values())))
        return gate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def driver_of(self, net: str):
        """The Gate driving ``net``, or None if it is a primary input."""
        owner = self._driver.get(net)
        if owner is None:
            raise KeyError(f"net {net!r} has no driver")
        return self.gates[owner] if owner else None

    def nets(self) -> list[str]:
        """All driven nets."""
        return list(self._driver)

    def loads_of(self, net: str) -> list[tuple]:
        """All (gate, pin) pairs reading ``net``.

        Served from the memoized :meth:`fanout_map`: the first call
        after a connectivity edit pays one pass over the design, later
        calls are dictionary lookups.
        """
        return list(self.fanout_map().get(net, ()))

    def fanout_map(self) -> dict:
        """net -> list of (gate, pin) loads.

        Memoized: rebuilt only after a connectivity edit (the change
        journal invalidates it), so per-iteration callers in the
        optimization loops get the same dict back.  Treat the returned
        mapping as read-only.
        """
        fan = self._view_cache.get("fanout")
        if fan is None:
            fan = {n: [] for n in self._driver}
            for g in self.gates.values():
                for pin, n in g.pins.items():
                    fan.setdefault(n, []).append((g, pin))
            self._view_cache["fanout"] = fan
        return fan

    def sequential_gates(self) -> list[Gate]:
        """All flop instances."""
        return [g for g in self.gates.values() if g.cell.is_sequential]

    def combinational_gates(self) -> list[Gate]:
        """All non-flop instances."""
        return [g for g in self.gates.values() if not g.cell.is_sequential]

    def num_instances(self) -> int:
        """Total cell instances."""
        return len(self.gates)

    def area_um2(self) -> float:
        """Total standard-cell area."""
        return left_sum(g.cell.area_um2 for g in self.gates.values())

    def leakage_nw(self) -> float:
        """Total static leakage."""
        return left_sum(g.cell.leak_nw for g in self.gates.values())

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def topological_gates(self) -> list[Gate]:
        """Combinational gates in topological order.

        Flop outputs are treated as sources; an exception is raised on
        combinational cycles.  Memoized until the next connectivity
        edit — treat the returned list as read-only.
        """
        cached = self._view_cache.get("topo")
        if cached is not None:
            return cached
        order: list[Gate] = []
        indeg: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for g in self.combinational_gates():
            deg = 0
            for net in g.pins.values():
                drv = self.driver_of(net)
                if drv is not None and not drv.cell.is_sequential:
                    deg += 1
                    dependents.setdefault(drv.name, []).append(g.name)
            indeg[g.name] = deg
        ready = [n for n, d in indeg.items() if d == 0]
        while ready:
            gname = ready.pop()
            gate = self.gates[gname]
            order.append(gate)
            for dep in dependents.get(gname, ()):
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    ready.append(dep)
        if len(order) != len(indeg):
            raise ValueError("combinational cycle detected")
        self._view_cache["topo"] = order
        return order

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        for g in self.gates.values():
            for pin, net in g.pins.items():
                if net not in self._driver:
                    raise ValueError(
                        f"gate {g.name} pin {pin} reads undriven net {net!r}")
        for po in self.primary_outputs:
            if po not in self._driver:
                raise ValueError(f"primary output {po!r} undriven")
        self.topological_gates()  # raises on cycles

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def simulate(self, input_vectors: np.ndarray,
                 state: np.ndarray | None = None) -> np.ndarray:
        """One combinational evaluation, bit-parallel over patterns.

        ``input_vectors``: bool array (patterns, num PIs).  ``state``:
        optional bool array (patterns, num flops) giving flop Q values;
        zeros if omitted.  Returns PO values (patterns, num POs).
        Raises ``ValueError`` for any other input shape.
        """
        sim = BitSimulator(self)
        pi, q = sim.pack_inputs(input_vectors, state)
        values = sim.run(pi, q)
        return unpack(values[sim.primary_outputs], len(input_vectors))

    def next_state(self, input_vectors: np.ndarray,
                   state: np.ndarray) -> np.ndarray:
        """Flop D values after one combinational evaluation (through
        the scan mux of scan flops), shaped (patterns, num flops)."""
        sim = BitSimulator(self)
        pi, q = sim.pack_inputs(input_vectors, state)
        return unpack(sim.next_state_rows(sim.run(pi, q)),
                      len(input_vectors))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, {len(self.gates)} gates, "
            f"{len(self.primary_inputs)} PI, {len(self.primary_outputs)} PO, "
            f"{len(self.sequential_gates())} flops)"
        )
