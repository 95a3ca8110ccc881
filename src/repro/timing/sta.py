"""Graph-based static timing analysis on mapped netlists."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.circuit import Gate, Netlist, left_sum


@dataclass
class WireModel:
    """Net parasitics model.

    ``cap_per_fanout_ff`` is the default lumped estimate (pre-layout);
    ``net_lengths_um`` (net -> routed length) switches a net to
    placement-derived RC when present, using the technology node's
    per-micron parasitics.
    """

    cap_per_fanout_ff: float = 1.0
    cwire_ff_per_um: float = 0.0
    rwire_ohm_per_um: float = 0.0
    net_lengths_um: dict = field(default_factory=dict)

    def net_cap_ff(self, net: str, fanout: int) -> float:
        """Wire capacitance of a net."""
        length = self.net_lengths_um.get(net)
        if length is not None and self.cwire_ff_per_um > 0:
            return self.cwire_ff_per_um * length
        return self.cap_per_fanout_ff * max(fanout, 1)

    def net_delay_ps(self, net: str) -> float:
        """Elmore wire delay of a net (0 for unplaced nets)."""
        length = self.net_lengths_um.get(net)
        if length is None or self.rwire_ohm_per_um <= 0:
            return 0.0
        r = self.rwire_ohm_per_um * length
        c = self.cwire_ff_per_um * length * 1e-15
        return 0.5 * r * c * 1e12

    @staticmethod
    def for_node(node, net_lengths_um: dict | None = None) -> "WireModel":
        """Wire model with a technology node's per-micron parasitics."""
        return WireModel(
            cap_per_fanout_ff=0.4 + 0.1 * node.drawn_nm / 28.0,
            cwire_ff_per_um=node.cwire_ff_per_um,
            rwire_ohm_per_um=node.rwire_ohm_per_um,
            net_lengths_um=net_lengths_um or {},
        )


@dataclass
class TimingReport:
    """Result of one STA run."""

    arrival_ps: dict            # net -> arrival time
    required_ps: dict           # net -> required time
    wns_ps: float               # worst negative slack (min slack)
    critical_path: list         # gate names, source to sink
    clock_period_ps: float

    @property
    def critical_delay_ps(self) -> float:
        """Delay of the longest path (the achievable clock period)."""
        return self.clock_period_ps - self.wns_ps

    def slack_ps(self, net: str) -> float:
        """Slack of a net."""
        return self.required_ps[net] - self.arrival_ps[net]

    def fmax_ghz(self) -> float:
        """Maximum clock frequency implied by the critical path."""
        d = self.critical_delay_ps
        return 1000.0 / d if d > 0 else float("inf")


class TimingAnalyzer:
    """Static timing over a netlist with a wire model.

    Endpoints are primary outputs and flop D pins; startpoints are
    primary inputs and flop Q outputs (launch at t=0).
    """

    def __init__(self, netlist: Netlist, wire_model: WireModel | None = None,
                 clock_period_ps: float = 1000.0):
        self.netlist = netlist
        self.wire = wire_model or WireModel()
        self.clock_period_ps = clock_period_ps

    # ------------------------------------------------------------------

    def load_on_gate(self, gate: Gate, fanout_map: dict) -> float:
        """Capacitive load on a gate's output pin (pins + wire)."""
        loads = fanout_map.get(gate.output, [])
        pin_cap = left_sum(g.cell.input_cap_ff for g, _ in loads)
        return pin_cap + self.wire.net_cap_ff(gate.output, len(loads))

    def analyze(self) -> TimingReport:
        """Run arrival/required propagation; returns a report.

        Per-net wire delay is computed once per run (forward and
        backward passes share one memo dict), and per-gate cell delay
        once per pass instead of once per direction.
        """
        nl = self.netlist
        fanout = nl.fanout_map()
        # Wire delay memo: net_delay_ps was previously evaluated twice
        # per net per analyze (forward + backward).
        wire_delay = {net: self.wire.net_delay_ps(net) for net in fanout}
        arrival: dict[str, float] = {}
        from_gate: dict[str, str] = {}

        for pi in nl.primary_inputs:
            arrival[pi] = 0.0
        for flop in nl.sequential_gates():
            q_load = self.load_on_gate(flop, fanout)
            arrival[flop.output] = flop.cell.delay_ps(q_load)
            from_gate[flop.output] = flop.name

        order = nl.topological_gates()
        cell_delays: dict[str, float] = {}
        for gate in order:
            load = self.load_on_gate(gate, fanout)
            cell_delay = gate.cell.delay_ps(load)
            cell_delays[gate.name] = cell_delay
            best, best_src = 0.0, None
            for pin in gate.cell.inputs:
                net = gate.pins[pin]
                t = arrival.get(net, 0.0) + wire_delay.get(net, 0.0)
                if t >= best:
                    best, best_src = t, net
            arrival[gate.output] = best + cell_delay
            if best_src is not None:
                from_gate[gate.output] = gate.name

        # Required times, backward.
        T = self.clock_period_ps
        required: dict[str, float] = {n: float("inf") for n in arrival}
        for po in nl.primary_outputs:
            required[po] = min(required.get(po, T), T)
        for flop in nl.sequential_gates():
            d_net = flop.pins["D"]
            setup = flop.cell.intrinsic_ps * 0.5
            required[d_net] = min(required.get(d_net, T), T - setup)
        for gate in reversed(order):
            cell_delay = cell_delays[gate.name]
            req_out = required.get(gate.output, T)
            for pin in gate.cell.inputs:
                net = gate.pins[pin]
                cand = req_out - cell_delay - wire_delay.get(net, 0.0)
                if cand < required.get(net, float("inf")):
                    required[net] = cand
        for net in arrival:
            required.setdefault(net, T)
            if required[net] == float("inf"):
                required[net] = T

        wns = min(
            (required[n] - arrival[n] for n in arrival), default=0.0)
        crit = trace_critical(nl, arrival, required, from_gate)
        return TimingReport(arrival, required, wns, crit, T)

    def _trace_critical(self, arrival, required, from_gate) -> list:
        return trace_critical(self.netlist, arrival, required, from_gate)


def trace_critical(nl: Netlist, arrival, required, from_gate) -> list:
    """Walk the worst-slack endpoint back to a startpoint.

    ``arrival``/``required`` may be plain dicts or any mapping with
    ``get``/``__contains__`` (the incremental engine passes array-backed
    views).  The walk stops explicitly at primary inputs and at flop
    outputs rather than relying on ``from_gate`` lookup misses.
    """
    if not arrival:
        return []
    # Endpoint with the smallest slack.
    endpoints = list(nl.primary_outputs) + [
        f.pins["D"] for f in nl.sequential_gates()]
    endpoints = [e for e in endpoints if e in arrival]
    if not endpoints:
        return []
    startpoints = set(nl.primary_inputs)
    end = min(endpoints, key=lambda n: required[n] - arrival[n])
    path = []
    net = end
    seen = set()
    while net not in seen:
        if net in startpoints:
            break               # reached a primary input: path complete
        if net not in from_gate:
            break               # undriven net (e.g. a removed gate)
        seen.add(net)
        gname = from_gate[net]
        path.append(gname)
        gate = nl.gates[gname]
        if gate.cell.is_sequential:
            break               # flop Q: the launching startpoint
        # Step to the worst-arrival fanin.
        nxt = max(
            (gate.pins[p] for p in gate.cell.inputs),
            key=lambda n: arrival.get(n, 0.0),
        )
        net = nxt
    path.reverse()
    return path


def critical_path(netlist: Netlist, wire_model: WireModel | None = None,
                  clock_period_ps: float = 1000.0) -> TimingReport:
    """One-call STA convenience wrapper."""
    return TimingAnalyzer(netlist, wire_model, clock_period_ps).analyze()
