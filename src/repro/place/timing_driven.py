"""Timing-driven placement: slack-based net weighting.

The classic two-pass recipe: place once, run STA with the placement's
wire lengths, weight each net by how critical it is, and place again.
Critical nets contract; the critical path shortens at a small total-
wirelength cost.
"""

from __future__ import annotations

from repro.netlist.circuit import Netlist
from repro.place.placement import Placement
from repro.timing import IncrementalTimingAnalyzer, WireModel


def slack_weights(netlist: Netlist, placement: Placement, *,
                  clock_period_ps: float = 1000.0,
                  max_weight: float = 6.0) -> dict:
    """net -> placement weight derived from timing slack.

    Nets at the worst slack get ``max_weight``; nets at or above the
    median slack keep weight 1; linear in between.
    """
    if max_weight < 1.0:
        raise ValueError("max_weight must be >= 1")
    lengths = placement.net_lengths()
    wm = WireModel.for_node(netlist.library.node, lengths)
    with IncrementalTimingAnalyzer(netlist, wm, clock_period_ps) as sta:
        slacks = sta.analyze().slacks()
    if not slacks:
        return {}
    values = sorted(slacks.values())
    worst = values[0]
    median = values[len(values) // 2]
    span = max(median - worst, 1e-9)
    weights = {}
    for net, slack in slacks.items():
        t = max(0.0, min(1.0, (median - slack) / span))
        weights[net] = 1.0 + (max_weight - 1.0) * t
    return weights


def timing_driven_place(netlist: Netlist, *,
                        clock_period_ps: float = 1000.0,
                        utilization: float = 0.4,
                        max_weight: float = 6.0,
                        seed: int = 0) -> Placement:
    """Two-pass timing-driven analytic placement.

    Returns the second-pass placement (the first exists only to
    measure slack).
    """
    from repro.place.analytic import analytic_place
    first = analytic_place(netlist, utilization=utilization, seed=seed)
    weights = slack_weights(netlist, first,
                            clock_period_ps=clock_period_ps,
                            max_weight=max_weight)
    return analytic_place(netlist, utilization=utilization, seed=seed,
                          net_weights=weights)


def critical_path_length_um(netlist: Netlist,
                            placement: Placement, *,
                            clock_period_ps: float = 1000.0) -> float:
    """Total routed length (HPWL) of the nets on the critical path."""
    lengths = placement.net_lengths()
    wm = WireModel.for_node(netlist.library.node, lengths)
    with IncrementalTimingAnalyzer(netlist, wm, clock_period_ps) as sta:
        report = sta.analyze()
    total = 0.0
    for gname in report.critical_path:
        gate = netlist.gates.get(gname)
        if gate is not None:
            total += lengths.get(gate.output, 0.0)
    return total
