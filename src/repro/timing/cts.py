"""Clock-tree synthesis: recursive bisection (H-tree style).

The clock network is the largest single consumer of dynamic power in a
synchronous design and the reference against which clock gating (E5)
saves; CTS also closes the skew the sequential timing model assumes
away.  The synthesizer recursively partitions the flop set, placing a
balance point at each level's center of mass, and buffers long
segments; insertion delay and skew come from the same Elmore wire
model STA uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.netlist.circuit import left_sum

# A placed clock sink: (flop name, (x, y)).
Sink = tuple[str, tuple[float, float]]


@dataclass
class ClockTree:
    """A synthesized clock tree."""

    root: tuple[float, float]       # (x, y) of the clock entry point
    segments: list[tuple[float, float, float, float]]
    buffers: list[tuple[float, float]]   # repeater locations
    sink_delays: dict[str, float]   # flop name -> insertion delay ps
    wirelength_um: float

    @property
    def skew_ps(self) -> float:
        """Max - min insertion delay over the sinks."""
        if not self.sink_delays:
            return 0.0
        delays = list(self.sink_delays.values())
        return max(delays) - min(delays)

    @property
    def insertion_delay_ps(self) -> float:
        """Worst insertion delay."""
        return max(self.sink_delays.values(), default=0.0)

    def clock_power_uw(self, node: Any, freq_ghz: float) -> float:
        """Dynamic power of the tree's wire + buffer capacitance."""
        wire_cap_ff = self.wirelength_um * node.cwire_ff_per_um
        buf_cap_ff = len(self.buffers) * 4.0 * node.cgate_ff_per_um * \
            (3.0 * node.gate_length_nm * 1e-3)
        cap_f = (wire_cap_ff + buf_cap_ff) * 1e-15
        return cap_f * node.vdd ** 2 * freq_ghz * 1e9 * 1e6


def synthesize_clock_tree(placement: Any, *, max_leaf: int = 4,
                          buffer_every_um: float | None = None) -> ClockTree:
    """Build a balanced clock tree over the placed flops.

    Recursive bisection: split along the wider axis at the median,
    route from the region's center of mass to each child's, and stop
    when ``max_leaf`` flops remain (leaf-level stubs connect directly).
    Long segments get repeaters every ``buffer_every_um`` (defaults to
    the technology's optimal repeater segment).
    """
    from repro.place.buffering import optimal_buffer_segment_um

    node = placement.netlist.library.node
    if buffer_every_um is None:
        buffer_every_um = max(optimal_buffer_segment_um(node), 1.0)
    flops = [(g.name, placement.positions[g.name])
             for g in placement.netlist.sequential_gates()
             if g.name in placement.positions]
    if not flops:
        raise ValueError("design has no placed flops")

    segments: list[tuple[float, float, float, float]] = []
    buffers: list[tuple[float, float]] = []
    sink_delays: dict[str, float] = {}
    # Per-micron Elmore constants.
    r = node.rwire_ohm_per_um
    c = node.cwire_ff_per_um * 1e-15
    buf_delay_ps = 2.0 * node.fo4_delay_ps()

    def elmore_ps(length: float) -> float:
        return 0.5 * r * c * length ** 2 * 1e12

    def segment_delay(length: float) -> tuple[float, int]:
        """(delay ps, buffers inserted) for one routed segment."""
        assert buffer_every_um is not None
        nbuf = int(length // buffer_every_um)
        if nbuf == 0:
            return elmore_ps(length), 0
        piece = length / (nbuf + 1)
        return (nbuf + 1) * elmore_ps(piece) + nbuf * buf_delay_ps, nbuf

    def center(group: list[Sink]) -> tuple[float, float]:
        xs = [p[0] for _, p in group]
        ys = [p[1] for _, p in group]
        return (left_sum(xs) / len(xs), left_sum(ys) / len(ys))

    def build(group: list[Sink], entry: tuple[float, float],
              delay_ps: float) -> None:
        cx, cy = center(group)
        length = abs(entry[0] - cx) + abs(entry[1] - cy)
        d, nbuf = segment_delay(length)
        here = delay_ps + d
        segments.append((entry[0], entry[1], cx, cy))
        for k in range(nbuf):
            t = (k + 1) / (nbuf + 1)
            buffers.append((entry[0] + t * (cx - entry[0]),
                            entry[1] + t * (cy - entry[1])))
        nonlocal_wire[0] += length
        if len(group) <= max_leaf:
            for name, (x, y) in group:
                stub = abs(x - cx) + abs(y - cy)
                segments.append((cx, cy, x, y))
                nonlocal_wire[0] += stub
                sink_delays[name] = here + elmore_ps(stub)
            return
        xs = [p[0] for _, p in group]
        ys = [p[1] for _, p in group]
        horizontal = (max(xs) - min(xs)) >= (max(ys) - min(ys))
        axis = 0 if horizontal else 1
        ordered = sorted(group, key=lambda it: it[1][axis])
        half = len(ordered) // 2
        build(ordered[:half], (cx, cy), here)
        build(ordered[half:], (cx, cy), here)

    nonlocal_wire = [0.0]
    root = (0.0, 0.0)  # clock pad at the die corner
    build(flops, root, 0.0)
    return ClockTree(
        root=root,
        segments=segments,
        buffers=buffers,
        sink_delays=sink_delays,
        wirelength_um=nonlocal_wire[0],
    )


def naive_clock_spine(placement: Any) -> ClockTree:
    """The strawman: one serpentine wire visiting flops in name order.

    Used as the CTS ablation baseline — its skew grows with the chain
    length where the balanced tree's stays bounded.
    """
    node = placement.netlist.library.node
    flops = [(g.name, placement.positions[g.name])
             for g in placement.netlist.sequential_gates()
             if g.name in placement.positions]
    if not flops:
        raise ValueError("design has no placed flops")
    r = node.rwire_ohm_per_um
    c = node.cwire_ff_per_um * 1e-15
    segments: list[tuple[float, float, float, float]] = []
    sink_delays: dict[str, float] = {}
    total = 0.0
    prev = (0.0, 0.0)
    delay = 0.0
    for name, (x, y) in flops:
        length = abs(x - prev[0]) + abs(y - prev[1])
        delay += 0.5 * r * c * length ** 2 * 1e12
        segments.append((prev[0], prev[1], x, y))
        total += length
        sink_delays[name] = delay
        prev = (x, y)
    return ClockTree(
        root=(0.0, 0.0),
        segments=segments,
        buffers=[],
        sink_delays=sink_delays,
        wirelength_um=total,
    )
