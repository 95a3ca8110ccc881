"""Detailed placement: greedy pairwise-swap wirelength refinement."""

from __future__ import annotations

import numpy as np

from repro.place.placement import Placement


def detailed_place(placement: Placement, *, passes: int = 2,
                   window: int = 8, seed: int = 0) -> float:
    """Swap nearby same-row cells of equal width when HPWL improves.

    Returns the total HPWL improvement.  Operates in place; a swap
    exchanges centres, which keeps a row legal only for equal widths.
    The pass count is a quality/runtime knob for the self-learning
    engine (E8).
    """
    rng = np.random.default_rng(seed)
    nl = placement.netlist
    row_h = placement.row_height_um
    width = {g.name: max(g.cell.area_um2 / row_h, 0.05)
             for g in nl.gates.values()}

    # net -> gate members / fixed pad pins, computed once.
    members: dict[str, list] = {}
    nets_of: dict[str, list] = {}
    for g in nl.gates.values():
        touched = {g.output, *g.pins.values()}
        nets_of[g.name] = sorted(touched)
        for net in touched:
            members.setdefault(net, []).append(g.name)
    fixed: dict[str, list] = {}
    for net, xy in placement.pad_positions.items():
        fixed.setdefault(net, []).append(xy)

    def net_hpwl(net: str) -> float:
        pts = [placement.positions[m] for m in members.get(net, ())
               if m in placement.positions]
        pts += fixed.get(net, [])
        if len(pts) < 2:
            return 0.0
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def hpwl_of(nets) -> float:
        return sum(net_hpwl(net) for net in nets)

    improved_total = 0.0
    names = sorted(placement.positions)
    for _ in range(passes):
        order = list(names)
        rng.shuffle(order)
        rows: dict[float, list] = {}
        for name in order:
            rows.setdefault(round(placement.positions[name][1], 3),
                            []).append(name)
        for row_cells in rows.values():
            row_cells.sort(key=lambda n: placement.positions[n][0])
            for i in range(len(row_cells) - 1):
                j = min(i + 1 + int(rng.integers(0, window)),
                        len(row_cells) - 1)
                a, b = row_cells[i], row_cells[j]
                if a == b or width[a] != width[b]:
                    continue
                nets = sorted(set(nets_of[a]) | set(nets_of[b]))
                before = hpwl_of(nets)
                pa, pb = placement.positions[a], placement.positions[b]
                placement.positions[a], placement.positions[b] = pb, pa
                after = hpwl_of(nets)
                if after < before - 1e-12:
                    improved_total += before - after
                else:
                    placement.positions[a], placement.positions[b] = pa, pb
    return improved_total
