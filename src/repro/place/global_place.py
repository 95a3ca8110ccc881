"""Quadratic global placement with density spreading.

The classic analytic recipe: model each multi-pin net as a clique of
springs (weighted 1/(p-1)), solve the two independent linear systems
for x and y with I/O pads as anchors, then interleave spreading passes
that diffuse cells out of overfull bins, and finish with row
legalization.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.netlist.circuit import Netlist
from repro.place.placement import Placement, die_for_netlist

#: Density-map resolution of the diffusion passes.
_BINS = 16


def star_pairs(members: list, driver: int | None) -> list:
    """Spring pairs of a star-modeled net, hubbed on its driver.

    Big nets (fanout above the clique threshold) are modeled as a star
    around the gate that actually drives the net — not the first
    member in sort order, which would hub high-fanout nets on an
    arbitrary sink and let the true driver drift away from its fanout.
    PI-driven nets have no gate driver and fall back to the first
    member.
    """
    center = driver if driver in members else members[0]
    return [(center, b) for b in members if b != center]


def global_place(netlist: Netlist, *, utilization: float = 0.7,
                 spreading_passes: int = 3, spread_blend: float = 0.6,
                 seed: int = 0) -> Placement:
    """Place a netlist analytically.

    Returns a legalized :class:`Placement` on a square die sized for
    ``utilization``; a utilization at which some cell fits in no row
    raises :class:`ValueError`.  ``spreading_passes`` and
    ``spread_blend`` control the quality/runtime trade (the knobs the
    self-learning engine of E8 tunes).
    """
    die_w_um, die_h_um = die_for_netlist(netlist, utilization=utilization)
    gates = list(netlist.gates.values())
    n = len(gates)
    if n == 0:
        raise ValueError("cannot place an empty netlist")
    index = {g.name: i for i, g in enumerate(gates)}

    # Pads: distribute primary I/O around the boundary.
    pads = {}
    io_nets = list(netlist.primary_inputs) + list(netlist.primary_outputs)
    for k, net in enumerate(io_nets):
        t = k / max(len(io_nets), 1)
        side = k % 4
        if side == 0:
            pads[net] = (t * die_w_um, 0.0)
        elif side == 1:
            pads[net] = (die_w_um, t * die_h_um)
        elif side == 2:
            pads[net] = ((1 - t) * die_w_um, die_h_um)
        else:
            pads[net] = (0.0, (1 - t) * die_h_um)

    # Build the connectivity: net -> [cell indices], pad anchor or None.
    nets: dict[str, list] = {}
    driver_of: dict[str, int] = {}
    for g in gates:
        nets.setdefault(g.output, []).append(index[g.name])
        driver_of.setdefault(g.output, index[g.name])
        for net in g.pins.values():
            nets.setdefault(net, []).append(index[g.name])

    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    bx = np.zeros(n)
    by = np.zeros(n)
    anchor = 1e-6  # tiny pull to the center keeps the system SPD
    cx, cy = die_w_um / 2, die_h_um / 2
    for net, members in nets.items():
        members = sorted(set(members))
        pad = pads.get(net)
        p = len(members) + (1 if pad is not None else 0)
        if p < 2:
            continue
        w = 1.0 / (p - 1)
        if len(members) > 10:
            # Star model around the driver keeps big nets O(p).
            pairs = star_pairs(members, driver_of.get(net))
        else:
            pairs = [(a, b) for i, a in enumerate(members)
                     for b in members[i + 1:]]
        for a, b in pairs:
            rows.append(a)
            cols.append(b)
            vals.append(-w)
            rows.append(b)
            cols.append(a)
            vals.append(-w)
            diag[a] += w
            diag[b] += w
        if pad is not None:
            for a in members:
                diag[a] += w
                bx[a] += w * pad[0]
                by[a] += w * pad[1]
    diag += anchor
    bx += anchor * cx
    by += anchor * cy
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    lap = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    xs = spsolve(lap, bx)
    ys = spsolve(lap, by)

    rng = np.random.default_rng(seed)
    xs = np.clip(xs + rng.normal(0, 0.01, n), 0, die_w_um)
    ys = np.clip(ys + rng.normal(0, 0.01, n), 0, die_h_um)

    # Rank-based spreading: the pure quadratic solution clusters cells
    # near the centroid; blending with the order-preserving uniform
    # stretch fills the die while keeping relative positions.
    if n > 1 and spread_blend > 0:
        rank_x = np.empty(n)
        rank_x[np.argsort(xs)] = np.arange(n) / (n - 1)
        rank_y = np.empty(n)
        rank_y[np.argsort(ys)] = np.arange(n) / (n - 1)
        xs = (1 - spread_blend) * xs + spread_blend * rank_x * die_w_um
        ys = (1 - spread_blend) * ys + spread_blend * rank_y * die_h_um

    placement = Placement(
        netlist, die_w_um, die_h_um,
        positions={g.name: (float(xs[i]), float(ys[i]))
                   for g, i in zip(gates, range(n))},
        pad_positions=pads,
        row_height_um=netlist.library.node.cell_height_nm * 1e-3,
    )
    for _ in range(spreading_passes):
        _spread(placement, _BINS)
    placement.legalize_to_rows()
    return placement


def _spread(placement: Placement, bins: int) -> None:
    """One diffusion pass: push cells from overfull bins outward.

    Cells in bins above average utilization are nudged toward the
    neighboring bin with the lowest utilization, proportionally to the
    overflow.
    """
    density = placement.density_map(bins)
    avg = density.mean() + 1e-12
    bx = placement.die_w_um / bins
    by = placement.die_h_um / bins
    moves: dict[str, tuple] = {}
    for name, (x, y) in placement.positions.items():
        ix = int(np.clip(x / bx, 0, bins - 1))
        iy = int(np.clip(y / by, 0, bins - 1))
        if density[iy, ix] <= 1.5 * avg:
            continue
        best = None
        for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            ny, nx = iy + dy, ix + dx
            if 0 <= ny < bins and 0 <= nx < bins:
                if best is None or density[ny, nx] < density[best]:
                    best = (ny, nx)
        if best is None:
            continue
        overflow = (density[iy, ix] - avg) / density[iy, ix]
        ny, nx = best
        tx = (nx + 0.5) * bx
        ty = (ny + 0.5) * by
        moves[name] = (
            x + overflow * 0.5 * (tx - x),
            y + overflow * 0.5 * (ty - y),
        )
    placement.positions.update(moves)
