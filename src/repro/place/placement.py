"""The placement data model and its metrics."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.netlist.circuit import Netlist, left_sum


@dataclass
class Placement:
    """Cell locations on a die for one netlist.

    ``positions`` maps gate name -> (x, y) in microns (cell centers).
    Primary I/O pins sit on the die boundary in ``pad_positions``.
    """

    netlist: Netlist
    die_w_um: float
    die_h_um: float
    positions: dict = field(default_factory=dict)
    pad_positions: dict = field(default_factory=dict)
    row_height_um: float = 1.0

    # ------------------------------------------------------------------

    def content_digest(self) -> str:
        """Canonical SHA-256 of the placement (hex): the cache-key
        identity of placement-bearing stage inputs.

        One pass over every field: the netlist's content digest and
        its fresh-name counter (the key hook reads a counter only from
        the object it keys, and a placement has none), the die and row
        dimensions as float64, then ``positions`` and
        ``pad_positions`` as columns.  Each table hashes its names as
        one sorted fixed-width unicode array with its dtype string (as
        :meth:`PackedNetlist.content_digest` hashes name tables) and
        its (x, y) pairs in that order as one float64 buffer, so the
        digest ignores insertion order and is exact to the last bit
        (``-0.0`` != ``0.0``).  Not memoized: a placement is mutable
        and has no edit journal.
        """
        h = hashlib.sha256(b"placement-digest:1\x00")
        nl = self.netlist
        h.update(f"{nl.content_digest()}:{int(nl._counter)};".encode())
        h.update(np.array([self.die_w_um, self.die_h_um,
                           self.row_height_um], dtype=np.float64)
                 .tobytes())
        for points in (self.positions, self.pad_positions):
            h.update(f"{len(points)};".encode())
            if not points:
                continue
            names = np.asarray(list(points))
            if names.dtype.kind != "U":     # object arrays hash pointers
                raise TypeError("placed names must be strings")
            order = np.argsort(names, kind="stable")
            xy = np.asarray(list(points.values()), dtype=np.float64)
            h.update(str(names.dtype).encode("ascii"))
            h.update(np.ascontiguousarray(names[order]).tobytes())
            h.update(np.ascontiguousarray(xy[order]).tobytes())
        return h.hexdigest()

    def net_pins(self) -> dict:
        """net -> [(x, y)] of all pins on the net (driver + loads)."""
        pins: dict[str, list] = {}
        for g in self.netlist.gates.values():
            if g.name in self.positions:
                pins.setdefault(g.output, []).append(self.positions[g.name])
                for net in g.pins.values():
                    pins.setdefault(net, []).append(
                        self.positions[g.name])
        for net, xy in self.pad_positions.items():
            pins.setdefault(net, []).append(xy)
        return pins

    def net_hpwl(self, net: str, pins: dict | None = None) -> float:
        """Half-perimeter wirelength of one net."""
        pts = (pins or self.net_pins()).get(net, [])
        if len(pts) < 2:
            return 0.0
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def total_hpwl(self) -> float:
        """Total half-perimeter wirelength over all nets, added left
        to right."""
        pins = self.net_pins()
        return left_sum(self.net_hpwl(net, pins) for net in pins)

    def net_lengths(self) -> dict:
        """net -> HPWL, the input to placement-aware timing/power."""
        pins = self.net_pins()
        return {net: self.net_hpwl(net, pins) for net in pins}

    def density_map(self, bins: int = 16) -> np.ndarray:
        """(bins, bins) utilization map of placed cell area."""
        grid = np.zeros((bins, bins))
        bx = self.die_w_um / bins
        by = self.die_h_um / bins
        for name, (x, y) in self.positions.items():
            gate = self.netlist.gates[name]
            ix = int(np.clip(x / bx, 0, bins - 1))
            iy = int(np.clip(y / by, 0, bins - 1))
            grid[iy, ix] += gate.cell.area_um2
        return grid / (bx * by)

    def congestion_map(self, bins: int = 16) -> np.ndarray:
        """(bins, bins) routing-demand estimate.

        Each net spreads one unit of demand uniformly over its bounding
        box (the RUDY estimator), scaled by the net's HPWL density.
        """
        grid = np.zeros((bins, bins))
        bx = self.die_w_um / bins
        by = self.die_h_um / bins
        for net, pts in self.net_pins().items():
            if len(pts) < 2:
                continue
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            w = max(max(xs) - min(xs), bx * 0.5)
            h = max(max(ys) - min(ys), by * 0.5)
            demand = (w + h) / (w * h)
            x0 = int(np.clip(min(xs) / bx, 0, bins - 1))
            x1 = int(np.clip(max(xs) / bx, x0, bins - 1))
            y0 = int(np.clip(min(ys) / by, 0, bins - 1))
            y1 = int(np.clip(max(ys) / by, y0, bins - 1))
            grid[y0:y1 + 1, x0:x1 + 1] += demand
        return grid

    def peak_congestion(self, bins: int = 16) -> float:
        """Max of the congestion map — the overflow risk proxy."""
        return float(self.congestion_map(bins).max())

    def legalize_to_rows(self) -> None:
        """Snap cells into non-overlapping rows, preserving positions.

        Cells are assigned to the nearest row with free width; within a
        row, a forward pass resolves overlaps left-to-right around the
        desired x coordinates and a backward pass pulls any overflow
        back inside the die (an abacus-style legalizer).  A cell that
        fits in no row raises :class:`ValueError`: the die is too full
        for its rows.
        """
        rows = max(1, int(self.die_h_um / self.row_height_um))
        fill = [0.0] * rows
        assigned: list[list] = [[] for _ in range(rows)]
        order = sorted(self.positions.items(), key=lambda kv: kv[1][0])
        for name, (x, y) in order:
            gate = self.netlist.gates[name]
            width = max(gate.cell.area_um2 / self.row_height_um, 0.05)
            target = int(np.clip(y / self.row_height_um, 0, rows - 1))
            best_row, best_cost = None, float("inf")
            for r in range(rows):
                if fill[r] + width > self.die_w_um:
                    continue
                cost = abs(r - target) * self.row_height_um
                if cost < best_cost:
                    best_row, best_cost = r, cost
            if best_row is None:
                raise ValueError(
                    f"cell {name!r} ({width:.3f} um wide) fits in no "
                    f"row of the {self.die_w_um:.3f} um die: lower the "
                    f"utilization")
            fill[best_row] += width
            assigned[best_row].append((name, x, width))
        for r, cells in enumerate(assigned):
            if not cells:
                continue
            cells.sort(key=lambda c: c[1])
            # Forward pass: push right to resolve overlaps.
            placed = []
            cursor = 0.0
            for name, x, width in cells:
                left = max(cursor, x - width / 2)
                placed.append([name, left, width])
                cursor = left + width
            # Backward pass: pull back inside the die.
            limit = self.die_w_um
            for entry in reversed(placed):
                entry[1] = min(entry[1], limit - entry[2])
                limit = entry[1]
            y_row = (r + 0.5) * self.row_height_um
            for name, left, width in placed:
                self.positions[name] = (max(left, 0.0) + width / 2, y_row)

    def validate(self) -> None:
        """Every gate placed, inside the die."""
        for name in self.netlist.gates:
            if name not in self.positions:
                raise ValueError(f"gate {name!r} not placed")
            x, y = self.positions[name]
            if not (-1e-6 <= x <= self.die_w_um + 1e-6 and
                    -1e-6 <= y <= self.die_h_um + 1e-6):
                raise ValueError(f"gate {name!r} outside the die")


def die_for_netlist(netlist: Netlist, *, utilization: float = 0.7,
                    aspect: float = 1.0) -> tuple:
    """Die (w, h) in um for a netlist at a target utilization."""
    if not 0 < utilization <= 1:
        raise ValueError("utilization in (0, 1]")
    area = netlist.area_um2() / utilization
    h = (area / aspect) ** 0.5
    return (aspect * h, h)
