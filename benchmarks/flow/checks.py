"""Independent output checks for the flow benchmark.

Each check re-derives a property of a flow's outputs with its own
simple code, not the program's, and returns a list of problems (empty
when the output is correct).  They run outside the timed region.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-6
#: QoR fields of a ``FlowResult``, in report order.
QOR_FIELDS = ("hpwl_um", "routed_wirelength", "overflow", "delay_ps",
              "power_uw", "area_um2")


def qor(result) -> dict:
    """The QoR tuple of one ``FlowResult``."""
    return {f: getattr(result, f) for f in QOR_FIELDS}


def placement_legal(placement) -> list[str]:
    """Every gate placed in the die, centred on a row, and no two cells
    of a row overlapping."""
    problems: list[str] = []
    row_h = placement.row_height_um
    rows: dict[int, list] = {}
    for name, gate in placement.netlist.gates.items():
        if name not in placement.positions:
            problems.append(f"{name} not placed")
            continue
        x, y = placement.positions[name]
        width = max(gate.cell.area_um2 / row_h, 0.05)
        if x - width / 2 < -EPS or x + width / 2 > placement.die_w_um + EPS \
                or not -EPS <= y <= placement.die_h_um + EPS:
            problems.append(f"{name} outside the die at ({x}, {y})")
        row = y / row_h - 0.5
        if abs(row - round(row)) > EPS:
            problems.append(f"{name} off-row at y={y}")
        rows.setdefault(round(row), []).append(
            (x - width / 2, x + width / 2, name))
    for cells in rows.values():
        cells.sort()
        for (_, right, a), (left, _, b) in zip(cells, cells[1:]):
            if left < right - EPS:
                problems.append(f"{a} overlaps {b}")
    return problems[:20]


def _pin_gcells(placement, nx: int, ny: int) -> dict:
    """net -> set of gcells holding its pins (the router's binning:
    position over die size times grid size, clipped to the grid)."""
    cells: dict[str, set] = {}
    for net, pts in placement.net_pins().items():
        cells[net] = {
            (min(max(int(x / placement.die_w_um * nx), 0), nx - 1),
             min(max(int(y / placement.die_h_um * ny), 0), ny - 1))
            for x, y in pts}
    return cells


def routing_connected(placement, routing) -> list[str]:
    """No failed nets; every path is a 4-connected gcell walk inside
    the grid; every net's paths cover all of its pin gcells."""
    problems = [f"net {n} failed" for n in routing.failed[:5]]
    nx, ny = routing.grid.nx, routing.grid.ny
    for net, want in _pin_gcells(placement, nx, ny).items():
        segs = routing.paths.get(net, ())
        if len(want) > 1 and not segs:
            problems.append(f"net {net} has no path")
            continue
        got: set = set()
        for path in segs:
            arr = np.asarray(path, dtype=np.int64).reshape(-1, 2)
            if arr.size and ((arr < 0).any() or (arr[:, 0] >= nx).any()
                             or (arr[:, 1] >= ny).any()):
                problems.append(f"net {net} leaves the grid")
            steps = np.abs(np.diff(arr, axis=0)).sum(axis=1)
            if (steps != 1).any():
                problems.append(f"net {net} path is not 4-connected")
            got.update(map(tuple, arr.tolist()))
        if len(want) > 1 and not want <= got:
            problems.append(f"net {net} misses pin gcells "
                            f"{sorted(want - got)[:3]}")
        if len(problems) >= 20:
            break
    return problems[:20]


def delay_matches_scalar(result, library) -> list[str]:
    """The flow's ``delay_ps`` equals the scalar ``TimingAnalyzer`` on
    the same netlist and placement-derived wire lengths."""
    from repro.timing import TimingAnalyzer, WireModel
    wm = WireModel.for_node(library.node, result.placement.net_lengths())
    want = TimingAnalyzer(result.netlist, wm,
                          result.options.clock_period_ps) \
        .analyze().critical_delay_ps
    if want != result.delay_ps:
        return [f"delay_ps {result.delay_ps!r} != scalar STA {want!r}"]
    return []


def netlist_matches_aig(netlist, aig, *, vectors: int = 256,
                        seed: int = 0) -> list[str]:
    """The mapped netlist computes the AIG's outputs on random input
    vectors (primary inputs and outputs correspond by position)."""
    rng = np.random.default_rng(seed)
    vec = rng.integers(0, 2, size=(vectors, aig.num_inputs)).astype(bool)
    want = aig.simulate(vec)
    got = netlist.simulate(vec)
    if got.shape != want.shape:
        return [f"netlist outputs {got.shape} vs AIG {want.shape}"]
    bad = np.flatnonzero((got != want).any(axis=0))
    return [f"output {k} differs from the AIG" for k in bad[:5]]


def same_qor(got: dict, want: dict, what: str) -> list[str]:
    """Bit-identical QoR (NaN never equals anything)."""
    return [f"{what}: {k} {got[k]!r} != {want[k]!r}"
            for k in QOR_FIELDS if got[k] != want[k]]
