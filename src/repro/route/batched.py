"""Vectorized batched global routing on the gcell cost grid.

The sequential engines (:mod:`repro.route.global_route`) pop one gcell
at a time from a heapq per 2-pin segment; at the 50k-gate tier that is
millions of Python-level expansions and routing dominates the flow
(``benchmarks/flow/bench_flow.py``).  This engine gives routing the
treatment the analytic placer gave placement — the whole pipeline is
numpy array ops:

* **decompose** — pins are binned to gcells in one vectorized pass and
  multi-pin nets are decomposed with a *batched* Prim MST: nets of the
  same pin count form a ``(B, n, n)`` Manhattan distance tensor and
  the n-1 Prim steps run across all B nets at once.
* **pattern fast path** — straight segments price their single line
  with one prefix-sum gather; bent segments price their *entire*
  monotone L/Z family (every H-V-H / V-H-V bend position) as three
  prefix-sum differences per candidate and commit the cheapest when
  it beats ``manhattan + slack``.  On a sane placement this settles
  the overwhelming majority of segments without any search.
* **expand** — the remainder get a quantized window around their bbox
  (clipped *and shifted* inside the grid, so every window cell is
  real) and same-shape windows route together: a Bellman–Ford round
  is four directional *min-plus scans*, where sweeping with prefix
  sums ``S`` of the edge costs turns the weighted relaxation into a
  plain running minimum — ``dist = min(dist, S + cummin(dist - S))``
  — over the whole batch.  Rounds repeat to a fixed point (one round
  per direction change of the shortest path).  The batch is the
  innermost axis, ``(H, W, K)``, and each running minimum is one
  elementwise ``np.minimum`` per row or column walked in the scan's
  direction: ``np.minimum.accumulate`` walks element by element
  (about 8 ns each, 20 times an ``np.subtract``), and ``min`` is
  exact, so the two agree bit for bit.
* **commit** — the route store is the per-segment descriptors plus
  one explicit-route store.  A straight or pattern route is only its
  descriptor (``_KIND_*`` and a bend coordinate); wavefront
  backtraces — vectorized greedy strict-descent over flat indices of
  a +inf-padded distance field, fixed neighbor order — and the rare
  maze fallback append their cells and h/v edges to one array,
  indexed by per-segment offset and length.  Usage lands on the grid
  as one ``np.bincount`` per axis over flat edge indices, never
  ``np.add.at``, whose per-index cost is 3–40 times higher; usage is
  an integer, so both are exact.
  :meth:`_BatchedRouter._route_edges` regenerates the edges from the
  store for any set of segments when a negotiation round needs them.
  Survivors' geometric paths are rebuilt in bulk once, in
  :meth:`_BatchedRouter._emit`.
* **negotiate** — PathFinder-style: history accumulates on overflowed
  edges (:meth:`RoutingGrid.bump_history`); each round first
  *relocates* segments with profitable equal-length escapes (free
  moves priced newcomer-vs-incumbent, accepted in quota-ranked
  sub-waves), then rips the per-edge excess — plus movers whose every
  escape is blocked — with one ``bincount`` over flattened edge
  indices and forces it back through the pattern tail at the round's
  raised congestion weight.  Negotiation ends at zero overflow, at
  the pass cap, or after the first round that cuts total overflow by
  less than ``_NEG_MIN_GAIN`` (1%), whose routes are kept.

The cost model is *exactly* the sequential engines' negotiated cost
(:meth:`RoutingGrid.cost_arrays` is the vectorized twin of
:meth:`RoutingGrid.edge_cost`); a seeded jitter on candidate scores
and seeded shuffles on acceptance order break ties deterministically,
so a fixed seed gives a bit-identical run while QoR is seed-robust.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import chain
from typing import Any, Iterator

import numpy as np

from repro.place.placement import Placement
from repro.route.grid import RoutingGrid
from repro.route.maze import maze_route
from repro.route.result import RoutingResult

FloatArray = Any   # numpy float64 ndarray
IntArray = Any     # numpy int64 ndarray
BoolArray = Any    # numpy bool ndarray

#: Target cells (K * H * W) per expansion batch; bounds peak memory.
_WAVE_CELLS = 1 << 21
#: Max segments per chunk on the first pass.  Chunks share one cost
#: snapshot, so the cap bounds how much demand can land between cost
#: refreshes; on the 50k-gate bench 256 buys ~30% less first-pass
#: overflow than 2048 for ~0.15 s — chunks are cheap now that the
#: pattern fast path prices whole candidate families per chunk.
_CHUNK_CAP = 256
#: First-pass caps per fast path.  Straight lines barely interact
#: within a chunk (one line per segment, spread across the die), so
#: they tolerate a much staler cost snapshot than the bent patterns
#: that pick bends from it; the negotiation rounds converge to the
#: same overflow while the bigger chunks cut the per-chunk pricing
#: overhead.
_STRAIGHT_CHUNK_CAP = 4096
_PATTERN_CHUNK_CAP = 512
#: Route descriptors (``seg_kind``, plus ``seg_bend``).  Negotiation
#: rips and recommits thousands of routes, so a monotone route is kept
#: only as its kind and bend: H-V-H bends at a column, V-H-V at a row,
#: and a straight line is the degenerate pattern bending at its far
#: end.  Wavefront/maze routes (non-monotone detours) are explicit:
#: their cells and edges live in the explicit-route store.
_KIND_NONE = 0
_KIND_EXPLICIT = 1
_KIND_HVH = 2
_KIND_VHV = 3
#: Per-round negotiation schedules (last entry repeats): keepers
#: evicted per overflowed edge (see
#: :meth:`_BatchedRouter._overflowed_ids`) and the congestion weight
#: of the sequential tail.  Early rounds evict few segments at the
#: sequential engine's weight; later rounds evict more keepers and
#: price congestion harder, pushing chronic traffic out of corridors
#: the fixed-weight tail leaves pinned at capacity.
_NEG_MARGIN = (1, 2, 4)
_NEG_CW = (5.0, 8.0, 12.0)
#: Negotiation stops after a round that cuts total overflow by less
#: than this share of its value before the round.  On the bench clouds
#: the second round already buys under 0.01% and each round costs
#: seconds at 50k gates; on small congested designs a round that stops
#: paying usually only raises overflow.
_NEG_MIN_GAIN = 0.01
#: Segments per rip-and-reroute batch of the excess tail (see
#: :meth:`_BatchedRouter._route_excess`).
_EXCESS_CHUNK = 32

#: Acceptance sub-waves per relocation pricing (see ``_relocate``):
#: how many times vacancies opened by the wave just committed may
#: unlock further accepts before the pass pays for a full re-pricing.
_ACCEPT_WAVES = 4

#: Full pricing passes per ``_relocate`` call; later passes move ever
#: fewer segments, so a small cap keeps the tail of the loop cheap.
_RELOC_PASSES = 4
#: Cost slack (over manhattan) below which a straight segment commits
#: without windowed expansion.  Zero means "every edge on the line is
#: penalty-free": a line with any congestion pays the full wavefront
#: search instead, because the tiny per-wire overflow penalty would
#: otherwise let wide buses stack far past capacity before the slack
#: is used up.
_STRAIGHT_SLACK = 0.0
#: Cost slack (over manhattan) below which a bent segment commits its
#: best monotone L/Z pattern instead of running windowed expansion.
_PATTERN_SLACK = 0.0
#: Min-plus rounds before a window is declared non-converged.
_SWEEP_LIMIT = 64
#: Detour margin around a segment's bbox.  Windows serve only the
#: first pass (negotiation reroutes through the pattern family), when
#: the grid is near-empty and shortest paths barely leave the bbox.
_FIRST_PAD = 2
#: Quantized window dims — few distinct shapes means big batches.
_WINDOW_SIZES = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
                 768, 1024)


@contextmanager
def _phase(sink: Any, phases: dict, name: str) -> Iterator[None]:
    """Accumulate wall ms into ``phases[name]`` and record the block as
    a kernel span in ``sink`` (nothing when it is ``None``)."""
    from repro.orchestrate.telemetry import kernel_span
    t0 = time.perf_counter()
    try:
        with kernel_span(sink, name):
            yield
    finally:
        phases[name] = (phases.get(name, 0.0)
                        + (time.perf_counter() - t0) * 1e3)


# ----------------------------------------------------------------------
# Decompose: pins -> gcells -> 2-pin segments.


def _batched_prim(xs: IntArray, ys: IntArray) -> tuple:
    """Prim MST over B equal-size point sets at once.

    ``xs``/``ys`` are (B, n); returns ``(ea, eb)`` local point-index
    arrays of shape (B, n-1), one tree edge per step.  Deterministic:
    argmin ties resolve to the lowest index.
    """
    B, n = xs.shape
    d = (np.abs(xs[:, :, None] - xs[:, None, :])
         + np.abs(ys[:, :, None] - ys[:, None, :]))
    big = np.iinfo(np.int64).max
    rows = np.arange(B)
    in_tree = np.zeros((B, n), dtype=bool)
    in_tree[:, 0] = True
    min_d = d[:, :, 0].astype(np.int64)
    min_d[:, 0] = big
    parent = np.zeros((B, n), dtype=np.int64)
    ea = np.empty((B, n - 1), dtype=np.int64)
    eb = np.empty((B, n - 1), dtype=np.int64)
    for step in range(n - 1):
        j = np.argmin(min_d, axis=1)
        ea[:, step] = parent[rows, j]
        eb[:, step] = j
        in_tree[rows, j] = True
        dj = d[rows, :, j].astype(np.int64)
        parent = np.where(dj < min_d, j[:, None], parent)
        min_d = np.minimum(min_d, dj)
        min_d[in_tree] = big
    return ea, eb


def _decompose(placement: Placement, grid: RoutingGrid) -> tuple:
    """Vectorized MST net decomposition.

    Returns ``(net_names, seg_net, sx, sy, dx, dy)`` — segment
    endpoint gcell arrays plus the index of each segment's net in
    ``net_names`` (net_pins iteration order).
    """
    pins = placement.net_pins()
    names = list(pins)
    counts = np.fromiter((len(p) for p in pins.values()),
                         dtype=np.int64, count=len(names))
    empty = np.zeros(0, dtype=np.int64)
    if not counts.sum():
        return names, empty, empty, empty, empty, empty

    n_arr = np.repeat(np.arange(len(names), dtype=np.int64), counts)
    xy = np.asarray(list(chain.from_iterable(pins.values())),
                    dtype=np.float64)
    # Same binning expression as GlobalRouter._gcell, elementwise.
    gx = np.clip(xy[:, 0] / placement.die_w_um * grid.nx,
                 0, grid.nx - 1).astype(np.int64)
    gy = np.clip(xy[:, 1] / placement.die_h_um * grid.ny,
                 0, grid.ny - 1).astype(np.int64)

    # Per-net unique gcells, (x, y)-sorted within each net.
    order = np.lexsort((gy, gx, n_arr))
    n_arr, gx, gy = n_arr[order], gx[order], gy[order]
    keep = np.ones(n_arr.size, dtype=bool)
    keep[1:] = ((n_arr[1:] != n_arr[:-1]) | (gx[1:] != gx[:-1])
                | (gy[1:] != gy[:-1]))
    n_arr, gx, gy = n_arr[keep], gx[keep], gy[keep]

    starts = np.flatnonzero(np.r_[True, n_arr[1:] != n_arr[:-1]])
    counts = np.diff(np.r_[starts, n_arr.size])
    net_of_run = n_arr[starts]

    seg_net: list = []
    seg_sx: list = []
    seg_sy: list = []
    seg_dx: list = []
    seg_dy: list = []

    def _emit(nets: IntArray, ax: IntArray, ay: IntArray,
              bx: IntArray, by: IntArray) -> None:
        seg_net.append(nets)
        seg_sx.append(ax)
        seg_sy.append(ay)
        seg_dx.append(bx)
        seg_dy.append(by)

    two = np.flatnonzero(counts == 2)
    if two.size:
        s = starts[two]
        _emit(net_of_run[two], gx[s], gy[s], gx[s + 1], gy[s + 1])

    multi = np.flatnonzero(counts >= 3)
    for c in np.unique(counts[multi]) if multi.size else ():
        runs = multi[counts[multi] == c]
        rows = starts[runs][:, None] + np.arange(c)[None, :]
        bx, by = gx[rows], gy[rows]
        ea, eb = _batched_prim(bx, by)
        B = runs.size
        nets = np.repeat(net_of_run[runs], c - 1)
        r = np.repeat(np.arange(B), c - 1)
        _emit(nets, bx[r, ea.ravel()], by[r, ea.ravel()],
              bx[r, eb.ravel()], by[r, eb.ravel()])

    if not seg_net:
        return names, empty, empty, empty, empty, empty
    net_i = np.concatenate(seg_net)
    sx = np.concatenate(seg_sx).astype(np.int64)
    sy = np.concatenate(seg_sy).astype(np.int64)
    dx = np.concatenate(seg_dx).astype(np.int64)
    dy = np.concatenate(seg_dy).astype(np.int64)
    # Ascending Manhattan length, like the sequential engines.
    order = np.argsort(np.abs(sx - dx) + np.abs(sy - dy),
                       kind="stable")
    return (names, net_i[order], sx[order], sy[order], dx[order],
            dy[order])


# ----------------------------------------------------------------------
# Expand: batched min-plus scan Bellman-Ford over per-segment windows.


def _quantize(v: IntArray) -> IntArray:
    """Round window dims up to the nearest canonical size."""
    sizes = np.asarray(_WINDOW_SIZES, dtype=np.int64)
    idx = np.searchsorted(sizes, v)
    return np.where(idx < sizes.size,
                    sizes[np.minimum(idx, sizes.size - 1)], v)


def _windows(grid: RoutingGrid, sx: IntArray, sy: IntArray,
             dx: IntArray, dy: IntArray) -> tuple:
    """Per-segment quantized windows ``(x0, y0, W, H)``.

    Windows are clipped to the grid by *shifting*, never by padding —
    every cell of every window is a real gcell, so the cost gathers
    need no sentinel values.
    """
    bw = np.abs(sx - dx) + 1
    bh = np.abs(sy - dy) + 1
    w = np.minimum(grid.nx, _quantize(bw + 2 * _FIRST_PAD))
    h = np.minimum(grid.ny, _quantize(bh + 2 * _FIRST_PAD))
    x0 = np.clip(np.minimum(sx, dx) - (w - bw) // 2, 0, grid.nx - w)
    y0 = np.clip(np.minimum(sy, dy) - (h - bh) // 2, 0, grid.ny - h)
    return x0, y0, w, h


def _cummin(a: FloatArray, axis: int, reverse: bool) -> None:
    """Running minimum of ``a`` along ``axis`` (0 or 1), in place.

    One elementwise ``np.minimum`` per slice, walking in the scan's
    direction (from the far end when ``reverse``).  ``min`` is exact,
    so this equals ``np.minimum.accumulate`` bit for bit; with the
    batch on the innermost axis each step is one contiguous
    vectorized pass, where ``accumulate`` walks element by element.
    """
    view = a if axis == 0 else a.swapaxes(0, 1)
    n = view.shape[0]
    if reverse:
        for i in range(n - 2, -1, -1):
            np.minimum(view[i + 1], view[i], out=view[i])
    else:
        for i in range(1, n):
            np.minimum(view[i - 1], view[i], out=view[i])


def _expand_chunk(h_cost: FloatArray, v_cost: FloatArray,
                  x0: IntArray, y0: IntArray, w: int, h: int,
                  sxw: IntArray, syw: IntArray) -> tuple:
    """Shortest-path distances for K same-shape windows at once.

    Works batch-innermost: every array is ``(H, W, K)``.  Returns
    ``(dist, costs)`` in the layout :func:`_backtrace` reads, padded to
    ``(H+2, W+2, K)``: the distance field from each window's source,
    +inf on the border, and the two edge-cost planes stacked as
    ``(2, H+2, W+2, K)``, where plane 0/1 at the padded position of
    cell ``(x, y)`` holds the cost of its edge to ``(x+1, y)``/``(x,
    y+1)`` (zero where there is none).
    """
    k = x0.shape[0]
    ys = y0[None, :] + np.arange(h)[:, None]          # (H, K)
    xs = x0[None, :] + np.arange(w)[:, None]          # (W, K)
    dist_p = np.full((h + 2, w + 2, k), np.inf)
    costs = np.zeros((2, h + 2, w + 2, k))
    hw, vw = costs
    hw[1:-1, 1:w] = h_cost[ys[:, None, :], xs[None, :w - 1, :]]
    vw[1:h, 1:-1] = v_cost[ys[:h - 1, None, :], xs[None, :, :]]
    full: FloatArray = dist_p[1:-1, 1:-1]
    full[syw, sxw, np.arange(k)] = 0.0
    sh: FloatArray = np.zeros((h, w, k))
    np.cumsum(hw[1:-1, 1:w], axis=1, out=sh[:, 1:])
    sv: FloatArray = np.zeros((h, w, k))
    np.cumsum(vw[1:h, 1:-1], axis=0, out=sv[1:])
    # Sweep only the windows that are still changing: converged ones
    # are scattered back into ``full`` and dropped from the batch, so
    # a few straggler windows stop costing whole-batch sweeps.
    act: IntArray = np.arange(k)
    dist = full
    prev, t = np.empty_like(sh), np.empty_like(sh)
    for _ in range(_SWEEP_LIMIT):
        # Tolerant check: prefix-sum arithmetic can keep flipping the
        # last ulp forever; improvements below 1e-9 are far smaller
        # than any real cost difference (>= 0.1) and cannot change a
        # backtrace, so treat them as converged.
        np.subtract(dist, 1e-9, out=prev)
        # Each scan turns the weighted relaxation into a plain running
        # minimum over prefix sums: dist = min(dist, S + cummin(dist -
        # S)), with the signs flipped for the reverse direction.
        for s, axis in ((sh, 1), (sv, 0)):
            np.subtract(dist, s, out=t)        # rightward / downward
            _cummin(t, axis, False)
            np.add(t, s, out=t)
            np.minimum(dist, t, out=dist)
            np.add(dist, s, out=t)             # leftward / upward
            _cummin(t, axis, True)
            np.subtract(t, s, out=t)
            np.minimum(dist, t, out=dist)
        changed = (dist < prev).any(axis=(0, 1))
        n_changed = int(changed.sum())
        if n_changed == 0:
            break
        if n_changed <= act.size // 2:
            settled = ~changed
            full[:, :, act[settled]] = dist[:, :, settled]
            act = act[changed]
            # ``compress`` keeps the batch innermost; a fancy index on
            # the last axis would return it outermost in memory.
            dist = np.compress(changed, dist, axis=2)
            sh = np.compress(changed, sh, axis=2)
            sv = np.compress(changed, sv, axis=2)
            prev, t = np.empty_like(sh), np.empty_like(sh)
    if dist is not full:
        full[:, :, act] = dist
    return dist_p, costs


def _backtrace(dist: FloatArray, costs: FloatArray, sxw: IntArray,
               syw: IntArray, dxw: IntArray, dyw: IntArray,
               rng: Any) -> tuple:
    """Walk dst -> src by greedy strict descent, whole batch at once.

    Below capacity the negotiated cost is flat, so many staircase
    paths tie exactly; a deterministic tie-break would send every
    segment of a batch down the same canonical corridor and stack
    usage far past capacity before the next cost refresh could react.
    Instead, ties break on a per-segment, per-step ~1e-4 perturbation
    drawn from ``rng`` — tied neighbors all lie on shortest paths, so
    this diffuses the batch across the whole equal-cost corridor
    ensemble (the batched analogue of the sequential engines filling
    corridors one segment at a time) while the strict-descent check
    keeps every walk a true shortest path.

    Reads :func:`_expand_chunk`'s padded arrays through flat indices:
    a walker's four neighbors are fixed offsets from its cell, and a
    neighbor off the window is a +inf border cell that never wins a
    strict descent, so no step needs a mask or clip.

    Returns ``(px, py, done, ok)``: step-stacked window coordinates
    (K, S+1), per-segment final step index, and a success mask (a
    window that did not converge cannot descend and falls back to the
    sequential maze router).
    """
    hp, wp, k = dist.shape
    dist_f, cost_f = dist.ravel(), costs.ravel()
    # Neighbors in the order x-1, x+1, y-1, y+1; a move's edge cost
    # is stored at the cell on its low side, h plane first.
    moves = np.asarray([-k, k, -wp * k, wp * k])[:, None]
    edges = np.asarray([-k, 0, dist.size - wp * k, dist.size])[:, None]
    rows = np.arange(k)
    src = ((syw + 1) * wp + sxw + 1) * k + rows
    cur = ((dyw + 1) * wp + dxw + 1) * k + rows
    steps = [cur]
    active = cur != src
    ok = np.ones(k, dtype=bool)
    done = np.zeros(k, dtype=np.int64)
    cap = (hp - 2) * (wp - 2)
    step = 0
    while active.any() and step < cap:
        step += 1
        cur_d = dist_f[cur]
        cand = dist_f[cur + moves] + cost_f[cur + edges]
        cand += rng.random((4, k)) * 1e-4
        nxt = cur + moves[np.argmin(cand, axis=0), 0]
        good = active & (dist_f[nxt] < cur_d)
        ok &= ~(active & ~good)
        cur = np.where(good, nxt, cur)
        steps.append(cur)
        done = np.where(good, step, done)
        active = good & (cur != src)
    ok &= ~active  # hit the step cap while still walking
    py, px = np.divmod(np.stack(steps, axis=1) // k, wp)
    return px - 1, py - 1, done, ok


# ----------------------------------------------------------------------
# Commit / negotiate.


_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _ragged_runs(starts: IntArray, steps: IntArray,
                 lens: IntArray) -> IntArray:
    """Concatenated arithmetic runs: ``out[off_i + t] = starts[i] +
    steps[i] * t`` for ``t < lens[i]`` — the ragged analogue of
    ``arange``, used to materialize whole batches of path legs and
    edge runs without per-segment loops."""
    tot = int(lens.sum())
    off = np.repeat(np.cumsum(lens) - lens, lens)
    t = np.arange(tot) - off
    return np.repeat(starts, lens) + np.repeat(steps, lens) * t


def _pattern_family(hp: Any, vp: Any, sx: IntArray, sy: IntArray,
                    dx: IntArray, dy: IntArray) -> tuple:
    """Price every monotone L/Z route of each segment in one gather.

    ``hp``/``vp`` are row/column prefix sums of per-edge weights
    (full costs or overflow penalties).  Column ``j < wmax`` of the
    returned matrix is the H-V-H route bending at column
    ``min(x1 + j, x2)``; column ``wmax + j`` is the V-H-V route
    bending at row ``min(y1 + j, y2)`` — L-shapes are the endpoint
    bends, so the family needs no special cases.  Returns the cost
    matrix and ``wmax`` (the H-V-H column count).
    """
    x1, x2 = np.minimum(sx, dx), np.maximum(sx, dx)
    y1, y2 = np.minimum(sy, dy), np.maximum(sy, dy)
    wmax = int((x2 - x1).max()) + 1
    cc = np.minimum(x1[:, None] + np.arange(wmax)[None, :],
                    x2[:, None])
    hvh = (np.abs(hp[sy[:, None], cc] - hp[sy, sx][:, None])
           + np.abs(vp[dy[:, None], cc] - vp[sy[:, None], cc])
           + np.abs(hp[dy, dx][:, None] - hp[dy[:, None], cc]))
    hmax = int((y2 - y1).max()) + 1
    rr = np.minimum(y1[:, None] + np.arange(hmax)[None, :],
                    y2[:, None])
    vhv = (np.abs(vp[rr, sx[:, None]] - vp[sy, sx][:, None])
           + np.abs(hp[rr, dx[:, None]] - hp[rr, sx[:, None]])
           + np.abs(vp[dy, dx][:, None] - vp[rr, dx[:, None]]))
    return np.concatenate([hvh, vhv], axis=1), wmax


def _path_edges(path: IntArray, nx: int) -> tuple:
    """Flat (h, v) usage-array indices of an (L, 2) gcell path."""
    x, y = path[:, 0], path[:, 1]
    horiz = y[1:] == y[:-1]
    hx = np.minimum(x[1:], x[:-1])[horiz]
    hy = y[1:][horiz]
    vx = x[1:][~horiz]
    vy = np.minimum(y[1:], y[:-1])[~horiz]
    return hy * (nx - 1) + hx, vy * nx + vx


def _members(keys: IntArray, table: IntArray) -> BoolArray:
    """``np.isin(keys, table)`` for int64 arrays by one sort and one
    binary search — several times faster than ``np.isin`` at the
    hundreds of thousands of keys relocation checks."""
    table = np.sort(table)
    if not table.size:
        return np.zeros(keys.size, dtype=bool)
    at = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return table[at] == keys


def _stay_penalties(routes: tuple, h_pen: Any, v_pen: Any,
                    n: int) -> Any:
    """Per-owner sum of ``h_pen``/``v_pen`` over the per-axis
    ``(edge, owner)`` entries of ``routes`` — the penalty each of
    ``n`` routes pays to stay where it is."""
    (h, h_own), (v, v_own) = routes
    return (np.bincount(h_own, weights=h_pen[h], minlength=n)
            + np.bincount(v_own, weights=v_pen[v], minlength=n))


class _BatchedRouter:
    """One batched-routing run; see the module docstring."""

    def __init__(self, placement: Placement, *, layers: int,
                 gcell_um: float, max_iterations: int,
                 seed: int, telemetry: Any) -> None:
        self.placement = placement
        self.max_iterations = max_iterations
        self.telemetry = telemetry
        node = placement.netlist.library.node
        self.grid = RoutingGrid.for_die(
            placement.die_w_um, placement.die_h_um, node,
            gcell_um=gcell_um, layers=layers)
        self.rng = np.random.default_rng(seed)
        self.phases: dict = {}

    # -- the route store -----------------------------------------------

    def _store_explicit(self, ids: IntArray, cells: IntArray,
                        h: IntArray, h_len: IntArray, v: IntArray,
                        v_len: IntArray) -> None:
        """Append explicit routes to the store as one block.

        Per segment the block holds ``[h edges | v edges | cells]``
        (cells as interleaved x, y, src -> dst); ``h``/``v``/``cells``
        come concatenated in ``ids`` order.  Edges keep the order they
        were found in, which the float reductions over them depend on.
        """
        cell_len = 2 * (h_len + v_len + 1)
        size = h_len + v_len + cell_len
        loc = np.cumsum(size) - size
        ones = np.ones(ids.size, dtype=np.int64)
        block = np.empty(int(size.sum()), dtype=np.int64)
        block[_ragged_runs(loc, ones, h_len)] = h
        block[_ragged_runs(loc + h_len, ones, v_len)] = v
        block[_ragged_runs(loc + h_len + v_len, ones,
                           cell_len)] = cells.ravel()
        self.x_off[ids] = self.x_size + loc
        self.x_h[ids] = h_len
        self.x_v[ids] = v_len
        self.seg_kind[ids] = _KIND_EXPLICIT
        self.x_blocks.append(block)
        self.x_size += block.size

    def _store(self) -> IntArray:
        """The explicit-route store as one array; blocks appended since
        the last read are coalesced first."""
        if len(self.x_blocks) != 1:
            self.x_blocks = [np.concatenate([_EMPTY_I64,
                                             *self.x_blocks])]
        return self.x_blocks[0]

    def _descriptor_edges(self, ids: IntArray, kind: IntArray,
                          bend: IntArray) -> tuple:
        """Per-axis ``((h, owner), (v, owner))`` flat edges of routes.

        ``kind``/``bend`` describe one route per segment of ``ids``
        and ``owner`` indexes ``ids``.  On each axis a route is at most
        two arithmetic runs — an H-V-H route's two h legs and one v
        leg, a V-H-V route's transpose, or an explicit route's slice
        of the store — so a whole set materializes as one ragged
        ``arange``.  Entries come grouped by owner in ``ids`` order,
        each route's edges in leg order (explicit ones as stored): the
        order every float ``bincount`` and seeded ranking over them
        relies on.
        """
        nx = self.grid.nx
        n = ids.size
        sx, sy = self.seg_sx[ids], self.seg_sy[ids]
        dx, dy = self.seg_dx[ids], self.seg_dy[ids]
        hvh, vhv = kind == _KIND_HVH, kind == _KIND_VHV
        b = bend
        # (axis, route, run) table of arithmetic runs.  H-V-H: h legs
        # on rows sy and dy, v leg on column b; V-H-V: v legs on
        # columns sx and dx, h leg on row b.  Other kinds get none.
        start = np.zeros((2, n, 2), dtype=np.int64)
        length = np.zeros((2, n, 2), dtype=np.int64)
        step = np.ones((2, n, 2), dtype=np.int64)
        step[1] = nx
        start[0, :, 0] = np.where(hvh, sy * (nx - 1) + np.minimum(sx, b),
                                  b * (nx - 1) + np.minimum(sx, dx))
        length[0, :, 0] = np.where(hvh, np.abs(b - sx),
                                   np.abs(dx - sx) * vhv)
        start[0, :, 1] = dy * (nx - 1) + np.minimum(b, dx)
        length[0, :, 1] = np.abs(dx - b) * hvh
        start[1, :, 0] = np.where(vhv, np.minimum(sy, b) * nx + sx,
                                  np.minimum(sy, dy) * nx + b)
        length[1, :, 0] = np.where(vhv, np.abs(b - sy),
                                   np.abs(dy - sy) * hvh)
        start[1, :, 1] = np.minimum(b, dy) * nx + dx
        length[1, :, 1] = np.abs(dy - b) * vhv
        # An explicit route is one run per axis over its store slice.
        exp = kind == _KIND_EXPLICIT
        has_exp = bool(exp.any())
        if has_exp:
            x_off, x_h = self.x_off[ids[exp]], self.x_h[ids[exp]]
            start[:, exp, 0] = (x_off, x_off + x_h)
            length[:, exp, 0] = (x_h, self.x_v[ids[exp]])
            step[1, exp, 0] = 1
        edge = _ragged_runs(start.ravel(), step.ravel(), length.ravel())
        per_route = length.sum(axis=2)
        if has_exp:
            at = np.repeat(np.tile(exp, 2), per_route.ravel())
            edge[at] = self._store()[edge[at]]
        h_size = int(per_route[0].sum())
        owner = np.arange(n)
        return ((edge[:h_size], np.repeat(owner, per_route[0])),
                (edge[h_size:], np.repeat(owner, per_route[1])))

    def _route_edges(self, ids: IntArray) -> tuple:
        """Per-axis ``(edge, owner)`` of the *stored* routes of
        ``ids`` (see :meth:`_descriptor_edges`) — how negotiation reads
        the route store.  Unrouted segments contribute no entries."""
        return self._descriptor_edges(ids, self.seg_kind[ids],
                                      self.seg_bend[ids])

    def _shift_usage(self, h: IntArray, v: IntArray,
                     delta: int) -> None:
        """Add ``delta`` to the usage of flat h and v edge lists.

        One ``bincount`` per axis, repeated edges included: usage is an
        integer, so this is exactly ``np.add.at``, at a fraction of its
        per-index cost.
        """
        g = self.grid
        for use, edges in ((g.h_usage, h), (g.v_usage, v)):
            if edges.size:
                flat = use.ravel()
                counts = np.bincount(edges, minlength=flat.size)
                flat += delta * counts.astype(flat.dtype)

    def _commit_patterns(self, ids: IntArray, kind: IntArray,
                         bend: IntArray) -> None:
        """Commit monotone routes: their descriptors, and their usage
        in one edge generation (the path itself is rebuilt from the
        descriptor at emit time)."""
        self.seg_kind[ids] = kind
        self.seg_bend[ids] = bend
        (h, _), (v, _) = self._descriptor_edges(ids, kind, bend)
        self._shift_usage(h, v, 1)

    # -- one wave of segment ids, bucketed by window shape -------------

    def _route_ids(self, ids: IntArray, congestion_weight: float) -> None:
        if ids.size == 0:
            return
        sx, dx = self.seg_sx[ids], self.seg_dx[ids]
        sy, dy = self.seg_sy[ids], self.seg_dy[ids]
        straight = (sx == dx) | (sy == dy)
        rest: list = []
        st = ids[straight]
        for lo in range(0, st.size, _STRAIGHT_CHUNK_CAP):
            rest.append(self._route_straight(
                st[lo:lo + _STRAIGHT_CHUNK_CAP], congestion_weight))
        bent = ids[~straight]
        for lo in range(0, bent.size, _PATTERN_CHUNK_CAP):
            rest.append(self._route_patterns(
                bent[lo:lo + _PATTERN_CHUNK_CAP], congestion_weight,
                _PATTERN_SLACK))
        ids = np.concatenate(rest) if rest else ids[:0]
        if ids.size == 0:
            return
        x0, y0, w, h = (a[ids] for a in self.windows)
        shapes: dict = {}
        for pos in range(ids.size):
            shapes.setdefault((int(h[pos]), int(w[pos])),
                              []).append(pos)
        for (hh, ww) in sorted(shapes):
            pos = np.asarray(shapes[(hh, ww)], dtype=np.int64)
            k_max = max(16, min(_WAVE_CELLS // (hh * ww), _CHUNK_CAP))
            for lo in range(0, pos.size, k_max):
                self._route_chunk(ids[pos[lo:lo + k_max]], hh, ww,
                                  congestion_weight)

    def _route_straight(self, ids: IntArray,
                        congestion_weight: float) -> IntArray:
        """Commit penalty-free straight segments without expansion.

        An axis-aligned segment's overflow penalty along its line (its
        cost at ``congestion_weight`` minus its cost at weight zero) is
        an O(1) prefix-sum difference.  A line whose penalty is at most
        ``_STRAIGHT_SLACK`` (zero: one more wire overflows none of its
        edges) commits as is.  Returns the ids (congested lines) that
        must go through the regular windowed expansion.
        """
        if ids.size == 0:
            return ids
        g = self.grid
        with _phase(self.telemetry, self.phases, "route_expand"):
            h_cost, v_cost = g.cost_arrays(
                congestion_weight=congestion_weight)
            # Zero-congestion-weight twin: the overflow *penalty* on
            # the line is the difference, so the slack check is not
            # poisoned by the history tax that every edge pays once
            # negotiation has begun.
            h_cost0, v_cost0 = g.cost_arrays(congestion_weight=0.0)
            hps = np.concatenate(
                [np.zeros((h_cost.shape[0], 1)),
                 np.cumsum(h_cost - h_cost0, axis=1)], axis=1)
            vps = np.concatenate(
                [np.zeros((1, v_cost.shape[1])),
                 np.cumsum(v_cost - v_cost0, axis=0)], axis=0)
            sx, dx = self.seg_sx[ids], self.seg_dx[ids]
            sy, dy = self.seg_sy[ids], self.seg_dy[ids]
            x1, x2 = np.minimum(sx, dx), np.maximum(sx, dx)
            y1, y2 = np.minimum(sy, dy), np.maximum(sy, dy)
            horiz = sy == dy
            penalty = np.where(horiz,
                               hps[sy, x2] - hps[sy, x1],
                               vps[y2, sx] - vps[y1, sx])
            good = penalty <= _STRAIGHT_SLACK + 1e-9
        with _phase(self.telemetry, self.phases, "route_commit"):
            # A line is the degenerate pattern bending at its far end.
            self._commit_patterns(
                ids[good], np.where(horiz, _KIND_HVH, _KIND_VHV)[good],
                np.where(horiz, dx, dy)[good])
        return ids[~good]

    def _route_patterns(self, ids: IntArray, congestion_weight: float,
                        slack: float) -> IntArray:
        """Route bent segments as min-cost monotone L/Z patterns.

        Every 3-leg monotone route (H-V-H with a bend column ``c``, or
        V-H-V with a bend row ``r``) has a cost that is three
        prefix-sum differences, so the *entire* candidate family —
        every possible bend position, L-shapes included as the
        endpoints — evaluates as one batched gather per chunk.  A
        segment commits its cheapest pattern when that costs no more
        than ``manhattan + slack`` (monotone patterns never add
        wirelength); the rest return to the caller for windowed
        wavefront expansion, which can also find non-monotone detours.
        The seeded jitter diffuses equal-cost bends across the batch
        exactly like the backtrace tie-breaking.
        """
        if ids.size == 0:
            return ids
        g = self.grid
        nx = g.nx
        k = ids.size
        with _phase(self.telemetry, self.phases, "route_expand"):
            h_cost, v_cost = g.cost_arrays(
                congestion_weight=congestion_weight)
            # Row/column prefix sums; costs are >= 1, so both are
            # strictly increasing and |difference| is the leg cost in
            # either direction.
            hps = np.zeros((g.ny, nx))
            hps[:, 1:] = np.cumsum(h_cost, axis=1)
            vps = np.zeros((g.ny, nx))
            vps[1:, :] = np.cumsum(v_cost, axis=0)
            sx, dx = self.seg_sx[ids], self.seg_dx[ids]
            sy, dy = self.seg_sy[ids], self.seg_dy[ids]
            x1, x2 = np.minimum(sx, dx), np.maximum(sx, dx)
            y1, y2 = np.minimum(sy, dy), np.maximum(sy, dy)
            cand, wmax = _pattern_family(hps, vps, sx, sy, dx, dy)
            cand += self.rng.random(cand.shape) * 1e-4
            best = np.argmin(cand, axis=1)
            if np.isinf(slack):
                good = np.ones(k, dtype=bool)
            else:
                # Overflow penalty of the chosen route (cost minus its
                # zero-congestion-weight twin), so the slack check is
                # not poisoned by the history tax — same reasoning as
                # the straight fast path.
                h0, v0 = g.cost_arrays(congestion_weight=0.0)
                hp0 = np.zeros((g.ny, nx))
                hp0[:, 1:] = np.cumsum(h_cost - h0, axis=1)
                vp0 = np.zeros((g.ny, nx))
                vp0[1:, :] = np.cumsum(v_cost - v0, axis=0)
                bc = np.minimum(
                    np.where(best < wmax, x1 + best, 0), x2)
                br = np.minimum(
                    np.where(best >= wmax, y1 + best - wmax, 0), y2)
                pen_hvh = (np.abs(hp0[sy, bc] - hp0[sy, sx])
                           + np.abs(vp0[dy, bc] - vp0[sy, bc])
                           + np.abs(hp0[dy, dx] - hp0[dy, bc]))
                pen_vhv = (np.abs(vp0[br, sx] - vp0[sy, sx])
                           + np.abs(hp0[br, dx] - hp0[br, sx])
                           + np.abs(vp0[dy, dx] - vp0[br, dx]))
                penalty = np.where(best < wmax, pen_hvh, pen_vhv)
                good = penalty <= slack + 1e-9
        with _phase(self.telemetry, self.phases, "route_commit"):
            hvh = best < wmax
            bend = np.where(hvh, np.minimum(x1 + best, x2),
                            np.minimum(y1 + best - wmax, y2))
            self._commit_patterns(
                ids[good], np.where(hvh, _KIND_HVH, _KIND_VHV)[good],
                bend[good])
        return ids[~good]

    def _route_chunk(self, ids: IntArray, hh: int, ww: int,
                     congestion_weight: float) -> None:
        g = self.grid
        sx, sy = self.seg_sx[ids], self.seg_sy[ids]
        dx, dy = self.seg_dx[ids], self.seg_dy[ids]
        x0, y0 = self.windows[0][ids], self.windows[1][ids]
        with _phase(self.telemetry, self.phases, "route_expand"):
            h_cost, v_cost = g.cost_arrays(
                congestion_weight=congestion_weight)
            dist, costs = _expand_chunk(
                h_cost, v_cost, x0, y0, ww, hh, sx - x0, sy - y0)
            px, py, done, ok = _backtrace(
                dist, costs, sx - x0, sy - y0, dx - x0, dy - y0,
                self.rng)
        with _phase(self.telemetry, self.phases, "route_commit"):
            # Global step-stacked coordinates; the frozen tail of each
            # finished row repeats its last cell, so "an edge exists at
            # step s" is exactly "the position changed at step s".
            gx = px + x0[:, None]
            gy = py + y0[:, None]
            ax, bx = gx[:, :-1], gx[:, 1:]
            ay, by = gy[:, :-1], gy[:, 1:]
            moved = ok[:, None] & ((ax != bx) | (ay != by))
            horiz = moved & (ay == by)
            vert = moved & (ay != by)
            # Walks run dst -> src (edges stay in walk order); cells
            # are stored src -> dst.
            rows = np.flatnonzero(ok)
            walk = done[rows] + 1
            step = _ragged_runs(done[rows],
                                np.full(rows.size, -1), walk)
            row = np.repeat(rows, walk)
            seg = [ids[rows]]
            cells = [np.stack([gx[row, step], gy[row, step]], axis=1)]
            h_edges = [(ay * (g.nx - 1) + np.minimum(ax, bx))[horiz]]
            v_edges = [(np.minimum(ay, by) * g.nx + ax)[vert]]
            h_len = [horiz[rows].sum(axis=1)]
            v_len = [vert[rows].sum(axis=1)]
            for k in np.flatnonzero(~ok):
                # Window failed to descend: sequential fallback.
                found = maze_route(
                    g, (int(sx[k]), int(sy[k])),
                    (int(dx[k]), int(dy[k])),
                    congestion_weight=congestion_weight)
                if found is None:
                    self.failed.append(
                        self.net_names[self.seg_net[ids[k]]])
                    continue
                path = np.asarray(found, dtype=np.int64)
                he, ve = _path_edges(path, g.nx)
                seg.append(ids[k:k + 1])
                cells.append(path)
                h_edges.append(he)
                v_edges.append(ve)
                h_len.append([he.size])
                v_len.append([ve.size])
            h_all = np.concatenate(h_edges)
            v_all = np.concatenate(v_edges)
            self._store_explicit(
                np.concatenate(seg), np.concatenate(cells), h_all,
                np.concatenate(h_len), v_all, np.concatenate(v_len))
            self._shift_usage(h_all, v_all, 1)

    # -- negotiation helpers -------------------------------------------

    def _penalty_arrays(self, congestion_weight: float) -> tuple:
        """Flat overflow-penalty arrays: (newcomer, incumbent) per axis.

        The newcomer arrays price *entering* an edge (the congestion
        term of the grid's cost model); the incumbent arrays price
        *staying* on one — the same term with the segment's own unit
        of usage discounted, so an edge at exactly capacity taxes a
        newcomer but not a segment already committed to it.
        """
        g = self.grid
        out: list = []
        for use, cap, hist in (
                (g.h_usage, g.h_capacity, g.h_history),
                (g.v_usage, g.v_capacity, g.v_history)):
            scale = (congestion_weight * (1.0 + hist) / cap).ravel()
            out.append(
                (np.maximum(0.0, (use + 1 - cap)).ravel() * scale,
                 np.maximum(0.0, (use - cap)).ravel() * scale))
        (h_pen, h_pen0), (v_pen, v_pen0) = out
        return h_pen, h_pen0, v_pen, v_pen0

    def _escape_moves(self, ids: IntArray, h_pen: Any,
                      v_pen: Any) -> tuple:
        """Cheapest equal-length escape per segment.

        Prices the whole monotone pattern family against the
        *newcomer* penalty prefix sums and returns ``(penalty, bend,
        is_hvh)`` for each segment's best candidate.  Priced with the
        segment's own usage still committed, so wherever a candidate
        reuses the current edges the estimate errs conservative.
        """
        g = self.grid
        hp = np.zeros((g.ny, g.nx))
        hp[:, 1:] = np.cumsum(h_pen.reshape(g.h_usage.shape), axis=1)
        vp = np.zeros((g.ny, g.nx))
        vp[1:, :] = np.cumsum(v_pen.reshape(g.v_usage.shape), axis=0)
        pen = np.empty(ids.size)
        bend = np.empty(ids.size, dtype=np.int64)
        fam = np.empty(ids.size, dtype=bool)
        for lo in range(0, ids.size, _CHUNK_CAP):
            sl = slice(lo, lo + _CHUNK_CAP)
            sub = ids[sl]
            sx, dx = self.seg_sx[sub], self.seg_dx[sub]
            sy, dy = self.seg_sy[sub], self.seg_dy[sub]
            cand, wmax = _pattern_family(hp, vp, sx, sy, dx, dy)
            cand += self.rng.random(cand.shape) * 1e-4
            best = np.argmin(cand, axis=1)
            pen[sl] = cand[np.arange(sub.size), best]
            fam[sl] = best < wmax
            x1, x2 = np.minimum(sx, dx), np.maximum(sx, dx)
            y1, y2 = np.minimum(sy, dy), np.maximum(sy, dy)
            bend[sl] = np.where(
                best < wmax,
                np.minimum(x1 + best, x2),
                np.minimum(y1 + np.maximum(best - wmax, 0), y2))
        return pen, bend, fam

    def _relocate(self, congestion_weight: float) -> IntArray:
        """Vectorized equal-length escape rounds.

        This replicates where the sequential engine's negotiation
        rounds actually win: rerouting every segment that crosses an
        overflowed edge returns almost every path unchanged, and the
        productive few are *equal-length staircase escapes* — exactly
        the moves the monotone pattern family prices with prefix-sum
        gathers.  Each pass selects the segments whose cheapest
        escape strictly beats the (self-discounted) cost of staying
        and commits the capacity-feasible subset in batches.

        Returns the *stuck* movers: segments that would profit from
        an escape but whose every profitable candidate is blocked on
        full edges.  The caller forces those through the excess tail
        (a paid move can still shed overflow even when no free
        corridor exists).
        """
        g = self.grid
        h_tax = 0.1 * g.h_history.ravel()
        v_tax = 0.1 * g.v_history.ravel()
        cand = np.flatnonzero(
            (self.seg_sx != self.seg_dx)
            & (self.seg_sy != self.seg_dy))
        for _pass in range(_RELOC_PASSES):
            if not cand.size:
                break
            (h_pen, h_pen0, v_pen,
             v_pen0) = self._penalty_arrays(congestion_weight)
            # Only segments crossing an overflowed edge are up for
            # relocation (the sequential engine's rip criterion); the
            # history tax joins the pricing so chronic-corridor
            # incumbents prefer fresh corridors even at equal overflow
            # — the same pressure that spreads the sequential engine's
            # equal-cost reroutes.
            old = self._route_edges(cand)
            stay_pen = _stay_penalties(old, h_pen0, v_pen0, cand.size)
            keep = np.flatnonzero(stay_pen > 1e-12)
            if keep.size == 0:
                break
            stay = (stay_pen[keep]
                    + _stay_penalties(old, h_tax, v_tax,
                                      cand.size)[keep])
            pen, bend, fam = self._escape_moves(
                cand[keep], h_pen + h_tax, v_pen + v_tax)
            gain = stay - pen
            movers = np.flatnonzero(gain > 1e-9)
            if movers.size == 0:
                break
            order = movers[np.argsort(-gain[movers],
                                      kind="stable")]
            mv, tb, tf = cand[keep[order]], bend[order], fam[order]
            tk = np.where(tf, _KIND_HVH, _KIND_VHV)
            # Capacity-aware acceptance, best gain first: a move is
            # accepted only if every edge of its new route either has
            # spare capacity left after the better-ranked moves ahead
            # of it or is an edge the segment already holds (it keeps
            # its unit there, consuming nothing).  An accepted wave
            # therefore commits in one batch without the corridor
            # pile-ups that chunk-blind commits suffer.  Acceptance
            # runs several sub-waves against the same pricing: each
            # wave's commits free their old edges, so vacancy chains
            # propagate without paying for a full re-pricing.  Old and
            # new routes are keyed by mover rank.
            rank_of = np.full(cand.size, -1)
            rank_of[keep[order]] = np.arange(mv.size)
            entries: list = []
            for (o_edge, o_own), (edge, owner), n_edges in zip(
                    old, self._descriptor_edges(mv, tk, tb),
                    (g.h_usage.size, g.v_usage.size)):
                o_rank = rank_of[o_own]
                held_by = o_rank >= 0
                o_edge, o_rank = o_edge[held_by], o_rank[held_by]
                held = _members(owner * n_edges + edge,
                                o_rank * n_edges + o_edge)
                entries.append((edge, owner, held, o_edge, o_rank))
            alive = np.ones(mv.size, dtype=bool)
            committed = 0
            for _wave in range(_ACCEPT_WAVES):
                bad = np.zeros(mv.size, dtype=np.int64)
                for ax, (edge, owner, held, _, _) in enumerate(entries):
                    avail = ((g.h_capacity - g.h_usage) if ax == 0
                             else (g.v_capacity
                                   - g.v_usage)).ravel()
                    ne = np.flatnonzero(alive[owner] & ~held)
                    if not ne.size:
                        continue
                    e = edge[ne]
                    # By edge, then by position: one argsort of a
                    # unique combined key, the order of
                    # ``lexsort((ne, e))``.
                    srt = np.argsort(e * ne.size + np.arange(ne.size))
                    es = e[srt]
                    starts = np.flatnonzero(
                        np.r_[True, es[1:] != es[:-1]])
                    rank = np.arange(es.size) - np.repeat(
                        starts, np.diff(np.r_[starts, es.size]))
                    ok = rank < avail[es]
                    bad += np.bincount(owner[ne[srt[~ok]]],
                                       minlength=mv.size)
                acc = alive & (bad == 0)
                if not acc.any():
                    break
                # Rip the accepted movers' old routes and commit their
                # escapes from the entries priced above.
                (hn, hno, _, ho, hoo), (vn, vno, _, vo, voo) = entries
                self._shift_usage(ho[acc[hoo]], vo[acc[voo]], -1)
                self._shift_usage(hn[acc[hno]], vn[acc[vno]], 1)
                self.seg_kind[mv[acc]] = tk[acc]
                self.seg_bend[mv[acc]] = tb[acc]
                committed += int(acc.sum())
                alive &= ~acc
            # Movers not committed are re-priced against the updated
            # usage; segments with no profitable escape are out until
            # the next negotiation round re-prices the population.
            cand = mv[alive]
            if committed == 0:
                break
        return cand

    def _overflowed_ids(self, margin: int = 0) -> IntArray:
        """Segments to rip up: the *excess* on each overflowed edge.

        Ripping every segment that merely touches an overflowed edge
        (the sequential engine's policy) re-routes half the design per
        round here, because a full-to-capacity edge carries dozens of
        perfectly fine segments.  Instead each overflowed edge keeps a
        capacity-sized subset of its segments and only the excess —
        chosen by seeded random rank, so the run stays
        bit-reproducible — goes back to the router.

        ``margin`` shrinks the kept subset to ``cap - margin``: excess
        alone just shuffles between corridors that the keepers pin at
        exactly full, so later rounds evict a few keepers per edge too,
        letting accumulated history push chronic traffic out of the
        contested region.
        """
        h_of, v_of = self.grid.overflow_masks()
        n_seg = self.seg_net.size
        hit = np.zeros(n_seg, dtype=bool)
        for (edge, seg), mask, cap in zip(
                self._route_edges(np.arange(n_seg)),
                (h_of.ravel(), v_of.ravel()),
                (self.grid.h_capacity, self.grid.v_capacity)):
            bad = mask[edge]
            edges, segs = edge[bad], seg[bad]
            if edges.size == 0:
                continue
            # By edge, ties in seeded random order: one argsort of a
            # unique combined key, the same order as ``lexsort`` and
            # several times faster.
            order = np.argsort(edges * edges.size
                               + self.rng.permutation(edges.size))
            edges, segs = edges[order], segs[order]
            starts = np.flatnonzero(
                np.r_[True, edges[1:] != edges[:-1]])
            rank = np.arange(edges.size) - np.repeat(
                starts, np.diff(np.r_[starts, edges.size]))
            hit |= np.bincount(segs[rank >= cap - margin],
                               minlength=n_seg) > 0
        return np.flatnonzero(hit)

    def _route_excess(self, ids: IntArray,
                      congestion_weight: float) -> None:
        """Rip-and-reroute the redo set as small pattern batches.

        The sequential engine's negotiation reroutes essentially never
        change a path's *length* — the productive moves are monotone —
        so the evicted excess can reroute through the pattern family
        at a fraction of a maze search's cost.  Small chunks keep the
        cost snapshot honest: each batch is ripped, priced against the
        usage of everything else, and committed at its cheapest
        monotone route (unconditionally — the excess has to live
        somewhere, and the congestion weight prices where).  Straight
        segments are skipped outright: their only monotone route is
        the line they already hold, so rip-and-recommit would be an
        expensive no-op (the sequential engine's equal-length reroutes
        never moved them either).

        The old routes' edges are generated once for the whole set
        and sliced per batch: a batch's routes cannot change before
        its own rip.
        """
        bent = ids[(self.seg_sx[ids] != self.seg_dx[ids])
                   & (self.seg_sy[ids] != self.seg_dy[ids])]
        manhattan = (np.abs(self.seg_dx[bent] - self.seg_sx[bent])
                     + np.abs(self.seg_dy[bent] - self.seg_sy[bent]))
        bent = bent[np.argsort(manhattan, kind="stable")]
        (h, h_own), (v, v_own) = self._route_edges(bent)
        cuts = np.r_[np.arange(0, bent.size, _EXCESS_CHUNK), bent.size]
        h_cut = np.searchsorted(h_own, cuts)
        v_cut = np.searchsorted(v_own, cuts)
        for j, lo in enumerate(cuts[:-1]):
            self._shift_usage(h[h_cut[j]:h_cut[j + 1]],
                              v[v_cut[j]:v_cut[j + 1]], -1)
            self._route_patterns(bent[lo:lo + _EXCESS_CHUNK],
                                 congestion_weight, np.inf)

    def _pattern_paths(self, pids: IntArray, hvh: bool) -> tuple:
        """(L, 2) path cells of pattern routes, legs in walk order."""
        bend = self.seg_bend[pids]
        kk = pids.size
        sx, dx = self.seg_sx[pids], self.seg_dx[pids]
        sy, dy = self.seg_sy[pids], self.seg_dy[pids]
        if hvh:
            l1, l2 = np.abs(bend - sx), np.abs(dy - sy)
            l3 = np.abs(dx - bend)
        else:
            l1, l2 = np.abs(bend - sy), np.abs(dx - sx)
            l3 = np.abs(dy - bend)
        a1, a2 = (sx, sy) if hvh else (sy, sx)
        b1, b2 = (dx, dy) if hvh else (dy, dx)
        s1 = np.sign(bend - a1)
        sv = np.sign(b2 - a2)
        s3 = np.sign(b1 - bend)
        along = _ragged_runs(
            np.stack([a1, bend, bend + s3], axis=1).ravel(),
            np.stack([np.where(s1 == 0, 1, s1), np.zeros(kk, int),
                      s3], axis=1).ravel(),
            np.stack([l1 + 1, l2, l3], axis=1).ravel())
        across = _ragged_runs(
            np.stack([a2, a2 + sv, np.broadcast_to(b2, (kk,))],
                     axis=1).ravel(),
            np.stack([np.zeros(kk, int), sv,
                      np.zeros(kk, int)], axis=1).ravel(),
            np.stack([l1 + 1, l2, l3], axis=1).ravel())
        xy = np.stack([along, across] if hvh else [across, along],
                      axis=1)
        return xy, l1 + 1 + l2 + l3

    def _emit(self, n_seg: int) -> tuple:
        """Assemble the paths dict and the per-net QoR arrays.

        Negotiation never materialized paths (rip-and-recommit would
        have thrown them away), so the survivors' cells are rebuilt
        here in three bulk batches — one per kind: the two pattern
        families from their descriptors, explicit routes from the
        store.  Each emitted path is an ``(L, 2)`` int64 view into its
        batch's cell array (the documented result contract allows
        arrays or lists per path); the only per-segment python work
        left is the dict append.
        """
        g = self.grid
        kind = self.seg_kind
        routed = np.flatnonzero(kind != _KIND_NONE)
        if not routed.size:
            return {}, _EMPTY_I64.copy(), _EMPTY_I64.copy()
        # kind -> (flat cell array, per-segment lengths), pids
        # ascending — consumed in the same order below.
        pts: list = [None] * 4
        lens: list = [None] * 4
        for k in (_KIND_HVH, _KIND_VHV):
            pids = np.flatnonzero(kind == k)
            if pids.size:
                xy, ln = self._pattern_paths(pids, k == _KIND_HVH)
                pts[k], lens[k] = xy, ln.tolist()
        exp = np.flatnonzero(kind == _KIND_EXPLICIT)
        if exp.size:
            exp_edges = self.x_h[exp] + self.x_v[exp]
            pts[_KIND_EXPLICIT] = self._store()[_ragged_runs(
                self.x_off[exp] + exp_edges,
                np.ones(exp.size, dtype=np.int64),
                2 * (exp_edges + 1))].reshape(-1, 2)
            lens[_KIND_EXPLICIT] = (exp_edges + 1).tolist()
        paths: dict = {}
        get = paths.get
        names = self.net_names
        seg_net = self.seg_net.tolist()
        kind_l = kind.tolist()
        ptr = [0] * 4
        at = [0] * 4
        for i in routed.tolist():
            k = kind_l[i]
            j = ptr[k]
            lo = at[k]
            hi = lo + lens[k][j]
            ptr[k] = j + 1
            at[k] = hi
            nm = names[seg_net[i]]
            lst = get(nm)
            if lst is None:
                paths[nm] = lst = []
            lst.append(pts[k][lo:hi])
        # sorted(paths) order for the arrays, per the result contract.
        pos = {net: j for j, net in enumerate(sorted(paths))}
        net_pos = np.asarray(
            [pos.get(net, -1) for net in self.net_names],
            dtype=np.int64)
        net_idx = net_pos[self.seg_net[routed]]
        # Monotone routes are manhattan-length by construction;
        # explicit (wavefront/maze) routes count their stored edges.
        seg_wl = (np.abs(self.seg_dx - self.seg_sx)
                  + np.abs(self.seg_dy - self.seg_sy))[routed]
        if exp.size:
            seg_wl[kind[routed] == _KIND_EXPLICIT] = exp_edges
        nwl = np.bincount(net_idx, weights=seg_wl,
                          minlength=len(pos)).astype(np.int64)
        nof = np.zeros(len(pos), dtype=np.int64)
        h_of, v_of = g.overflow_masks()
        if h_of.any() or v_of.any():
            for (edge, owner), mask in zip(self._route_edges(routed),
                                           (h_of.ravel(), v_of.ravel())):
                nof += np.bincount(net_idx[owner[mask[edge]]],
                                   minlength=len(pos))
        return paths, nwl, nof

    # -- driver --------------------------------------------------------

    def route(self) -> RoutingResult:
        t0 = time.perf_counter()
        g = self.grid
        with _phase(self.telemetry, self.phases, "route_decompose"):
            (self.net_names, self.seg_net, self.seg_sx, self.seg_sy,
             self.seg_dx, self.seg_dy) = _decompose(self.placement, g)
            self.windows = _windows(g, self.seg_sx, self.seg_sy,
                                    self.seg_dx, self.seg_dy)
        n_seg = self.seg_net.size
        # The route store: descriptors, plus the explicit routes'
        # append-only blocks and per-segment offset and edge counts.
        self.seg_kind = np.zeros(n_seg, dtype=np.int8)
        self.seg_bend = np.zeros(n_seg, dtype=np.int64)
        self.x_blocks: list = []
        self.x_size = 0
        self.x_off = np.zeros(n_seg, dtype=np.int64)
        self.x_h = np.zeros(n_seg, dtype=np.int64)
        self.x_v = np.zeros(n_seg, dtype=np.int64)
        self.failed: list = []

        self._route_ids(np.arange(n_seg), 2.0)

        iterations = 1
        overflow = g.total_overflow()
        for rnd in range(self.max_iterations - 1):
            if overflow == 0:
                break
            # One negotiation round: relocate the profitable
            # equal-length escapes first (free moves), then rip the
            # per-edge excess — plus any mover whose every profitable
            # escape is blocked on full edges — and force it through
            # the pattern tail at the round's congestion weight.
            with _phase(self.telemetry, self.phases,
                        "route_negotiate"):
                g.bump_history()
                sched = min(rnd, len(_NEG_MARGIN) - 1)
                cw = _NEG_CW[sched]
                stuck = self._relocate(cw)
                redo = np.union1d(
                    self._overflowed_ids(_NEG_MARGIN[sched]), stuck)
                self._route_excess(redo, cw)
            iterations += 1
            before, overflow = overflow, g.total_overflow()
            if overflow > (1.0 - _NEG_MIN_GAIN) * before:
                break

        with _phase(self.telemetry, self.phases, "route_emit"):
            paths, nwl, nof = self._emit(n_seg)
        return RoutingResult.assemble(
            grid=g,
            paths=paths,
            failed=sorted(set(self.failed)),
            iterations=iterations,
            runtime_s=time.perf_counter() - t0,
            engine="batched",
            phase_ms=self.phases,
            net_wirelength=nwl,
            net_overflow=nof,
        )


def batched_route(placement: Placement, *, layers: int = 6,
                  gcell_um: float = 5.0, max_iterations: int = 4,
                  seed: int = 0, telemetry: Any = None) -> RoutingResult:
    """Vectorized global routing of a placement (engine ``batched``).

    The sequential engines' knobs except ``topology`` (nets always
    decompose by MST) and the same result contract; ``seed`` only
    perturbs tie-breaking (candidate-score jitter and acceptance
    shuffles), so a fixed seed gives a bit-identical result and
    different seeds give equivalent QoR.  Paths in the result are
    (L, 2) int64 arrays (see :class:`RoutingResult`).

    ``max_iterations`` caps the passes: the first pass plus up to
    ``max_iterations - 1`` negotiation rounds.  Negotiation also stops
    at zero overflow and after a round that cuts total overflow by
    less than 1%; ``RoutingResult.iterations`` counts the passes run.
    """
    return _BatchedRouter(
        placement, layers=layers, gcell_um=gcell_um,
        max_iterations=max_iterations, seed=seed,
        telemetry=telemetry).route()
