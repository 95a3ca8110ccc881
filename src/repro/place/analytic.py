"""ePlace-style analytic placement on :class:`PackedNetlist` arrays.

The vectorized successor to :func:`repro.place.global_place.global_place`:
the whole pipeline — net-model assembly, quadratic solves, density
spreading, legalization, and detailed refinement — runs on the packed
columnar arrays (int32 CSR connectivity) with numpy/scipy bulk
operations.  The object :class:`Netlist` is packed once (memoized on
the edit journal), no object netlist is rebuilt on the hot path, and
the returned legalized :class:`~repro.place.placement.Placement`
refers to the input netlist itself.

Pipeline phases (each recorded as a ``kernel_span``):

``assemble``
    Star/clique spring model built in bulk: nets are bucketed by pin
    count, cliques (p <= 10) emit their pair lists through precomputed
    combination index tables, bigger nets star around their actual
    driving gate, and the sparse Laplacian is assembled from one
    concatenated COO triple.  I/O pads anchor their nets exactly as the
    baseline placer does.
``solve``
    The two independent SPD systems are solved with Jacobi-
    preconditioned conjugate gradient.  Unlike the baseline's direct
    SuperLU factorization (superlinear in practice: 143 s at 12k
    gates), CG is O(nnz) per iteration, and the spreading re-solve
    warm-starts from the positions it anchors to.
``spread``
    An order-preserving rank stretch fills the die, then one
    SimPL-flavoured electrostatic step replaces the per-cell Python
    diffusion: cell area is splat bilinearly onto a 2^k x 2^k grid, the
    Poisson equation for the potential is solved with a mirrored
    ``numpy.fft.rfft2`` (even extension = Neumann walls, so cells are
    pushed off overfull regions, never wrapped), and, when more than
    :data:`TARGET_OVERFLOW` of the cell area sits in overfull bins,
    cells take one normalized step along the negative gradient field
    and the quadratic system is re-solved once against weak pseudo-net
    anchors at the stepped positions.
``legalize``
    Vectorized Tetris/Abacus row legalization: cells are partitioned
    into rows along width quantiles of the y-order and packed with the
    abacus forward/backward passes expressed as *segmented* running
    max/min — two ``np.maximum.accumulate`` calls legalize every row
    at once.  A utilization so high that the widest row exceeds the
    die width raises :class:`ValueError` instead of placing cells
    outside the die.
``detailed``
    Array-based same-row adjacent swaps: per-net top-3/bottom-3 x
    extremes make the exact HPWL delta of removing up to two pins and
    adding their new positions an O(1) vectorized expression, so one
    sweep scores every candidate swap in bulk; improving,
    net-disjoint swaps are applied together.

Everything is seeded and deterministic: the only randomness is one
``np.random.default_rng(seed)`` jitter that breaks symmetric ties, so
repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.netlist.packed import PackedNetlist, csr_gather
from repro.place.placement import Placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlist.circuit import Netlist
    from repro.orchestrate.telemetry import TelemetrySink

FloatArray = Any   # npt.NDArray[np.float64] (numpy is untyped here)
IntArray = Any     # npt.NDArray[np.int64]

#: Nets with more members than this use the star model (matches the
#: baseline placer's threshold, so QoR comparisons are apples-to-apples).
STAR_THRESHOLD = 10

#: The spreading step runs only when more than this fraction of cell
#: area sits in overfull bins.
TARGET_OVERFLOW = 0.12

#: Weight of the order-preserving rank stretch blended into the first
#: quadratic solution (the baseline placer's default ``spread_blend``).
SPREAD_BLEND = 0.6

#: Tiny center pull that keeps the quadratic system SPD.
_ANCHOR = 1e-6

_C2: dict[int, tuple[IntArray, IntArray]] = {}


def _pair_table(size: int) -> tuple[IntArray, IntArray]:
    """All index pairs (i < j) of a ``size``-element clique, cached."""
    if size not in _C2:
        i, j = np.triu_indices(size, k=1)
        _C2[size] = (i.astype(np.int64), j.astype(np.int64))
    return _C2[size]


# ----------------------------------------------------------------------
# The array-level placement problem.


@dataclass
class _Problem:
    """The array-level placement problem.

    ``net_off``/``members`` is the deduplicated net -> gate CSR; pads
    are per-net boundary anchors (NaN x for pad-free nets).
    """

    n: int
    net_off: IntArray
    members: IntArray
    areas: FloatArray
    weight: FloatArray          # per-net spring weight 1/(p-1) * user
    drv: IntArray               # per-net driving member, -1 if none
    pad_x: FloatArray           # NaN when the net has no pad
    pad_y: FloatArray


# ----------------------------------------------------------------------
# Assembly: packed arrays -> net CSR, pads, Laplacian.


def _net_members(packed: PackedNetlist) -> tuple[IntArray, IntArray]:
    """Deduplicated net -> member-gate CSR from the packed pin arrays."""
    counts = np.diff(packed.pin_off.astype(np.int64))
    g = packed.num_gates
    pin_gate = np.concatenate((
        np.repeat(np.arange(g, dtype=np.int64), counts),
        np.arange(g, dtype=np.int64)))
    pin_net = np.concatenate((
        packed.pin_net.astype(np.int64),
        packed.gate_output.astype(np.int64)))
    order = np.lexsort((pin_gate, pin_net))
    pn, pg = pin_net[order], pin_gate[order]
    if pn.size:
        keep = np.concatenate((
            [True], (pn[1:] != pn[:-1]) | (pg[1:] != pg[:-1])))
        pn, pg = pn[keep], pg[keep]
    sizes = np.bincount(pn, minlength=packed.num_nets)
    off = np.concatenate((np.zeros(1, dtype=np.int64),
                          np.cumsum(sizes)))
    return off, pg


def _boundary_pads(packed: PackedNetlist, die_w: float, die_h: float
                   ) -> tuple[IntArray, FloatArray, FloatArray]:
    """Primary-I/O pad coordinates on the die boundary.

    Bit-compatible with the baseline placer's pad walk (same t/side
    formula, later I/O entries overwrite earlier ones for nets that are
    both PI and PO).
    """
    io = np.concatenate((packed.primary_inputs.astype(np.int64),
                         packed.primary_outputs.astype(np.int64)))
    k = np.arange(io.size, dtype=np.float64)
    t = k / max(io.size, 1)
    side = np.arange(io.size) % 4
    px = np.select(
        [side == 0, side == 1, side == 2, side == 3],
        [t * die_w, np.full(io.size, die_w), (1 - t) * die_w,
         np.zeros(io.size)])
    py = np.select(
        [side == 0, side == 1, side == 2, side == 3],
        [np.zeros(io.size), t * die_h, np.full(io.size, die_h),
         (1 - t) * die_h])
    pad_x = np.full(packed.num_nets, np.nan)
    pad_y = np.full(packed.num_nets, np.nan)
    # Duplicate net indices: keep the *last* occurrence, like the
    # baseline's dict assignment.
    for i in range(io.size):
        pad_x[io[i]] = px[i]
        pad_y[io[i]] = py[i]
    return io, pad_x, pad_y


def _problem_from_packed(
        packed: PackedNetlist, die_w: float, die_h: float,
        areas: FloatArray,
        net_weights: Mapping[str, float] | None) -> _Problem:
    """Build the array-level problem (net CSR, weights, drivers, pads)."""
    off, members = _net_members(packed)
    sizes = np.diff(off)
    _, pad_x, pad_y = _boundary_pads(packed, die_w, die_h)
    has_pad = ~np.isnan(pad_x)
    p = sizes + has_pad
    weight = np.zeros(packed.num_nets)
    ok = p >= 2
    weight[ok] = 1.0 / np.maximum(p[ok] - 1, 1)
    if net_weights:
        idx = {name: i for i, name in enumerate(packed.net_names)}
        for name, w in net_weights.items():
            i = idx.get(name)
            if i is not None:
                weight[i] *= w
    drv = np.full(packed.num_nets, -1, dtype=np.int64)
    if packed.num_gates:
        drv[packed.gate_output.astype(np.int64)] = \
            np.arange(packed.num_gates, dtype=np.int64)
    return _Problem(n=packed.num_gates, net_off=off, members=members,
                    areas=areas, weight=weight, drv=drv,
                    pad_x=pad_x, pad_y=pad_y)


def _spring_system(prob: _Problem, die_w: float, die_h: float
                   ) -> tuple[Any, FloatArray, FloatArray, FloatArray]:
    """The star/clique Laplacian and its pad/center right-hand sides.

    Returns ``(L, diag, bx, by)`` with ``L`` in CSR form.  Cliques are
    emitted in size buckets through cached pair tables; star nets
    anchor on their driving member (falling back to the first member
    for driverless nets, e.g. PI fanout).
    """
    from scipy import sparse

    sizes = np.diff(prob.net_off)
    has_pad = ~np.isnan(prob.pad_x)
    p = sizes + has_pad
    active = np.flatnonzero((p >= 2) & (prob.weight > 0))

    pair_a: list[IntArray] = []
    pair_b: list[IntArray] = []
    pair_w: list[FloatArray] = []

    star = active[sizes[active] > STAR_THRESHOLD]
    if star.size:
        centers = prob.drv[star]
        flat = csr_gather(prob.net_off[star], sizes[star])
        mem = prob.members[flat]
        rep = np.repeat(np.arange(star.size, dtype=np.int64),
                        sizes[star])
        # Driverless nets fall back to their first stored member.
        first = prob.members[prob.net_off[star]]
        centers = np.where(centers >= 0, centers, first)
        ctr = centers[rep]
        keep = mem != ctr
        pair_a.append(ctr[keep])
        pair_b.append(mem[keep])
        pair_w.append(np.repeat(prob.weight[star], sizes[star])[keep])

    small = active[(sizes[active] >= 2)
                   & (sizes[active] <= STAR_THRESHOLD)]
    for s in range(2, STAR_THRESHOLD + 1):
        bucket = small[sizes[small] == s]
        if not bucket.size:
            continue
        flat = csr_gather(prob.net_off[bucket],
                          np.full(bucket.size, s, dtype=np.int64))
        mem = prob.members[flat].reshape(-1, s)
        ti, tj = _pair_table(s)
        pair_a.append(mem[:, ti].ravel())
        pair_b.append(mem[:, tj].ravel())
        pair_w.append(np.repeat(prob.weight[bucket], ti.size))

    n = prob.n
    diag = np.zeros(n)
    bx = np.zeros(n)
    by = np.zeros(n)
    if pair_a:
        a = np.concatenate(pair_a)
        b = np.concatenate(pair_b)
        w = np.concatenate(pair_w)
        np.add.at(diag, a, w)
        np.add.at(diag, b, w)
        rows = np.concatenate((a, b))
        cols = np.concatenate((b, a))
        vals = np.concatenate((-w, -w))
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0)

    padded = active[has_pad[active]]
    if padded.size:
        flat = csr_gather(prob.net_off[padded], sizes[padded])
        mem = prob.members[flat]
        w = np.repeat(prob.weight[padded], sizes[padded])
        np.add.at(diag, mem, w)
        np.add.at(bx, mem, w * np.repeat(prob.pad_x[padded],
                                         sizes[padded]))
        np.add.at(by, mem, w * np.repeat(prob.pad_y[padded],
                                         sizes[padded]))

    diag = diag + _ANCHOR
    bx = bx + _ANCHOR * (die_w / 2)
    by = by + _ANCHOR * (die_h / 2)
    lap = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    lap = lap + sparse.diags(diag, format="csr")
    return lap, diag, bx, by


# ----------------------------------------------------------------------
# Solve: Jacobi-preconditioned CG with warm starts.


def _cg_solve(lap: Any, diag: FloatArray, b: FloatArray,
              x0: FloatArray, rtol: float = 1e-7,
              maxiter: int | None = None) -> tuple[FloatArray, int]:
    """One warm-started CG solve of the SPD spring system.

    Returns the solution and the number of CG iterations it took.
    ``maxiter`` defaults to the system size n, CG's own bound for an
    n x n SPD system.  Raises :class:`RuntimeError` when CG does not
    converge within it (or breaks down) instead of returning a best
    effort.
    """
    from scipy import sparse
    from scipy.sparse.linalg import cg

    if maxiter is None:
        maxiter = len(b)
    m = sparse.diags(1.0 / diag, format="csr")
    steps: list[int] = []
    x, info = cg(lap, b, x0=x0, rtol=rtol, atol=0.0,
                 maxiter=maxiter, M=m, callback=lambda _: steps.append(1))
    if info != 0:
        # scipy tests the residual before each iteration, so a solve
        # that converges on its last allowed one is judged here.
        resid = np.linalg.norm(b - lap @ x) / np.linalg.norm(b)
        if not resid < rtol:
            raise RuntimeError(
                f"CG did not converge: info={info}, maxiter={maxiter}, "
                f"relative residual {resid:.3e} (rtol {rtol:g})")
    return np.asarray(x, dtype=np.float64), len(steps)


# ----------------------------------------------------------------------
# Spread: FFT electrostatic density field.


def _auto_bins(n: int) -> int:
    """Power-of-two grid size with ~4 cells per bin, in [8, 256].

    Coarser than one-cell bins on purpose: density must measure
    regional crowding, not per-cell granularity, or the overflow
    metric never converges on small designs.
    """
    target = max(np.sqrt(max(n, 1)) / 2.0, 1.0)
    bins = 1 << int(np.ceil(np.log2(target)))
    return int(np.clip(bins, 8, 256))


def _splat_density(xs: FloatArray, ys: FloatArray, areas: FloatArray,
                   bins: int, die_w: float, die_h: float) -> FloatArray:
    """Bilinear area splat onto a ``bins x bins`` grid (utilization)."""
    bw = die_w / bins
    bh = die_h / bins
    fx = np.clip(xs / bw - 0.5, 0.0, bins - 1.0)
    fy = np.clip(ys / bh - 0.5, 0.0, bins - 1.0)
    ix = np.minimum(fx.astype(np.int64), bins - 2) \
        if bins > 1 else np.zeros(xs.size, dtype=np.int64)
    iy = np.minimum(fy.astype(np.int64), bins - 2) \
        if bins > 1 else np.zeros(ys.size, dtype=np.int64)
    tx = fx - ix
    ty = fy - iy
    grid = np.zeros(bins * bins)
    base = iy * bins + ix
    np.add.at(grid, base, areas * (1 - tx) * (1 - ty))
    if bins > 1:
        np.add.at(grid, base + 1, areas * tx * (1 - ty))
        np.add.at(grid, base + bins, areas * (1 - tx) * ty)
        np.add.at(grid, base + bins + 1, areas * tx * ty)
    return grid.reshape(bins, bins) / (bw * bh)


def _poisson_field(density: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Electrostatic field of the density charge via mirrored rfft2.

    The density is extended with even symmetry to double size before
    the FFT, which imposes Neumann (reflecting-wall) boundaries — the
    standard DCT trick, expressed with ``numpy.fft.rfft2``.  Returns
    the ``(Ex, Ey)`` grids of the negative potential gradient, each
    indexed ``[iy, ix]`` like the density grid.
    """
    m = density.shape[0]
    rho = density - density.mean()
    big = np.empty((2 * m, 2 * m))
    big[:m, :m] = rho
    big[:m, m:] = rho[:, ::-1]
    big[m:, :m] = rho[::-1, :]
    big[m:, m:] = rho[::-1, ::-1]
    spec = np.fft.rfft2(big)
    ky = np.fft.fftfreq(2 * m) * 2 * np.pi
    kx = np.fft.rfftfreq(2 * m) * 2 * np.pi
    k2 = ky[:, None] ** 2 + kx[None, :] ** 2
    k2[0, 0] = 1.0
    psi = np.fft.irfft2(spec / k2, s=(2 * m, 2 * m))[:m, :m]
    ey, ex = np.gradient(psi)   # gradient axis order is (rows=y, cols=x)
    return -ex, -ey


def _field_at(ex: FloatArray, ey: FloatArray, xs: FloatArray,
              ys: FloatArray, die_w: float, die_h: float
              ) -> tuple[FloatArray, FloatArray]:
    """Bilinear gather of the bin-centered field at cell positions."""
    bins = ex.shape[0]
    bw = die_w / bins
    bh = die_h / bins
    fx = np.clip(xs / bw - 0.5, 0.0, bins - 1.0)
    fy = np.clip(ys / bh - 0.5, 0.0, bins - 1.0)
    ix = np.minimum(fx.astype(np.int64), bins - 2) \
        if bins > 1 else np.zeros(xs.size, dtype=np.int64)
    iy = np.minimum(fy.astype(np.int64), bins - 2) \
        if bins > 1 else np.zeros(ys.size, dtype=np.int64)
    tx = fx - ix
    ty = fy - iy
    if bins == 1:
        return ex[iy, ix], ey[iy, ix]

    def lerp(g: FloatArray) -> FloatArray:
        return (g[iy, ix] * (1 - tx) * (1 - ty)
                + g[iy, ix + 1] * tx * (1 - ty)
                + g[iy + 1, ix] * (1 - tx) * ty
                + g[iy + 1, ix + 1] * tx * ty)

    return lerp(ex), lerp(ey)


def _overflow(density: FloatArray, areas_total: float,
              die_w: float, die_h: float,
              margin: float = 1.5) -> float:
    """Fraction of cell area sitting above ``margin`` x mean density.

    The 1.5x threshold matches the baseline placer's diffusion
    trigger, so "spread enough" means the same thing to both engines.
    """
    if areas_total <= 0:
        return 0.0
    bins = density.shape[0]
    bin_area = (die_w / bins) * (die_h / bins)
    cap = margin * areas_total / (die_w * die_h)
    over = np.maximum(density - cap, 0.0).sum() * bin_area
    return float(over / areas_total)


# ----------------------------------------------------------------------
# Legalize: segmented-scan Tetris/Abacus.


def _segmented_cummax(vals: FloatArray, seg: IntArray) -> FloatArray:
    """Running max within each (sorted, contiguous) segment."""
    if not vals.size:
        return vals
    span = float(np.max(np.abs(vals))) + 1.0
    lifted = vals + seg * (2.0 * span)
    out = np.maximum.accumulate(lifted) - seg * (2.0 * span)
    return out


def _legalize(xs: FloatArray, ys: FloatArray, widths: FloatArray,
              die_w: float, die_h: float, row_h: float
              ) -> tuple[FloatArray, FloatArray, IntArray, IntArray]:
    """Vectorized row legalization.

    Cells are ordered by y (x as tiebreak) and cut into rows along
    cumulative-width quantiles; within each row the abacus
    forward/backward passes run as segmented cumulative max/min over
    the whole design at once.  Returns ``(xs, ys, row_of, rank)`` with
    ``rank`` the within-row left-to-right order (used by the detailed
    phase).  Raises :class:`ValueError` when the widest row is wider
    than the die: the ``int(die_h / row_h)`` rows can hold up to one
    row's worth less than the die area the utilization sized.
    """
    n = xs.size
    rows = max(1, int(die_h / row_h))
    order = np.lexsort((xs, ys))
    w = widths[order]
    cum = np.cumsum(w)
    total = float(cum[-1]) if n else 0.0
    # Each row gets about total/rows of cell width; the check below
    # rejects the utilizations at which that exceeds the die width.
    centers = cum - w / 2
    row_sorted = np.clip((centers / max(total, 1e-12) * rows)
                         .astype(np.int64), 0, rows - 1)

    # Within each row, order by desired x.
    order2 = np.lexsort((xs[order], row_sorted))
    gate = order[order2]
    row_sorted = row_sorted[order2]
    w = widths[gate]
    desired = xs[gate]

    # Forward (abacus) pass as a segmented running max:
    #   left_i = max(desired_i - w_i/2, left_{i-1} + w_{i-1})
    # in the L_i = left_i - prefw_i frame it is a plain cummax.
    prefw = np.cumsum(w) - w
    row_first = np.concatenate((
        [True], row_sorted[1:] != row_sorted[:-1]))
    seg_starts = np.flatnonzero(row_first)
    seg_lens = np.diff(np.append(seg_starts, n))
    row_width = np.add.reduceat(w, seg_starts)
    widest = int(np.argmax(row_width))
    if row_width[widest] > die_w:
        raise ValueError(
            f"row {int(row_sorted[seg_starts[widest]])} holds "
            f"{float(row_width[widest]):.3f} um of cells, wider than "
            f"the {die_w:.3f} um die: lower the utilization")
    relw = prefw - np.repeat(prefw[seg_starts], seg_lens)
    d = np.maximum(desired - w / 2 - relw, 0.0)   # 0 = die left wall
    left = _segmented_cummax(d, row_sorted) + relw

    # Backward pass: pull rows that overflowed the right wall back in.
    # In the V_i = left_i + sufw_i + w_i frame (suffix width including
    # self) the chain left_{i-1} <= left_i - w_{i-1} is a running min
    # from the right, again one segmented scan.
    row_total = np.repeat(row_width, seg_lens)
    sufw = row_total - relw - w       # width packed to my right
    cand = np.minimum(left, die_w - sufw - w) + sufw + w
    seg_rev = (rows - 1 - row_sorted)[::-1]
    v = -_segmented_cummax(-cand[::-1], seg_rev)
    left = np.maximum(v[::-1] - sufw - w, 0.0)
    # With every row narrower than the die this forward scan is a
    # no-op in exact arithmetic.  It stays because its lift-and-unlift
    # arithmetic rounds the positions, and the detailed phase amplifies
    # that rounding: without it, HPWL and routed wirelength change.
    left = _segmented_cummax(left - relw, row_sorted) + relw

    out_x = np.empty(n)
    out_y = np.empty(n)
    row_of = np.empty(n, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    out_x[gate] = left + w / 2
    out_y[gate] = (row_sorted + 0.5) * row_h
    row_of[gate] = row_sorted
    rank[gate] = np.arange(n) - np.repeat(seg_starts, seg_lens)
    return out_x, out_y, row_of, rank


# ----------------------------------------------------------------------
# Per-net coordinate extremes.


def _net_extremes(vals: FloatArray, off: IntArray, members: IntArray,
                  pad_vals: FloatArray, kth: int = 3
                  ) -> tuple[FloatArray, FloatArray]:
    """Per-net top-k and bottom-k member coordinates (+/-inf padded).

    Pads enter as one extra virtual pin per net.  Returns
    ``(top, bot)`` of shape (nets, kth): ``top[:, 0]`` is the max.
    """
    nets = off.size - 1
    sizes = np.diff(off)
    x = vals[members]
    net_of = np.repeat(np.arange(nets, dtype=np.int64), sizes)
    has_pad = ~np.isnan(pad_vals)
    if np.any(has_pad):
        pn = np.flatnonzero(has_pad)
        x = np.concatenate((x, pad_vals[pn]))
        net_of = np.concatenate((net_of, pn))
    order = np.lexsort((x, net_of))
    x = x[order]
    net_of = net_of[order]
    counts = np.bincount(net_of, minlength=nets)
    starts = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(counts)))[:-1]
    ends = starts + counts
    top = np.full((nets, kth), -np.inf)
    bot = np.full((nets, kth), np.inf)
    for k in range(kth):
        sel = counts > k
        top[sel, k] = x[ends[sel] - 1 - k]
        bot[sel, k] = x[starts[sel] + k]
    return top, bot


# ----------------------------------------------------------------------
# Detailed: bulk-scored same-row adjacent swaps.


def _remove_from_top3(top: FloatArray, r1: FloatArray, r2: FloatArray
                      ) -> FloatArray:
    """Max of each net's pins after removing up to two known values.

    ``top`` holds the three largest values (with multiplicity, -inf
    padded); removals not present in the top-3 cannot affect the max.
    Sentinel removals must be -inf.
    """
    a, b, c = top[:, 0].copy(), top[:, 1].copy(), top[:, 2].copy()
    for r in (r1, r2):
        hit_a = r == a
        hit_b = ~hit_a & (r == b)
        # Shift the triple down past the removed slot.
        na = np.where(hit_a, b, a)
        nb = np.where(hit_a, c, np.where(hit_b, c, b))
        nc = np.where(hit_a | hit_b, -np.inf, c)
        a, b, c = na, nb, nc
    return a


def _detailed_sweep(xs: FloatArray, widths: FloatArray,
                    row_of: IntArray, rank: IntArray,
                    gate_net_off: IntArray, gate_nets: IntArray,
                    net_off: IntArray, members: IntArray,
                    pad_x: FloatArray, parity: int) -> float:
    """One bulk-scored sweep of adjacent same-row swaps.

    Scores every disjoint (parity-selected) adjacent pair at once via
    per-net top/bottom-3 x extremes, then applies the improving swaps
    greedily under net-disjointness so the predicted total is exact.
    Mutates ``xs`` (y never changes for same-row swaps) and returns
    the achieved HPWL improvement.
    """
    n = xs.size
    order = np.lexsort((rank, row_of))
    same_row = row_of[order][:-1] == row_of[order][1:] if n > 1 else \
        np.zeros(0, dtype=bool)
    first = order[:-1][same_row]
    second = order[1:][same_row]
    sel = (rank[first] % 2) == parity
    a, b = first[sel], second[sel]
    if not a.size:
        return 0.0

    wa, wb = widths[a], widths[b]
    la = xs[a] - wa / 2
    new_xa = la + wb + wa / 2
    new_xb = la + wb / 2

    top, bot = _net_extremes(xs, net_off, members, pad_x, kth=3)

    # (candidate, net, old, new) incidence for both moved cells.
    ca = np.repeat(np.arange(a.size, dtype=np.int64),
                   np.diff(gate_net_off)[a])
    na = gate_nets[csr_gather(gate_net_off[a],
                              np.diff(gate_net_off)[a])]
    cb = np.repeat(np.arange(b.size, dtype=np.int64),
                   np.diff(gate_net_off)[b])
    nb = gate_nets[csr_gather(gate_net_off[b],
                              np.diff(gate_net_off)[b])]
    cand = np.concatenate((ca, cb))
    net = np.concatenate((na, nb))
    old = np.concatenate((xs[a][ca], xs[b][cb]))
    new = np.concatenate((new_xa[ca], new_xb[cb]))

    # Merge duplicate (cand, net) rows into two-move records.
    o = np.lexsort((net, cand))
    cand, net, old, new = cand[o], net[o], old[o], new[o]
    dup = np.concatenate((
        (cand[1:] == cand[:-1]) & (net[1:] == net[:-1]), [False]))
    lead = np.concatenate(([True], ~dup[:-1]))
    r1, n1 = old[lead], new[lead]
    r2 = np.full(r1.size, np.nan)
    n2 = np.full(r1.size, np.nan)
    tail = np.flatnonzero(dup)          # row merged into the lead row
    lead_idx = np.cumsum(lead) - 1
    r2[lead_idx[tail]] = old[tail + 1]
    n2[lead_idx[tail]] = new[tail + 1]
    cand, net = cand[lead], net[lead]

    t = top[net]
    bt = bot[net]
    r2max = np.where(np.isnan(r2), -np.inf, r2)
    n2max = np.where(np.isnan(n2), -np.inf, n2)
    nmax = np.maximum(_remove_from_top3(t, r1, r2max),
                      np.maximum(n1, n2max))
    r2min = np.where(np.isnan(r2), np.inf, r2)
    n2min = np.where(np.isnan(n2), np.inf, n2)
    nmin = np.minimum(-_remove_from_top3(-bt, -r1, -r2min),
                      np.minimum(n1, n2min))
    span_ok = np.isfinite(t[:, 0]) | np.isfinite(n1)
    old_span = np.where(span_ok, t[:, 0] - bt[:, 0], 0.0)
    new_span = np.where(np.isfinite(nmax), nmax - nmin, 0.0)
    delta = new_span - old_span

    total = np.zeros(a.size)
    np.add.at(total, cand, delta)

    improving = np.flatnonzero(total < -1e-9)
    if not improving.size:
        return 0.0
    improving = improving[np.argsort(total[improving], kind="stable")]
    claimed = np.zeros(net_off.size - 1, dtype=bool)
    gained = 0.0
    for c in improving.tolist():
        cn = np.concatenate((
            gate_nets[gate_net_off[a[c]]:gate_net_off[a[c] + 1]],
            gate_nets[gate_net_off[b[c]]:gate_net_off[b[c] + 1]]))
        if claimed[cn].any():
            continue
        claimed[cn] = True
        xs[a[c]] = new_xa[c]
        xs[b[c]] = new_xb[c]
        rank[a[c]], rank[b[c]] = rank[b[c]], rank[a[c]]
        gained -= float(total[c])
    return gained


def _gate_nets(prob: _Problem) -> tuple[IntArray, IntArray]:
    """Deduplicated gate -> net CSR (transpose of the member CSR)."""
    sizes = np.diff(prob.net_off)
    net_of = np.repeat(np.arange(prob.net_off.size - 1,
                                 dtype=np.int64), sizes)
    order = np.lexsort((net_of, prob.members))
    g = prob.members[order]
    nn = net_of[order]
    counts = np.bincount(g, minlength=prob.n)
    off = np.concatenate((np.zeros(1, dtype=np.int64),
                          np.cumsum(counts)))
    return off, nn


# ----------------------------------------------------------------------
# The global solve and spreading step.


def _global_positions(prob: _Problem, die_w: float, die_h: float,
                      rng: Any, sink: "TelemetrySink | None"
                      ) -> tuple[FloatArray, FloatArray]:
    """Quadratic solve, rank stretch, then at most one field step and
    one anchored re-solve.

    One step, because the weakly anchored re-solve pulls cells back
    into a clump (overflow 0.50 -> 0.96 on a 12k-gate cloud), so a
    stall test would stop any further round.
    """
    from scipy import sparse

    from repro.orchestrate.telemetry import kernel_span

    n = prob.n
    with kernel_span(sink, "place_assemble"):
        lap, diag, bx, by = _spring_system(prob, die_w, die_h)

    with kernel_span(sink, "place_solve"):
        x0 = np.full(n, die_w / 2) + rng.normal(0, 0.01, n)
        y0 = np.full(n, die_h / 2) + rng.normal(0, 0.01, n)
        xs = _cg_solve(lap, diag, bx, x0)[0]
        ys = _cg_solve(lap, diag, by, y0)[0]
        xs, ys = np.clip(xs, 0, die_w), np.clip(ys, 0, die_h)
        xs = np.clip(xs + rng.normal(0, 0.01, n), 0, die_w)
        ys = np.clip(ys + rng.normal(0, 0.01, n), 0, die_h)

    with kernel_span(sink, "place_spread"):
        # Order-preserving rank stretch fills the die cheaply ...
        if n > 1:
            rank_x = np.empty(n)
            rank_x[np.argsort(xs, kind="stable")] = \
                np.arange(n) / (n - 1)
            rank_y = np.empty(n)
            rank_y[np.argsort(ys, kind="stable")] = \
                np.arange(n) / (n - 1)
            xs = (1 - SPREAD_BLEND) * xs + SPREAD_BLEND * rank_x * die_w
            ys = (1 - SPREAD_BLEND) * ys + SPREAD_BLEND * rank_y * die_h
        # ... then one field step irons out local overflow.
        m = _auto_bins(n)
        density = _splat_density(xs, ys, prob.areas, m, die_w, die_h)
        overflow = _overflow(density, float(prob.areas.sum()),
                             die_w, die_h)
        if overflow > TARGET_OVERFLOW:
            ex, ey = _poisson_field(density)
            gx, gy = _field_at(ex, ey, xs, ys, die_w, die_h)
            norm = float(np.max(np.hypot(gx, gy)))
            if norm > 0:
                bin_step = max(die_w, die_h) / m
                step = 0.9 * bin_step / norm
                xs = np.clip(xs + step * gx, 0, die_w)
                ys = np.clip(ys + step * gy, 0, die_h)
                # Warm-started anchored re-solve pulls connectivity back.
                alpha = float(np.mean(diag)) * 1e-3
                lap_a = lap + alpha * sparse.identity(n, format="csr")
                diag_a = diag + alpha
                xs = np.clip(_cg_solve(lap_a, diag_a, bx + alpha * xs,
                                       xs, rtol=1e-5)[0], 0, die_w)
                ys = np.clip(_cg_solve(lap_a, diag_a, by + alpha * ys,
                                       ys, rtol=1e-5)[0], 0, die_h)
    return xs, ys


# ----------------------------------------------------------------------
# Entry point.


def analytic_place(netlist: "Netlist", *, utilization: float = 0.7,
                   net_weights: Mapping[str, float] | None = None,
                   seed: int = 0, detailed_passes: int = 2,
                   telemetry: "TelemetrySink | None" = None
                   ) -> Placement:
    """Place a netlist with the vectorized analytic engine.

    Returns a legalized :class:`~repro.place.placement.Placement` of
    ``netlist`` on a square die sized for ``utilization``.  Cell areas
    and the row height come from ``netlist.library``: a cell the
    library lacks raises :class:`KeyError`, and a utilization whose
    rows would overfill the die raises :class:`ValueError`.

    ``telemetry``, when given, collects one ``kernel_span`` per phase
    (``place_assemble`` / ``place_solve`` / ``place_spread`` /
    ``place_legalize`` / ``place_detailed``).  Seeded and
    deterministic: equal inputs and ``seed`` give bit-identical
    placements.
    """
    from repro.orchestrate.telemetry import kernel_span

    packed = netlist.to_packed()
    n = packed.num_gates
    if n == 0:
        raise ValueError("cannot place an empty netlist")
    if not 0 < utilization <= 1:
        raise ValueError("utilization in (0, 1]")
    library = netlist.library
    cell_area = np.array([library[name].area_um2
                          for name in packed.cell_names], dtype=np.float64)
    areas = cell_area[packed.gate_cell.astype(np.int64)]
    row_h = library.node.cell_height_nm * 1e-3
    die_area = float(areas.sum()) / utilization
    die_h = die_area ** 0.5
    die_w = die_area / die_h

    rng = np.random.default_rng(seed)
    prob = _problem_from_packed(packed, die_w, die_h, areas,
                                net_weights)
    xs, ys = _global_positions(prob, die_w, die_h, rng, telemetry)

    widths = np.maximum(areas / row_h, 0.05)
    with kernel_span(telemetry, "place_legalize"):
        xs, ys, row_of, rank = _legalize(
            xs, ys, widths, die_w, die_h, row_h)
    if detailed_passes > 0:
        with kernel_span(telemetry, "place_detailed"):
            goff, gnets = _gate_nets(prob)
            for _ in range(detailed_passes):
                gained = 0.0
                for parity in (0, 1):
                    gained += _detailed_sweep(
                        xs, widths, row_of, rank, goff, gnets,
                        prob.net_off, prob.members, prob.pad_x,
                        parity)
                if gained <= 1e-9:
                    break

    pad_net, pad_x, pad_y = _boundary_pads(packed, die_w, die_h)
    pad_positions = {packed.net_names[i]: (float(pad_x[i]),
                                           float(pad_y[i]))
                     for i in np.unique(pad_net).tolist()}
    return Placement(
        netlist, die_w, die_h,
        positions=dict(zip(packed.gate_names,
                           zip(xs.tolist(), ys.tolist()))),
        pad_positions=pad_positions, row_height_um=row_h)
