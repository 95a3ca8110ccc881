"""Incremental, vectorized static timing analysis.

The optimization inner loops (gate sizing, Vt assignment, timing-driven
placement, signoff) previously re-ran the scalar
:class:`~repro.timing.sta.TimingAnalyzer` from scratch on every
iteration.  :class:`IncrementalTimingAnalyzer` replaces that with two
cooperating mechanisms:

* **Level-packed vectorized full STA** — the netlist is levelized once
  into numpy arrays (per-level fanin gathers, one fused
  ``intrinsic + res * load`` delay evaluation per level), so even the
  cold pass beats the scalar walk.
* **Cone-limited incremental updates** — after a cell resize (drive or
  Vt swap) only the affected fanout cone (arrivals) and fanin cone
  (required times) are repropagated, with an unchanged-value cutoff
  that stops the wave as soon as a recomputed value is bit-identical
  to the cached one.

Edits reach the engine through the :class:`~repro.netlist.circuit
.NetlistEdit` change journal (``Netlist.subscribe``).  Footprint-
compatible resizes take the cone path; connectivity edits (rewire,
add/remove gate, scan replacement) relevelize the graph and rerun the
vectorized full passes — still one numpy sweep, and still bit-identical
to the scalar engine.

Bit-identity is a hard invariant, not an aspiration: every arithmetic
step mirrors the scalar engine's expression order (pin-cap sums are
accumulated in packed pin order — the same left-to-right order as the
scalar ``left_sum`` over the memoized fanout map; delays are
``intrinsic + res * load`` in that order; max/min reductions are
exact), so ``arrival``, ``required``, and WNS match
``TimingAnalyzer.analyze()`` bit for bit after any edit sequence.

The levelized graph is built from the columnar
:class:`~repro.netlist.packed.PackedNetlist` view
(``Netlist.to_packed()``): connectivity, levels, pin caps, and reader
CSRs all come from vectorized passes over the interned int32 arrays
instead of re-walking the gate dicts.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.netlist.circuit import Netlist, NetlistEdit, left_sum
from repro.netlist.packed import csr_gather
from repro.timing.sta import WireModel, trace_critical

_INF = float("inf")


def _seg_max0(vals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment max of ``vals`` floored at 0.0.

    ``offsets`` has one more entry than there are segments; empty
    segments yield 0.0 (the scalar engine's ``best`` initialisation,
    which also covers zero-input cells like TIEHI).
    """
    starts = offsets[:-1]
    ends = offsets[1:]
    out = np.zeros(len(starts))
    nonempty = ends > starts
    if vals.size and nonempty.any():
        out[nonempty] = np.maximum.reduceat(vals, starts[nonempty])
    np.maximum(out, 0.0, out=out)
    return out


class _ArrayMap:
    """Read-only dict façade over a value array, keyed by net name.

    Presents the engine's packed arrays to dict-consuming code
    (``trace_critical``) without materializing a real dict.
    """

    __slots__ = ("_net_id", "_vals", "_mask", "_count")

    def __init__(self, net_id, vals, mask):
        self._net_id = net_id
        self._vals = vals
        self._mask = mask
        self._count = int(mask.sum())

    def __contains__(self, net) -> bool:
        i = self._net_id.get(net)
        return i is not None and bool(self._mask[i])

    def __getitem__(self, net) -> float:
        if net not in self:
            raise KeyError(net)
        return float(self._vals[self._net_id[net]])

    def get(self, net, default=0.0):
        return self[net] if net in self else default

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0


class _LevelGraph:
    """The levelized timing graph: every per-gate/per-net quantity the
    forward/backward passes touch, packed into numpy arrays in
    (level, topological-index) order.

    Built from the columnar ``Netlist.to_packed()`` view: levels come
    from :meth:`PackedNetlist.comb_levels`, fanin/reader CSRs are
    gathers over the packed pin arrays, and pin-cap sums are
    ``np.bincount`` accumulations in packed pin order — the same
    left-to-right float addition order as the scalar engine's
    ``left_sum`` over the memoized fanout map, keeping bit-identity.
    Cell parameters (intrinsic/res/cap/delay) still come from the live
    ``Cell`` objects so footprint swaps via ``_refresh_cells`` observe
    the same instances."""

    def __init__(self, nl: Netlist, wire: WireModel, T: float):
        packed = nl.to_packed()
        level_all, cyclic = packed.comb_levels()
        if cyclic.size:
            raise ValueError("combinational cycle detected")
        seq = packed.seq_gate_mask()
        G_all = packed.num_gates
        n_nets = packed.num_nets

        self.net_names = list(packed.net_names)
        self.net_id = {n: i for i, n in enumerate(self.net_names)}

        gate_objs = list(nl.gates.values())
        names_all = packed.gate_names
        caps_all = (np.array([g.cell.input_cap_ff for g in gate_objs])
                    if G_all else np.empty(0))

        # Comb gates in (level, packed-row) order.  Within-level order
        # only feeds exact max/min reductions, so it is free.
        comb_rows = np.flatnonzero(~seq)
        lv = level_all[comb_rows]
        order = np.argsort(lv, kind="stable")
        perm = comb_rows[order]
        perm_l = perm.tolist()
        G = int(perm.size)
        self.level = lv[order]
        self.num_levels = int(self.level[-1]) + 1 if G else 0
        # level_starts[L] = first gate index at level L.
        self.level_starts = np.searchsorted(
            self.level, np.arange(self.num_levels + 1))

        out_all = packed.gate_output.astype(np.int64)
        self.out = out_all[perm] if G else np.empty(0, np.int64)
        self.gate_names = [names_all[i] for i in perm_l]
        self.gid = {n: i for i, n in enumerate(self.gate_names)}
        cells = [gate_objs[i].cell for i in perm_l]
        self.intrinsic = np.array([c.intrinsic_ps for c in cells])
        self.res = np.array([c.drive_res_kohm for c in cells])

        # Fanin CSR: a gather of the packed pin rows in perm order.
        off = packed.pin_off.astype(np.int64)
        counts_all = np.diff(off)
        pnet = packed.pin_net.astype(np.int64)
        self.fi_off = np.zeros(G + 1, dtype=np.int64)
        np.cumsum(counts_all[perm], out=self.fi_off[1:])
        self.fi_flat = (pnet[csr_gather(off[:-1][perm], counts_all[perm])]
                        if G else np.empty(0, np.int64))

        # Per-net quantities.  ``bincount`` adds weights in pin index
        # order — exactly the scalar engine's fanout-map sum order —
        # so the pin-cap floats are bit-identical.
        row_all = np.repeat(np.arange(G_all, dtype=np.int64), counts_all)
        self.pin_cap = np.bincount(pnet, weights=caps_all[row_all],
                                   minlength=n_nets) \
            if pnet.size else np.zeros(n_nets)
        n_loads = np.bincount(pnet, minlength=n_nets) \
            if pnet.size else np.zeros(n_nets, dtype=np.int64)
        self.wire_cap = np.array(
            [wire.net_cap_ff(net, int(k))
             for net, k in zip(self.net_names, n_loads.tolist())]
        ) if n_nets else np.zeros(0)
        self.wire_delay = np.array(
            [wire.net_delay_ps(net) for net in self.net_names]
        ) if n_nets else np.zeros(0)

        self.load = self.pin_cap[self.out] + self.wire_cap[self.out] \
            if G else np.empty(0)
        self.cell_delay = self.intrinsic + self.res * self.load

        # Per-net comb readers (CSR) and drivers.
        inv = np.full(G_all, -1, dtype=np.int64)
        inv[perm] = np.arange(G, dtype=np.int64)
        rgate = inv[row_all]
        keep = rgate >= 0
        rnet = pnet[keep]
        ro = np.argsort(rnet, kind="stable")
        self.rd_flat = rgate[keep][ro]
        self.rd_off = np.zeros(n_nets + 1, dtype=np.int64)
        np.cumsum(np.bincount(rnet, minlength=n_nets),
                  out=self.rd_off[1:])

        self.drv_gid = np.full(n_nets, -1, dtype=np.int64)
        self.drv_gid[self.out] = np.arange(G, dtype=np.int64)

        # Flops: sources (Q) and endpoints (D).  Packed row order of
        # sequential gates is insertion order — the same order
        # ``sequential_gates()`` yields, which ``_refresh_cells``
        # relies on when indexing ``flop_objs`` by flop id.
        flop_rows = np.flatnonzero(seq)
        flop_l = flop_rows.tolist()
        F = len(flop_l)
        self.flop_names = [names_all[i] for i in flop_l]
        self.fid = {n: i for i, n in enumerate(self.flop_names)}
        self.fl_q = out_all[flop_rows] if F else np.empty(0, np.int64)
        flop_cells = [gate_objs[i].cell for i in flop_l]
        self.fl_setup = np.array(
            [c.intrinsic_ps * 0.5 for c in flop_cells])
        # D-pin nets resolved through the interned pin-name table.
        self.fl_d = np.full(F, -1, dtype=np.int64)
        if F:
            try:
                d_id = packed.pin_names.index("D")
            except ValueError:
                d_id = -1
            inv_f = np.full(G_all, -1, dtype=np.int64)
            inv_f[flop_rows] = np.arange(F, dtype=np.int64)
            frow = inv_f[row_all]
            sel = (packed.pin_name.astype(np.int64) == d_id) & (frow >= 0)
            self.fl_d[frow[sel]] = pnet[sel]
            if (self.fl_d < 0).any():
                raise KeyError("D")
        self.drv_flop = np.full(n_nets, -1, dtype=np.int64)
        self.drv_flop[self.fl_q] = np.arange(F, dtype=np.int64)
        self.fl_load = (self.pin_cap[self.fl_q]
                        + self.wire_cap[self.fl_q]) if F else np.zeros(0)
        self.fl_delay = np.array(
            [c.delay_ps(ld) for c, ld in zip(flop_cells, self.fl_load)])

        # Arrival keys: PIs, flop Qs, comb outputs (the scalar
        # engine's ``arrival`` dict domain).
        self.arr_key = np.zeros(n_nets, dtype=bool)
        self.arr_key[packed.primary_inputs.astype(np.int64)] = True
        self.arr_key[self.fl_q] = True
        self.arr_key[self.out] = True
        self.arr_key_ids = np.flatnonzero(self.arr_key)
        self.arr_key_names = [self.net_names[i]
                              for i in self.arr_key_ids]

        # Required-time bases: T at POs, T - setup at flop D pins.
        self.is_po = np.zeros(n_nets, dtype=bool)
        self.is_po[packed.primary_outputs.astype(np.int64)] = True
        self.flopd_readers: dict[int, list[int]] = {}
        for i in range(F):
            self.flopd_readers.setdefault(int(self.fl_d[i]), []).append(i)
        self.base_req = np.full(n_nets, _INF)
        self.base_req[self.is_po] = T
        for dnet, fids in self.flopd_readers.items():
            for i in fids:
                self.base_req[dnet] = min(self.base_req[dnet],
                                          T - self.fl_setup[i])

        # Critical-path bookkeeping (matches the scalar engine's
        # ``from_gate``: every >=1-input comb gate plus every flop).
        self.from_gate = {}
        for o, n, c in zip(self.out.tolist(), self.gate_names, cells):
            if c.num_inputs >= 1:
                self.from_gate[self.net_names[o]] = n
        for q, n in zip(self.fl_q.tolist(), self.flop_names):
            self.from_gate[self.net_names[q]] = n

        # Value arrays (filled by the passes).
        self.arr = np.zeros(n_nets)
        self.req = np.full(n_nets, _INF)

    # ------------------------------------------------------------------

    def forward_full(self) -> None:
        """Vectorized arrival propagation over all levels."""
        self.arr.fill(0.0)
        if self.fl_q.size:
            self.arr[self.fl_q] = self.fl_delay
        for L in range(self.num_levels):
            s, e = self.level_starts[L], self.level_starts[L + 1]
            lo, hi = self.fi_off[s], self.fi_off[e]
            fi = self.fi_flat[lo:hi]
            t = self.arr[fi] + self.wire_delay[fi]
            best = _seg_max0(t, self.fi_off[s:e + 1] - lo)
            self.arr[self.out[s:e]] = best + self.cell_delay[s:e]

    def backward_full(self) -> None:
        """Vectorized required-time propagation, highest level first."""
        np.copyto(self.req, self.base_req)
        for L in range(self.num_levels - 1, -1, -1):
            s, e = self.level_starts[L], self.level_starts[L + 1]
            lo, hi = self.fi_off[s], self.fi_off[e]
            if hi == lo:
                continue
            fi = self.fi_flat[lo:hi]
            counts = np.diff(self.fi_off[s:e + 1])
            cand = np.repeat(
                self.req[self.out[s:e]] - self.cell_delay[s:e], counts
            ) - self.wire_delay[fi]
            np.minimum.at(self.req, fi, cand)

    # ------------------------------------------------------------------

    def gate_fanins(self, i: int) -> np.ndarray:
        return self.fi_flat[self.fi_off[i]:self.fi_off[i + 1]]

    def net_readers(self, nid: int) -> np.ndarray:
        return self.rd_flat[self.rd_off[nid]:self.rd_off[nid + 1]]

    def recompute_arrivals(self, gids: list[int]) -> np.ndarray:
        """New arrival values for a mini-batch of same-level gates,
        using the exact per-gate arithmetic of the full pass."""
        ids = np.asarray(gids, dtype=np.int64)
        segs = [self.gate_fanins(int(i)) for i in ids]
        counts = np.array([len(s) for s in segs], dtype=np.int64)
        fi = (np.concatenate(segs) if segs
              else np.empty(0, np.int64))
        t = self.arr[fi] + self.wire_delay[fi]
        offs = np.concatenate(([0], np.cumsum(counts)))
        best = _seg_max0(t, offs)
        return best + self.cell_delay[ids]

    def recompute_required(self, nid: int) -> float:
        """New required time of one net from its reader candidates."""
        new = self.base_req[nid]
        readers = self.net_readers(nid)
        if readers.size:
            cand = (self.req[self.out[readers]]
                    - self.cell_delay[readers]) - self.wire_delay[nid]
            new = min(new, cand.min())
        return new


class IncrementalReport:
    """Duck-typed :class:`~repro.timing.sta.TimingReport` over the
    engine's packed arrays.

    ``wns_ps`` and ``clock_period_ps`` are eager; ``arrival_ps``,
    ``required_ps``, and ``critical_path`` materialize lazily on first
    access (the hot loops never touch them).  Value arrays are
    snapshotted at construction, so a report stays consistent after
    further engine updates.
    """

    def __init__(self, graph: _LevelGraph, netlist: Netlist, T: float):
        self._g = graph
        self._nl = netlist
        self.clock_period_ps = T
        self._arr = graph.arr.copy()
        self._reqf = np.where(np.isinf(graph.req), T, graph.req)
        self._req_key = graph.arr_key | np.isfinite(graph.req)
        keys = graph.arr_key_ids
        if keys.size:
            self.wns_ps = float(
                (self._reqf[keys] - self._arr[keys]).min())
        else:
            self.wns_ps = 0.0
        self._arrival = None
        self._required = None
        self._critical = None

    # -- TimingReport API ----------------------------------------------

    @property
    def arrival_ps(self) -> dict:
        if self._arrival is None:
            g = self._g
            self._arrival = dict(zip(
                g.arr_key_names, self._arr[g.arr_key_ids].tolist()))
        return self._arrival

    @property
    def required_ps(self) -> dict:
        if self._required is None:
            g = self._g
            ids = np.flatnonzero(self._req_key)
            self._required = dict(zip(
                (g.net_names[i] for i in ids),
                self._reqf[ids].tolist()))
        return self._required

    @property
    def critical_path(self) -> list:
        if self._critical is None:
            g = self._g
            arrival = _ArrayMap(g.net_id, self._arr, g.arr_key)
            required = _ArrayMap(g.net_id, self._reqf, self._req_key)
            self._critical = trace_critical(
                self._nl, arrival, required, g.from_gate)
        return self._critical

    @property
    def critical_delay_ps(self) -> float:
        """Delay of the longest path (the achievable clock period)."""
        return self.clock_period_ps - self.wns_ps

    def slack_ps(self, net: str) -> float:
        """Slack of a net."""
        i = self._g.net_id[net]
        if not self._g.arr_key[i]:
            raise KeyError(net)
        return float(self._reqf[i] - self._arr[i])

    def slacks(self) -> dict:
        """net -> slack over all arrival keys, in one vector op."""
        g = self._g
        vals = self._reqf[g.arr_key_ids] - self._arr[g.arr_key_ids]
        return dict(zip(g.arr_key_names, vals.tolist()))

    def fmax_ghz(self) -> float:
        """Maximum clock frequency implied by the critical path."""
        d = self.critical_delay_ps
        return 1000.0 / d if d > 0 else float("inf")


class IncrementalTimingAnalyzer:
    """Caching STA engine with an ``update()`` fast path.

    Drop-in for :class:`~repro.timing.sta.TimingAnalyzer` —
    ``analyze()`` returns a report with the same API and bit-identical
    numbers — plus:

    * ``update()`` repropagates only the cones affected by the edits
      journaled since the last analysis, with an unchanged-value
      cutoff;
    * memoized netlist views and per-net wire delays are computed once
      per levelization instead of once per call.

    The engine subscribes to the netlist's change journal on
    construction; call :meth:`close` (or use it as a context manager)
    to detach.
    """

    def __init__(self, netlist: Netlist,
                 wire_model: WireModel | None = None,
                 clock_period_ps: float = 1000.0):
        self.netlist = netlist
        self.wire = wire_model or WireModel()
        self.clock_period_ps = clock_period_ps
        self._graph: _LevelGraph | None = None
        self._pending: list[NetlistEdit] = []
        self._unsubscribe = netlist.subscribe(self._pending.append)

    def close(self) -> None:
        """Detach from the netlist's change journal."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------

    def _drain(self):
        """Split pending journal edits into resized gate names and a
        structural flag."""
        resized: set[str] = set()
        structural = False
        new_pos = False
        for e in self._pending:
            if e.kind == "resize":
                resized.add(e.gate)
            elif e.kind == "add_output":
                new_pos = True
            else:
                structural = True
        self._pending.clear()
        return resized, structural, new_pos

    def analyze(self) -> IncrementalReport:
        """Full vectorized STA; (re)builds the levelized graph."""
        self._graph = _LevelGraph(self.netlist, self.wire,
                                  self.clock_period_ps)
        self._pending.clear()
        g = self._graph
        g.forward_full()
        g.backward_full()
        return IncrementalReport(g, self.netlist, self.clock_period_ps)

    def update(self) -> IncrementalReport:
        """Repropagate timing after the netlist edits journaled since
        the last analysis.

        Resize-only edit batches take the cone-limited path;
        connectivity edits relevelize and rerun the full vectorized
        passes.  A cell changed outside the journal (``gate.cell = x``)
        is not seen: edit through ``Netlist.resize_gate``.
        """
        if self._graph is None:
            return self.analyze()
        resized, structural, new_pos = self._drain()
        if structural or new_pos:
            # Connectivity (or endpoint-set) change: relevelize and
            # resweep.  Still one vectorized pass, still bit-identical.
            return self.analyze()
        if not resized:
            return IncrementalReport(self._graph, self.netlist,
                                     self.clock_period_ps)
        return self._update_resized(resized)

    # ------------------------------------------------------------------

    def _refresh_cells(self, resized: set):
        """Fold resize edits into the packed arrays.

        Updates per-gate cell parameters, the pin caps of the resized
        gates' fanin nets, flop setup-derived required bases, and the
        loads/delays of every affected driver.  Returns
        ``(changed_flops, changed_gates, bwd_seeds)``: the flop indices
        whose Q arrival changed, the gate indices whose cell delay
        changed, and the net ids whose required base changed.
        """
        g = self._graph
        nl = self.netlist
        fan = nl.fanout_map()
        T = self.clock_period_ps
        dirty_gates: set[int] = set()
        dirty_flops: set[int] = set()
        bwd_seeds: set[int] = set()
        touched_nets: set[int] = set()

        for name in resized:
            gate = nl.gates[name]
            fanin_ids = [g.net_id[gate.pins[p]]
                         for p in gate.cell.inputs]
            if name in g.gid:
                i = g.gid[name]
                g.intrinsic[i] = gate.cell.intrinsic_ps
                g.res[i] = gate.cell.drive_res_kohm
                dirty_gates.add(i)
            else:
                f = g.fid[name]
                dirty_flops.add(f)
                old_setup = g.fl_setup[f]
                g.fl_setup[f] = gate.cell.intrinsic_ps * 0.5
                if g.fl_setup[f] != old_setup:
                    dnet = int(g.fl_d[f])
                    base = T if g.is_po[dnet] else _INF
                    for fj in g.flopd_readers.get(dnet, ()):
                        base = min(base, T - g.fl_setup[fj])
                    if base != g.base_req[dnet]:
                        g.base_req[dnet] = base
                        bwd_seeds.add(dnet)
            # The resized cell presents a new input cap: the loads of
            # its fanin nets change, so their drivers' delays change.
            for nid in set(fanin_ids):
                if nid in touched_nets:
                    continue
                touched_nets.add(nid)
                net = g.net_names[nid]
                g.pin_cap[nid] = left_sum(
                    ld.cell.input_cap_ff for ld, _ in fan[net])
                if g.drv_gid[nid] >= 0:
                    dirty_gates.add(int(g.drv_gid[nid]))
                elif g.drv_flop[nid] >= 0:
                    dirty_flops.add(int(g.drv_flop[nid]))

        flop_objs = nl.sequential_gates()
        changed_flops = []
        for f in dirty_flops:
            q = int(g.fl_q[f])
            g.fl_load[f] = g.pin_cap[q] + g.wire_cap[q]
            d = flop_objs[f].cell.delay_ps(g.fl_load[f])
            if d != g.fl_delay[f]:
                g.fl_delay[f] = d
                changed_flops.append(f)

        changed_gates = []
        for i in dirty_gates:
            out = int(g.out[i])
            g.load[i] = g.pin_cap[out] + g.wire_cap[out]
            cd = g.intrinsic[i] + g.res[i] * g.load[i]
            if cd != g.cell_delay[i]:
                g.cell_delay[i] = cd
                changed_gates.append(i)
        return changed_flops, changed_gates, bwd_seeds

    def _update_resized(self, resized: set) -> IncrementalReport:
        g = self._graph
        nl = self.netlist
        T = self.clock_period_ps
        changed_flops, changed_gates, bwd_seeds = \
            self._refresh_cells(resized)

        fwd_heap: list = []
        queued: set[int] = set()

        def push_readers(nid: int) -> None:
            for r in g.net_readers(nid):
                r = int(r)
                if r not in queued:
                    queued.add(r)
                    heapq.heappush(fwd_heap, (int(g.level[r]), r))

        for f in changed_flops:
            q = int(g.fl_q[f])
            g.arr[q] = g.fl_delay[f]
            push_readers(q)

        for i in changed_gates:
            if i not in queued:
                queued.add(i)
                heapq.heappush(fwd_heap, (int(g.level[i]), i))
            # Reader-side delay changed: the required times of this
            # gate's fanin nets must be refreshed.
            bwd_seeds.update(int(n) for n in g.gate_fanins(i))

        # Forward wave: process strictly by level; the unchanged-value
        # cutoff stops expansion as soon as an arrival is bit-equal.
        while fwd_heap:
            L = fwd_heap[0][0]
            batch = []
            while fwd_heap and fwd_heap[0][0] == L:
                batch.append(heapq.heappop(fwd_heap)[1])
            new = g.recompute_arrivals(batch)
            for k, i in enumerate(batch):
                out = int(g.out[i])
                if new[k] != g.arr[out]:
                    g.arr[out] = new[k]
                    push_readers(out)

        # Backward wave: nets keyed by driver level, deepest first.
        net_level = np.full(len(g.net_names), -1, dtype=np.int64)
        has_drv = g.drv_gid >= 0
        net_level[has_drv] = g.level[g.drv_gid[has_drv]]
        bwd_heap = [(-int(net_level[n]), n) for n in bwd_seeds]
        heapq.heapify(bwd_heap)
        queued_b = set(bwd_seeds)
        while bwd_heap:
            _, nid = heapq.heappop(bwd_heap)
            new = g.recompute_required(nid)
            if new != g.req[nid]:
                g.req[nid] = new
                d = int(g.drv_gid[nid])
                if d >= 0:
                    for m in g.gate_fanins(d):
                        m = int(m)
                        if m not in queued_b:
                            queued_b.add(m)
                            heapq.heappush(
                                bwd_heap, (-int(net_level[m]), m))

        return IncrementalReport(g, nl, T)

    # ------------------------------------------------------------------

    def gate_delays_ps(self) -> dict:
        """Cached per-gate cell delay (comb gates), for consumers that
        annotate other graphs — e.g. the retiming abstraction."""
        report_needed = self._graph is None or self._pending
        if report_needed:
            self.update()
        g = self._graph
        return dict(zip(g.gate_names, g.cell_delay.tolist()))
