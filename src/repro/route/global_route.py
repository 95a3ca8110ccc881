"""Global routing: net decomposition, ordering, rip-up and reroute.

This module holds the *sequential* engines (maze A* and line-probe),
the original per-net reference implementations the vectorized engine
(:mod:`repro.route.batched`) is gated against, and
:func:`route_placement`, which runs any of the three by name.  The
shared result contract lives in :mod:`repro.route.result`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.place.placement import Placement
from repro.route.grid import RoutingGrid
from repro.route.linesearch import line_search_route
from repro.route.maze import maze_route
from repro.route.result import ROUTE_SCHEMA_VERSION, RoutingResult

__all__ = [
    "ROUTE_SCHEMA_VERSION",
    "RoutingResult",
    "GlobalRouter",
    "sequential_route",
    "route_placement",
]


class GlobalRouter:
    """Route a placement on a gcell grid, one net segment at a time.

    Multi-pin nets are decomposed into 2-pin segments with Prim's MST
    over pin locations; segments are routed in ascending-length order;
    overflowed nets are ripped up and rerouted with negotiated
    congestion (PathFinder-lite) for up to ``max_iterations`` rounds.
    """

    def __init__(self, placement: Placement, *, gcell_um: float = 5.0,
                 layers: int = 6, engine: str = "maze",
                 topology: str = "mst",
                 max_iterations: int = 4):
        if engine not in ("maze", "line_search"):
            raise ValueError("engine must be 'maze' or 'line_search'")
        if topology not in ("mst", "steiner"):
            raise ValueError("topology must be 'mst' or 'steiner'")
        self.placement = placement
        self.engine = engine
        self.topology = topology
        self.max_iterations = max_iterations
        node = placement.netlist.library.node
        self.grid = RoutingGrid.for_die(
            placement.die_w_um, placement.die_h_um, node,
            gcell_um=gcell_um, layers=layers)
        self.gcell_um = gcell_um

    # ------------------------------------------------------------------

    def _gcell(self, xy: tuple) -> tuple:
        x = int(np.clip(xy[0] / self.placement.die_w_um * self.grid.nx,
                        0, self.grid.nx - 1))
        y = int(np.clip(xy[1] / self.placement.die_h_um * self.grid.ny,
                        0, self.grid.ny - 1))
        return (x, y)

    def _net_segments(self) -> list:
        """All 2-pin segments: [(net, src_gcell, dst_gcell)]."""
        from repro.route.steiner import mst_edges, steiner_tree

        segments = []
        for net, pts in self.placement.net_pins().items():
            cells = sorted({self._gcell(p) for p in pts})
            if len(cells) < 2:
                continue
            use_steiner = (self.topology == "steiner"
                           and 3 <= len(cells) <= 8)
            edges = steiner_tree(cells) if use_steiner else \
                mst_edges(cells)
            for a, b in edges:
                segments.append((net, a, b))
        return segments

    def _route_segment(self, src, dst):
        if self.engine == "maze":
            return maze_route(self.grid, src, dst)
        path = line_search_route(self.grid, src, dst)
        if path is None:  # line probes blocked: fall back to maze
            path = maze_route(self.grid, src, dst)
        return path

    def route(self) -> RoutingResult:
        """Run the full flow; returns a :class:`RoutingResult`."""
        t0 = time.perf_counter()
        segments = self._net_segments()
        segments.sort(key=lambda s: abs(s[1][0] - s[2][0]) +
                      abs(s[1][1] - s[2][1]))
        paths: dict[str, list] = {}
        seg_paths: list = [None] * len(segments)
        failed: list = []
        for i, (net, src, dst) in enumerate(segments):
            path = self._route_segment(src, dst)
            if path is None:
                failed.append(net)
                continue
            self.grid.add_path(path)
            seg_paths[i] = path

        iterations = 1
        for _ in range(self.max_iterations - 1):
            if self.grid.total_overflow() == 0:
                break
            self.grid.bump_history()
            # Rip up segments through overflowed edges and reroute.
            for i, (net, src, dst) in enumerate(segments):
                path = seg_paths[i]
                if path is None or not self._overflowed(path):
                    continue
                self.grid.add_path(path, delta=-1)
                new = maze_route(self.grid, src, dst,
                                 congestion_weight=5.0)
                if new is None:
                    new = path
                self.grid.add_path(new)
                seg_paths[i] = new
            iterations += 1

        for (net, _, _), path in zip(segments, seg_paths):
            if path is not None:
                paths.setdefault(net, []).append(path)
        return RoutingResult.assemble(
            grid=self.grid,
            paths=paths,
            failed=sorted(set(failed)),
            iterations=iterations,
            runtime_s=time.perf_counter() - t0,
            engine=self.engine,
        )

    def _overflowed(self, path: list) -> bool:
        for a, b in zip(path, path[1:]):
            edge = self.grid.edge_between(a, b)
            if self.grid.usage_of(edge) > self.grid.capacity_of(edge):
                return True
        return False


def sequential_route(placement: Placement, *, layers: int = 6,
                     gcell_um: float = 5.0, topology: str = "mst",
                     max_iterations: int = 4,
                     engine: str = "maze") -> RoutingResult:
    """One sequential routing run (``engine`` ``"maze"`` or
    ``"line_search"``) through :class:`GlobalRouter`.

    It takes the routing knobs of
    :func:`~repro.route.batched.batched_route` (not ``seed``: the
    sequential engines are deterministic without it), plus
    ``topology`` (``"mst"`` or ``"steiner"``).  It records no
    telemetry; the batched router is the one that reports per-phase
    spans.
    """
    return GlobalRouter(placement, engine=engine, layers=layers,
                        gcell_um=gcell_um, topology=topology,
                        max_iterations=max_iterations).route()


def route_placement(placement: Placement, *, engine: str = "maze",
                    layers: int = 6, gcell_um: float = 5.0,
                    topology: str = "mst", max_iterations: int = 4,
                    seed: int = 0) -> RoutingResult:
    """One-call global routing of a placement.

    ``engine`` picks the router: ``"batched"``
    (:func:`~repro.route.batched.batched_route`, the one the flow
    runs) or a sequential reference, ``"maze"`` or ``"line_search"``
    (:func:`sequential_route`).  Any other name raises ``ValueError``,
    and so does a ``topology`` other than ``"mst"`` for the batched
    engine.  ``seed`` reaches the batched router only; the sequential
    engines are deterministic without it.  For per-phase telemetry
    spans, call :func:`~repro.route.batched.batched_route` with a
    ``telemetry=`` sink.
    """
    knobs = dict(layers=layers, gcell_um=gcell_um,
                 max_iterations=max_iterations)
    if engine == "batched":
        if topology != "mst":
            raise ValueError(
                f"the batched router decomposes nets by MST only; "
                f"topology {topology!r} needs engine 'maze' or "
                f"'line_search'")
        from repro.route.batched import batched_route
        return batched_route(placement, seed=seed, **knobs)
    if engine not in ("maze", "line_search"):
        raise ValueError(f"unknown routing engine {engine!r}; expected "
                         f"'batched', 'maze' or 'line_search'")
    return sequential_route(placement, engine=engine, topology=topology,
                            **knobs)
