"""``repro.engines``: the shared stage-engine registry.

Every flow stage resolves its implementation through this one catalog:
synthesis (``area`` | ``delay`` | ``trivial``), placement
(``analytic`` | ``quadratic``), CTS (``htree`` | ``spine``), routing
(``batched`` | ``maze`` | ``line_search``), and sizing
(``incremental`` | ``scalar``).  Each engine registers a deferred
loader returning a *uniform per-stage kernel signature*, so flow code
never branches on engine names:

* synthesis kernels (the mapper path of
  :class:`~repro.synthesis.flow.SynthesisFlow`): ``fn(aig, library, *,
  cut_size, cell_filter) -> Netlist``
* placement kernels: ``fn(design, *, utilization, seed,
  spreading_passes, detailed_passes) -> Placement``
* CTS kernels: ``fn(placement) -> ClockTree``
* routing kernels: ``fn(placement, *, layers, gcell_um, topology,
  max_iterations, seed, telemetry) -> RoutingResult``
* sizing kernels (the hot STA loop of
  :func:`~repro.synthesis.sizing.size_gates`): ``fn(netlist, *,
  wire_model, clock_period_ps) -> dict``

:class:`~repro.core.flow.FlowOptions` validates its engine-selection
fields (``synth_engine``, ``place_engine``, ``cts_engine``,
``routing_engine``, ``sizing_engine``) here at construction time
(typos raise early), and the flow resolves them with the same strict
:func:`get_engine`, so an unknown name never falls back to a default.
:func:`axes` exposes the whole grid (stage -> engine names) so sweep
and tuning tooling enumerates ablations from one source of truth, and
``python -m repro.engines`` renders the catalog (text or JSON) for
humans and scripts.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engines.registry import (
    EngineSpec,
    Knob,
    UnknownEngineError,
    axes,
    default_engine,
    engine_names,
    get_engine,
    register,
    stage_names,
    validate_options,
)

__all__ = [
    "EngineSpec",
    "Knob",
    "UnknownEngineError",
    "axes",
    "default_engine",
    "engine_names",
    "get_engine",
    "register",
    "stage_names",
    "validate_options",
]


# ----------------------------------------------------------------------
# Synthesis engines (kernel signature: aig, library, *, cut_size,
# cell_filter).  The engine picks the mapper; the era recipe keeps
# choosing the optimization script, cut size, and cell filter around
# it.


def _load_synth_area() -> Callable[..., Any]:
    from repro.synthesis.mapping import map_aig

    def kernel(aig: Any, library: Any, *, cut_size: int,
               cell_filter: Any) -> Any:
        return map_aig(aig, library, mode="area", cut_size=cut_size,
                       cell_filter=cell_filter)

    return kernel


def _load_synth_delay() -> Callable[..., Any]:
    from repro.synthesis.mapping import map_aig

    def kernel(aig: Any, library: Any, *, cut_size: int,
               cell_filter: Any) -> Any:
        return map_aig(aig, library, mode="delay", cut_size=cut_size,
                       cell_filter=cell_filter)

    return kernel


def _load_synth_trivial() -> Callable[..., Any]:
    from repro.synthesis.mapping import trivial_map

    def kernel(aig: Any, library: Any, *, cut_size: int,
               cell_filter: Any) -> Any:
        # The debug engine ignores mapper tuning: one AND2 per node,
        # INVs on negated edges, whatever the era recipe asked for.
        return trivial_map(aig, library)

    return kernel


_SYNTH_KNOBS = (
    Knob("era", "one of the era recipes",
         lambda v: isinstance(v, str)),
    Knob("clock_period_ps", "> 0",
         lambda v: isinstance(v, (int, float)) and v > 0),
)

register(EngineSpec(
    stage="synthesis", name="area", loader=_load_synth_area,
    description="cut-based mapping minimizing total cell area",
    knobs=_SYNTH_KNOBS, default=True))
register(EngineSpec(
    stage="synthesis", name="delay", loader=_load_synth_delay,
    description="cut-based mapping minimizing worst arrival time",
    knobs=_SYNTH_KNOBS))
register(EngineSpec(
    stage="synthesis", name="trivial", loader=_load_synth_trivial,
    description="1-to-1 AND2/INV mapping (debug / strawman baseline)",
    knobs=_SYNTH_KNOBS))


# ----------------------------------------------------------------------
# Placement engines (kernel signature: design, *, utilization, seed,
# spreading_passes, detailed_passes).


def _load_place_analytic() -> Callable[..., Any]:
    from repro.place.analytic import analytic_place

    def kernel(design: Any, *, utilization: float, seed: int,
               spreading_passes: int, detailed_passes: int) -> Any:
        # ``spreading_passes`` maps onto the electrostatic iteration
        # budget (8 iterations/pass; the default 3 passes is the
        # engine's native budget of 24) so the knob stays meaningful
        # everywhere it appears in the cache key.
        return analytic_place(
            design, utilization=utilization, seed=seed,
            max_iterations=8 * spreading_passes,
            detailed_passes=detailed_passes)

    return kernel


def _load_place_quadratic() -> Callable[..., Any]:
    from repro.place.detailed import detailed_place
    from repro.place.global_place import global_place

    def kernel(design: Any, *, utilization: float, seed: int,
               spreading_passes: int, detailed_passes: int) -> Any:
        placement = global_place(
            design, utilization=utilization,
            spreading_passes=spreading_passes, seed=seed)
        if detailed_passes:
            detailed_place(placement, passes=detailed_passes,
                           seed=seed)
        return placement

    return kernel


_PLACE_KNOBS = (
    Knob("utilization", "in (0, 1]",
         lambda v: isinstance(v, (int, float)) and 0 < v <= 1),
    Knob("spreading_passes", ">= 1",
         lambda v: isinstance(v, int) and v >= 1),
    Knob("detailed_passes", ">= 0",
         lambda v: isinstance(v, int) and v >= 0),
    Knob("seed", "an int", lambda v: isinstance(v, int)),
)

register(EngineSpec(
    stage="placement", name="analytic", loader=_load_place_analytic,
    description="vectorized ePlace-style CSR-native placer (PR 7)",
    knobs=_PLACE_KNOBS, default=True))
register(EngineSpec(
    stage="placement", name="quadratic", loader=_load_place_quadratic,
    description="object-graph quadratic placer (QoR baseline)",
    knobs=_PLACE_KNOBS))


# ----------------------------------------------------------------------
# Routing engines (kernel signature: placement, *, layers, gcell_um,
# topology, max_iterations, seed, telemetry).


def _load_route_batched() -> Callable[..., Any]:
    from repro.route.batched import batched_route
    return batched_route


def _load_route_maze() -> Callable[..., Any]:
    from repro.route.global_route import sequential_route

    def kernel(placement: Any, **kwargs: Any) -> Any:
        return sequential_route(placement, engine="maze", **kwargs)

    return kernel


def _load_route_line_search() -> Callable[..., Any]:
    from repro.route.global_route import sequential_route

    def kernel(placement: Any, **kwargs: Any) -> Any:
        return sequential_route(placement, engine="line_search",
                                **kwargs)

    return kernel


_ROUTE_KNOBS = (
    Knob("routing_layers", ">= 2 metal layers",
         lambda v: isinstance(v, int) and v >= 2),
    Knob("routing_iterations", ">= 1",
         lambda v: isinstance(v, int) and v >= 1),
    Knob("gcell_um", "a positive gcell pitch",
         lambda v: isinstance(v, (int, float)) and v > 0),
    Knob("seed", "an int", lambda v: isinstance(v, int)),
)

register(EngineSpec(
    stage="routing", name="batched", loader=_load_route_batched,
    description="vectorized batched wavefront router with "
                "negotiated-congestion arrays",
    knobs=_ROUTE_KNOBS, default=True))
register(EngineSpec(
    stage="routing", name="maze", loader=_load_route_maze,
    description="sequential A* maze router (QoR baseline)",
    knobs=_ROUTE_KNOBS))
register(EngineSpec(
    stage="routing", name="line_search", loader=_load_route_line_search,
    description="Hightower line-probe router with maze fallback",
    knobs=_ROUTE_KNOBS))


# ----------------------------------------------------------------------
# CTS engines (kernel signature: placement -> ClockTree).


def _load_cts_htree() -> Callable[..., Any]:
    from repro.timing.cts import synthesize_clock_tree

    def kernel(placement: Any) -> Any:
        return synthesize_clock_tree(placement)

    return kernel


def _load_cts_spine() -> Callable[..., Any]:
    from repro.timing.cts import naive_clock_spine
    return naive_clock_spine


_CTS_KNOBS = (
    Knob("cts", "a bool", lambda v: isinstance(v, bool)),
)

register(EngineSpec(
    stage="cts", name="htree", loader=_load_cts_htree,
    description="recursive-bisection balanced clock tree (H-tree "
                "style, buffered segments)",
    knobs=_CTS_KNOBS, default=True))
register(EngineSpec(
    stage="cts", name="spine", loader=_load_cts_spine,
    description="serpentine clock spine (ablation strawman: skew "
                "grows with chain length)",
    knobs=_CTS_KNOBS))


# ----------------------------------------------------------------------
# Sizing engines (kernel signature: netlist, *, wire_model,
# clock_period_ps).  Both run the same upsizing loop; the engine picks
# the timing analyzer behind each trial resize — results are
# bit-identical, only the STA cost differs.


def _load_sizing_incremental() -> Callable[..., Any]:
    from repro.synthesis.sizing import size_gates

    def kernel(netlist: Any, *, wire_model: Any,
               clock_period_ps: float) -> Any:
        return size_gates(netlist, wire_model=wire_model,
                          clock_period_ps=clock_period_ps,
                          incremental=True)

    return kernel


def _load_sizing_scalar() -> Callable[..., Any]:
    from repro.synthesis.sizing import size_gates

    def kernel(netlist: Any, *, wire_model: Any,
               clock_period_ps: float) -> Any:
        return size_gates(netlist, wire_model=wire_model,
                          clock_period_ps=clock_period_ps,
                          incremental=False)

    return kernel


_SIZING_KNOBS = (
    Knob("clock_period_ps", "> 0",
         lambda v: isinstance(v, (int, float)) and v > 0),
)

register(EngineSpec(
    stage="sizing", name="incremental",
    loader=_load_sizing_incremental,
    description="journaled resizes with cone-limited incremental STA "
                "per trial",
    knobs=_SIZING_KNOBS, default=True))
register(EngineSpec(
    stage="sizing", name="scalar", loader=_load_sizing_scalar,
    description="full scalar STA per trial resize (pre-incremental "
                "QoR reference)",
    knobs=_SIZING_KNOBS))
