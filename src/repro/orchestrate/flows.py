"""The implementation flow as one ordered table, :data:`STAGES`, and
:func:`implement_flow`, the private engine behind
:func:`repro.orchestrate.run` and :func:`repro.orchestrate.resume_run`.

Each row is a :class:`Stage` with explicit data dependencies on
earlier rows and a narrowed cache-key domain (``knobs``): changing
``routing_iterations`` re-executes only the routing stage, while
synthesis, placement, and signoff replay from the content-addressed
cache.  A stage sees only its knobs of the options, so one that read
any other option would fail on every run, not replay a stale result.

Data-dependency notes:

* Routing and signoff run *after* scan insertion.  The netlist travels
  inside its :class:`~repro.place.placement.Placement`
  (``placement.netlist``), and ``dft`` consumes and returns that
  bundle — so even when a stage replays from a store (a decoded copy)
  the placement and the post-scan netlist downstream stages see are
  the same consistent pair.  ``dft`` copies on write,
  so the caller's subject is never edited.
* ``cts``, ``routing``, and ``signoff`` all depend only on ``dft``
  (signoff parasitics come from placement-derived lengths, not
  routing), so a knob change to one of them re-runs only that stage.
* ``cts`` is optional: a CTS failure degrades the run (no clock tree)
  instead of killing a sweep.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.flow import FlowOptions, FlowResult
from repro.orchestrate.dag import Stage
from repro.orchestrate.executor import run_stages
from repro.orchestrate.telemetry import Span, TelemetrySink


def stage_synthesis(ctx) -> object:
    """RTL-ish subject to mapped netlist (skipped for a netlist)."""
    from repro.netlist.circuit import Netlist
    from repro.synthesis.flow import SynthesisFlow
    subject = ctx["subject"]
    if isinstance(subject, Netlist):
        return subject
    options = ctx["options"]
    flow = SynthesisFlow(ctx["library"], options.era,
                         options.clock_period_ps)
    return flow.run(subject).netlist


def stage_placement(ctx) -> object:
    """Analytic global + detailed placement of the mapped netlist.

    ``spreading_passes`` sets the electrostatic iteration budget at 8
    iterations per pass (the default 3 passes is the placer's own
    default of 24), so the knob stays meaningful in the cache key.
    """
    from repro.place.analytic import analytic_place
    options = ctx["options"]
    return analytic_place(
        ctx["synthesis"], utilization=options.utilization,
        seed=options.seed, max_iterations=8 * options.spreading_passes,
        detailed_passes=options.detailed_passes)


def stage_dft(ctx) -> object:
    """Scan insertion (layout-aware order uses the placement).

    Returns the placement bundle: untouched when scan does not fire,
    otherwise a new placement whose netlist is a copy with scan
    inserted (the packed round trip is lossless, fresh-name counter
    included), so the caller's subject survives for another run.
    """
    from repro.dft.scan import insert_scan, reorder_chain
    placement, options = ctx["placement"], ctx["options"]
    netlist = placement.netlist
    if not (options.scan and netlist.sequential_gates()):
        return placement
    netlist = netlist.to_packed().to_netlist(netlist.library)
    placement = replace(placement, netlist=netlist,
                        positions=dict(placement.positions),
                        pad_positions=dict(placement.pad_positions))
    flops = [g.name for g in netlist.sequential_gates()]
    order = reorder_chain(flops, placement) \
        if options.layout_aware_scan else None
    insert_scan(netlist, num_chains=options.scan_chains, order=order)
    return placement


def stage_cts(ctx) -> object:
    """Balanced clock-tree synthesis over the placement (optional
    stage)."""
    options, placement = ctx["options"], ctx["dft"]
    if options.cts and placement.netlist.sequential_gates():
        from repro.timing.cts import synthesize_clock_tree
        return synthesize_clock_tree(placement)
    return None


def stage_routing(ctx) -> object:
    """Batched global routing over the post-DFT placement (scan-chain
    nets are routed, as in the serial flow).

    ``options.seed`` feeds the router's deterministic tie-break
    jitter, which is why ``seed`` is part of this stage's cache key.
    """
    from repro.route.batched import batched_route
    options = ctx["options"]
    return batched_route(
        ctx["dft"], layers=options.routing_layers,
        gcell_um=options.gcell_um,
        max_iterations=options.routing_iterations, seed=options.seed)


def stage_signoff(ctx) -> dict:
    """Timing + power signoff with placement-derived parasitics."""
    from repro.power.analysis import power_report
    from repro.timing import IncrementalTimingAnalyzer, WireModel
    options = ctx["options"]
    placement = ctx["dft"]
    netlist = placement.netlist
    wm = WireModel.for_node(ctx["library"].node,
                            placement.net_lengths())
    with IncrementalTimingAnalyzer(netlist, wm,
                                   options.clock_period_ps) as sta:
        timing = sta.analyze()
    power = power_report(netlist, freq_ghz=options.freq_ghz,
                         patterns=64, seed=options.seed)
    return {"delay_ps": timing.critical_delay_ps,
            "power_uw": power.total_uw}


#: The implementation flow, in execution order.  Each stage's
#: ``knobs`` are the options it reads and its cache key holds.
STAGES = (
    Stage("synthesis", stage_synthesis,
          params=("subject", "library", "options"),
          knobs=("era", "clock_period_ps")),
    Stage("placement", stage_placement,
          deps=("synthesis",), params=("options",),
          knobs=("utilization", "spreading_passes", "detailed_passes",
                 "seed")),
    Stage("dft", stage_dft,
          deps=("placement",), params=("options",),
          knobs=("scan", "scan_chains", "layout_aware_scan")),
    Stage("cts", stage_cts,
          deps=("dft",), params=("options",),
          knobs=("cts",), optional=True),
    Stage("routing", stage_routing,
          deps=("dft",), params=("options",),
          knobs=("routing_layers", "routing_iterations", "gcell_um",
                 "seed")),
    Stage("signoff", stage_signoff,
          deps=("dft",), params=("library", "options"),
          knobs=("clock_period_ps", "freq_ghz", "seed")),
)

STAGE_NAMES = tuple(stage.name for stage in STAGES)


def _pre_run_lint(subject, sink):
    """Netlist lint of a ``Netlist`` subject, before any stage runs.

    Errors are recorded as a failed ``lint`` telemetry span whose notes
    carry the rendered findings; the run proceeds either way.  Runs
    without errors stay span-silent, and the report itself
    (``FlowResult.lint``) is the record that lint ran.  Other subjects
    (an AIG, a logic network) are not linted: ``None``.
    """
    from repro.lint import lint_netlist
    from repro.netlist.circuit import Netlist
    if not isinstance(subject, Netlist):
        return None
    report = lint_netlist(subject)
    if report.errors:
        sink.record(Span(
            "lint", report.wall_s, status="failed",
            notes=tuple(str(f) for f in report.findings[:16])))
    return report


def implement_flow(subject, library, options: FlowOptions | None = None,
                   *, run_db=None, caches=(), telemetry=None,
                   run_id=None, chaos=None) -> FlowResult:
    """Run :data:`STAGES` and assemble a :class:`FlowResult`.

    The private engine of :func:`repro.orchestrate.run` and
    :func:`repro.orchestrate.resume_run`: ``caches`` (a tuple of
    :class:`~repro.orchestrate.cache.ResultCache`, looked up in order)
    replay unchanged stages, ``telemetry`` (a :class:`TelemetrySink`)
    collects spans, ``run_id`` names the run's journal in the result
    and its record, and ``chaos`` injects deterministic faults.
    Stages run one at a time through
    :func:`~repro.orchestrate.executor.run_stages`; each runs once,
    and a failed required stage raises
    :class:`~repro.orchestrate.executor.StageError`.

    ``options`` are validated again here, since options decoded from
    a journal or changed after construction never ran the constructor
    check: an out-of-range field raises ``ValueError`` before any
    stage runs.
    """
    if options is None:
        options = FlowOptions()
    options.validate()
    sink = telemetry if telemetry is not None else TelemetrySink()
    n_before = len(sink.spans)
    lint_report = _pre_run_lint(subject, sink)
    run = run_stages(
        STAGES, {"subject": subject, "library": library,
                 "options": options},
        caches=caches, sink=sink, chaos=chaos)

    spans = sink.spans[n_before:]
    result = FlowResult.from_run(
        run, options,
        stage_runtimes={s.stage: s.wall_s for s in spans
                        if s.stage != "lint"},
        run_id=run_id)
    result.lint = lint_report
    if run_db is not None:
        _log_run(run_db, result, spans)
    return result


def _log_run(run_db, result: FlowResult, spans) -> None:
    """Self-monitoring: persist the run's QoR and its telemetry spans,
    lint notes included, as one record in the run database (Rossi's
    "information useful to the next runs").

    The record's knobs are every option a stage of :data:`STAGES`
    reads (the union of :attr:`Stage.knobs`); its ``run_id`` links a
    journaled run, resumed or not, to its journal.
    """
    from repro.learn.rundb import RunRecord, design_features
    options = result.options
    run_db.log(RunRecord(
        design=result.netlist.name,
        features=design_features(result.netlist),
        knobs={knob: getattr(options, knob)
               for stage in STAGES for knob in stage.knobs},
        qor={
            "hpwl_um": result.hpwl_um,
            "overflow": result.overflow,
            "delay_ps": result.delay_ps,
            "power_uw": result.power_uw,
            "runtime_s": result.runtime_s,
        },
        tags=["flow"],
        spans=spans,
        run_id=result.run_id,
    ))
