"""Ablations over the design choices DESIGN.md calls out.

These are not panel claims; they justify implementation decisions by
measuring what each mechanism contributes:

* CTS: balanced H-tree vs serpentine spine (skew).
* Timing-driven placement: slack weighting on vs off.
* SRAF insertion: process window of isolated lines.
* Thermal: leakage feedback loop on vs off; the ADAS screening plan.
* Buffering: optimal repeater segment vs naive fixed segment.
* Flow knobs: a run_sweep ablation over detailed placement and
  routing effort, sharing upstream stages through the result cache.
"""

import numpy as np
import pytest

from repro.litho.ret import insert_srafs, isolated_line_mask, process_window
from repro.mfg.reliability import ScreeningPlan, screen_for_target_ppm, shipped_ppm
from repro.netlist import build_library, logic_cloud, registered_cloud
from repro.place import analytic_place, global_place, timing_driven_place
from repro.place.buffering import estimate_buffers, optimal_buffer_segment_um
from repro.power.thermal import derate_for_temperature, solve_thermal
from repro.tech import get_node
from repro.timing import (
    TimingAnalyzer,
    WireModel,
    naive_clock_spine,
    synthesize_clock_tree,
)

from conftest import report


@pytest.fixture(scope="module")
def seq_placed(lib28):
    nl = registered_cloud(8, 64, 400, lib28, seed=5)
    return global_place(nl, seed=0)


def test_cts_vs_spine(seq_placed):
    tree = synthesize_clock_tree(seq_placed)
    spine = naive_clock_spine(seq_placed)
    report("A-CTS", [
        f"H-tree: skew {tree.skew_ps:.3f} ps, wl "
        f"{tree.wirelength_um:.0f} um, {len(tree.buffers)} buffers",
        f"spine:  skew {spine.skew_ps:.3f} ps, wl "
        f"{spine.wirelength_um:.0f} um"])
    assert tree.skew_ps < spine.skew_ps
    assert tree.wirelength_um < spine.wirelength_um


def test_timing_driven_placement_ablation(lib28):
    nl = logic_cloud(16, 16, 400, lib28, seed=3, locality=0.8)

    def delay(pl):
        wm = WireModel.for_node(lib28.node, pl.net_lengths())
        return TimingAnalyzer(nl, wm).analyze().critical_delay_ps

    # The baseline is the placer timing_driven_place runs, without
    # slack weights, so the gain is slack weighting alone.
    base = analytic_place(nl, seed=0, utilization=0.4)
    td = timing_driven_place(nl, seed=0, utilization=0.4)
    d0, d1 = delay(base), delay(td)
    report("A-TDP", [
        f"wirelength-driven: {d0:.0f} ps, HPWL {base.total_hpwl():.0f}",
        f"timing-driven:     {d1:.0f} ps, HPWL {td.total_hpwl():.0f}"])
    assert d1 < d0
    assert td.total_hpwl() < base.total_hpwl() * 1.25


def test_sraf_ablation():
    img = isolated_line_mask(40, field_nm=600)
    raw = process_window(img, 2.0, epe_spec_nm=6.0)
    result = insert_srafs(img, 2.0)
    assisted = process_window(img, 2.0, mask=result.mask,
                              epe_spec_nm=6.0)
    report("A-SRAF", [
        f"isolated 40nm line: window {raw:.2f} bare, {assisted:.2f} "
        f"with {result.assists_added} assists "
        f"(printed violation: {result.assist_printed})"])
    assert assisted > raw
    assert not result.assist_printed


def test_electrothermal_feedback_matters():
    pm = np.full((10, 10), 0.06)
    pm[4:6, 4:6] = 0.6
    open_loop = solve_thermal(pm)
    closed = solve_thermal(pm, leakage_feedback=0.05)
    derate = derate_for_temperature(get_node("28nm"), closed.peak_c)
    report("A-THERM", [
        f"open loop peak {open_loop.peak_c:.1f} C; with leakage "
        f"feedback {closed.peak_c:.1f} C "
        f"({closed.iterations} iterations)",
        f"signoff derate at peak: delay x{derate['delay_factor']:.2f}, "
        f"leakage x{derate['leakage_factor']:.1f}"])
    assert closed.peak_c > open_loop.peak_c


def test_adas_zero_ppm_screening():
    node = get_node("28nm")
    no_screen = shipped_ppm(node, 50, ScreeningPlan(0.95))
    plan = screen_for_target_ppm(node, 50, target_ppm=3.0,
                                 coverage=0.999)
    achieved = shipped_ppm(node, 50, plan)
    report("A-ADAS", [
        f"95% coverage, no burn-in: {no_screen:.0f} PPM",
        f"zero-PPM plan: coverage 99.9% + {plan.burn_in_hours:.0f} h "
        f"burn-in -> {achieved:.2f} PPM"])
    assert plan is not None
    assert achieved <= 3.0


def test_buffer_segment_ablation(lib28):
    """Over-buffering (too-short segments) wastes area for nothing:
    compare the optimal segment against an over-eager quarter of the
    longest net (so both policies actually fire on this die)."""
    nl = logic_cloud(16, 16, 400, lib28, seed=9, locality=0.7)
    placement = global_place(nl, seed=0, utilization=0.3)
    longest = max(placement.net_lengths().values())
    optimal = min(optimal_buffer_segment_um(lib28.node), longest / 2)
    eager = longest / 8
    opt = estimate_buffers(placement, segment_um=optimal)
    naive = estimate_buffers(placement, segment_um=eager)
    report("A-BUF", [
        f"segment {optimal:.1f} um: {opt.buffers_added} buffers",
        f"over-eager {eager:.1f} um: {naive.buffers_added} buffers "
        f"({naive.buffer_area_um2:.2f} um2 of area)"])
    assert naive.buffers_added > opt.buffers_added


def test_flow_knob_ablation_sweep(lib28):
    """Knob ablation through the orchestration layer: 8 FlowOptions
    variants over one design via run_sweep with a shared result
    cache.  Variants that differ only in routing effort reuse the
    cached synthesis/placement/dft stages, so the sweep does far less
    work than 8 cold runs — the mechanism that makes large ablation
    grids affordable."""
    from repro.core import FlowOptions
    from repro.orchestrate import ResultCache, TelemetrySink, run_sweep

    nl = logic_cloud(12, 12, 250, lib28, seed=11, locality=0.8)
    options = [FlowOptions(detailed_passes=d, routing_iterations=r)
               for d in (0, 2) for r in (1, 2, 3, 4)]
    cache = ResultCache(max_memory_entries=64)
    sink = TelemetrySink()
    sweep = run_sweep(nl, lib28, options, jobs=1, cache=cache,
                      telemetry=sink)
    rows = [f"dp={o.detailed_passes} ri={o.routing_iterations}: "
            f"hpwl {r.hpwl_um:.0f} um, wl {r.routed_wirelength} "
            f"gcells (ovfl {r.overflow}), {r.delay_ps:.0f} ps"
            for o, r in zip(options, sweep.results)]
    report_stats = sink.report()
    rows.append(f"stage cache: {report_stats.cache_hits} hits / "
                f"{report_stats.cache_hits + report_stats.cache_misses}"
                f" executions ({report_stats.hit_rate:.0%} reused)")
    report("A-FLOW", rows)
    # 8 variants x 6 stages, but only 2 placements and 8 routings are
    # distinct: most stage executions replay from cache.
    assert report_stats.cache_hits > report_stats.cache_misses
    # More routing effort never increases overflow on this design.
    for d in (0, 2):
        group = [r for o, r in zip(options, sweep.results)
                 if o.detailed_passes == d]
        assert group[-1].overflow <= group[0].overflow


def test_bench_cts(benchmark, seq_placed):
    """Benchmark clock-tree synthesis over 64 flops."""
    tree = benchmark(lambda: synthesize_clock_tree(seq_placed))
    assert tree.sink_delays
