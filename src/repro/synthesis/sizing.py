"""Post-mapping gate sizing and multi-Vt assignment.

Two of the "wide catalogue of techniques" (Domic) that advanced flows
apply automatically: upsizing drive strength along critical paths and
swapping slack-rich gates to high-Vt variants to cut leakage.

Both loops evaluate one trial resize per inner step, so they are the
hottest consumers of STA in the flow.  They drive the
:class:`~repro.timing.IncrementalTimingAnalyzer`: every trial is a
journaled :meth:`~repro.netlist.Netlist.resize_gate` followed by a
cone-limited ``update()`` instead of a whole-design re-analysis.
``size_gates(incremental=False)`` falls back to a full scalar STA per
trial (the pre-incremental behavior, kept as the reference; the
results are bit-identical either way, which
``test_scalar_sizing_bit_identical`` in ``tests/test_synthesis.py``
asserts).  The flow always runs the incremental default.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from repro.netlist.cells import CellLibrary
from repro.netlist.circuit import Netlist
from repro.timing import IncrementalTimingAnalyzer, TimingAnalyzer, WireModel

_DRIVE_LADDER = ["X1", "X2", "X4"]
#: Upsizing passes along the critical path in :func:`size_gates`.
_MAX_PASSES = 4
_NAME_RE = re.compile(r"^(?P<base>[A-Z0-9]+)_(?P<drive>X\d)_(?P<vt>[a-z]+)$")


def _variant(library: CellLibrary, cell_name: str, *,
             drive: str | None = None,
             vt: str | None = None) -> Any:
    """Look up a sibling cell with a different drive or Vt, or None."""
    m = _NAME_RE.match(cell_name)
    if not m:
        return None
    name = (f"{m.group('base')}_{drive or m.group('drive')}"
            f"_{vt or m.group('vt')}")
    return library.cells.get(name)


def _make_analyzer(
    netlist: Netlist, wire_model: WireModel | None,
    clock_period_ps: float, incremental: bool,
) -> tuple[Any, Callable[[], Any], Callable[[], Any]]:
    """(analyzer, evaluate, close): ``evaluate()`` returns a report for
    the netlist's current state — a cone update in incremental mode, a
    full scalar re-analysis otherwise."""
    if incremental:
        analyzer = IncrementalTimingAnalyzer(
            netlist, wire_model, clock_period_ps)
        return analyzer, analyzer.update, analyzer.close
    analyzer = TimingAnalyzer(netlist, wire_model, clock_period_ps)
    return analyzer, analyzer.analyze, lambda: None


def size_gates(netlist: Netlist, *, wire_model: WireModel | None = None,
               clock_period_ps: float = 1000.0,
               incremental: bool = True) -> dict[str, float]:
    """Upsize cells along critical paths until timing stops improving.

    Mutates the netlist in place.  Returns a report with before/after
    critical delay and the number of cells resized.
    """
    library = netlist.library
    analyzer, evaluate, close = _make_analyzer(
        netlist, wire_model, clock_period_ps, incremental)
    try:
        initial = analyzer.analyze()
        before_ps = initial.critical_delay_ps
        resized = 0
        best_ps = before_ps
        for _ in range(_MAX_PASSES):
            report = evaluate()
            if report.wns_ps >= 0:
                break  # timing met: don't spend area on unneeded speed
            improved = False
            for gname in report.critical_path:
                gate = netlist.gates.get(gname)
                if gate is None or gate.cell.is_sequential:
                    continue
                m = _NAME_RE.match(gate.cell.name)
                if not m:
                    continue
                drive = m.group("drive")
                idx = (_DRIVE_LADDER.index(drive)
                       if drive in _DRIVE_LADDER else -1)
                if idx < 0 or idx + 1 >= len(_DRIVE_LADDER):
                    continue
                bigger = _variant(library, gate.cell.name,
                                  drive=_DRIVE_LADDER[idx + 1])
                if bigger is None:
                    continue
                old_cell = gate.cell
                netlist.resize_gate(gname, bigger)
                new_ps = evaluate().critical_delay_ps
                if new_ps < best_ps - 1e-9:
                    best_ps = new_ps
                    resized += 1
                    improved = True
                else:
                    netlist.resize_gate(gname, old_cell)
            if not improved:
                break
    finally:
        close()
    return {
        "before_ps": before_ps,
        "after_ps": best_ps,
        "resized": resized,
    }


def assign_vt(netlist: Netlist, *, wire_model: WireModel | None = None,
              clock_period_ps: float = 1000.0) -> dict[str, float]:
    """Swap slack-rich gates to HVT (leakage recovery).

    A gate is swapped when its output slack stays positive after
    accounting for the HVT slowdown estimate.
    Gates that end up on negative slack after a swap are reverted in a
    final repair pass.  Returns leakage before/after and swap count.
    """
    library = netlist.library
    if not any(c.vt_flavor == "hvt" for c in library):
        raise ValueError("library has no HVT flavor; build with "
                         "vt_flavors=('rvt', 'hvt')")
    analyzer = IncrementalTimingAnalyzer(netlist, wire_model, clock_period_ps)
    try:
        report = analyzer.analyze()
        leak_before = netlist.leakage_nw()
        swapped: list[Any] = []
        for gate in sorted(netlist.combinational_gates(),
                           key=lambda g: -g.cell.leak_nw):
            slack = report.slack_ps(gate.output)
            hvt = _variant(library, gate.cell.name, vt="hvt")
            if hvt is None or hvt is gate.cell:
                continue
            slowdown = hvt.intrinsic_ps - gate.cell.intrinsic_ps
            if slack - slowdown * 2.0 <= 0.0:
                continue
            netlist.resize_gate(gate.name, hvt)
            swapped.append(gate)
        # Repair: revert swaps if the design went negative.
        repair_passes = 0
        while swapped and repair_passes < 10:
            report = analyzer.update()
            if report.wns_ps >= 0:
                break
            worst = min(swapped,
                        key=lambda g: report.slack_ps(g.output))
            rvt = _variant(library, worst.cell.name, vt="rvt")
            if rvt is not None:
                netlist.resize_gate(worst.name, rvt)
            swapped.remove(worst)
            repair_passes += 1
    finally:
        analyzer.close()
    return {
        "leak_before_nw": leak_before,
        "leak_after_nw": netlist.leakage_nw(),
        "swapped": len(swapped),
    }
