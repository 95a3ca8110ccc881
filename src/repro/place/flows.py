"""Flat vs hierarchical implementation flows (experiment E2).

``place_flat`` flattens the whole design and places it as one netlist.
``place_hierarchical`` implements block by block — each block confined
to its floorplan region, boundary buffers isolating every port — and
then assembles the result.  The flat flow's advantage is exactly the
"lesser amount of buffering" Domic cites, measurable here as cell
count, area, and power deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.hierarchy import Design, flatten, implement_by_block
from repro.place.analytic import analytic_place
from repro.place.buffering import estimate_buffers
from repro.place.detailed import detailed_place
from repro.place.placement import Placement
from repro.power.analysis import power_report
from repro.timing import TimingAnalyzer, WireModel


@dataclass
class PnrResult:
    """QoR of one implementation flow."""

    placement: Placement
    style: str
    instances: int
    area_um2: float
    hpwl_um: float
    buffers: int
    delay_ps: float
    power_uw: float

    def summary(self) -> str:
        """One-line QoR string."""
        return (
            f"{self.style}: {self.instances} cells, "
            f"{self.area_um2:.0f} um2, HPWL {self.hpwl_um:.0f} um, "
            f"{self.buffers} buffers, {self.delay_ps:.0f} ps, "
            f"{self.power_uw:.1f} uW"
        )


def _qor(placement: Placement, style: str, freq_ghz: float) -> PnrResult:
    nl = placement.netlist
    node = nl.library.node
    lengths = placement.net_lengths()
    wm = WireModel.for_node(node, lengths)
    report = TimingAnalyzer(nl, wm).analyze()
    buffers = sum(
        1 for g in nl.gates.values() if g.cell.name.startswith("BUF"))
    power = power_report(nl, freq_ghz=freq_ghz, patterns=64)
    return PnrResult(
        placement=placement,
        style=style,
        instances=nl.num_instances(),
        area_um2=nl.area_um2(),
        hpwl_um=placement.total_hpwl(),
        buffers=buffers,
        delay_ps=report.critical_delay_ps,
        power_uw=power.total_uw,
    )


def place_flat(design: Design, *, utilization: float = 0.7,
               freq_ghz: float = 0.5, seed: int = 0,
               detailed_passes: int = 1) -> PnrResult:
    """Flatten and implement as a single netlist."""
    nl = flatten(design)
    placement = analytic_place(nl, utilization=utilization, seed=seed,
                               detailed_passes=0)
    detailed_place(placement, passes=detailed_passes, seed=seed)
    return _qor(placement, "flat", freq_ghz)


def place_hierarchical(design: Design, *, utilization: float = 0.7,
                       freq_ghz: float = 0.5, seed: int = 0,
                       detailed_passes: int = 1) -> PnrResult:
    """Block-by-block implementation with boundary buffers.

    The assembled netlist (with isolation buffers) is placed with each
    block's cells biased to a private region, mirroring how hierarchical
    flows lose the cross-block optimization freedom.
    """
    nl = implement_by_block(design)
    placement = analytic_place(nl, utilization=utilization, seed=seed,
                               detailed_passes=0)
    # Partition the die into block regions and pull each block's cells
    # toward its region center (region constraint approximation).
    blocks = sorted({g.split(".")[0] for g in nl.gates if "." in g})
    if blocks:
        cols = max(1, int(len(blocks) ** 0.5))
        for k, block in enumerate(blocks):
            cx = ((k % cols) + 0.5) / cols * placement.die_w_um
            cy = ((k // cols) + 0.5) / max(
                1, (len(blocks) + cols - 1) // cols) * placement.die_h_um
            for gname in list(placement.positions):
                if gname.startswith(block + "."):
                    x, y = placement.positions[gname]
                    placement.positions[gname] = (
                        0.4 * x + 0.6 * cx, 0.4 * y + 0.6 * cy)
        placement.legalize_to_rows()
    detailed_place(placement, passes=detailed_passes, seed=seed)
    return _qor(placement, "hierarchical", freq_ghz)


def flat_vs_hierarchical(design: Design, **kwargs) -> dict:
    """Run both flows; returns {"flat": ..., "hierarchical": ...}."""
    return {
        "flat": place_flat(design, **kwargs),
        "hierarchical": place_hierarchical(design, **kwargs),
    }
