"""Era-calibrated synthesis flows.

Experiment E1 (Domic): "in the last ten years, we have improved advanced
RTL synthesis results by 30% in terms of area — incidentally, we have
also improved performance, and power by approximately the same amount."

The 2006-era flow is the first EDA generation: two-level cleanup and a
straightforward structural mapping at a single drive strength.  The
2016-era flow stacks a decade of additions: multi-level kernel
extraction, AIG rewriting/refactoring/balancing, cut-based mapping with
the full drive ladder, sizing, and multi-Vt leakage recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.netlist.aig import Aig
from repro.netlist.cells import CellLibrary
from repro.netlist.circuit import Netlist
from repro.synthesis.network import LogicNetwork
from repro.synthesis.rewrite import balance, optimize_aig
from repro.synthesis.sizing import assign_vt
from repro.timing import TimingAnalyzer, WireModel

#: Flow recipes, oldest first.  Each maps to concrete pass settings.
ERAS = ("1996", "2006", "2016")


@dataclass
class SynthesisResult:
    """QoR of one synthesis run."""

    netlist: Netlist
    era: str
    area_um2: float
    delay_ps: float
    leakage_nw: float
    instances: int

    def summary(self) -> str:
        """One-line QoR string."""
        return (
            f"era {self.era}: {self.instances} cells, "
            f"{self.area_um2:.1f} um2, {self.delay_ps:.1f} ps, "
            f"{self.leakage_nw:.1f} nW leak"
        )


class SynthesisFlow:
    """A configurable RTL-to-gates flow.

    Parameters
    ----------
    library:
        Target cell library (should include lvt/rvt/hvt for era 2016).
    era:
        "1996" (2-cut mapping of swept logic, single drive), "2006"
        (two-level + algebraic multi-level, 3-cut mapping, single
        drive), or "2016" (full AIG optimization, 4-cut mapping over
        the whole library, sizing, multi-Vt).  Every era maps for
        minimum area with :func:`~repro.synthesis.mapping.map_aig`.
    clock_period_ps:
        Timing target used by sizing and Vt recovery.
    """

    def __init__(self, library: CellLibrary, era: str = "2016",
                 clock_period_ps: float = 1000.0) -> None:
        if era not in ERAS:
            raise ValueError(f"era must be one of {ERAS}")
        self.library = library
        self.era = era
        self.clock_period_ps = clock_period_ps
        node = library.node
        self.wire_model = WireModel.for_node(node)

    # ------------------------------------------------------------------

    def run(self, subject: "Aig | LogicNetwork") -> SynthesisResult:
        """Synthesize an AIG or logic network to a mapped netlist."""
        # Looked up per call so that wrappers installed on the module
        # attributes (benchmarks/flow/tracing.py) see these kernels.
        from repro.synthesis.mapping import map_aig
        from repro.synthesis.sizing import size_gates
        if isinstance(subject, LogicNetwork):
            network = subject
        elif isinstance(subject, Aig):
            network = LogicNetwork.from_aig(subject)
        else:
            raise TypeError("subject must be an Aig or LogicNetwork")

        if self.era == "1996":
            network.sweep()
            aig = network.to_aig()
            netlist = map_aig(
                aig, self.library, cut_size=2,
                cell_filter=_only("X1", ("rvt",)))
        elif self.era == "2006":
            network.optimize(effort="medium")
            aig = balance(network.to_aig())
            netlist = map_aig(
                aig, self.library, cut_size=3,
                cell_filter=_only("X1", ("rvt",)))
        else:  # 2016
            network.optimize(effort="high")
            aig = optimize_aig(network.to_aig())
            # Area-optimal mapping: the decade's gains land on area,
            # delay, and power *simultaneously* (Domic), with sizing
            # recovering speed where the clock demands it.
            netlist = map_aig(aig, self.library, cut_size=4)
            size_gates(netlist, wire_model=self.wire_model,
                       clock_period_ps=self.clock_period_ps)
            if any(c.vt_flavor == "hvt" for c in self.library):
                assign_vt(netlist, wire_model=self.wire_model,
                          clock_period_ps=self.clock_period_ps)
        return self._qor(netlist)

    def _qor(self, netlist: Netlist) -> SynthesisResult:
        report = TimingAnalyzer(
            netlist, self.wire_model, self.clock_period_ps).analyze()
        return SynthesisResult(
            netlist=netlist,
            era=self.era,
            area_um2=netlist.area_um2(),
            delay_ps=report.critical_delay_ps,
            leakage_nw=netlist.leakage_nw(),
            instances=netlist.num_instances(),
        )


def _only(drive: str, vts: tuple[str, ...]) -> Callable[[Any], bool]:
    """Cell filter: restrict to one drive strength and given Vt set."""
    def accept(cell: Any) -> bool:
        return f"_{drive}_" in cell.name and cell.vt_flavor in vts
    return accept


def decade_comparison(
    subject_factory: Callable[[], Aig | LogicNetwork],
    library: CellLibrary,
    clock_period_ps: float = 1000.0,
) -> dict[str, SynthesisResult]:
    """Run the same design through every era flow.

    ``subject_factory`` must return a *fresh* AIG or LogicNetwork per
    call (flows mutate their input).  Returns era -> SynthesisResult.
    """
    results: dict[str, SynthesisResult] = {}
    for era in ERAS:
        flow = SynthesisFlow(library, era, clock_period_ps)
        results[era] = flow.run(subject_factory())
    return results
