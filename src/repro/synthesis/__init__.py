"""Logic synthesis: two-level, multi-level, AIG, and technology mapping.

Macii's position statement traces EDA's first wave to "algorithms and
tools for logic optimization (e.g., Espresso, Mini, MIS, SIS)".  This
package implements that lineage:

* :mod:`repro.synthesis.espresso` — two-level minimization with the
  classic EXPAND / IRREDUNDANT / REDUCE loop.
* :mod:`repro.synthesis.division` — algebraic division and kernel
  extraction (the MIS/SIS multi-level engine).
* :mod:`repro.synthesis.network` — multi-level Boolean networks and the
  optimization script (sweep, eliminate, extract, simplify).
* :mod:`repro.synthesis.rewrite` — AIG balancing, refactoring, and
  cut-based rewriting (the 2010s generation of optimizers).
* :mod:`repro.synthesis.mapping` — cut-based technology mapping onto a
  :class:`~repro.netlist.CellLibrary` for minimum area.
* :mod:`repro.synthesis.sizing` — post-mapping gate sizing and multi-Vt
  assignment.
* :mod:`repro.synthesis.flow` — era-calibrated synthesis flows ("2006"
  vs "2016") used by the E1 decade-of-improvement experiment.
"""

from repro.synthesis.espresso import espresso, espresso_tt
from repro.synthesis.division import (
    Sop,
    algebraic_divide,
    factor_literal_count,
    kernels,
    sop_from_cover,
    sop_literal_count,
    sop_to_cover,
)
from repro.synthesis.bdd import BddManager, check_equivalence
from repro.synthesis.mig import Mig, aig_adder, mig_adder, mig_from_aig
from repro.synthesis.network import LogicNetwork, LogicNode
from repro.synthesis.retiming import (
    RetimingGraph,
    retiming_graph_from_netlist,
)
from repro.synthesis.sat import Cnf, SatSolver, sat_check_equivalence
from repro.synthesis.rewrite import balance, refactor, rewrite
from repro.synthesis.mapping import map_aig, trivial_map
from repro.synthesis.sizing import assign_vt, size_gates
from repro.synthesis.flow import SynthesisFlow, SynthesisResult

__all__ = [
    "espresso",
    "espresso_tt",
    "Sop",
    "algebraic_divide",
    "kernels",
    "sop_from_cover",
    "sop_to_cover",
    "sop_literal_count",
    "factor_literal_count",
    "LogicNetwork",
    "LogicNode",
    "Mig",
    "mig_from_aig",
    "mig_adder",
    "aig_adder",
    "BddManager",
    "check_equivalence",
    "Cnf",
    "SatSolver",
    "sat_check_equivalence",
    "RetimingGraph",
    "retiming_graph_from_netlist",
    "balance",
    "refactor",
    "rewrite",
    "map_aig",
    "trivial_map",
    "size_gates",
    "assign_vt",
    "SynthesisFlow",
    "SynthesisResult",
]
