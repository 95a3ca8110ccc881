#!/usr/bin/env python3
"""The verification side of the panel: "correctly implemented and
consistently verified throughout the design flow" (Domic).

Four checks on one design:

* formal equivalence (BDD and SAT engines agree) between the optimized
  mapped netlist and a reference implementation;
* injected-bug detection with a concrete counterexample;
* multi-corner signoff across process and temperature;
* logic BIST coverage and golden signature.

Run:  python examples/verification_flow.py
"""

import numpy as np

from repro.core.signoff import signoff, signoff_frequency_ghz
from repro.dft.bist import run_bist
from repro.netlist import build_library, random_aig
from repro.synthesis import map_aig, trivial_map
from repro.synthesis.bdd import check_equivalence
from repro.synthesis.rewrite import optimize_aig
from repro.synthesis.sat import sat_check_equivalence
from repro.tech import get_node


def main() -> None:
    library = build_library(get_node("28nm"),
                            vt_flavors=("lvt", "rvt", "hvt"))
    aig = random_aig(10, 250, 8, seed=42)

    # ------------------------------------------------------------------
    # 1. Formal equivalence after aggressive optimization.
    # ------------------------------------------------------------------
    reference = trivial_map(aig, library)
    optimized = map_aig(optimize_aig(aig.copy()), library)
    bdd = check_equivalence(optimized, reference)
    sat = sat_check_equivalence(optimized, reference)
    print("Formal equivalence (optimized vs reference):")
    print(f"  BDD engine: {'EQUIVALENT' if bdd['equivalent'] else 'DIFF'}")
    print(f"  SAT engine: {'EQUIVALENT' if sat['equivalent'] else 'DIFF'}")
    print(f"  cells {reference.num_instances()} -> "
          f"{optimized.num_instances()} through the optimizer")

    # ------------------------------------------------------------------
    # 2. Bug injection: both engines must find a counterexample.
    # ------------------------------------------------------------------
    buggy = trivial_map(aig, library)
    for gate in buggy.combinational_gates():
        if gate.cell.name.startswith("AND2"):
            gate.cell = library["NAND2_X1_rvt"]
            break
    verdict = check_equivalence(optimized, buggy)
    cex = verdict["counterexample"]
    print("\nInjected bug (one AND2 -> NAND2):")
    print(f"  equivalence verdict: "
          f"{'EQUIVALENT (!!)' if verdict['equivalent'] else 'caught'}")
    vec = np.array([[cex.get(p, False)
                     for p in optimized.primary_inputs]], dtype=bool)
    diff = optimized.simulate(vec) != buggy.simulate(vec)
    print(f"  counterexample distinguishes designs: {bool(diff.any())}")

    # ------------------------------------------------------------------
    # 3. Multi-corner signoff.
    # ------------------------------------------------------------------
    fmax = signoff_frequency_ghz(optimized)
    report = signoff(optimized, clock_period_ps=1000.0 / fmax * 1.05)
    print(f"\nSignoff at {fmax * 0.95:.2f} GHz "
          f"(5% guardband under corner fmax {fmax:.2f} GHz):")
    for row in report.to_rows():
        print("  " + row)
    print(f"  overall: {'CLEAN' if report.clean else 'VIOLATED'}")

    # ------------------------------------------------------------------
    # 4. Logic BIST.
    # ------------------------------------------------------------------
    bist = run_bist(optimized, patterns=128)
    print(f"\nLogic BIST (128 on-chip patterns):")
    print(f"  stuck-at coverage: {bist.coverage * 100:.1f}% "
          f"({bist.detected}/{bist.total_faults})")
    print(f"  golden signature: 0x{bist.golden_signature:06x} "
          f"({bist.signature_width}-bit MISR, aliasing "
          f"{2.0 ** -bist.signature_width:.1e})")


if __name__ == "__main__":
    main()
