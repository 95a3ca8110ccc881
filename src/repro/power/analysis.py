"""Switching-activity propagation and power estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.bitsim import BitSimulator, pack, toggle_counts
from repro.netlist.cells import switch_energy_fj
from repro.netlist.circuit import Netlist, left_sum


class ActivityEstimator:
    """Estimate per-net switching activity by random simulation.

    ``activity`` of a net is the expected number of transitions per
    clock cycle (toggle rate).  Simulation-based (Monte Carlo over
    random input vectors), which correctly captures reconvergent
    fanout that the analytic propagation rules miss.
    """

    def __init__(self, netlist: Netlist, *, input_activity: float = 0.5,
                 patterns: int = 256, seed: int = 0):
        if not 0 <= input_activity <= 1:
            raise ValueError("input_activity must be in [0, 1]")
        if patterns < 1:
            raise ValueError("patterns must be at least 1")
        self.netlist = netlist
        self.input_activity = input_activity
        self.patterns = patterns
        self.seed = seed

    def estimate(self) -> dict:
        """Returns net -> toggle rate in [0, 1] for every primary
        input, flop output and combinational gate output."""
        sim = BitSimulator(self.netlist)
        rng = np.random.default_rng(self.seed)
        n_pi = sim.primary_inputs.size
        # Two consecutive vectors per pattern pair; a net toggles when
        # its value differs between them.
        base = rng.random((self.patterns, n_pi)) < 0.5
        flip = rng.random((self.patterns, n_pi)) < self.input_activity
        after = base ^ flip
        state = rng.random((self.patterns, sim.flop_q.size)) < 0.5

        first = sim.run(*sim.pack_inputs(base, state))
        # Sequential designs: the second vector sees the next state.
        second = sim.run(pack(after), sim.next_state_rows(first))

        rows = np.concatenate((sim.primary_inputs, sim.flop_q,
                               sim.comb_out))
        counts = toggle_counts(first[rows], second[rows], self.patterns)
        names = sim.net_names
        return dict(zip([names[i] for i in rows.tolist()],
                        (counts / self.patterns).tolist()))


@dataclass
class PowerReport:
    """Breakdown of a netlist's power at a given clock."""

    dynamic_uw: float
    leakage_uw: float
    clock_uw: float
    freq_ghz: float
    vdd: float

    @property
    def total_uw(self) -> float:
        """Total power in microwatts."""
        return self.dynamic_uw + self.leakage_uw + self.clock_uw

    @property
    def static_fraction(self) -> float:
        """Leakage share of total power — the E5 crossover metric."""
        total = self.total_uw
        return self.leakage_uw / total if total > 0 else 0.0

    def summary(self) -> str:
        """One-line report."""
        return (
            f"{self.total_uw:.1f} uW @ {self.freq_ghz:.2f} GHz "
            f"(dyn {self.dynamic_uw:.1f}, leak {self.leakage_uw:.1f}, "
            f"clk {self.clock_uw:.1f})"
        )


def power_report(netlist: Netlist, *, freq_ghz: float = 1.0,
                 activities: dict | None = None,
                 input_activity: float = 0.5,
                 vdd: float | None = None,
                 clock_gated_fraction: float = 0.0,
                 patterns: int = 256, seed: int = 0) -> PowerReport:
    """Estimate total power of a mapped netlist.

    Dynamic power sums ``alpha * C * Vdd^2 * f`` per net (driver energy
    plus loads); leakage sums cell leakage scaled to the supply; clock
    power charges every flop's clock pin each cycle, reduced by
    ``clock_gated_fraction`` (the fraction of flops behind clock
    gates).
    """
    node = netlist.library.node
    if vdd is None:
        vdd = node.vdd
    if activities is None:
        activities = ActivityEstimator(
            netlist, input_activity=input_activity,
            patterns=patterns, seed=seed).estimate()
    vdd_scale = (vdd / node.vdd) ** 2

    # Per-gate load: input caps summed per net in packed pin order (the
    # fanout map's order), and a left-to-right total in gate order, so
    # the sums do not depend on numpy's pairwise summation.
    packed = netlist.to_packed()
    gates = list(netlist.gates.values())
    caps = np.array([g.cell.input_cap_ff for g in gates])
    n_in = np.array([g.cell.num_inputs for g in gates])
    alpha = np.array([activities.get(g.output, 0.0) for g in gates])
    pin_gate = np.repeat(np.arange(len(gates)),
                         np.diff(packed.pin_off.astype(np.int64)))
    pin_cap = np.bincount(packed.pin_net, weights=caps[pin_gate],
                          minlength=packed.num_nets)
    load_ff = pin_cap[packed.gate_output]
    energy = switch_energy_fj(caps, n_in, node.vdd, load_ff) * vdd_scale
    dyn_fj_per_cycle = (float(np.cumsum(alpha * energy)[-1])
                        if gates else 0.0)

    # fJ/cycle * GHz = uW  (1e-15 J * 1e9 /s = 1e-6 W).
    dynamic_uw = dyn_fj_per_cycle * freq_ghz

    # Leakage scales ~linearly with Vdd around nominal (DIBL ignored).
    leakage_uw = netlist.leakage_nw() * (vdd / node.vdd) * 1e-3

    flops = netlist.sequential_gates()
    clk_cap_ff = left_sum(2.0 * f.cell.input_cap_ff for f in flops)
    active = 1.0 - clock_gated_fraction
    clock_uw = clk_cap_ff * node.vdd ** 2 * vdd_scale * freq_ghz * active

    return PowerReport(dynamic_uw, leakage_uw, clock_uw, freq_ghz, vdd)
