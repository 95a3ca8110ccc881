"""Stuck-at faults and bit-parallel fault simulation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.bitsim import BitSimulator, unpack, word_mask
from repro.netlist.circuit import Netlist


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a net."""

    net: str
    stuck_at: int          # 0 or 1

    def __post_init__(self) -> None:
        if self.stuck_at not in (0, 1):
            raise ValueError("stuck_at must be 0 or 1")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.net}/sa{self.stuck_at}"


def enumerate_faults(netlist: Netlist) -> list:
    """Collapsed stuck-at fault list: both polarities on every net.

    (Output-equivalence collapsing only: faults live on driven nets,
    covering the classic gate-output model plus primary inputs.)
    """
    out = []
    for net in netlist.nets():
        out.append(Fault(net, 0))
        out.append(Fault(net, 1))
    return out


def _observed(sim: BitSimulator) -> np.ndarray:
    """Rows of the full-observability response: POs, then flop D pins."""
    return np.concatenate((sim.primary_outputs, sim.flop_d()))


def _simulate_with_fault(netlist: Netlist, vec: np.ndarray,
                         state: np.ndarray, fault: Fault | None):
    """Full-observability simulation; returns PO + flop-D response."""
    sim = BitSimulator(netlist)
    pi, q = sim.pack_inputs(vec, state)
    stuck = None if fault is None else (fault.net, fault.stuck_at)
    values = sim.run(pi, q, stuck)
    return unpack(values[_observed(sim)], len(vec))


def fault_simulate(netlist: Netlist, patterns: np.ndarray,
                   faults: list | None = None,
                   state: np.ndarray | None = None) -> dict:
    """Which faults the pattern set detects.

    A fault is detected when any pattern produces a response differing
    from the good machine at any observable point (POs plus flop D
    pins — full scan observability).  Returns fault -> bool.
    """
    patterns = np.asarray(patterns, dtype=bool)
    if patterns.ndim != 2 or \
            patterns.shape[1] != len(netlist.primary_inputs):
        raise ValueError("patterns must be (n, num_PI)")
    if faults is None:
        faults = enumerate_faults(netlist)
    sim = BitSimulator(netlist)
    pi, q = sim.pack_inputs(patterns, state)
    observed = _observed(sim)
    mask = word_mask(patterns.shape[0])
    good = sim.run(pi, q)[observed]
    detected = {}
    for fault in faults:
        bad = sim.run(pi, q, (fault.net, fault.stuck_at))[observed]
        detected[fault] = bool(((good ^ bad) & mask).any())
    return detected


def fault_coverage(detected: dict) -> float:
    """Fraction of simulated faults detected."""
    if not detected:
        return 0.0
    return sum(detected.values()) / len(detected)
