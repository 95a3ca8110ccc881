"""Bit-parallel simulator: oracle, pins and operation counts.

``repro.netlist.bitsim`` replaced four per-gate Python evaluation
loops (``Netlist.simulate``, ``Netlist.next_state``, stuck-at fault
simulation and switching activity).  This module keeps verbatim copies
of those loops as the reference and checks the simulator against them
on random registered clouds, with and without scan, at pattern counts
on both sides of the 64-bit word boundary.  It also pins toggle counts
and dynamic power recorded with the per-gate loops, and counts
simulator runs and group evaluations instead of timing them.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.dft import enumerate_faults, fault_simulate, insert_scan
from repro.dft.faults import Fault, _simulate_with_fault
from repro.netlist import Netlist, build_library, registered_cloud
from repro.netlist.bitsim import BitSimulator
from repro.power import ActivityEstimator, power_report
from repro.tech import get_node

bitsim_mod = importlib.import_module("repro.netlist.bitsim")

PATTERNS = (1, 63, 64, 100, 256)
DESIGNS = [(seed, scan) for seed in range(4) for scan in (False, True)]


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"))


def _design(lib, seed, scan):
    nl = registered_cloud(3 + seed, 2 + 2 * seed, 60 + 30 * seed, lib,
                          seed=seed)
    if scan:
        insert_scan(nl)
    return nl


def _stimulus(nl, patterns, seed):
    rng = np.random.default_rng(seed)
    vec = rng.random((patterns, len(nl.primary_inputs))) < 0.5
    state = rng.random((patterns, len(nl.sequential_gates()))) < 0.5
    return vec, state


# ----------------------------------------------------------------------
# The per-gate loops as they were before the simulator, verbatim
# ----------------------------------------------------------------------

def _eval_cell(cell, inputs: list, npat: int) -> np.ndarray:
    """Evaluate a combinational cell on bit-parallel input columns."""
    if cell.function is None:
        raise ValueError(f"cannot evaluate sequential cell {cell.name}")
    tt = cell.function
    # Build the minterm index per pattern, then look it up in the table.
    idx = np.zeros(npat, dtype=np.int64)
    for bit, col in enumerate(inputs):
        idx |= col.astype(np.int64) << bit
    table = np.array(
        [bool(tt.bits >> m & 1) for m in range(1 << tt.nvars)], dtype=bool)
    result = table[idx]
    return result


def ref_simulate(self, input_vectors: np.ndarray,
                 state: np.ndarray | None = None) -> np.ndarray:
    """``Netlist.simulate``."""
    vec = np.asarray(input_vectors, dtype=bool)
    if vec.ndim != 2 or vec.shape[1] != len(self.primary_inputs):
        raise ValueError("bad input vector shape")
    npat = vec.shape[0]
    values: dict[str, np.ndarray] = {}
    for i, net in enumerate(self.primary_inputs):
        values[net] = vec[:, i]
    flops = self.sequential_gates()
    if state is None:
        state = np.zeros((npat, len(flops)), dtype=bool)
    for q, g in zip(np.asarray(state, dtype=bool).T, flops):
        values[g.output] = q
    for g in self.topological_gates():
        ins = [values[g.pins[p]] for p in g.cell.inputs]
        values[g.output] = _eval_cell(g.cell, ins, npat)
    out = np.empty((npat, len(self.primary_outputs)), dtype=bool)
    for k, po in enumerate(self.primary_outputs):
        out[:, k] = values[po]
    return out


def ref_next_state(self, input_vectors: np.ndarray,
                   state: np.ndarray) -> np.ndarray:
    """``Netlist.next_state``."""
    vec = np.asarray(input_vectors, dtype=bool)
    npat = vec.shape[0]
    values: dict[str, np.ndarray] = {}
    for i, net in enumerate(self.primary_inputs):
        values[net] = vec[:, i]
    flops = self.sequential_gates()
    for q, g in zip(np.asarray(state, dtype=bool).T, flops):
        values[g.output] = q
    for g in self.topological_gates():
        ins = [values[g.pins[p]] for p in g.cell.inputs]
        values[g.output] = _eval_cell(g.cell, ins, npat)
    nxt = np.empty((npat, len(flops)), dtype=bool)
    for k, g in enumerate(flops):
        d = values[g.pins["D"]]
        if g.cell.is_scan:
            se = values[g.pins["SE"]]
            si = values[g.pins["SI"]]
            d = np.where(se, si, d)
        nxt[:, k] = d
    return nxt


def ref_simulate_with_fault(netlist, vec: np.ndarray,
                            state: np.ndarray, fault):
    """``dft.faults._simulate_with_fault``."""
    npat = vec.shape[0]
    values: dict[str, np.ndarray] = {}
    forced = fault.net if fault is not None else None

    def assign(net: str, col: np.ndarray) -> None:
        if net == forced:
            col = np.full(npat, bool(fault.stuck_at))
        values[net] = col

    for i, net in enumerate(netlist.primary_inputs):
        assign(net, vec[:, i])
    flops = netlist.sequential_gates()
    for q, g in zip(state.T, flops):
        assign(g.output, q)
    for g in netlist.topological_gates():
        ins = [values[g.pins[p]] for p in g.cell.inputs]
        assign(g.output, _eval_cell(g.cell, ins, npat))
    cols = [values[po] for po in netlist.primary_outputs]
    cols += [values[g.pins["D"]] for g in flops]
    if not cols:
        return np.zeros((npat, 0), dtype=bool)
    return np.column_stack(cols)


def ref_fault_simulate(netlist, patterns, faults, state) -> dict:
    """``dft.faults.fault_simulate`` (explicit fault list and state)."""
    good = ref_simulate_with_fault(netlist, patterns, state, None)
    detected = {}
    for fault in faults:
        bad = ref_simulate_with_fault(netlist, patterns, state, fault)
        detected[fault] = bool((good ^ bad).any())
    return detected


class RefActivityEstimator(ActivityEstimator):
    """``ActivityEstimator.estimate`` and ``_evaluate``, three full
    per-gate passes per estimate."""

    def estimate(self) -> dict:
        """Returns net -> toggle rate in [0, 1]."""
        nl = self.netlist
        rng = np.random.default_rng(self.seed)
        n_pi = len(nl.primary_inputs)
        flops = nl.sequential_gates()
        # Two consecutive vectors per pattern pair; a net toggles when
        # its value differs between them.
        base = rng.random((self.patterns, n_pi)) < 0.5
        flip = rng.random((self.patterns, n_pi)) < self.input_activity
        after = base ^ flip
        state = rng.random((self.patterns, len(flops))) < 0.5

        values_before = self._evaluate(base, state)
        # Sequential designs: next state from the first vector.
        if flops:
            nxt = ref_next_state(nl, base, state)
        else:
            nxt = state
        values_after = self._evaluate(after, nxt)

        rates = {}
        for net in values_before:
            toggles = np.mean(values_before[net] ^ values_after[net])
            rates[net] = float(toggles)
        return rates

    def _evaluate(self, vec: np.ndarray, state: np.ndarray) -> dict:
        nl = self.netlist
        values: dict[str, np.ndarray] = {}
        for i, net in enumerate(nl.primary_inputs):
            values[net] = vec[:, i]
        for q, g in zip(state.T, nl.sequential_gates()):
            values[g.output] = q
        for g in nl.topological_gates():
            ins = [values[g.pins[p]] for p in g.cell.inputs]
            values[g.output] = _eval_cell(g.cell, ins, vec.shape[0])
        return values


# ----------------------------------------------------------------------
# Oracle comparisons
# ----------------------------------------------------------------------

class TestAgainstPerGateLoops:
    @pytest.mark.parametrize("seed,scan", DESIGNS)
    def test_simulate_and_next_state(self, lib, seed, scan):
        nl = _design(lib, seed, scan)
        for patterns in PATTERNS:
            vec, state = _stimulus(nl, patterns, seed)
            got = nl.simulate(vec, state)
            assert got.dtype == bool
            assert np.array_equal(got, ref_simulate(nl, vec, state))
            assert np.array_equal(nl.simulate(vec), ref_simulate(nl, vec))
            assert np.array_equal(nl.next_state(vec, state),
                                  ref_next_state(nl, vec, state))

    def test_every_library_function(self, lib):
        # registered_cloud draws six cell types; this covers the rest,
        # tie cells included, on all eight input combinations.
        nl = Netlist("cells", lib)
        pins = [nl.add_input(p) for p in "abc"]
        for cell in lib.combinational():
            if cell.name.endswith("_X1_rvt") or not cell.inputs:
                gate = nl.add_gate(cell, pins[:cell.num_inputs])
                nl.add_output(gate.output)
        vec = np.array([[m >> i & 1 for i in range(3)] for m in range(8)],
                       dtype=bool)
        assert np.array_equal(nl.simulate(vec), ref_simulate(nl, vec))

    @pytest.mark.parametrize("seed,scan", DESIGNS)
    def test_toggle_rates(self, lib, seed, scan):
        nl = _design(lib, seed, scan)
        for patterns in PATTERNS:
            for activity in (0.5, 0.15):
                kw = dict(input_activity=activity, patterns=patterns,
                          seed=seed)
                got = ActivityEstimator(nl, **kw).estimate()
                want = RefActivityEstimator(nl, **kw).estimate()
                assert got == want

    @pytest.mark.parametrize("scan", (False, True))
    def test_fault_simulation(self, lib, scan):
        nl = _design(lib, 1, scan)
        faults = enumerate_faults(nl)
        for patterns in PATTERNS:
            vec, state = _stimulus(nl, patterns, 9)
            assert fault_simulate(nl, vec, faults, state) == \
                ref_fault_simulate(nl, vec, faults, state)
        for fault in (None, Fault(nl.primary_inputs[0], 1),
                      Fault(nl.sequential_gates()[0].output, 0),
                      Fault(nl.primary_outputs[0], 1)):
            assert np.array_equal(
                _simulate_with_fault(nl, vec, state, fault),
                ref_simulate_with_fault(nl, vec, state, fault))


# ----------------------------------------------------------------------
# Pins recorded with the per-gate loops
# ----------------------------------------------------------------------

#: Toggles per net out of 100 patterns, ``ActivityEstimator(patterns=100,
#: seed=5)`` on the scanned ``registered_cloud(4, 6, 24, seed=3)``.
PINNED_TOGGLES = {
    "i0": 54, "i1": 51, "i2": 44, "i3": 53, "scan_en": 51,
    "scan_in0": 51, "q0": 50, "q1": 48, "q2": 50, "q3": 57, "q4": 47,
    "q5": 51, "n44": 57, "n38": 48, "n32": 35, "n24": 41, "n28": 50,
    "n34": 33, "n30": 44, "n18": 0, "n14": 54, "n10": 45, "n8": 35,
    "n40": 48, "n6": 37, "n4": 38, "n20": 49, "n46": 24, "n2": 38,
    "n12": 0, "n42": 0, "n48": 0, "n36": 50, "n26": 45, "n22": 49,
    "n16": 0,
}


class TestPinnedValues:
    @pytest.fixture()
    def scanned(self, lib):
        nl = registered_cloud(4, 6, 24, lib, seed=3)
        insert_scan(nl)
        return nl

    def test_toggle_counts(self, scanned):
        rates = ActivityEstimator(scanned, patterns=100, seed=5).estimate()
        assert rates == {n: c / 100 for n, c in PINNED_TOGGLES.items()}

    def test_dynamic_power(self, scanned):
        rep = power_report(scanned, patterns=100, seed=5, freq_ghz=0.5)
        assert rep.dynamic_uw == 0.9025136640000002


# ----------------------------------------------------------------------
# Operation counts
# ----------------------------------------------------------------------

class TestOpCounts:
    def test_power_report_simulates_twice(self, lib, monkeypatch):
        runs = []
        real = BitSimulator.run

        def counting(self, *args, **kwargs):
            runs.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(BitSimulator, "run", counting)
        power_report(_design(lib, 2, True), patterns=64)
        assert len(runs) == 2

    def test_one_evaluation_per_level_and_function(self, lib, monkeypatch):
        calls = []
        real = bitsim_mod._eval_group

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(bitsim_mod, "_eval_group", counting)
        per_run = {}
        for gates in (2000, 8000):
            nl = registered_cloud(48, 64, gates, lib, seed=0)
            level, _ = nl.to_packed().comb_levels()
            pairs = {(int(lv), g.cell.function)
                     for lv, g in zip(level, nl.gates.values())
                     if not g.cell.is_sequential}
            sim = BitSimulator(nl)
            pi, q = sim.pack_inputs(*_stimulus(nl, 64, 0))
            calls.clear()
            sim.run(pi, q)
            assert len(calls) == len(pairs)
            per_run[gates] = len(calls)
        # Four times the gates, not four times the evaluations.
        assert per_run[8000] < 2 * per_run[2000] < 2000 // 10
