"""Tests for cell libraries, netlists, generators, and hierarchy."""

import dataclasses
import math

import numpy as np
import pytest

from repro.netlist import (
    Netlist,
    build_library,
    carry_lookahead_adder,
    crossbar_switch,
    flatten,
    hierarchical_soc,
    implement_by_block,
    lfsr,
    logic_cloud,
    multiplier,
    registered_cloud,
    ripple_carry_adder,
)
from repro.netlist.circuit import left_sum
from repro.tech import get_node


@pytest.fixture(scope="module")
def lib28():
    return build_library(get_node("28nm"), vt_flavors=("lvt", "rvt", "hvt"))


@pytest.fixture(scope="module")
def lib180():
    return build_library(get_node("180nm"))


class TestCellLibrary:
    def test_drive_variants_scale_cap_and_resistance(self, lib28):
        x1 = lib28["NAND2_X1_rvt"]
        x4 = lib28["NAND2_X4_rvt"]
        assert x4.input_cap_ff == pytest.approx(4 * x1.input_cap_ff)
        assert x4.drive_res_kohm < x1.drive_res_kohm
        assert x4.area_um2 > x1.area_um2

    def test_vt_flavors_trade_speed_for_leakage(self, lib28):
        lvt = lib28["INV_X1_lvt"]
        rvt = lib28["INV_X1_rvt"]
        hvt = lib28["INV_X1_hvt"]
        assert lvt.leak_nw > rvt.leak_nw > hvt.leak_nw
        assert lvt.drive_res_kohm < rvt.drive_res_kohm < hvt.drive_res_kohm

    def test_delay_model_monotone_in_load(self, lib28):
        c = lib28["NAND2_X1_rvt"]
        assert c.delay_ps(10) > c.delay_ps(1) > 0
        with pytest.raises(ValueError):
            c.delay_ps(-1)

    def test_cell_functions_correct(self, lib28):
        nand = lib28["NAND2_X1_rvt"].function
        assert nand.minterms() == [0, 1, 2]
        aoi = lib28["AOI21_X1_rvt"].function
        # Y = !((A&B) | C): true minterms are c=0 and not(a&b).
        assert aoi.minterms() == [0, 1, 2]
        mux = lib28["MUX2_X1_rvt"].function
        assert mux.minterms() == [1, 3, 6, 7]

    def test_sequential_cells(self, lib28):
        dff = lib28.flop()
        sdff = lib28.flop(scan=True)
        assert dff.is_sequential and not dff.is_scan
        assert sdff.is_scan
        assert sdff.area_um2 > dff.area_um2
        assert set(sdff.inputs) == {"D", "SI", "SE"}

    def test_scaling_across_nodes(self, lib28, lib180):
        a28 = lib28["NAND2_X1_rvt"].area_um2
        a180 = lib180["NAND2_X1_rvt"].area_um2
        assert a180 / a28 > 10  # cells shrink dramatically

    def test_cheapest_and_variants(self, lib28):
        vs = lib28.variants("INV")
        assert len(vs) == 9  # 3 drives x 3 vts
        cheapest = lib28.cheapest("INV")
        assert all(cheapest.area_um2 <= v.area_um2 for v in vs)

    def test_unknown_cell_raises(self, lib28):
        with pytest.raises(KeyError, match="28nm"):
            lib28["FOO_X1"]


class TestNetlistStructure:
    def test_duplicate_driver_rejected(self, lib28):
        nl = Netlist("t", lib28)
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.add_gate("AND2_X1_rvt", [a, b], "y")
        with pytest.raises(ValueError):
            nl.add_gate("OR2_X1_rvt", [a, b], "y")
        with pytest.raises(ValueError):
            nl.add_input("a")

    def test_wrong_input_count(self, lib28):
        nl = Netlist("t", lib28)
        a = nl.add_input("a")
        with pytest.raises(ValueError):
            nl.add_gate("AND2_X1_rvt", [a])

    def test_validate_catches_undriven(self, lib28):
        nl = Netlist("t", lib28)
        a = nl.add_input("a")
        g = nl.add_gate("INV_X1_rvt", [a], "y")
        g.pins["A"] = "ghost"
        with pytest.raises(ValueError, match="ghost"):
            nl.validate()

    def test_topological_order_respects_deps(self, lib28):
        nl = Netlist("t", lib28)
        a = nl.add_input("a")
        y1 = nl.add_gate("INV_X1_rvt", [a], "y1").output
        y2 = nl.add_gate("INV_X1_rvt", [y1], "y2").output
        nl.add_gate("INV_X1_rvt", [y2], "y3")
        order = [g.output for g in nl.topological_gates()]
        assert order.index("y1") < order.index("y2") < order.index("y3")

    def test_cycle_detection(self, lib28):
        nl = Netlist("t", lib28)
        a = nl.add_input("a")
        g1 = nl.add_gate("AND2_X1_rvt", [a, a], "x")
        g2 = nl.add_gate("INV_X1_rvt", ["x"], "y")
        nl.rewire_pin(g1.name, "B", "y")
        with pytest.raises(ValueError, match="cycle"):
            nl.topological_gates()

    def test_loads_and_fanout_map(self, lib28):
        nl = Netlist("t", lib28)
        a = nl.add_input("a")
        nl.add_gate("INV_X1_rvt", [a], "y1")
        nl.add_gate("INV_X1_rvt", [a], "y2")
        assert len(nl.loads_of("a")) == 2
        assert len(nl.fanout_map()["a"]) == 2

    def test_area_and_leakage_sums(self, lib28):
        nl = Netlist("t", lib28)
        a = nl.add_input("a")
        g = nl.add_gate("INV_X1_rvt", [a], "y")
        assert nl.area_um2() == pytest.approx(g.cell.area_um2)
        assert nl.leakage_nw() == pytest.approx(g.cell.leak_nw)

    def test_remove_gate_frees_net(self, lib28):
        nl = Netlist("t", lib28)
        a = nl.add_input("a")
        g = nl.add_gate("INV_X1_rvt", [a], "y")
        nl.remove_gate(g.name)
        nl.add_gate("BUF_X1_rvt", [a], "y")  # net y is free again


class TestArithmeticGenerators:
    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_rca_adds_correctly(self, lib28, width):
        nl = ripple_carry_adder(width, lib28)
        nl.validate()
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = int(rng.integers(0, 1 << width))
            b = int(rng.integers(0, 1 << width))
            cin = int(rng.integers(0, 2))
            vec = np.array([[(a >> i) & 1 for i in range(width)]
                            + [(b >> i) & 1 for i in range(width)]
                            + [cin]], dtype=bool)
            out = nl.simulate(vec)[0]
            got = sum(int(v) << i for i, v in enumerate(out))
            assert got == a + b + cin

    @pytest.mark.parametrize("width,group", [(8, 4), (8, 2), (12, 4)])
    def test_cla_matches_rca(self, lib28, width, group):
        cla = carry_lookahead_adder(width, lib28, group=group)
        cla.validate()
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = int(rng.integers(0, 1 << width))
            b = int(rng.integers(0, 1 << width))
            vec = np.array([[(a >> i) & 1 for i in range(width)]
                            + [(b >> i) & 1 for i in range(width)]
                            + [0]], dtype=bool)
            out = cla.simulate(vec)[0]
            got = sum(int(v) << i for i, v in enumerate(out))
            assert got == a + b

    def test_multiplier_correct(self, lib28):
        nl = multiplier(4, lib28)
        nl.validate()
        for a in range(0, 16, 3):
            for b in range(0, 16, 5):
                vec = np.array([[(a >> i) & 1 for i in range(4)]
                                + [(b >> i) & 1 for i in range(4)]],
                               dtype=bool)
                out = nl.simulate(vec)[0]
                got = sum(int(v) << i for i, v in enumerate(out))
                assert got == a * b

    def test_generators_reject_degenerate(self, lib28):
        with pytest.raises(ValueError):
            ripple_carry_adder(0, lib28)
        with pytest.raises(ValueError):
            multiplier(0, lib28)
        with pytest.raises(ValueError):
            logic_cloud(1, 1, 10, lib28)


class TestLeftToRightSums:
    """QoR totals add left to right on every Python version (from 3.12
    the builtin ``sum`` compensates float rounding)."""

    TENTHS = [0.1] * 10
    LEFT_TO_RIGHT = 0.9999999999999999

    def test_left_sum_is_uncompensated(self):
        assert left_sum(self.TENTHS) == self.LEFT_TO_RIGHT
        assert math.fsum(self.TENTHS) == 1.0

    def test_area_and_leakage(self, lib28):
        tenth = dataclasses.replace(lib28["INV_X1_rvt"], name="INV_T",
                                    area_um2=0.1, leak_nw=0.1)
        nl = Netlist("tenths", lib28)
        a = nl.add_input("a")
        for _ in self.TENTHS:
            nl.add_gate(tenth, [a])
        assert nl.area_um2() == self.LEFT_TO_RIGHT
        assert nl.leakage_nw() == self.LEFT_TO_RIGHT


class TestCloudGenerators:
    def test_cloud_deterministic_given_seed(self, lib28):
        a = logic_cloud(8, 8, 100, lib28, seed=3)
        b = logic_cloud(8, 8, 100, lib28, seed=3)
        assert [g.cell.name for g in a.gates.values()] == \
               [g.cell.name for g in b.gates.values()]

    def test_cloud_different_seeds_differ(self, lib28):
        a = logic_cloud(8, 8, 100, lib28, seed=3)
        b = logic_cloud(8, 8, 100, lib28, seed=4)
        assert [g.cell.name for g in a.gates.values()] != \
               [g.cell.name for g in b.gates.values()]

    def test_cloud_size(self, lib28):
        nl = logic_cloud(16, 8, 250, lib28, seed=0)
        assert nl.num_instances() == 250
        assert len(nl.primary_outputs) == 8
        nl.validate()

    def test_registered_cloud_has_flops(self, lib28):
        nl = registered_cloud(8, 32, 200, lib28, seed=0)
        nl.validate()
        assert len(nl.sequential_gates()) == 32

    def test_registered_cloud_next_state_runs(self, lib28):
        nl = registered_cloud(4, 8, 50, lib28, seed=0)
        vec = np.zeros((3, 4), dtype=bool)
        state = np.zeros((3, 8), dtype=bool)
        nxt = nl.next_state(vec, state)
        assert nxt.shape == (3, 8)

    @pytest.mark.parametrize("vec_shape,state_shape", [
        ((3, 4), (3, 11)),   # extra state columns
        ((3, 6), (3, 8)),    # extra input columns
        ((3, 4), (3, 5)),    # missing state columns
        ((3, 4), (2, 8)),    # state for fewer patterns
        ((4,), (1, 8)),      # not a (patterns, PIs) matrix
    ])
    def test_simulation_rejects_malformed_shapes(self, lib28, vec_shape,
                                                 state_shape):
        nl = registered_cloud(4, 8, 60, lib28, seed=1)  # 4 PIs, 8 flops
        vec = np.zeros(vec_shape, dtype=bool)
        state = np.zeros(state_shape, dtype=bool)
        with pytest.raises(ValueError):
            nl.simulate(vec, state)
        with pytest.raises(ValueError):
            nl.next_state(vec, state)

    def test_crossbar_routes_data(self, lib28):
        # With all select lines 0 every output should mirror input port 0.
        nl = crossbar_switch(4, 4, lib28)
        nl.validate()
        npins = len(nl.primary_inputs)
        vec = np.zeros((2, npins), dtype=bool)
        # Set input port 0 data to 1010.
        for b, v in enumerate([1, 0, 1, 0]):
            idx = nl.primary_inputs.index(f"in0_{b}")
            vec[0, idx] = bool(v)
        out = nl.simulate(vec)
        # Outputs are grouped per port; port o bit b at position o*4+b.
        for o in range(4):
            got = [int(out[0, o * 4 + b]) for b in range(4)]
            assert got == [1, 0, 1, 0]

    def test_lfsr_cycles(self, lib28):
        nl = lfsr(4, lib28)
        nl.validate()
        state = np.array([[1, 0, 0, 0]], dtype=bool)
        seen = set()
        vec = np.zeros((1, 1), dtype=bool)
        for _ in range(20):
            seen.add(tuple(int(v) for v in state[0]))
            state = nl.next_state(vec, state)
        assert len(seen) > 4  # walks through multiple states


class TestHierarchy:
    def test_flat_equals_hier_minus_buffers(self, lib28):
        soc = hierarchical_soc(3, 60, lib28, seed=9, bus_width=8)
        flat = flatten(soc)
        hier = implement_by_block(soc)
        flat.validate()
        hier.validate()
        boundary = soc.boundary_port_count()
        assert hier.num_instances() == flat.num_instances() + boundary
        assert hier.area_um2() > flat.area_um2()

    def test_flat_and_hier_functionally_equivalent(self, lib28):
        soc = hierarchical_soc(2, 40, lib28, seed=11, bus_width=4)
        flat = flatten(soc)
        hier = implement_by_block(soc)
        rng = np.random.default_rng(0)
        vec = rng.random((16, len(flat.primary_inputs))) < 0.5
        assert np.array_equal(flat.simulate(vec), hier.simulate(vec))

    def test_duplicate_module_rejected(self, lib28):
        from repro.netlist import Design, Module
        soc = Design("d", lib28)
        m = Module("m", logic_cloud(4, 4, 10, lib28, seed=0))
        soc.add_module(m)
        with pytest.raises(ValueError):
            soc.add_module(m)

    def test_unknown_module_rejected(self, lib28):
        from repro.netlist import Design, Instance
        soc = Design("d", lib28)
        with pytest.raises(KeyError):
            soc.add_instance(Instance("u", "nope", {}, {}))
