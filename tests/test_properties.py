"""Cross-cutting property-based tests over the whole flow stack.

These pin down the invariants individual unit tests cannot: functional
equivalence through arbitrary optimization/mapping pipelines, resource
conservation in routing, and legality of placements — on
hypothesis-generated designs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import build_library, random_aig
from repro.netlist.aig import Aig
from repro.place import global_place
from repro.route import route_placement
from repro.synthesis import map_aig
from repro.synthesis.mig import mig_from_aig
from repro.synthesis.rewrite import balance, refactor, rewrite
from repro.tech import get_node

LIB = build_library(get_node("28nm"), vt_flavors=("lvt", "rvt", "hvt"))

aig_params = st.tuples(
    st.integers(min_value=3, max_value=8),    # inputs
    st.integers(min_value=10, max_value=120),  # ands
    st.integers(min_value=1, max_value=6),    # outputs
    st.integers(min_value=0, max_value=10_000),  # seed
)


class TestSynthesisPipelineEquivalence:
    @given(aig_params)
    @settings(max_examples=20, deadline=None)
    def test_optimization_stack_preserves_function(self, params):
        n, a, o, seed = params
        aig = random_aig(n, a, o, seed=seed)
        golden = aig.simulate_all()
        g = balance(rewrite(refactor(aig)))
        assert np.array_equal(g.simulate_all(), golden)

    @given(aig_params)
    @settings(max_examples=12, deadline=None)
    def test_mapping_preserves_function(self, params):
        n, a, o, seed = params
        aig = random_aig(n, a, o, seed=seed)
        nl = map_aig(aig, LIB)
        nl.validate()
        pats = np.random.default_rng(seed).random((32, n)) < 0.5
        assert np.array_equal(nl.simulate(pats), aig.simulate(pats))

    @given(aig_params)
    @settings(max_examples=15, deadline=None)
    def test_mig_conversion_equivalent_and_no_larger(self, params):
        n, a, o, seed = params
        aig = random_aig(n, a, o, seed=seed)
        mig = mig_from_aig(aig)
        assert mig.num_majs <= aig.num_ands
        assert np.array_equal(mig.simulate_all(), aig.simulate_all())

    @given(aig_params)
    @settings(max_examples=15, deadline=None)
    def test_optimization_never_increases_size(self, params):
        n, a, o, seed = params
        aig = random_aig(n, a, o, seed=seed)
        cleaned = aig.cleanup()
        assert rewrite(cleaned).num_ands <= cleaned.num_ands
        assert balance(cleaned).num_ands <= cleaned.num_ands


class TestPhysicalInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_placement_legality(self, seed):
        from repro.netlist import logic_cloud
        nl = logic_cloud(8, 8, 150, LIB, seed=seed)
        placement = global_place(nl, seed=seed % 17,
                                 utilization=0.5)
        placement.validate()
        # Row alignment and no same-row overlap beyond epsilon.
        rows: dict = {}
        for name, (x, y) in placement.positions.items():
            rows.setdefault(round(y, 6), []).append(
                (x, nl.gates[name].cell.area_um2
                 / placement.row_height_um))
        for cells in rows.values():
            cells.sort()
            for (x1, w1), (x2, _w2) in zip(cells, cells[1:]):
                assert x2 - x1 >= (w1 / 2) * 0.5 - 1e-6

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_routing_conserves_wirelength(self, seed):
        from repro.netlist import logic_cloud
        nl = logic_cloud(8, 8, 120, LIB, seed=seed, locality=0.9)
        placement = global_place(nl, seed=0, utilization=0.4)
        result = route_placement(placement, gcell_um=2.0,
                                 max_iterations=2)
        # Grid usage must equal the sum of the committed path lengths.
        total = sum(len(p) - 1 for paths in result.paths.values()
                    for p in paths)
        assert total == result.wirelength

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_rip_up_never_negative_usage(self, seed):
        from repro.netlist import logic_cloud
        nl = logic_cloud(8, 8, 120, LIB, seed=seed, locality=0.9)
        placement = global_place(nl, seed=0, utilization=0.4)
        result = route_placement(placement, gcell_um=2.0,
                                 max_iterations=4)
        assert (result.grid.h_usage >= 0).all()
        assert (result.grid.v_usage >= 0).all()


class TestTimingMonotonicity:
    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_longer_chain_never_faster(self, n):
        from repro.netlist import Netlist
        from repro.timing import critical_path

        def chain(k):
            nl = Netlist("c", LIB)
            net = nl.add_input("a")
            for i in range(k):
                net = nl.add_gate("INV_X1_rvt", [net], f"n{i}").output
            nl.add_output(net)
            return critical_path(nl).critical_delay_ps

        assert chain(n + 1) > chain(n)
