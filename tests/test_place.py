"""Tests for placement: global, detailed, buffering, flat-vs-hier."""

import numpy as np
import pytest

from repro.netlist import (
    build_library,
    hierarchical_soc,
    logic_cloud,
)
from repro.place import (
    Placement,
    buffer_long_nets,
    detailed_place,
    estimate_buffers,
    global_place,
)
from repro.place.buffering import optimal_buffer_segment_um
from repro.place.flows import flat_vs_hierarchical
from repro.place.placement import die_for_netlist
from repro.tech import get_node


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"))


@pytest.fixture(scope="module")
def cloud(lib):
    return logic_cloud(16, 16, 400, lib, seed=1, locality=0.9)


class TestGlobalPlace:
    def test_all_cells_placed_and_legal(self, cloud):
        pl = global_place(cloud, seed=0)
        pl.validate()
        assert len(pl.positions) == cloud.num_instances()

    def test_row_alignment(self, cloud):
        pl = global_place(cloud, seed=0)
        ys = {round(y / pl.row_height_um - 0.5, 6) % 1
              for _, y in pl.positions.values()}
        assert all(abs(v) < 1e-3 or abs(v - 1) < 1e-3 for v in ys)

    def test_connected_cells_near_each_other(self, lib):
        # Two cliques joined by one net should separate spatially.
        nl = logic_cloud(8, 8, 200, lib, seed=3, locality=0.95)
        pl = global_place(nl, seed=0)
        # Average net HPWL must be far below die diagonal.
        lengths = [v for v in pl.net_lengths().values() if v > 0]
        assert np.mean(lengths) < 0.5 * (pl.die_w_um + pl.die_h_um)

    def test_determinism(self, cloud):
        a = global_place(cloud, seed=5)
        b = global_place(cloud, seed=5)
        assert a.positions == b.positions

    def test_empty_netlist_rejected(self, lib):
        from repro.netlist import Netlist
        nl = Netlist("empty", lib)
        with pytest.raises(ValueError):
            global_place(nl)

    def test_die_sizing(self, cloud):
        w, h = die_for_netlist(cloud, utilization=0.5)
        assert w * h == pytest.approx(cloud.area_um2() / 0.5, rel=0.01)
        with pytest.raises(ValueError):
            die_for_netlist(cloud, utilization=0.0)

    def test_density_spread(self, cloud):
        pl = global_place(cloud, seed=0, utilization=0.5,
                          spreading_passes=4)
        density = pl.density_map(6)
        occupied = density[density > 0]
        # No bin should be catastrophically denser than the mean.
        assert occupied.max() < 6 * occupied.mean()


class TestMetrics:
    def test_hpwl_positive_and_stable(self, cloud):
        pl = global_place(cloud, seed=0)
        total = pl.total_hpwl()
        assert total > 0
        assert total == pytest.approx(pl.total_hpwl())

    def test_hpwl_of_two_pin_net(self, lib):
        from repro.netlist import Netlist
        nl = Netlist("t", lib)
        a = nl.add_input("a")
        nl.add_gate("INV_X1_rvt", [a], "y")
        nl.add_output("y")
        pl = Placement(nl, 10, 10,
                       positions={next(iter(nl.gates)): (2.0, 3.0)},
                       pad_positions={"a": (0.0, 0.0), "y": (9.0, 3.0)})
        assert pl.net_hpwl("a") == pytest.approx(5.0)

    def test_total_hpwl_adds_left_to_right(self, lib):
        # Net lengths 2**53, 1, 1, 1: adding left to right keeps 2**53
        # at every step, while the builtin ``sum`` compensates rounding
        # from Python 3.12 on and would return 2**53 + 4.
        from repro.netlist import Netlist
        big = 2.0 ** 53
        nl = Netlist("t", lib)
        a = nl.add_input("a")
        n1 = nl.add_gate("INV_X1_rvt", [a], "n1", "g1").output
        n2 = nl.add_gate("INV_X1_rvt", [n1], "n2", "g2").output
        nl.add_output(nl.add_gate("INV_X1_rvt", [n2], "y", "g3").output)
        pl = Placement(nl, big, 1.0,
                       positions={"g1": (0.0, 0.0), "g2": (big, 0.0),
                                  "g3": (big, 1.0)},
                       pad_positions={"a": (0.0, 1.0), "y": (big, 0.0)})
        lengths = list(pl.net_lengths().values())
        assert lengths == [big, 1.0, 1.0, 1.0]
        total = 0.0
        for length in lengths:
            total += length
        assert pl.total_hpwl() == total == big

    def test_congestion_map_shape(self, cloud):
        pl = global_place(cloud, seed=0)
        cmap = pl.congestion_map(8)
        assert cmap.shape == (8, 8)
        assert pl.peak_congestion(8) == pytest.approx(cmap.max())


class TestDetailedPlace:
    def test_improves_hpwl(self, cloud):
        pl = global_place(cloud, seed=0)
        before = pl.total_hpwl()
        gain = detailed_place(pl, passes=2, seed=0)
        after = pl.total_hpwl()
        assert gain >= 0
        assert after == pytest.approx(before - gain, rel=0.01)

    def test_keeps_legality(self, cloud):
        pl = global_place(cloud, seed=0)
        detailed_place(pl, passes=1, seed=0)
        pl.validate()
        # No two cells of a row overlap: a swap of unequal widths would.
        rows: dict[float, list] = {}
        for name, (x, y) in pl.positions.items():
            width = max(cloud.gates[name].cell.area_um2
                        / pl.row_height_um, 0.05)
            rows.setdefault(round(y, 6), []).append(
                (x - width / 2, x + width / 2, name))
        for cells in rows.values():
            cells.sort()
            for (_, ra, na), (lb, _, nb) in zip(cells, cells[1:]):
                assert lb >= ra - 1e-6, f"{na} overlaps {nb}"


class TestBuffering:
    def test_optimal_segment_scales_with_node(self):
        seg28 = optimal_buffer_segment_um(get_node("28nm"))
        seg180 = optimal_buffer_segment_um(get_node("180nm"))
        assert seg28 > 0 and seg180 > 0
        # Wires get worse per um at small nodes: shorter segments.
        assert seg28 < seg180

    def test_estimate_counts_long_nets(self, cloud):
        pl = global_place(cloud, seed=0)
        report = estimate_buffers(pl, segment_um=1.0)
        assert report.buffers_added > 0
        none = estimate_buffers(pl, segment_um=1e9)
        assert none.buffers_added == 0

    def test_bad_segment_rejected(self, cloud):
        pl = global_place(cloud, seed=0)
        with pytest.raises(ValueError):
            estimate_buffers(pl, segment_um=0.0)

    def test_insertion_adds_gates_and_places_them(self, lib):
        nl = logic_cloud(8, 8, 100, lib, seed=7)
        pl = global_place(nl, seed=0)
        before = nl.num_instances()
        report = buffer_long_nets(pl, segment_um=1.0)
        assert nl.num_instances() == before + report.buffers_added
        for name in nl.gates:
            assert name in pl.positions
        nl.validate()


class TestFlatVsHierarchical:
    def test_flat_beats_hierarchical(self, lib):
        soc = hierarchical_soc(4, 120, lib, seed=5)
        res = flat_vs_hierarchical(soc, seed=0)
        flat, hier = res["flat"], res["hierarchical"]
        assert flat.instances < hier.instances
        assert flat.area_um2 < hier.area_um2
        assert flat.power_uw < hier.power_uw
        # The delta is exactly the boundary buffers.
        assert hier.buffers - flat.buffers == soc.boundary_port_count()

    def test_summaries(self, lib):
        soc = hierarchical_soc(2, 60, lib, seed=6)
        res = flat_vs_hierarchical(soc, seed=0)
        assert "flat" in res["flat"].summary()
        assert "hier" in res["hierarchical"].summary()
