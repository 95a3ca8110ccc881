"""Tests for rectilinear Steiner trees and the router topology option."""

import pytest

from repro.netlist import build_library, logic_cloud
from repro.place import global_place
from repro.route import route_placement
from repro.route.steiner import (
    hanan_points,
    manhattan,
    mst_edges,
    steiner_tree,
    tree_length,
)
from repro.tech import get_node


class TestMst:
    def test_two_points(self):
        edges = mst_edges([(0, 0), (3, 4)])
        assert edges == [((0, 0), (3, 4))]
        assert tree_length(edges) == 7

    def test_spanning_and_length(self):
        pts = [(0, 0), (4, 0), (2, 3), (5, 5)]
        edges = mst_edges(pts)
        assert len(edges) == 3
        # Connectivity: union-find over edges.
        parent = {p: p for p in pts}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        assert len({find(p) for p in pts}) == 1

    def test_duplicates_collapsed(self):
        assert mst_edges([(1, 1), (1, 1)]) == []


class TestSteiner:
    def test_classic_three_pin_l(self):
        # Three corners of a rectangle: MST = 2 sides + detour, Steiner
        # point at the corner saves nothing; but an off-corner trio
        # does save.
        pts = [(0, 0), (4, 4), (0, 4)]
        assert tree_length(steiner_tree(pts)) <= \
            tree_length(mst_edges(pts))

    def test_cross_saves_wire(self):
        # Four pins in a plus shape: the center Steiner point wins.
        pts = [(2, 0), (2, 4), (0, 2), (4, 2)]
        mst = tree_length(mst_edges(pts))
        st = tree_length(steiner_tree(pts))
        assert st < mst
        assert st == 8  # star from the center

    def test_never_worse_than_mst(self):
        import numpy as np
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = [(int(rng.integers(0, 12)), int(rng.integers(0, 12)))
                   for _ in range(int(rng.integers(3, 7)))]
            assert tree_length(steiner_tree(pts)) <= \
                tree_length(mst_edges(pts))

    def test_hanan_grid(self):
        pts = [(0, 0), (2, 3)]
        assert hanan_points(pts) == {(0, 3), (2, 0)}

    def test_collinear_needs_no_steiner(self):
        pts = [(0, 0), (3, 0), (7, 0)]
        st = steiner_tree(pts)
        assert tree_length(st) == 7

    def test_manhattan(self):
        assert manhattan((1, 2), (4, 6)) == 7


class TestRouterTopology:
    @pytest.fixture(scope="class")
    def placed(self):
        lib = build_library(get_node("28nm"))
        nl = logic_cloud(16, 16, 300, lib, seed=3, locality=0.8)
        return global_place(nl, seed=0, utilization=0.35)

    def test_steiner_topology_no_worse(self, placed):
        mst = route_placement(placed, gcell_um=2.0, topology="mst",
                              max_iterations=2)
        steiner = route_placement(placed, gcell_um=2.0,
                                  topology="steiner",
                                  max_iterations=2)
        assert not steiner.failed
        assert steiner.wirelength <= mst.wirelength * 1.02

    def test_bad_topology_rejected(self, placed):
        with pytest.raises(ValueError):
            route_placement(placed, topology="quantum")

    def test_batched_engine_is_mst_only(self, placed):
        with pytest.raises(ValueError, match="MST only"):
            route_placement(placed, engine="batched", topology="steiner")
