"""Tests for Verilog and BLIF interchange."""

import numpy as np
import pytest

from repro.netlist import (
    build_library,
    logic_cloud,
    random_aig,
    registered_cloud,
    ripple_carry_adder,
)
from repro.netlist.io import (
    read_blif,
    read_verilog,
    write_blif,
    write_verilog,
)
from repro.synthesis.network import LogicNetwork
from repro.tech import get_node


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"))


class TestVerilog:
    def test_roundtrip_combinational(self, lib):
        nl = logic_cloud(8, 8, 120, lib, seed=1)
        back = read_verilog(write_verilog(nl), lib)
        back.validate()
        assert back.primary_inputs == nl.primary_inputs
        assert back.primary_outputs == nl.primary_outputs
        assert back.num_instances() == nl.num_instances()
        pats = np.random.default_rng(0).random((32, 8)) < 0.5
        assert np.array_equal(back.simulate(pats), nl.simulate(pats))

    def test_roundtrip_sequential(self, lib):
        nl = registered_cloud(6, 10, 80, lib, seed=2)
        back = read_verilog(write_verilog(nl), lib)
        back.validate()
        n_ff = len(nl.sequential_gates())
        pats = np.random.default_rng(1).random((16, 6)) < 0.5
        state = np.random.default_rng(2).random((16, n_ff)) < 0.5
        assert np.array_equal(back.simulate(pats, state),
                              nl.simulate(pats, state))
        assert np.array_equal(back.next_state(pats, state),
                              nl.next_state(pats, state))

    def test_arithmetic_roundtrip(self, lib):
        nl = ripple_carry_adder(4, lib)
        back = read_verilog(write_verilog(nl), lib)
        vec = np.array([[1, 0, 1, 0, 0, 1, 1, 0, 1]], dtype=bool)
        assert np.array_equal(back.simulate(vec), nl.simulate(vec))

    def test_output_contains_module_structure(self, lib):
        nl = logic_cloud(4, 4, 20, lib, seed=3)
        text = write_verilog(nl)
        assert text.startswith("module ")
        assert "endmodule" in text
        assert text.count("input ") == 4
        assert text.count("output ") == 4

    def test_escaped_names(self, lib):
        from repro.netlist import Netlist
        nl = Netlist("top", lib)
        a = nl.add_input("a.weird[0]")
        nl.add_gate("INV_X1_rvt", [a], "y")
        nl.add_output("y")
        back = read_verilog(write_verilog(nl), lib)
        assert "a.weird[0]" in back.primary_inputs

    def test_unknown_cell_rejected(self, lib):
        text = """module t (a, y);
          input a; output y;
          MAGIC_GATE u1 (.A(a), .Y(y));
        endmodule"""
        with pytest.raises(KeyError):
            read_verilog(text, lib)

    def test_missing_output_pin_rejected(self, lib):
        text = """module t (a, y);
          input a; output y;
          INV_X1_rvt u1 (.A(a));
        endmodule"""
        with pytest.raises(ValueError, match="no .Y"):
            read_verilog(text, lib)

    def test_comments_ignored(self, lib):
        nl = logic_cloud(4, 4, 10, lib, seed=4)
        text = "// header comment\n/* block */\n" + write_verilog(nl)
        back = read_verilog(text, lib)
        assert back.num_instances() == 10

    def test_keyword_named_nets_escaped(self, lib):
        # A net or instance named like a Verilog keyword must be
        # written escaped, or the reader mistakes it for a declaration.
        from repro.netlist import Netlist
        nl = Netlist("top", lib)
        a = nl.add_input("wire")
        nl.add_gate("INV_X1_rvt", [a], "endmodule", name="output")
        nl.add_output("endmodule")
        text = write_verilog(nl)
        assert "\\wire " in text
        assert "\\endmodule " in text
        assert "\\output " in text
        back = read_verilog(text, lib)
        back.validate()
        assert back.primary_inputs == ["wire"]
        assert back.primary_outputs == ["endmodule"]
        assert "output" in back.gates
        vec = np.array([[True], [False]])
        assert np.array_equal(back.simulate(vec), nl.simulate(vec))

    def test_escaped_names_with_comment_starters(self, lib):
        # ``//`` and ``/*`` inside an escaped identifier are part of
        # the name, not comments — the tokenizer must not strip them.
        from repro.netlist import Netlist
        nl = Netlist("top", lib)
        a = nl.add_input("a//b")
        b = nl.add_input("c/*d*/e")
        nl.add_gate("NAND2_X1_rvt", [a, b], "y/**/z")
        nl.add_output("y/**/z")
        back = read_verilog(write_verilog(nl), lib)
        back.validate()
        assert back.primary_inputs == ["a//b", "c/*d*/e"]
        assert back.primary_outputs == ["y/**/z"]
        pats = np.random.default_rng(5).random((8, 2)) < 0.5
        assert np.array_equal(back.simulate(pats), nl.simulate(pats))

    def test_digit_leading_and_bus_names(self, lib):
        from repro.netlist import Netlist
        nl = Netlist("top", lib)
        a = nl.add_input("1badname")
        b = nl.add_input("bus[3]")
        nl.add_gate("NOR2_X1_rvt", [a, b], "out.net")
        nl.add_output("out.net")
        text = write_verilog(nl)
        assert "\\1badname " in text
        assert "\\bus[3] " in text
        back = read_verilog(text, lib)
        back.validate()
        assert back.primary_inputs == ["1badname", "bus[3]"]
        assert back.primary_outputs == ["out.net"]


class TestBlif:
    def _xor_network(self):
        net = LogicNetwork("xor2")
        net.add_input("a")
        net.add_input("b")
        net.add_node("y", [frozenset({("a", True), ("b", False)}),
                          frozenset({("a", False), ("b", True)})])
        net.set_output("y")
        return net

    def test_write_format(self):
        text = write_blif(self._xor_network())
        assert ".model xor2" in text
        assert ".inputs a b" in text
        assert ".outputs y" in text
        assert ".names a b y" in text
        assert ".end" in text

    def test_roundtrip_semantics(self):
        net = self._xor_network()
        back = read_blif(write_blif(net))
        a1 = net.to_aig().simulate_all()
        a2 = back.to_aig().simulate_all()
        assert np.array_equal(a1, a2)

    def test_roundtrip_random_network(self):
        net = LogicNetwork.from_aig(random_aig(6, 80, 4, seed=5))
        back = read_blif(write_blif(net))
        assert np.array_equal(back.to_aig().simulate_all(),
                              net.to_aig().simulate_all())

    def test_roundtrip_after_optimization(self):
        net = LogicNetwork.from_aig(random_aig(6, 60, 3, seed=6))
        net.optimize("high")
        back = read_blif(write_blif(net))
        assert np.array_equal(back.to_aig().simulate_all(),
                              net.to_aig().simulate_all())

    def test_type_check(self):
        with pytest.raises(TypeError):
            write_blif("not a network")

    def test_bad_cover_value_rejected(self):
        text = (".model t\n.inputs a\n.outputs y\n"
                ".names a y\n1 0\n.end\n")
        with pytest.raises(ValueError, match="on-set"):
            read_blif(text)

    def test_unsupported_construct_rejected(self):
        text = ".model t\n.inputs a\n.outputs y\n.latch a y\n.end\n"
        with pytest.raises(ValueError, match="latch"):
            read_blif(text)

    def test_comments_and_continuations(self):
        text = (".model t  # comment\n.inputs a \\\nb\n.outputs y\n"
                ".names a b y\n11 1\n.end\n")
        net = read_blif(text)
        assert net.inputs == ["a", "b"]
        aig = net.to_aig()
        out = aig.simulate_all()[:, 0]
        assert list(out) == [False, False, False, True]
