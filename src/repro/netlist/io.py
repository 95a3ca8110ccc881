"""Netlist interchange: structural Verilog and BLIF.

A downstream user needs to get designs in and out:

* :func:`write_verilog` / :func:`read_verilog` — flat structural
  Verilog restricted to library-cell instantiations (the gate-level
  subset every P&R tool consumes).
* :func:`write_blif` / :func:`read_blif` — the SIS/ABC interchange for
  :class:`~repro.synthesis.LogicNetwork` (``.names`` cover format).
"""

from __future__ import annotations

import re

from repro.netlist.cells import CellLibrary
from repro.netlist.circuit import Netlist


#: Keywords of the structural subset (plus common Verilog reserved
#: words): a net or instance carrying one of these names must be
#: written escaped, or the reader would mistake it for a declaration.
_VERILOG_KEYWORDS = frozenset((
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "initial", "begin", "end", "generate",
    "endgenerate", "parameter", "localparam", "supply0", "supply1",
))


def _escape(name: str) -> str:
    """Escape a net/instance name for Verilog if needed."""
    if name not in _VERILOG_KEYWORDS and \
            re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", name):
        return name
    return f"\\{name} "


def write_verilog(netlist: Netlist) -> str:
    """Serialize a mapped :class:`~repro.netlist.circuit.Netlist` as
    flat structural Verilog."""
    lines = []
    ports = [_escape(p) for p in
             netlist.primary_inputs + netlist.primary_outputs]
    lines.append(f"module {_escape(netlist.name)} (")
    lines.append("  " + ", ".join(ports))
    lines.append(");")
    for pi in netlist.primary_inputs:
        lines.append(f"  input {_escape(pi)};")
    for po in netlist.primary_outputs:
        lines.append(f"  output {_escape(po)};")
    pi_set = set(netlist.primary_inputs)
    po_set = set(netlist.primary_outputs)
    internal = [
        n for n in netlist.nets()
        if n not in pi_set and n not in po_set
    ]
    for net in sorted(internal):
        lines.append(f"  wire {_escape(net)};")
    for gate in netlist.gates.values():
        conns = [f".{pin}({_escape(net)})"
                 for pin, net in sorted(gate.pins.items())]
        conns.append(f".Y({_escape(gate.output)})")
        lines.append(
            f"  {gate.cell.name} {_escape(gate.name)} "
            f"({', '.join(conns)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


#: Comments are alternatives of the token regex (not pre-stripped):
#: stripping text up front would corrupt escaped identifiers that
#: contain ``//`` or ``/*``.  Escaped identifiers get their own kind
#: (``eid``) so a net named ``wire`` or ``endmodule`` is never
#: mistaken for a keyword.
_VLOG_TOKEN = re.compile(
    r"//[^\n]*|/\*.*?\*/"
    r"|\\(?P<esc>\S+)\s"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<punct>[(),.;])", re.S)


def _tokenize_verilog(text: str):
    for m in _VLOG_TOKEN.finditer(text):
        if m.group("esc") is not None:
            yield ("eid", m.group("esc"))
        elif m.group("id") is not None:
            yield ("id", m.group("id"))
        elif m.group("punct") is not None:
            yield ("punct", m.group("punct"))
        # comment alternatives bind no group and are skipped


def read_verilog(text: str, library: CellLibrary) -> Netlist:
    """Parse flat structural Verilog produced by :func:`write_verilog`.

    Supports named port connections only; every instantiated module
    must exist in ``library``; the output pin must be named ``Y``.
    """
    tokens = list(_tokenize_verilog(text))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("eof", "")

    def at_punct(ch):
        kind, val = peek()
        return kind == "punct" and val == ch

    def at_keyword(word):
        # Escaped identifiers ("eid") are never keywords: ``\wire ``
        # is a net named "wire", not a declaration.
        kind, val = peek()
        return kind == "id" and val == word

    def take(expect=None):
        nonlocal pos
        kind, val = peek()
        if expect == "id":
            if kind not in ("id", "eid"):
                raise ValueError(
                    f"parse error: expected identifier, got {val!r}")
        elif expect is not None and (kind == "eid" or val != expect):
            raise ValueError(
                f"parse error: expected {expect!r}, got {val!r}")
        pos += 1
        return val

    take("module")
    name = take("id")
    nl = Netlist(name, library)
    # Port list (names only; direction comes from declarations).
    take("(")
    while not at_punct(")"):
        take()
    take(")")
    take(";")

    inputs: list[str] = []
    outputs: list[str] = []
    pending_gates: list[tuple] = []
    while not at_keyword("endmodule"):
        kind, val = peek()
        if kind == "id" and val in ("input", "output", "wire"):
            take()
            names = []
            while not at_punct(";"):
                comma = at_punct(",")
                tok = take()
                if not comma:
                    names.append(tok)
            take(";")
            if val == "input":
                inputs.extend(names)
            elif val == "output":
                outputs.extend(names)
        elif kind in ("id", "eid"):
            cell_name = take("id")
            inst_name = take("id")
            take("(")
            pins = {}
            while not at_punct(")"):
                take(".")
                pin = take("id")
                take("(")
                net = take("id")
                take(")")
                if at_punct(","):
                    take(",")
                pins[pin] = net
            take(")")
            take(";")
            pending_gates.append((cell_name, inst_name, pins))
        else:
            raise ValueError(f"unexpected token {val!r}")
    for net in inputs:
        nl.add_input(net)
    for cell_name, inst_name, pins in pending_gates:
        cell = library[cell_name]
        output = pins.pop("Y", None)
        if output is None:
            raise ValueError(f"instance {inst_name} has no .Y() pin")
        nl.add_gate(cell, pins, output, inst_name)
    for net in outputs:
        nl.add_output(net)
    return nl


# ----------------------------------------------------------------------
# BLIF for logic networks
# ----------------------------------------------------------------------

def write_blif(network) -> str:
    """Serialize a :class:`~repro.synthesis.LogicNetwork` as BLIF."""
    from repro.synthesis.network import LogicNetwork

    if not isinstance(network, LogicNetwork):
        raise TypeError("write_blif expects a LogicNetwork")
    lines = [f".model {network.name}"]
    lines.append(".inputs " + " ".join(network.inputs))
    lines.append(".outputs " + " ".join(network.outputs))
    for name in network.topological_order():
        node = network.nodes[name]
        fanins = sorted(node.support())
        lines.append(".names " + " ".join(fanins + [name]))
        for cube in node.sop:
            row = []
            for f in fanins:
                if (f, True) in cube:
                    row.append("1")
                elif (f, False) in cube:
                    row.append("0")
                else:
                    row.append("-")
            lines.append(("".join(row) + " 1").strip())
        # Constant-0 nodes have no rows, matching SIS semantics.
    lines.append(".end")
    return "\n".join(lines) + "\n"


def read_blif(text: str):
    """Parse BLIF into a :class:`~repro.synthesis.LogicNetwork`.

    Supports ``.model/.inputs/.outputs/.names/.end`` with single-output
    covers whose output value is 1 (the SIS default).
    """
    from repro.synthesis.network import LogicNetwork

    network = LogicNetwork()
    lines = _continued_lines(text)
    current_names = None
    current_cubes: list = []

    def flush():
        nonlocal current_names, current_cubes
        if current_names is None:
            return
        *fanins, out = current_names
        sop = []
        for row in current_cubes:
            pattern, value = row
            if value != "1":
                raise ValueError("only on-set covers supported")
            cube = set()
            for f, ch in zip(fanins, pattern):
                if ch == "1":
                    cube.add((f, True))
                elif ch == "0":
                    cube.add((f, False))
                elif ch != "-":
                    raise ValueError(f"bad cover character {ch!r}")
            sop.append(frozenset(cube))
        network.add_node(out, sop)
        current_names, current_cubes = None, []

    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        key = tokens[0]
        if key == ".model":
            network.name = tokens[1] if len(tokens) > 1 else "net"
        elif key == ".inputs":
            flush()
            for t in tokens[1:]:
                network.add_input(t)
        elif key == ".outputs":
            flush()
            outputs = tokens[1:]
        elif key == ".names":
            flush()
            current_names = tokens[1:]
        elif key == ".end":
            flush()
        elif key.startswith("."):
            raise ValueError(f"unsupported BLIF construct {key!r}")
        else:
            if current_names is None:
                raise ValueError("cover row outside .names")
            if len(tokens) == 1 and len(current_names) == 1:
                current_cubes.append(("", tokens[0]))
            else:
                current_cubes.append((tokens[0], tokens[1]))
    flush()
    for out in outputs:
        network.set_output(out)
    return network


def _continued_lines(text: str):
    out = []
    buf = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            buf += line[:-1] + " "
            continue
        out.append(buf + line)
        buf = ""
    if buf:
        out.append(buf)
    return out
