"""Netlist lint rules: structural signoff checks before a flow runs.

Commercial flows refuse to burn hours of compute on a netlist a lint
pass would have rejected in milliseconds.  These rules encode the
invariants the rest of the suite silently assumes — exactly one driver
per net, connected pins, acyclic combinational logic — plus the
quality checks (fanout load, dead cones) that predict downstream pain.

All rules read from one shared :class:`NetlistLintContext` built in a
single pass over the design.  The context packs the (possibly broken)
netlist into a fresh columnar
:class:`~repro.netlist.packed.PackedNetlist` — fresh, because lint
subjects are often mutated behind the change journal's back — and the
rules run vectorized over the interned int32 arrays: undriven reads,
driver counts, load sums, cycle detection, and liveness are all numpy
passes, with Python fallbacks only for the (rare) violating rows, so
a full lint of a 50k-gate design stays well under a second.

Rule table
----------

========  ========  =====================================================
NET-001   error     gate pin or load reads an undriven net
NET-002   error     net has more than one driver
NET-003   error     gate pin set disagrees with its cell's declared pins
NET-004   error     primary output dangles (undriven / duplicate)
NET-005   error     combinational cycle
NET-006   warning   fanout load exceeds the driver's capability
NET-007   warning   dead logic cone (unreachable from any PO or flop)
========  ========  =====================================================

(NET-008, hierarchy port checks, lives in the ``hierarchy`` scope —
see :func:`hierarchy_port_mismatch` — because its subject is a
:class:`~repro.netlist.hierarchy.Design`, not a flat netlist.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.lint.registry import REGISTRY, Violation, rule
from repro.lint.report import LintReport, Severity, Waivers
from repro.netlist.packed import PackedNetlist, _kahn_levels, csr_gather

#: Rules that must hold for the analysis/optimization kernels to be
#: trustworthy at all.
INVARIANT_RULE_IDS = ("NET-001", "NET-002", "NET-003", "NET-004",
                      "NET-005")


@dataclass
class LintConfig:
    """Tunable thresholds for the quality (non-invariant) rules.

    ``max_slope_ff`` bounds the load a driver may see, expressed as a
    multiple of its own input capacitance (a cell driving more than
    ~48x its input cap is far outside the linear-delay model's
    calibration).  ``max_fanout`` is an absolute load-count backstop.
    ``max_findings_per_rule`` caps what one rule reports (the rest are
    counted in ``LintReport.truncated``); below 1 an error would never
    fail the report, so it raises ``ValueError``.
    """

    max_slope_ff_ratio: float = 48.0
    max_fanout: int = 256
    max_findings_per_rule: int = 50

    def __post_init__(self) -> None:
        if self.max_findings_per_rule < 1:
            raise ValueError(
                f"max_findings_per_rule={self.max_findings_per_rule!r}"
                ": must be >= 1")


class NetlistLintContext:
    """Shared single-pass facts every netlist rule reads.

    Built once per lint call from a *fresh*
    :class:`~repro.netlist.packed.PackedNetlist` (lint subjects are
    frequently mutated behind the change journal's back, so the
    netlist's memoized ``to_packed`` view cannot be trusted here):
    interned name tables, per-net driver CSRs tolerant of multi-driven
    nets, pin-order load sums, and a cycle-tolerant Kahn pass — all
    vectorized.  Rules stay tiny and cannot disagree about the
    design's structure.
    """

    def __init__(self, netlist: Any,
                 config: LintConfig | None = None) -> None:
        self.netlist = netlist
        self.config = config or LintConfig()
        self.driven: set[str] = set(netlist.nets())
        self.pi_set: set[str] = set(netlist.primary_inputs)
        packed = PackedNetlist.from_netlist(netlist)
        self.packed = packed
        n_nets = packed.num_nets
        G = packed.num_gates
        self.gate_list: list[Any] = list(netlist.gates.values())

        # ``driven`` comes from the netlist's own ledger (``nets()``),
        # not from the packed outputs: on a broken design the two
        # disagree, and the ledger is what the rest of the suite
        # trusts.
        self.driven_mask = np.fromiter(
            (n in self.driven for n in packed.net_names),
            dtype=bool, count=n_nets)

        self.out = packed.gate_output.astype(np.int64)
        self.pin_counts = np.diff(packed.pin_off.astype(np.int64))
        self.pin_row = np.repeat(np.arange(G, dtype=np.int64),
                                 self.pin_counts)
        self.pin_net = packed.pin_net.astype(np.int64)
        self.pin_name = packed.pin_name.astype(np.int64)
        self.pi_ids = packed.primary_inputs.astype(np.int64)

        # Per-net driver CSR over gates (multi-driver tolerant) plus
        # primary-input driver counts.
        self.drv_order = np.argsort(self.out, kind="stable")
        self.drv_cnt = np.bincount(self.out, minlength=n_nets) \
            if G else np.zeros(n_nets, dtype=np.int64)
        self.drv_off = np.zeros(n_nets + 1, dtype=np.int64)
        np.cumsum(self.drv_cnt, out=self.drv_off[1:])
        self.pi_cnt = np.bincount(self.pi_ids, minlength=n_nets) \
            if self.pi_ids.size else np.zeros(n_nets, dtype=np.int64)

        # Undriven reads, in packed pin order (= gate, then pin order).
        bad = np.flatnonzero(~self.driven_mask[self.pin_net]) \
            if self.pin_net.size else np.empty(0, dtype=np.int64)
        gn, pn, nn = packed.gate_names, packed.pin_names, packed.net_names
        self.undriven_reads: list[tuple[str, str, str]] = [
            (gn[self.pin_row[i]], pn[self.pin_name[i]], nn[self.pin_net[i]])
            for i in bad.tolist()]
        self.cycle_gates: list[str] = self._find_cycle_gates()

    # -- traversal helpers ---------------------------------------------

    def net_drivers(self, net_id: int) -> np.ndarray:
        """Gate rows driving a net (excludes primary-input drivers)."""
        return self.drv_order[self.drv_off[net_id]:
                              self.drv_off[net_id + 1]]

    def _find_cycle_gates(self) -> list[str]:
        """Combinational gates stuck on a dependency cycle.

        A cycle-tolerant vectorized Kahn pass over explicit
        comb-driver -> comb-reader edges (multi-driven nets expand to
        one edge per driver): whatever never becomes ready is on or
        behind a cycle.
        """
        packed = self.packed
        comb = ~packed.seq_gate_mask()
        cnt = self.drv_cnt[self.pin_net]
        edst = np.repeat(self.pin_row, cnt)
        esrc = self.drv_order[
            csr_gather(self.drv_off[:-1][self.pin_net], cnt)]
        keep = comb[esrc] & comb[edst]
        _, cyclic = _kahn_levels(packed.num_gates, comb,
                                 esrc[keep], edst[keep])
        names = packed.gate_names
        return sorted(names[i] for i in cyclic.tolist())

    def live_gates(self) -> set[str]:
        """Gates on some cone feeding a PO or a sequential element.

        Vectorized reverse BFS: frontier nets gather their driver
        gates through the per-net driver CSR, newly live gates
        contribute their pin nets, until the closure is stable.
        """
        packed = self.packed
        seq = packed.seq_gate_mask()
        live = np.zeros(packed.num_gates, dtype=bool)
        seen = np.zeros(packed.num_nets, dtype=bool)
        seeds = [packed.primary_outputs.astype(np.int64)]
        if self.pin_net.size:
            seeds.append(self.pin_net[seq[self.pin_row]])
        frontier = np.unique(np.concatenate(seeds)) \
            if packed.num_nets else np.empty(0, dtype=np.int64)
        off = packed.pin_off.astype(np.int64)
        while frontier.size:
            seen[frontier] = True
            cnt = self.drv_cnt[frontier]
            drvs = self.drv_order[
                csr_gather(self.drv_off[:-1][frontier], cnt)]
            new = np.unique(drvs[~live[drvs]]) if drvs.size else drvs
            if not new.size:
                break
            live[new] = True
            nets = self.pin_net[
                csr_gather(off[:-1][new], self.pin_counts[new])]
            frontier = np.unique(nets[~seen[nets]]) \
                if nets.size else nets
        names = packed.gate_names
        return {names[i] for i in np.flatnonzero(live).tolist()}


# ----------------------------------------------------------------------
# Invariant rules (INVARIANT_RULE_IDS)


@rule("NET-001", Severity.ERROR, "undriven net", "netlist")
def undriven_net(ctx: NetlistLintContext) -> Iterator[Violation]:
    """A gate pin or primary output reads a net nothing drives."""
    for gate_name, pin, net in ctx.undriven_reads:
        yield (net, f"gate {gate_name} pin {pin} reads undriven "
                    f"net {net!r}")


@rule("NET-002", Severity.ERROR, "multi-driven net", "netlist")
def multi_driven_net(ctx: NetlistLintContext) -> Iterator[Violation]:
    """A net with two or more drivers (short circuit in silicon)."""
    total = ctx.pi_cnt + ctx.drv_cnt
    if not (total > 1).any():
        return
    # Report in first-declaration order (PIs, then gate outputs).
    seq = np.concatenate((ctx.pi_ids, ctx.out))
    uq, first = np.unique(seq, return_index=True)
    multi = uq[total[uq] > 1]
    gn, nn = ctx.packed.gate_names, ctx.packed.net_names
    for nid in multi[np.argsort(first[total[uq] > 1],
                                kind="stable")].tolist():
        drivers = ["<pi>"] * int(ctx.pi_cnt[nid]) + \
            [gn[g] for g in ctx.net_drivers(nid).tolist()]
        names = ", ".join("primary input" if d == "<pi>" else d
                          for d in sorted(drivers))
        net = nn[nid]
        yield (net, f"net {net!r} has {len(drivers)} drivers: "
                    f"{names}")


@rule("NET-003", Severity.ERROR, "floating or phantom gate input",
      "netlist")
def floating_gate_input(ctx: NetlistLintContext) -> Iterator[Violation]:
    """Gate pin set must match its cell's declared input pins.

    Vectorized screen: a gate is suspect when any connected pin falls
    outside its cell's declared table or its pin count disagrees with
    the declaration; only suspects pay the Python set-diff that emits
    the exact finding text.
    """
    packed = ctx.packed
    n_cells = len(packed.cell_names)
    n_pins = len(packed.pin_names)
    pin_tbl = {p: i for i, p in enumerate(packed.pin_names)}
    declared_ok = np.zeros((n_cells, n_pins), dtype=bool)
    declared_cnt = np.zeros(n_cells, dtype=np.int64)
    for ci, pins in enumerate(packed.cell_pins):
        declared_cnt[ci] = len(pins)
        for p in pins:
            j = pin_tbl.get(p)
            if j is not None:
                declared_ok[ci, j] = True
    cell_of = packed.gate_cell.astype(np.int64)
    bad_pins = np.zeros(packed.num_gates, dtype=np.int64)
    if ctx.pin_net.size:
        ok = declared_ok[cell_of[ctx.pin_row], ctx.pin_name] \
            if n_pins else np.zeros(ctx.pin_net.size, dtype=bool)
        np.add.at(bad_pins, ctx.pin_row[~ok], 1)
    suspects = np.flatnonzero((bad_pins > 0)
                              | (ctx.pin_counts != declared_cnt[cell_of]))
    for i in suspects.tolist():
        gate = ctx.gate_list[i]
        declared = set(gate.cell.inputs)
        connected = set(gate.pins)
        for pin in sorted(declared - connected):
            yield (gate.name, f"gate {gate.name} ({gate.cell.name}) "
                              f"leaves input pin {pin} floating")
        for pin in sorted(connected - declared):
            yield (gate.name, f"gate {gate.name} connects pin {pin} "
                              f"that cell {gate.cell.name} does not "
                              f"declare")


@rule("NET-004", Severity.ERROR, "dangling primary output", "netlist")
def dangling_primary_output(ctx: NetlistLintContext
                            ) -> Iterator[Violation]:
    """POs must name driven nets, once each."""
    seen: set[str] = set()
    for po in ctx.netlist.primary_outputs:
        if po not in ctx.driven:
            yield (po, f"primary output {po!r} is undriven")
        if po in seen:
            yield (po, f"primary output {po!r} declared more than "
                       f"once", Severity.WARNING)
        seen.add(po)


@rule("NET-005", Severity.ERROR, "combinational cycle", "netlist")
def combinational_cycle(ctx: NetlistLintContext) -> Iterator[Violation]:
    """Feedback through combinational gates only (no flop on the loop)."""
    if not ctx.cycle_gates:
        return
    head = ", ".join(ctx.cycle_gates[:8])
    more = len(ctx.cycle_gates) - 8
    if more > 0:
        head += f", ... {more} more"
    yield (ctx.cycle_gates[0],
           f"combinational cycle through {len(ctx.cycle_gates)} "
           f"gate(s): {head}")


# ----------------------------------------------------------------------
# Quality rules


@rule("NET-006", Severity.WARNING, "fanout load beyond drive strength",
      "netlist")
def fanout_overload(ctx: NetlistLintContext) -> Iterator[Violation]:
    """A driver loaded far outside its delay model's calibration.

    Per-net load counts and cap sums are single ``bincount`` passes
    over the packed pin arrays (weights accumulate in pin order — the
    same float addition order as the old per-net Python sum).
    """
    config = ctx.config
    if not ctx.pin_net.size:
        return
    n_nets = ctx.packed.num_nets
    cap = np.array([g.cell.input_cap_ff for g in ctx.gate_list])
    n_loads = np.bincount(ctx.pin_net, minlength=n_nets)
    load_ff = np.bincount(ctx.pin_net, weights=cap[ctx.pin_row],
                          minlength=n_nets)
    # Nets with exactly one driver, and it is a gate (PIs have no
    # cell to overload), visited in first-read order.
    read_ids, first = np.unique(ctx.pin_net, return_index=True)
    order = np.argsort(first, kind="stable")
    nn = ctx.packed.net_names
    for nid in read_ids[order].tolist():
        if int(ctx.drv_cnt[nid]) != 1 or int(ctx.pi_cnt[nid]):
            continue
        net = nn[nid]
        if int(n_loads[nid]) > config.max_fanout:
            yield (net, f"net {net!r}: fanout {int(n_loads[nid])} "
                        f"exceeds max_fanout {config.max_fanout}")
            continue
        driver = ctx.gate_list[int(ctx.net_drivers(nid)[0])]
        own_cap = driver.cell.input_cap_ff
        limit_ff = config.max_slope_ff_ratio * max(own_cap, 1e-6)
        if load_ff[nid] > limit_ff:
            yield (net, f"net {net!r}: load {load_ff[nid]:.1f} fF on "
                        f"{driver.cell.name} exceeds "
                        f"{config.max_slope_ff_ratio:.0f}x its input "
                        f"cap ({limit_ff:.1f} fF)")


@rule("NET-007", Severity.WARNING, "dead logic cone", "netlist")
def dead_logic_cone(ctx: NetlistLintContext) -> Iterator[Violation]:
    """Combinational gates no PO or flop can observe (wasted area)."""
    live = ctx.live_gates()
    names = ctx.packed.gate_names
    comb_rows = np.flatnonzero(~ctx.packed.seq_gate_mask())
    dead = [names[i] for i in comb_rows.tolist()
            if names[i] not in live]
    for name in sorted(dead):
        yield (name, f"gate {name} drives no cone observable at a "
                     f"primary output or flop")


# ----------------------------------------------------------------------
# Hierarchy rules (subject: repro.netlist.hierarchy.Design)


@rule("NET-008", Severity.ERROR, "hierarchy port mismatch", "hierarchy")
def hierarchy_port_mismatch(design: Any) -> Iterator[Violation]:
    """Instance port maps must match their module's declared ports.

    Covers phantom ports (mapped but not declared), unmapped input
    ports, port-count (bus width) mismatches, and two instances
    driving the same top-level net.
    """
    top_driven: dict[str, list[str]] = {}
    for net in design.top_inputs:
        top_driven.setdefault(net, []).append("<top input>")
    for inst in design.instances:
        module = design.modules.get(inst.module)
        if module is None:
            yield (inst.name, f"instance {inst.name} references "
                              f"unknown module {inst.module!r}")
            continue
        ports_in = set(module.ports_in)
        ports_out = set(module.ports_out)
        for port in sorted(set(inst.input_map) - ports_in):
            yield (inst.name,
                   f"instance {inst.name} maps input port {port!r} "
                   f"that module {module.name} does not declare")
        for port in sorted(ports_in - set(inst.input_map)):
            yield (inst.name,
                   f"instance {inst.name} leaves module "
                   f"{module.name} input port {port!r} unconnected")
        for port in sorted(set(inst.output_map) - ports_out):
            yield (inst.name,
                   f"instance {inst.name} maps output port {port!r} "
                   f"that module {module.name} does not declare")
        for port in sorted(ports_out - set(inst.output_map)):
            yield (inst.name,
                   f"instance {inst.name} leaves module "
                   f"{module.name} output port {port!r} dangling",
                   Severity.WARNING)
        if len(inst.input_map) != len(ports_in) or \
                len(inst.output_map) > len(ports_out):
            yield (inst.name,
                   f"instance {inst.name} port widths "
                   f"{len(inst.input_map)}/{len(inst.output_map)} "
                   f"do not match module {module.name} "
                   f"{len(ports_in)}/{len(ports_out)}",
                   Severity.WARNING)
        for port, net in inst.output_map.items():
            top_driven.setdefault(net, []).append(
                f"{inst.name}.{port}")
    for net, drivers in sorted(top_driven.items()):
        if len(drivers) > 1:
            yield (net, f"top-level net {net!r} has "
                        f"{len(drivers)} drivers: "
                        f"{', '.join(sorted(drivers))}")
    driven = set(top_driven)
    for net in design.top_outputs:
        if net not in driven:
            yield (net, f"top-level output {net!r} is driven by no "
                        f"instance or top input")


# ----------------------------------------------------------------------
# Entry points


def lint_netlist(netlist: Any, *, config: LintConfig | None = None,
                 waivers: Waivers | None = None) -> LintReport:
    """Run every netlist-scope rule over a flat mapped netlist;
    ``waivers`` marks reviewed findings."""
    t0 = time.perf_counter()
    ctx = NetlistLintContext(netlist, config)
    cap = ctx.config.max_findings_per_rule
    report = REGISTRY.run("netlist", ctx, netlist.name, waivers=waivers,
                          max_findings_per_rule=cap)
    report.wall_s = time.perf_counter() - t0
    return report


def lint_design(design: Any, *, config: LintConfig | None = None,
                waivers: Waivers | None = None) -> LintReport:
    """Lint a two-level hierarchical design: the hierarchy port rules
    on the design itself, then each module's implementation netlist
    (findings keep the module netlist as their subject)."""
    t0 = time.perf_counter()
    report = REGISTRY.run(
        "hierarchy", design, design.name,
        max_findings_per_rule=(config or LintConfig())
        .max_findings_per_rule)
    for module in design.modules.values():
        report.merge(lint_netlist(module.netlist, config=config))
    if waivers is not None:
        report.findings = waivers.apply(report.findings)
    report.wall_s = time.perf_counter() - t0
    return report
