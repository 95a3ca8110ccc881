"""Netlist lint rules: structural signoff checks before a flow runs.

Commercial flows refuse to burn hours of compute on a netlist a lint
pass would have rejected in milliseconds.  These rules encode the
invariants the rest of the suite silently assumes — exactly one driver
per net, connected pins, acyclic combinational logic — plus the
quality checks (fanout load, dead cones) that predict downstream pain.

Each rule is a plain function over one shared
:class:`NetlistLintContext`, and :data:`RULES` lists them in report
order.  The context packs the (possibly broken) netlist into a fresh
columnar :class:`~repro.netlist.packed.PackedNetlist` — fresh, because
lint subjects are often mutated behind the change journal's back —
and the rules run vectorized over the interned int32 arrays:
undriven reads, driver counts, load sums, cycle detection and
liveness are numpy passes, and only the violating rows pay for a
Python-formatted message.

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

The limits are module constants: :data:`MAX_SLOPE_RATIO`,
:data:`MAX_FANOUT` and :data:`MAX_FINDINGS_PER_RULE`.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np
import numpy.typing as npt

from repro.lint.report import Finding, LintReport, Severity
from repro.netlist.packed import PackedNetlist, _kahn_levels, csr_gather

#: Rules that must hold for the analysis/optimization kernels to be
#: trustworthy at all.
INVARIANT_RULE_IDS = ("NET-001", "NET-002", "NET-003", "NET-004",
                      "NET-005")

#: The load a driver may see, as a multiple of its own input
#: capacitance: a cell driving more than ~48x its input cap is far
#: outside the linear-delay model's calibration.
MAX_SLOPE_RATIO = 48.0
#: An absolute load-count backstop for the same rule (NET-006).
MAX_FANOUT = 256
#: Findings one rule reports; the rest are counted in
#: ``LintReport.truncated``.
MAX_FINDINGS_PER_RULE = 50


class Violation(NamedTuple):
    """What a rule yields: where, what, and an optional severity that
    overrides the rule's own (``None`` keeps it)."""

    location: str
    message: str
    severity: Severity | None = None


class NetlistLintContext:
    """Shared single-pass facts every netlist rule reads.

    Built once per lint call from a *fresh*
    :class:`~repro.netlist.packed.PackedNetlist` (lint subjects are
    frequently mutated behind the change journal's back, so the
    netlist's memoized ``to_packed`` view cannot be trusted here):
    interned name tables, per-net driver CSRs tolerant of multi-driven
    nets, and pin rows — all vectorized.  Rules stay tiny and cannot
    disagree about the design's structure.
    """

    def __init__(self, netlist: Any) -> None:
        self.netlist = netlist
        self.driven: set[str] = set(netlist.nets())
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
            map(self.driven.__contains__, packed.net_names),
            dtype=bool, count=n_nets)

        self.out = packed.gate_output.astype(np.int64)
        self.pin_counts = np.diff(packed.pin_off.astype(np.int64))
        self.pin_row = np.repeat(np.arange(G, dtype=np.int64),
                                 self.pin_counts)
        self.pin_net = packed.pin_net.astype(np.int64)
        self.pin_name = packed.pin_name.astype(np.int64)
        self.pi_ids = packed.primary_inputs.astype(np.int64)
        self.comb = ~packed.seq_gate_mask()

        # Per-net driver CSR over gates (multi-driver tolerant) plus
        # primary-input driver counts.
        self.drv_order = np.argsort(self.out, kind="stable")
        self.drv_cnt = np.bincount(self.out, minlength=n_nets)
        self.drv_off = np.zeros(n_nets + 1, dtype=np.int64)
        np.cumsum(self.drv_cnt, out=self.drv_off[1:])
        self.pi_cnt = np.bincount(self.pi_ids, minlength=n_nets)

    def net_drivers(self, net_id: int) -> npt.NDArray[np.int64]:
        """Gate rows driving a net (excludes primary-input drivers)."""
        return self.drv_order[self.drv_off[net_id]:
                              self.drv_off[net_id + 1]]

    def cycle_gates(self) -> list[str]:
        """Combinational gates stuck on a dependency cycle, by name.

        A cycle-tolerant vectorized Kahn pass over explicit
        comb-driver -> comb-reader edges (multi-driven nets expand to
        one edge per driver): whatever never becomes ready is on or
        behind a cycle.
        """
        cnt = self.drv_cnt[self.pin_net]
        edst = np.repeat(self.pin_row, cnt)
        esrc = self.drv_order[
            csr_gather(self.drv_off[:-1][self.pin_net], cnt)]
        keep = self.comb[esrc] & self.comb[edst]
        _, cyclic = _kahn_levels(self.packed.num_gates, self.comb,
                                 esrc[keep], edst[keep])
        names = self.packed.gate_names
        return sorted(names[i] for i in cyclic.tolist())

    def live_gates(self) -> npt.NDArray[np.bool_]:
        """Mask of gates on some cone feeding a PO or a flop.

        Vectorized reverse BFS: frontier nets gather their driver
        gates through the per-net driver CSR, newly live gates
        contribute their pin nets, until the closure is stable.
        """
        packed = self.packed
        live = np.zeros(packed.num_gates, dtype=bool)
        seen = np.zeros(packed.num_nets, dtype=bool)
        frontier = np.unique(np.concatenate((
            packed.primary_outputs.astype(np.int64),
            self.pin_net[~self.comb[self.pin_row]])))
        off = packed.pin_off.astype(np.int64)
        while frontier.size:
            seen[frontier] = True
            drvs = self.drv_order[csr_gather(self.drv_off[:-1][frontier],
                                             self.drv_cnt[frontier])]
            new = np.unique(drvs[~live[drvs]])
            if not new.size:
                break
            live[new] = True
            nets = self.pin_net[
                csr_gather(off[:-1][new], self.pin_counts[new])]
            frontier = np.unique(nets[~seen[nets]])
        return live


# ----------------------------------------------------------------------
# Invariant rules (INVARIANT_RULE_IDS)


def undriven_net(ctx: NetlistLintContext) -> Iterator[Violation]:
    """A gate pin reads a net nothing drives (in gate, then pin
    order)."""
    packed = ctx.packed
    gn, pn, nn = packed.gate_names, packed.pin_names, packed.net_names
    for i in np.flatnonzero(~ctx.driven_mask[ctx.pin_net]).tolist():
        net = nn[ctx.pin_net[i]]
        yield Violation(net, f"gate {gn[ctx.pin_row[i]]} pin "
                             f"{pn[ctx.pin_name[i]]} reads undriven "
                             f"net {net!r}")


def multi_driven_net(ctx: NetlistLintContext) -> Iterator[Violation]:
    """A net with two or more drivers (short circuit in silicon)."""
    total = ctx.pi_cnt + ctx.drv_cnt
    if not (total > 1).any():
        return
    # Report in first-declaration order (PIs, then gate outputs).
    seq = np.concatenate((ctx.pi_ids, ctx.out))
    uq, first = np.unique(seq, return_index=True)
    multi = total[uq] > 1
    gn, nn = ctx.packed.gate_names, ctx.packed.net_names
    for nid in uq[multi][np.argsort(first[multi],
                                    kind="stable")].tolist():
        drivers = sorted(["<pi>"] * int(ctx.pi_cnt[nid]) +
                         [gn[g] for g in ctx.net_drivers(nid).tolist()])
        names = ", ".join("primary input" if d == "<pi>" else d
                          for d in drivers)
        net = nn[nid]
        yield Violation(net, f"net {net!r} has {len(drivers)} drivers: "
                             f"{names}")


def floating_gate_input(ctx: NetlistLintContext) -> Iterator[Violation]:
    """Gate pin set must match its cell's declared input pins.

    Vectorized screen: a gate is suspect when any connected pin falls
    outside its cell's declared table or its pin count disagrees with
    the declaration; only suspects pay the Python set-diff that emits
    the exact finding text.
    """
    packed = ctx.packed
    pin_tbl = {p: i for i, p in enumerate(packed.pin_names)}
    declared_ok = np.zeros((len(packed.cell_names),
                            len(packed.pin_names)), dtype=bool)
    declared_cnt = np.array([len(pins) for pins in packed.cell_pins],
                            dtype=np.int64)
    for ci, pins in enumerate(packed.cell_pins):
        for p in pins:
            if p in pin_tbl:
                declared_ok[ci, pin_tbl[p]] = True
    cell_of = packed.gate_cell.astype(np.int64)
    ok = declared_ok[cell_of[ctx.pin_row], ctx.pin_name]
    bad_pins = np.bincount(ctx.pin_row[~ok], minlength=packed.num_gates)
    suspects = np.flatnonzero((bad_pins > 0)
                              | (ctx.pin_counts != declared_cnt[cell_of]))
    for i in suspects.tolist():
        gate = ctx.gate_list[i]
        declared = set(gate.cell.inputs)
        connected = set(gate.pins)
        for pin in sorted(declared - connected):
            yield Violation(gate.name,
                            f"gate {gate.name} ({gate.cell.name}) "
                            f"leaves input pin {pin} floating")
        for pin in sorted(connected - declared):
            yield Violation(gate.name,
                            f"gate {gate.name} connects pin {pin} that "
                            f"cell {gate.cell.name} does not declare")


def dangling_primary_output(ctx: NetlistLintContext
                            ) -> Iterator[Violation]:
    """POs must name driven nets, once each."""
    seen: set[str] = set()
    for po in ctx.netlist.primary_outputs:
        if po not in ctx.driven:
            yield Violation(po, f"primary output {po!r} is undriven")
        if po in seen:
            yield Violation(po, f"primary output {po!r} declared more "
                                "than once", Severity.WARNING)
        seen.add(po)


def combinational_cycle(ctx: NetlistLintContext) -> Iterator[Violation]:
    """Feedback through combinational gates only (no flop on the loop)."""
    cycle = ctx.cycle_gates()
    if not cycle:
        return
    head = ", ".join(cycle[:8])
    if len(cycle) > 8:
        head += f", ... {len(cycle) - 8} more"
    yield Violation(cycle[0], "combinational cycle through "
                              f"{len(cycle)} gate(s): {head}")


# ----------------------------------------------------------------------
# Quality rules


def fanout_overload(ctx: NetlistLintContext) -> Iterator[Violation]:
    """A driver loaded far outside its delay model's calibration.

    Only nets with exactly one driver, and that a gate (PIs have no
    cell to overload), are checked, in first-read order.  Load counts
    and cap sums are ``bincount`` passes over the pin arrays (weights
    accumulate in pin order — the same float addition order as a
    per-net Python sum); one mask picks the failing nets.
    """
    n_nets = ctx.packed.num_nets
    cap = np.array([g.cell.input_cap_ff for g in ctx.gate_list],
                   dtype=np.float64)
    n_loads = np.bincount(ctx.pin_net, minlength=n_nets)
    load_ff = np.bincount(ctx.pin_net, weights=cap[ctx.pin_row],
                          minlength=n_nets)
    read_ids, first = np.unique(ctx.pin_net, return_index=True)
    nets = read_ids[np.argsort(first, kind="stable")]
    nets = nets[(ctx.drv_cnt[nets] == 1) & (ctx.pi_cnt[nets] == 0)]
    driver = ctx.drv_order[ctx.drv_off[nets]]
    limit_ff = MAX_SLOPE_RATIO * np.maximum(cap[driver], 1e-6)
    over_fanout = n_loads[nets] > MAX_FANOUT
    fails = over_fanout | (load_ff[nets] > limit_ff)
    nn = ctx.packed.net_names
    for k in np.flatnonzero(fails).tolist():
        nid = int(nets[k])
        net = nn[nid]
        if over_fanout[k]:
            yield Violation(net, f"net {net!r}: fanout "
                                 f"{int(n_loads[nid])} exceeds "
                                 f"max_fanout {MAX_FANOUT}")
            continue
        cell = ctx.gate_list[int(driver[k])].cell.name
        yield Violation(net, f"net {net!r}: load {load_ff[nid]:.1f} fF "
                             f"on {cell} exceeds "
                             f"{MAX_SLOPE_RATIO:.0f}x its input cap "
                             f"({limit_ff[k]:.1f} fF)")


def dead_logic_cone(ctx: NetlistLintContext) -> Iterator[Violation]:
    """Combinational gates no PO or flop can observe (wasted area)."""
    names = ctx.packed.gate_names
    dead = np.flatnonzero(ctx.comb & ~ctx.live_gates())
    for name in sorted(names[i] for i in dead.tolist()):
        yield Violation(name, f"gate {name} drives no cone observable "
                              "at a primary output or flop")


#: A rule's check: the violations it finds, in report order.
Check = Callable[[NetlistLintContext], Iterable[Violation]]

#: Every netlist rule as ``(id, severity, check)``, in report order.
RULES: tuple[tuple[str, Severity, Check], ...] = (
    ("NET-001", Severity.ERROR, undriven_net),
    ("NET-002", Severity.ERROR, multi_driven_net),
    ("NET-003", Severity.ERROR, floating_gate_input),
    ("NET-004", Severity.ERROR, dangling_primary_output),
    ("NET-005", Severity.ERROR, combinational_cycle),
    ("NET-006", Severity.WARNING, fanout_overload),
    ("NET-007", Severity.WARNING, dead_logic_cone),
)


def lint_netlist(netlist: Any) -> LintReport:
    """Run every rule of :data:`RULES` over a flat mapped netlist.

    Each rule reports at most :data:`MAX_FINDINGS_PER_RULE` findings;
    ``truncated`` counts the rest.
    """
    t0 = time.perf_counter()
    ctx = NetlistLintContext(netlist)
    report = LintReport(subject=netlist.name)
    for rule_id, severity, check in RULES:
        violations = iter(check(ctx))
        for v in islice(violations, MAX_FINDINGS_PER_RULE):
            report.findings.append(Finding(
                rule_id=rule_id,
                severity=severity if v.severity is None else v.severity,
                message=v.message, subject=netlist.name,
                location=v.location))
        rest = sum(1 for _ in violations)
        if rest:
            report.truncated[rule_id] = rest
    report.wall_s = time.perf_counter() - t0
    return report
