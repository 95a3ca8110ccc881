"""Multi-level Boolean networks and the SIS-style optimization script.

A :class:`LogicNetwork` is a DAG of named nodes, each computing a
sum-of-products over other nodes / primary inputs.  The optimization
script mirrors SIS's ``script.rugged`` structure:

* ``sweep``      — remove constant and single-literal (buffer) nodes;
* ``eliminate``  — collapse nodes whose extraction value is negative;
* ``extract``    — pull out common kernels as new nodes;
* ``simplify``   — Espresso each node's SOP.

The network converts to an :class:`~repro.netlist.Aig` for mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.aig import AIG_FALSE, AIG_TRUE, Aig, lit_not
from repro.synthesis.division import (
    Sop,
    algebraic_divide,
    best_common_kernel,
    sop_from_cover,
    sop_literal_count,
    sop_support,
    sop_to_cover,
)
from repro.synthesis.espresso import espresso


@dataclass
class LogicNode:
    """One internal node: ``name = SOP over fanin names``."""

    name: str
    sop: Sop

    def support(self) -> set:
        return sop_support(self.sop)

    def literal_count(self) -> int:
        return sop_literal_count(self.sop)


class LogicNetwork:
    """A combinational multi-level network of SOP nodes."""

    def __init__(self, name: str = "net"):
        self.name = name
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.nodes: dict[str, LogicNode] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, name: str) -> str:
        if name in self.nodes or name in self.inputs:
            raise ValueError(f"name {name!r} already used")
        self.inputs.append(name)
        return name

    def add_node(self, name: str, sop: Sop) -> LogicNode:
        if name in self.nodes or name in self.inputs:
            raise ValueError(f"name {name!r} already used")
        node = LogicNode(name, [frozenset(c) for c in sop])
        self.nodes[name] = node
        return node

    def set_output(self, name: str) -> None:
        if name not in self.nodes and name not in self.inputs:
            raise KeyError(f"unknown signal {name!r}")
        self.outputs.append(name)

    def fresh_name(self, prefix: str = "k") -> str:
        while True:
            self._counter += 1
            cand = f"{prefix}{self._counter}"
            if cand not in self.nodes and cand not in self.inputs:
                return cand

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def literal_count(self) -> int:
        """Total literals over all nodes — the network cost function."""
        return sum(n.literal_count() for n in self.nodes.values())

    def node_count(self) -> int:
        return len(self.nodes)

    def topological_order(self) -> list:
        """Node names, fanins before fanouts; raises on cycles.

        Depth-first from each node in name order, fanins in name order;
        an explicit stack keeps deep networks off the recursion limit.
        """
        state: dict[str, int] = {}  # 1 = on the stack, 2 = emitted
        order: list[str] = []
        for root in sorted(self.nodes):
            if root in state:
                continue
            state[root] = 1
            stack = [(root, iter(sorted(self.nodes[root].support())))]
            while stack:
                name, deps = stack[-1]
                for dep in deps:
                    if dep not in self.nodes:  # primary input
                        continue
                    mark = state.get(dep, 0)
                    if mark == 1:
                        raise ValueError("cycle in logic network")
                    if mark == 0:
                        state[dep] = 1
                        stack.append(
                            (dep, iter(sorted(self.nodes[dep].support()))))
                        break
                else:
                    stack.pop()
                    state[name] = 2
                    order.append(name)
        return order

    def depth(self) -> int:
        """Maximum node depth from the inputs."""
        level = {i: 0 for i in self.inputs}
        for name in self.topological_order():
            sup = self.nodes[name].support()
            level[name] = 1 + max((level.get(s, 0) for s in sup), default=0)
        return max((level.get(o, 0) for o in self.outputs), default=0)

    # ------------------------------------------------------------------
    # Optimization passes
    # ------------------------------------------------------------------

    def sweep(self) -> int:
        """Remove buffer/constant nodes by substitution; returns count."""
        readers = self._reader_index()
        removed = 0
        changed = True
        while changed:
            changed = False
            for name in list(self.nodes):
                node = self.nodes[name]
                if name in self.outputs:
                    continue
                if len(node.sop) == 1 and len(node.sop[0]) == 1:
                    ((dep, phase),) = node.sop[0]
                    if phase:  # pure buffer: name == dep
                        self._rewrite_readers(
                            name, readers,
                            lambda sop: _rename_sop(sop, name, dep))
                        self._remove(name, readers)
                        removed += 1
                        changed = True
                elif not node.sop:
                    # Constant 0 node: propagate by deleting cubes that
                    # use it positively, dropping negative literals.
                    self._rewrite_readers(
                        name, readers, lambda sop: _zero_sop(sop, name))
                    self._remove(name, readers)
                    removed += 1
                    changed = True
        return removed

    def eliminate(self, threshold: int = 0) -> int:
        """Collapse nodes whose extraction value <= threshold.

        The value of keeping node n with f fanouts and l literals is
        ``(f - 1) * (l - 1) - 1`` (literals saved by sharing); nodes at
        or below the threshold are inlined into their fanouts, as in
        SIS ``eliminate``.  Only positive uses can be inlined
        algebraically, so a node read complemented anywhere stays.

        The first inline also normalizes every other node's SOP with
        :func:`_dedupe_sop` (cube order feeds :meth:`to_aig`); since
        that is idempotent, later inlines touch only the readers.
        """
        readers = self._reader_index()
        normalized = False
        eliminated = 0
        changed = True
        while changed:
            changed = False
            for name in list(self.nodes):
                if name in self.outputs:
                    continue
                node = self.nodes[name]
                # Outputs are never eliminated, so only node reads count.
                f = len(readers.get(name, ()))
                value = (f - 1) * (node.literal_count() - 1) - 1
                if value > threshold or any(
                        (name, False) in cube
                        for r in readers.get(name, ())
                        for cube in self.nodes[r].sop):
                    continue
                if not normalized:
                    normalized = True
                    skip = {name, *readers.get(name, ())}
                    for other in list(self.nodes):
                        if other not in skip:
                            self._rewrite(other, readers, _dedupe_sop)
                self._rewrite_readers(
                    name, readers,
                    lambda sop: _dedupe_sop(_inline_sop(sop, name, node.sop)))
                self._remove(name, readers)
                eliminated += 1
                changed = True
        return eliminated

    # Reader index: name -> nodes whose SOP reads it (either phase).
    # sweep and eliminate keep it current from the support diff of
    # every node they rewrite, so a substitution visits only the
    # readers of the substituted name.  Lists, not sets: most names
    # have one or two readers, and each call builds its own index.

    def _reader_index(self) -> dict:
        readers: dict[str, list] = {}
        for name, node in self.nodes.items():
            for dep in node.support():
                readers.setdefault(dep, []).append(name)
        return readers

    def _rewrite(self, name: str, readers: dict, fn) -> None:
        """``nodes[name].sop = fn(sop)``, updating ``readers``."""
        node = self.nodes[name]
        old = node.support()
        node.sop = fn(node.sop)
        new = node.support()
        for dep in old - new:
            readers[dep].remove(name)
        for dep in new - old:
            readers.setdefault(dep, []).append(name)

    def _rewrite_readers(self, name: str, readers: dict, fn) -> None:
        """Apply ``fn`` to the SOP of every other node reading ``name``."""
        for reader in list(readers.get(name, ())):
            if reader != name:
                self._rewrite(reader, readers, fn)

    def _remove(self, name: str, readers: dict) -> None:
        for dep in self.nodes.pop(name).support():
            readers[dep].remove(name)
        readers.pop(name, None)

    def extract(self, max_kernels: int = 50) -> int:
        """Greedy common-kernel extraction; returns kernels created."""
        created = 0
        for _ in range(max_kernels):
            sops = {n.name: n.sop for n in self.nodes.values()
                    if len(n.sop) >= 2}
            best = best_common_kernel(sops)
            if best is None:
                break
            kernel, value, users = best
            kname = self.fresh_name("k")
            self.add_node(kname, kernel)
            for user, _ in users.items():
                node = self.nodes[user]
                quotient, remainder = algebraic_divide(node.sop, kernel)
                if not quotient:
                    continue
                new_sop = list(remainder)
                for qc in quotient:
                    new_sop.append(qc | {(kname, True)})
                node.sop = _dedupe_sop(new_sop)
            created += 1
        return created

    def simplify(self) -> int:
        """Espresso every node's SOP; returns literals saved."""
        saved = 0
        for node in self.nodes.values():
            names = sorted(node.support())
            if not names or len(names) > 12:
                continue
            cover = sop_to_cover(node.sop, names)
            before = cover.literal_count()
            minimized = espresso(cover)
            after = minimized.literal_count()
            if after < before or minimized.cube_count() < cover.cube_count():
                node.sop = sop_from_cover(minimized, names)
                saved += before - after
        return saved

    def optimize(self, effort: str = "high") -> dict:
        """Run the full script; returns a pass-by-pass literal report."""
        report = {"initial": self.literal_count()}
        self.sweep()
        report["sweep"] = self.literal_count()
        self.simplify()
        report["simplify"] = self.literal_count()
        if effort in ("medium", "high"):
            self.extract()
            report["extract"] = self.literal_count()
            self.eliminate(threshold=0 if effort == "high" else -1)
            report["eliminate"] = self.literal_count()
            self.simplify()
            report["resimplify"] = self.literal_count()
        if effort == "high":
            self.extract()
            self.sweep()
            report["final"] = self.literal_count()
        return report

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------

    def to_aig(self) -> Aig:
        """Lower the network to an AIG (AND/OR trees per SOP)."""
        aig = Aig(len(self.inputs), list(self.inputs))
        lit_of: dict[str, int] = {
            name: aig.input_lit(i) for i, name in enumerate(self.inputs)
        }
        for name in self.topological_order():
            node = self.nodes[name]
            cube_lits = []
            for cube in node.sop:
                acc = AIG_TRUE
                for dep, phase in sorted(cube):
                    lit = lit_of[dep]
                    acc = aig.and_(acc, lit if phase else lit_not(lit))
                cube_lits.append(acc)
            acc = AIG_FALSE
            for cl in cube_lits:
                acc = aig.or_(acc, cl)
            lit_of[name] = acc
        for out in self.outputs:
            aig.add_output(lit_of[out], out)
        return aig

    @staticmethod
    def from_aig(aig: Aig) -> "LogicNetwork":
        """Import an AIG as a network of two-literal AND nodes."""
        net = LogicNetwork()
        for name in aig.input_names:
            net.add_input(name)
        name_of = {i + 1: aig.input_names[i] for i in range(aig.num_inputs)}
        for n in range(aig.num_inputs + 1, aig.num_nodes):
            a, b = aig.fanins(n)
            cube = frozenset({
                (name_of[a >> 1], not (a & 1)),
                (name_of[b >> 1], not (b & 1)),
            })
            nm = f"n{n}"
            net.add_node(nm, [cube])
            name_of[n] = nm
        for lit, oname in zip(aig.outputs, aig.output_names):
            src = name_of.get(lit >> 1)
            if src is None:  # constant output
                node = net.add_node(net.fresh_name("const"),
                                    [] if lit == AIG_FALSE else [frozenset()])
                src = node.name
                net.set_output(src)
                continue
            if lit & 1:
                inv = net.fresh_name("inv")
                net.add_node(inv, [frozenset({(src, False)})])
                src = inv
            net.set_output(src)
        return net

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogicNetwork({self.name!r}, {len(self.inputs)} in, "
            f"{len(self.nodes)} nodes, {self.literal_count()} lits)"
        )


def _rename_sop(sop: Sop, old: str, new: str) -> Sop:
    """``sop`` with signal ``old`` replaced by ``new`` in both phases."""
    new_sop = []
    for cube in sop:
        if (old, True) in cube:
            cube = (cube - {(old, True)}) | {(new, True)}
        if (old, False) in cube:
            cube = (cube - {(old, False)}) | {(new, False)}
        new_sop.append(cube)
    return new_sop


def _zero_sop(sop: Sop, name: str) -> Sop:
    """``sop`` with signal ``name`` tied to constant 0."""
    return [cube - {(name, False)} for cube in sop
            if (name, True) not in cube]


def _inline_sop(sop: Sop, name: str, body: Sop) -> Sop:
    """``sop`` with positive literals of ``name`` expanded to ``body``."""
    new_sop = []
    for cube in sop:
        if (name, True) in cube:
            rest = cube - {(name, True)}
            for sub in body:
                merged = rest | sub
                if not _cube_contradicts(merged):
                    new_sop.append(merged)
        else:
            new_sop.append(cube)
    return new_sop


def _cube_contradicts(cube: frozenset) -> bool:
    names = {}
    for name, phase in cube:
        if names.get(name, phase) != phase:
            return True
        names[name] = phase
    return False


def _dedupe_sop(sop: Sop) -> Sop:
    uniq = []
    seen = set()
    for cube in sop:
        if cube in seen:
            continue
        seen.add(cube)
        uniq.append(cube)
    # Single-cube containment: drop cubes that contain another cube.
    kept = []
    for cube in sorted(uniq, key=len):
        if not any(k <= cube for k in kept):
            kept.append(cube)
    return kept
