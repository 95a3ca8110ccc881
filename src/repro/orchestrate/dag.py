"""Flows as DAGs of stages with topological scheduling.

A :class:`Stage` is a pure-ish callable ``fn(ctx) -> value`` where
``ctx`` maps upstream stage names and declared run parameters to
values.  A :class:`FlowDAG` holds stages, validates their dependency
edges, detects cycles, and answers the two questions the executor
asks: "what order?" and "what dies when this stage fails?".
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CycleError(ValueError):
    """The stage graph contains a dependency cycle."""


@dataclass(frozen=True)
class Stage:
    """One node of a flow DAG.

    ``deps`` name upstream stages whose outputs this stage consumes;
    ``params`` name run parameters (e.g. ``"options"``) it reads.  The
    executor builds ``ctx`` from exactly those keys, which doubles as
    the content-hash domain for caching.  ``knobs`` optionally narrows
    the cache key to specific attributes of ``ctx["options"]`` so that
    changing one knob only invalidates the stages that read it.
    """

    name: str
    fn: object
    deps: tuple = ()
    params: tuple = ()
    knobs: tuple = ()
    optional: bool = False      # failure degrades the run, not kills it
    version: str = "1"          # bump to invalidate cached results


@dataclass
class FlowDAG:
    """A named collection of stages with dependency edges."""

    stages: dict = field(default_factory=dict)

    def add(self, stage: Stage) -> "FlowDAG":
        """Register a stage; chainable."""
        if stage.name in self.stages:
            raise ValueError(f"duplicate stage {stage.name!r}")
        self.stages[stage.name] = stage
        return self

    def __contains__(self, name: str) -> bool:
        return name in self.stages

    def __len__(self) -> int:
        return len(self.stages)

    @property
    def names(self) -> list:
        return list(self.stages)

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise on edges to stages that do not exist."""
        for stage in self.stages.values():
            for dep in stage.deps:
                if dep not in self.stages:
                    raise ValueError(
                        f"stage {stage.name!r} depends on unknown "
                        f"stage {dep!r}")

    def topological_order(self) -> list:
        """Stages in dependency order (Kahn), insertion-order stable.

        Raises :class:`CycleError` naming the offending stages when the
        graph has a cycle.
        """
        self.validate()
        indegree = {n: len(s.deps) for n, s in self.stages.items()}
        ready = [n for n, d in indegree.items() if d == 0]
        order: list = []
        while ready:
            name = ready.pop(0)
            order.append(self.stages[name])
            for other in self.stages.values():
                if name in other.deps:
                    indegree[other.name] -= 1
                    if indegree[other.name] == 0:
                        ready.append(other.name)
        if len(order) < len(self.stages):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise CycleError(f"dependency cycle among stages {stuck}")
        return order

    def dependents(self, name: str) -> set:
        """Transitive downstream closure of a stage (for failure
        propagation: everything here is skipped when ``name`` dies)."""
        out: set = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for other in self.stages.values():
                if current in other.deps and other.name not in out:
                    out.add(other.name)
                    frontier.append(other.name)
        return out
