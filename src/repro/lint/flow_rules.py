"""Flow static verification: check a DAG before executing anything.

A flow that references a missing producer, hides a dependency cycle,
misspells a knob, or reads an undeclared ``ctx`` key fails *minutes or
hours* into a run — or worse, silently widens/narrows its cache key
and replays wrong results.  Every one of those is statically decidable
from the :class:`~repro.orchestrate.dag.FlowDAG` alone, so
:func:`lint_flow` decides them up front.  The shipped implement DAG is
fixed code, so ``tests/test_lint.py`` lints it once rather than every
``run()`` re-checking it.

Rule table
----------

=========  ========  ===================================================
FLOW-001   error     stage depends on a producer that does not exist
FLOW-002   error     dependency cycle among stages
FLOW-003   warning   dead stage (transitively behind a missing producer)
FLOW-004   error     knob name is not an attribute of the options object
FLOW-005   error     declared param is not provided by the run context
FLOW-006   error     stage body reads a ctx key it never declared
FLOW-007   info      declared dep/param never read (cache key wider
                     than necessary)
PURE-xxx   (varies)  cache-soundness hazards, via :mod:`.purity`
=========  ========  ===================================================

FLOW-006/007 parse the stage function's source; stages whose ``ctx``
is accessed dynamically (a non-literal subscript) are skipped rather
than guessed at.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Iterator

from repro.lint.purity import check_flow_purity
from repro.lint.registry import REGISTRY, Violation, rule
from repro.lint.report import LintReport, Severity, Waivers

#: Parameters every implement-flow execution provides to its stages.
DEFAULT_RUN_PARAMS = ("subject", "library", "options")


@dataclass
class FlowLintContext:
    """Shared facts the flow rules read: the DAG plus run bindings."""

    dag: Any
    options: Any = None
    params: tuple[str, ...] = DEFAULT_RUN_PARAMS
    _ctx_reads: dict[str, tuple[set[str], bool] | None] = \
        field(default_factory=dict)

    def stages(self) -> list[Any]:
        return list(self.dag.stages.values())

    def known(self, name: str) -> bool:
        return name in self.dag.stages

    def missing_behind(self) -> dict[str, list[str]]:
        """stage -> unknown producers in its transitive dep closure."""
        out: dict[str, list[str]] = {}

        def walk(name: str, seen: set[str]) -> list[str]:
            if name in out:
                return out[name]
            if name in seen:       # cycle: FLOW-002's business
                return []
            seen.add(name)
            stage = self.dag.stages.get(name)
            if stage is None:
                return [name]
            missing: list[str] = []
            for dep in stage.deps:
                if not self.known(dep):
                    missing.append(dep)
                else:
                    missing.extend(walk(dep, seen))
            out[name] = sorted(set(missing))
            return out[name]

        for stage in self.stages():
            walk(stage.name, set())
        return out

    def ctx_reads(self, stage: Any) -> tuple[set[str], bool] | None:
        """Literal ``ctx[...]`` keys the stage function reads.

        Returns ``(keys, exhaustive)`` — ``exhaustive`` is False when
        any access used a non-literal subscript — or None when the
        source is unavailable.  Memoized per stage.
        """
        if stage.name not in self._ctx_reads:
            self._ctx_reads[stage.name] = _literal_ctx_reads(stage.fn)
        return self._ctx_reads[stage.name]


def _literal_ctx_reads(fn: Any) -> tuple[set[str], bool] | None:
    """Parse ``fn`` for subscripts/``get`` calls on its ctx argument."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        return None
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda | None
    func = None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            func = node
            break
    if func is None:
        return None
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    if not positional:
        return None
    ctx_name = positional[0].arg
    keys: set[str] = set()
    exhaustive = True
    consumed: set[int] = set()   # Name nodes inside recognized reads
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == ctx_name:
            consumed.add(id(node.value))
            if isinstance(node.slice, ast.Constant) and \
                    isinstance(node.slice.value, str):
                keys.add(node.slice.value)
            else:
                exhaustive = False
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get" and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id == ctx_name:
            consumed.add(id(node.func.value))
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                keys.add(node.args[0].value)
            else:
                exhaustive = False
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == ctx_name and \
                isinstance(node.ctx, ast.Load) and \
                id(node) not in consumed:
            # ctx escapes whole (e.g. to a helper): anything could be
            # read downstream.
            exhaustive = False
    return keys, exhaustive


# ----------------------------------------------------------------------
# Rules


@rule("FLOW-001", Severity.ERROR, "missing artifact producer", "flow")
def missing_producer(ctx: FlowLintContext) -> Iterator[Violation]:
    """Every declared dependency must name a registered stage."""
    for stage in ctx.stages():
        for dep in stage.deps:
            if not ctx.known(dep):
                yield (stage.name,
                       f"stage {stage.name!r} depends on "
                       f"{dep!r}, which no stage produces")


@rule("FLOW-002", Severity.ERROR, "stage dependency cycle", "flow")
def stage_cycle(ctx: FlowLintContext) -> Iterator[Violation]:
    """Kahn over the known-stage edges; report whatever never frees."""
    indeg: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    for stage in ctx.stages():
        known_deps = [d for d in stage.deps if ctx.known(d)]
        indeg[stage.name] = len(known_deps)
        for dep in known_deps:
            dependents.setdefault(dep, []).append(stage.name)
    ready = [n for n, d in indeg.items() if d == 0]
    while ready:
        name = ready.pop()
        for dep in dependents.get(name, ()):
            indeg[dep] -= 1
            if indeg[dep] == 0:
                ready.append(dep)
    stuck = sorted(n for n, d in indeg.items() if d > 0)
    if stuck:
        yield (stuck[0],
               f"dependency cycle among stages: {', '.join(stuck)}")


@rule("FLOW-003", Severity.WARNING, "dead stage", "flow")
def dead_stage(ctx: FlowLintContext) -> Iterator[Violation]:
    """A stage behind a missing producer can never execute."""
    for name, missing in sorted(ctx.missing_behind().items()):
        stage = ctx.dag.stages.get(name)
        if stage is None or not missing:
            continue
        direct = set(stage.deps) & set(missing)
        if direct:
            continue               # FLOW-001 already names this stage
        yield (name,
               f"stage {name!r} is dead: it sits behind missing "
               f"producer(s) {', '.join(missing)} and will be "
               f"skipped every run")


@rule("FLOW-004", Severity.ERROR, "unknown knob name", "flow")
def unknown_knob(ctx: FlowLintContext) -> Iterator[Violation]:
    """Knob names must be real attributes of the options object.

    A typo here narrows the cache key to a nonexistent attribute and
    raises only when the stage is first executed — or worse, with a
    default-carrying options type, silently caches under the wrong
    key.
    """
    options = ctx.options
    if options is None:
        return
    if is_dataclass(options):
        valid = {f.name for f in fields(options)}
    else:
        valid = {a for a in dir(options) if not a.startswith("_")}
    for stage in ctx.stages():
        for knob in stage.knobs:
            if knob not in valid:
                yield (stage.name,
                       f"stage {stage.name!r} declares knob "
                       f"{knob!r}, not an attribute of "
                       f"{type(options).__name__}")


@rule("FLOW-005", Severity.ERROR, "unprovided run parameter", "flow")
def unprovided_param(ctx: FlowLintContext) -> Iterator[Violation]:
    """Declared params must exist in the run's parameter bindings."""
    provided = set(ctx.params)
    for stage in ctx.stages():
        for param in stage.params:
            if param not in provided:
                yield (stage.name,
                       f"stage {stage.name!r} declares param "
                       f"{param!r}, but the run only provides "
                       f"{sorted(provided)}")


@rule("FLOW-006", Severity.ERROR, "undeclared ctx read", "flow")
def undeclared_ctx_read(ctx: FlowLintContext) -> Iterator[Violation]:
    """The stage body reads a ctx key outside deps + params.

    The executor builds ``ctx`` from exactly the declared keys, so
    this is a guaranteed KeyError — discovered here instead of
    mid-run.
    """
    for stage in ctx.stages():
        reads = ctx.ctx_reads(stage)
        if reads is None:
            continue
        declared = set(stage.deps) | set(stage.params)
        for key in sorted(reads[0] - declared):
            yield (stage.name,
                   f"stage {stage.name!r} reads ctx[{key!r}] but "
                   f"declares only deps={list(stage.deps)} "
                   f"params={list(stage.params)}")


@rule("FLOW-007", Severity.INFO, "unread declared input", "flow")
def unread_declared_input(ctx: FlowLintContext) -> Iterator[Violation]:
    """Declared but never-read inputs widen the cache key for nothing.

    Only reported when the stage's ctx accesses were exhaustively
    literal — a helper receiving the whole ctx suppresses the rule.
    """
    for stage in ctx.stages():
        reads = ctx.ctx_reads(stage)
        if reads is None or not reads[1]:
            continue
        declared = set(stage.deps) | set(stage.params)
        for key in sorted(declared - reads[0]):
            yield (stage.name,
                   f"stage {stage.name!r} declares {key!r} but its "
                   f"body never reads ctx[{key!r}]; cached results "
                   f"invalidate more often than needed")


# ----------------------------------------------------------------------
# Entry point


def lint_flow(dag: Any, options: Any = None, *,
              params: tuple[str, ...] = DEFAULT_RUN_PARAMS,
              waivers: Waivers | None = None,
              purity: bool = True,
              only: list[str] | None = None,
              subject: str = "flow") -> LintReport:
    """Statically verify a flow DAG (and its stage functions).

    Flow-scope rules need only the DAG plus the run bindings
    (``options``, ``params``); with ``purity`` (the default) every
    stage function is additionally AST-checked for cache-soundness
    hazards via :func:`repro.lint.purity.check_flow_purity`.
    """
    t0 = time.perf_counter()
    ctx = FlowLintContext(dag=dag, options=options,
                          params=tuple(params))
    report = REGISTRY.run("flow", ctx, subject, only=only)
    if purity:
        purity_report = check_flow_purity(dag)
        for finding in purity_report.findings:
            report.findings.append(finding)
    if waivers is not None:
        report.findings = waivers.apply(report.findings)
    report.wall_s = time.perf_counter() - t0
    return report
