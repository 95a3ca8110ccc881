"""Flow static verification: check a stage table before executing it.

A flow whose stage depends on a stage that runs later (or never),
misspells a knob, reads an undeclared ``ctx`` key, or reads an option
its cache key leaves out fails *minutes or hours* into a run — or
worse, silently widens/narrows its cache key and replays wrong
results.  Every one of those is statically decidable from the stage
table alone, so :func:`lint_flow` decides them up front.  The shipped
table, :data:`repro.orchestrate.flows.STAGES`, is fixed code, so
``tests/test_lint.py`` lints it once rather than every ``run()``
re-checking it.

Rule table
----------

=========  ========  ===================================================
FLOW-001   error     a dep names no earlier stage
FLOW-004   error     knob name is not an attribute of the options object
FLOW-005   error     declared param is not provided by the run context
FLOW-006   error     stage body reads a ctx key it never declared
FLOW-007   info      declared dep/param never read (cache key wider
                     than necessary)
FLOW-008   error     stage body reads an option outside its ``knobs``,
                     or uses the options object (or ctx) whole
PURE-xxx   (varies)  cache-soundness hazards, via :mod:`.purity`
=========  ========  ===================================================

Stages run in table order, so FLOW-001 also covers what a dependency
graph would need two more rules for: a cycle must name a later stage,
and a table with a missing producer is refused as a whole.
FLOW-006/007/008 parse the stage function's source.  A stage whose
``ctx`` is used dynamically (a non-literal key, or ``ctx`` passed on
whole) is skipped by FLOW-007 rather than guessed at, and reported by
FLOW-008 when it has ``knobs``: its cache key cannot then be narrowed
soundly.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Iterable, Iterator

from repro.lint.purity import check_flow_purity
from repro.lint.registry import REGISTRY, Violation, rule
from repro.lint.report import LintReport, Severity

#: Parameters every implement-flow execution provides to its stages.
DEFAULT_RUN_PARAMS = ("subject", "library", "options")


@dataclass
class CtxUses:
    """What one stage function does with its ``ctx`` argument."""

    keys: set[str] = field(default_factory=set)   # literal keys read
    exhaustive: bool = True      # every use is a literal-key read
    option_attrs: set[str] = field(default_factory=set)
    options_whole: bool = False  # ctx["options"] used other than .attr


@dataclass
class FlowLintContext:
    """Shared facts the flow rules read: the stage table, the options,
    and each stage function's ctx uses (None: source unavailable)."""

    stages: tuple[Any, ...]
    options: Any
    uses: tuple[CtxUses | None, ...]


def _ctx_uses(fn: Any) -> CtxUses | None:
    """Classify every use of ``fn``'s first argument, ``ctx``; None
    when the source of ``fn`` is unavailable.

    A use is a read ``ctx["key"]`` / ``ctx.get("key")``; anything else
    (a non-literal key, ``ctx`` passed to a helper) makes the reads
    non-exhaustive.  The ``"options"`` reads are followed further:
    ``.attr`` on them — directly or through names they are bound to by
    plain, annotated or tuple-unpacking assignments — is an option
    read, and any other use of the object makes it ``options_whole``.
    """
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    except (OSError, TypeError, SyntaxError):
        return None
    funcs = [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    if not funcs or not (funcs[0].args.posonlyargs or funcs[0].args.args):
        return None
    func = funcs[0]
    ctx_name = [*func.args.posonlyargs, *func.args.args][0].arg
    parent = {id(child): node for node in ast.walk(func)
              for child in ast.iter_child_nodes(node)}

    def loads(name: str) -> list[ast.Name]:
        return [node for node in ast.walk(func)
                if isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)]

    uses = CtxUses()
    options: list[ast.expr] = []        # nodes evaluating to options
    read: ast.expr
    key: ast.expr
    for node in loads(ctx_name):
        up = parent.get(id(node))
        call = parent.get(id(up))
        if isinstance(up, ast.Subscript) and up.value is node:
            read, key = up, up.slice
        elif isinstance(up, ast.Attribute) and up.attr == "get" and \
                isinstance(call, ast.Call) and call.func is up and \
                call.args:
            read, key = call, call.args[0]
        else:
            uses.exhaustive = False     # ctx escapes whole
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            uses.keys.add(key.value)
            if key.value == "options":
                options.append(read)
        else:
            uses.exhaustive = False
    aliases: set[str] = set()
    while options:
        expr = options.pop()
        up = parent.get(id(expr))
        assign = parent.get(id(up))
        target: ast.expr | None = None
        if isinstance(up, ast.Assign) and len(up.targets) == 1:
            target = up.targets[0]
        elif isinstance(up, ast.AnnAssign):
            target = up.target
        elif isinstance(up, ast.Tuple) and isinstance(assign, ast.Assign) \
                and len(assign.targets) == 1 and assign.value is up:
            names = assign.targets[0]
            if isinstance(names, ast.Tuple) and \
                    len(names.elts) == len(up.elts):
                target = names.elts[up.elts.index(expr)]
        if isinstance(target, ast.Name):   # bound: follow the name
            if target.id not in aliases:
                aliases.add(target.id)
                options.extend(loads(target.id))
        elif isinstance(up, ast.Attribute) and up.value is expr:
            uses.option_attrs.add(up.attr)
        else:
            uses.options_whole = True
    return uses


# ----------------------------------------------------------------------
# Rules


@rule("FLOW-001", Severity.ERROR, "dep on no earlier stage", "flow")
def dep_on_no_earlier_stage(ctx: FlowLintContext) -> Iterator[Violation]:
    """Every dep must name a stage earlier in the table: stages run in
    table order, and the executor refuses any other table up front."""
    earlier: set[str] = set()
    for stage in ctx.stages:
        for dep in stage.deps:
            if dep not in earlier:
                yield (stage.name,
                       f"stage {stage.name!r} depends on {dep!r}, "
                       f"which names no earlier stage")
        earlier.add(stage.name)


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
    for stage in ctx.stages:
        for knob in stage.knobs:
            if knob not in valid:
                yield (stage.name,
                       f"stage {stage.name!r} declares knob "
                       f"{knob!r}, not an attribute of "
                       f"{type(options).__name__}")


@rule("FLOW-005", Severity.ERROR, "unprovided run parameter", "flow")
def unprovided_param(ctx: FlowLintContext) -> Iterator[Violation]:
    """Declared params must be among :data:`DEFAULT_RUN_PARAMS`."""
    for stage in ctx.stages:
        for param in stage.params:
            if param not in DEFAULT_RUN_PARAMS:
                yield (stage.name,
                       f"stage {stage.name!r} declares param "
                       f"{param!r}, but the run only provides "
                       f"{sorted(DEFAULT_RUN_PARAMS)}")


@rule("FLOW-006", Severity.ERROR, "undeclared ctx read", "flow")
def undeclared_ctx_read(ctx: FlowLintContext) -> Iterator[Violation]:
    """The stage body reads a ctx key outside deps + params.

    The executor builds ``ctx`` from exactly the declared keys, so
    this is a guaranteed KeyError — discovered here instead of
    mid-run.
    """
    for stage, uses in zip(ctx.stages, ctx.uses):
        if uses is None:
            continue
        declared = set(stage.deps) | set(stage.params)
        for key in sorted(uses.keys - declared):
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
    for stage, uses in zip(ctx.stages, ctx.uses):
        if uses is None or not uses.exhaustive:
            continue
        declared = set(stage.deps) | set(stage.params)
        for key in sorted(declared - uses.keys):
            yield (stage.name,
                   f"stage {stage.name!r} declares {key!r} but its "
                   f"body never reads ctx[{key!r}]; cached results "
                   f"invalidate more often than needed")


@rule("FLOW-008", Severity.ERROR, "option read outside knobs", "flow")
def option_outside_knobs(ctx: FlowLintContext) -> Iterator[Violation]:
    """A stage with ``knobs`` reads only those options.

    Its cache key holds the knobs instead of the whole options object,
    so an option read outside them replays a stale result when only
    that option changes.  Options (or ``ctx``) used whole, e.g. passed
    to a call, are reported too: what reads them is then unknown.
    """
    for stage, uses in zip(ctx.stages, ctx.uses):
        if not stage.knobs or uses is None:
            continue
        for attr in sorted(uses.option_attrs - set(stage.knobs)):
            yield (stage.name,
                   f"stage {stage.name!r} reads options.{attr}, which "
                   f"is not among its knobs {list(stage.knobs)}, so "
                   f"its cached result ignores that option")
        if uses.options_whole or not uses.exhaustive:
            yield (stage.name,
                   f"stage {stage.name!r} uses the options (or ctx) "
                   f"whole, so its cache key cannot be narrowed to "
                   f"{list(stage.knobs)}")


# ----------------------------------------------------------------------
# Entry point


def lint_flow(stages: Iterable[Any], options: Any = None) -> LintReport:
    """Statically verify a stage table (FLOW rules; ``options`` names
    the valid knobs) and its stage functions' cache soundness (PURE
    rules, :func:`repro.lint.purity.check_flow_purity`)."""
    t0 = time.perf_counter()
    table = tuple(stages)
    uses = tuple(_ctx_uses(stage.fn) for stage in table)
    report = REGISTRY.run("flow", FlowLintContext(table, options, uses),
                          "flow")
    report.extend(check_flow_purity(table).findings)
    report.wall_s = time.perf_counter() - t0
    return report
