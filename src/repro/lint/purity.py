"""AST-based cache-soundness (purity) checks for stage functions.

The orchestrator's content-addressed cache assumes a stage's output is
a pure function of its declared inputs.  A stage that reads the wall
clock, draws unseeded randomness, consults ``os.environ``, or mutates
captured module state silently breaks that assumption — its cache key
no longer identifies its output, and every replay is a potential wrong
answer.  These hazards are *statically* detectable: this module parses
each stage function's source and flags them before a run executes.
They are the part of cache soundness the executor cannot enforce: it
already hands each stage only its declared inputs and the options its
``knobs`` name.  :func:`lint_flow` checks every stage of a table.

The analysis is shallow by design: it inspects the stage function's
own body (helpers it calls are not followed), which is exactly the
layer where flow authors wire knobs to kernels.  Seeded randomness
(``np.random.default_rng(seed)``, ``random.Random(seed)``) is pure and
passes; only the unseeded forms are hazards.

Rule table
----------

=========  ========  ====================================================
PURE-001   error     wall-clock read (``time.time`` family, ``datetime``)
PURE-002   error     unseeded randomness (``random.*``, ``np.random.*``)
PURE-003   error     environment read (``os.environ``, ``os.getenv``)
PURE-004   warning   mutation of captured module-global state
PURE-005   warning   closure / mutable-default state outside the key
PURE-000   info      source unavailable (builtin or C-implemented fn)
=========  ========  ====================================================
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import time
import types
from typing import Any, Callable, Iterable

from repro.lint.report import Finding, LintReport, Severity

#: Dotted call targets that read the wall clock.
_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today",
}

#: Dotted call targets that are nondeterministic however called.
_RANDOM_CALLS = {
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.shuffle",
    "random.sample", "random.uniform", "random.gauss",
    "random.normalvariate", "random.getrandbits", "random.betavariate",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow",
    "numpy.random.random", "numpy.random.rand", "numpy.random.randn",
    "numpy.random.randint", "numpy.random.choice",
    "numpy.random.normal", "numpy.random.uniform",
    "numpy.random.permutation", "numpy.random.shuffle",
}

#: Dotted call targets that are pure *only when seeded* (arguments
#: present); a bare call falls back to OS entropy.
_SEEDABLE_CALLS = {
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState",
}

#: Dotted prefixes whose attribute/subscript *read* is a hazard.
_ENV_READS = ("os.environ", "os.getenv")

#: Methods that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "write",
}


def _qualify(fn: Callable[..., object], node: ast.AST,
             local_imports: dict[str, str]) -> str | None:
    """Resolve a Name/Attribute chain to a dotted module path.

    ``np.random.default_rng`` becomes ``numpy.random.default_rng`` by
    looking the root name up in the function's globals (so aliases
    resolve robustly) or in imports local to the function body.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = current.id
    module = local_imports.get(root)
    if module is None:
        bound = getattr(fn, "__globals__", {}).get(root)
        if isinstance(bound, types.ModuleType):
            module = bound.__name__
        elif callable(bound) and not parts:
            # ``from random import random`` style direct import.
            mod_name = getattr(bound, "__module__", "") or ""
            qualname = getattr(bound, "__qualname__", root)
            if mod_name.startswith("numpy.random"):
                mod_name = "numpy.random"
            return f"{mod_name}.{qualname}" if mod_name else None
    if module is None:
        return None
    return ".".join([module, *reversed(parts)]) if parts else module


class _PurityVisitor(ast.NodeVisitor):
    """Walk one stage function's AST collecting purity hazards."""

    def __init__(self, fn: Callable[..., object]) -> None:
        self.fn = fn
        self.hazards: list[tuple[str, int, str]] = []
        self.local_imports: dict[str, str] = {}
        self.local_names: set[str] = set()
        self.global_names: set[str] = set()
        self._depth = 0

    # -- bookkeeping ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(self, node: ast.FunctionDef
                        | ast.AsyncFunctionDef) -> None:
        if self._depth == 0:
            args = node.args
            for arg in (*args.posonlyargs, *args.args,
                        *args.kwonlyargs):
                self.local_names.add(arg.arg)
            if args.vararg:
                self.local_names.add(args.vararg.arg)
            if args.kwarg:
                self.local_names.add(args.kwarg.arg)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.local_imports[alias.asname or
                               alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.local_imports[alias.asname or alias.name] = \
                f"{node.module}.{alias.name}" if node.module else \
                alias.name

    def visit_Global(self, node: ast.Global) -> None:
        self.global_names.update(node.names)
        self.hazards.append((
            "PURE-004", node.lineno,
            f"stage declares global {', '.join(node.names)}: "
            "mutations escape the cache key"))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_binding(target)
            self._check_state_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_state_write(node.target)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._note_binding(node.target)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._note_binding(item.optional_vars)
        self.generic_visit(node)

    def _note_binding(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_binding(element)

    # -- hazard detection ----------------------------------------------

    def _is_captured(self, name: str) -> bool:
        """A name bound outside the stage function's own scope."""
        if name in self.local_names or name in self.local_imports:
            return False
        bound = getattr(self.fn, "__globals__", {}).get(name)
        return bound is not None and \
            not isinstance(bound, types.ModuleType) and \
            not callable(bound)

    def _check_state_write(self, target: ast.AST) -> None:
        """Subscript/attribute stores into captured objects."""
        current = target
        while isinstance(current, (ast.Subscript, ast.Attribute)):
            current = current.value
        if isinstance(current, ast.Name) and \
                current is not target and \
                self._is_captured(current.id):
            self.hazards.append((
                "PURE-004", getattr(target, "lineno", 0),
                "stage writes into captured global "
                f"{current.id!r}: the cache cannot see it"))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _qualify(self.fn, node.func, self.local_imports)
        if dotted is not None:
            if dotted in _CLOCK_CALLS:
                self.hazards.append((
                    "PURE-001", node.lineno,
                    f"stage reads the wall clock via {dotted}()"))
            elif dotted in _RANDOM_CALLS:
                self.hazards.append((
                    "PURE-002", node.lineno,
                    "stage draws unseeded randomness via "
                    f"{dotted}()"))
            elif dotted in _SEEDABLE_CALLS and not node.args \
                    and not node.keywords:
                self.hazards.append((
                    "PURE-002", node.lineno,
                    f"{dotted}() without a seed falls back to OS "
                    "entropy; pass an explicit seed"))
            elif dotted == "os.getenv" or \
                    dotted.startswith("os.environ"):
                self.hazards.append((
                    "PURE-003", node.lineno,
                    f"stage reads the environment via {dotted}"))
        # Mutating method calls on captured globals.
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATORS:
            receiver = node.func.value
            while isinstance(receiver, (ast.Subscript, ast.Attribute)):
                receiver = receiver.value
            if isinstance(receiver, ast.Name) and \
                    self._is_captured(receiver.id):
                self.hazards.append((
                    "PURE-004", node.lineno,
                    "stage mutates captured global "
                    f"{receiver.id!r} via .{node.func.attr}()"))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            dotted = _qualify(self.fn, node.value, self.local_imports)
            if dotted is not None and dotted.startswith(_ENV_READS):
                self.hazards.append((
                    "PURE-003", node.lineno,
                    f"stage reads the environment via {dotted}[...]"))
        self.generic_visit(node)


def _location(fn: Callable[..., object], lineno: int) -> str:
    module = getattr(fn, "__module__", "") or "<unknown>"
    qualname = getattr(fn, "__qualname__",
                       getattr(fn, "__name__", "<fn>"))
    return f"{module}.{qualname}:{lineno}"


def check_stage_purity(fn: Callable[..., object], *,
                       stage_name: str | None = None) -> list[Finding]:
    """Statically check one stage function for cache-soundness hazards.

    Returns :class:`~repro.lint.report.Finding` records (empty when the
    function is clean).  A function whose source is unavailable
    (builtins, C extensions) yields one info finding (PURE-000) rather
    than a false clean bill.
    """
    subject = stage_name or getattr(fn, "__name__", "<stage>")
    try:
        source = inspect.getsource(fn)
        first_line = inspect.getsourcelines(fn)[1]
    except (OSError, TypeError):
        return [Finding(
            rule_id="PURE-000", severity=Severity.INFO,
            message="source of stage function unavailable; purity "
                    "not statically checkable",
            subject=subject, location=_location(fn, 0))]
    try:
        tree = ast.parse(textwrap.dedent(source))
    except SyntaxError:           # pragma: no cover - getsource quirk
        return [Finding(
            rule_id="PURE-000", severity=Severity.INFO,
            message="stage function source did not parse standalone",
            subject=subject, location=_location(fn, first_line))]
    visitor = _PurityVisitor(fn)
    visitor.visit(tree)

    hazards = list(visitor.hazards)
    # Closure and mutable-default state ride the function object, not
    # the AST.
    closure = getattr(fn, "__closure__", None)
    if closure:
        freevars = getattr(fn.__code__, "co_freevars", ())
        hazards.append((
            "PURE-005", first_line,
            f"stage closes over {', '.join(freevars)}: closure state "
            "is invisible to the content-hash cache key"))
    for default in (getattr(fn, "__defaults__", None) or ()):
        if isinstance(default, (list, dict, set, bytearray)):
            hazards.append((
                "PURE-005", first_line,
                "mutable default argument "
                f"({type(default).__name__}) persists state across "
                "calls"))

    severities = {"PURE-001": Severity.ERROR,
                  "PURE-002": Severity.ERROR,
                  "PURE-003": Severity.ERROR,
                  "PURE-004": Severity.WARNING,
                  "PURE-005": Severity.WARNING}
    return [Finding(rule_id=rule_id,
                    severity=severities.get(rule_id, Severity.WARNING),
                    message=message, subject=subject,
                    location=_location(fn,
                                       first_line + max(rel_line - 1, 0)))
            for rule_id, rel_line, message in hazards]


def lint_flow(stages: Iterable[Any]) -> LintReport:
    """Purity-check every stage function of a stage table: the part
    of its cache soundness the executor cannot enforce on a run."""
    t0 = time.perf_counter()
    report = LintReport(subject="flow")
    for stage in stages:
        report.findings.extend(check_stage_purity(
            stage.fn, stage_name=stage.name))
    report.wall_s = time.perf_counter() - t0
    return report
