"""The rule registry: one namespace for every lint rule.

A :class:`Rule` couples an id (``NET-002``), a default severity, and a
check function.  Check functions are generators yielding
:class:`Violation` records — (location, message, optional severity
override) — and the driver stamps them into full
:class:`~repro.lint.report.Finding` objects, so rule ids and
severities cannot drift between the rule table and its output.

Rules register themselves into the module-global :data:`REGISTRY` via
the :func:`rule` decorator at import time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from repro.lint.report import Finding, LintReport, Severity, Waivers

#: What a check function yields: (location, message) or
#: (location, message, severity-override).
Violation = tuple

CheckFn = Callable[..., Iterable[Violation]]
_F = TypeVar("_F", bound=CheckFn)


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    severity: Severity
    title: str
    scope: str               # "netlist" | "hierarchy"
    check: CheckFn

    def findings(self, ctx: object, subject: str,
                 max_findings: int | None = None
                 ) -> tuple[list[Finding], int]:
        """Run the check; returns (findings, suppressed-count)."""
        out: list[Finding] = []
        suppressed = 0
        for violation in self.check(ctx):
            location, message = violation[0], violation[1]
            severity = violation[2] if len(violation) > 2 \
                else self.severity
            if max_findings is not None and len(out) >= max_findings:
                suppressed += 1
                continue
            out.append(Finding(rule_id=self.id, severity=severity,
                               message=message, subject=subject,
                               location=location))
        return out, suppressed


class RuleRegistry:
    """Rules indexed by id, filterable by scope."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def add(self, new_rule: Rule) -> Rule:
        """Register a rule; duplicate ids are an error."""
        if new_rule.id in self._rules:
            raise ValueError(f"duplicate lint rule id {new_rule.id!r}")
        self._rules[new_rule.id] = new_rule
        return new_rule

    def rules(self, scope: str | None = None) -> list[Rule]:
        """Registered rules, optionally filtered by scope."""
        return [r for r in self._rules.values()
                if scope is None or r.scope == scope]

    def ids(self, scope: str | None = None) -> list[str]:
        return [r.id for r in self.rules(scope)]

    def run(self, scope: str, ctx: object, subject: str, *,
            waivers: Waivers | None = None,
            max_findings_per_rule: int | None = 50) -> LintReport:
        """Run every rule of ``scope`` over ``ctx`` into one report."""
        t0 = time.perf_counter()
        report = LintReport(subject=subject)
        for checked in self.rules(scope):
            found, suppressed = checked.findings(
                ctx, subject, max_findings_per_rule)
            report.extend(found)
            if suppressed:
                report.truncated[checked.id] = suppressed
        if waivers is not None:
            report.findings = waivers.apply(report.findings)
        report.wall_s = time.perf_counter() - t0
        return report


#: The default registry every ``lint_*`` entry point consults.
REGISTRY = RuleRegistry()


def rule(rule_id: str, severity: Severity, title: str,
         scope: str) -> Callable[[_F], _F]:
    """Decorator: register ``fn`` as the check of a new rule."""
    def decorate(fn: _F) -> _F:
        REGISTRY.add(Rule(id=rule_id, severity=severity, title=title,
                          scope=scope, check=fn))
        return fn
    return decorate
