"""Lint findings and reports.

The common currency of :mod:`repro.lint`: the netlist rules and the
purity check both emit :class:`Finding` records that a
:class:`LintReport` aggregates.  ``str(finding)`` is the line the
flow's failed ``lint`` span carries as a note, and so the line the
run database stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Severity(str, Enum):
    """How bad a finding is.

    ``ERROR`` findings fail a report (``LintReport.ok``); ``WARNING``
    and ``INFO`` are recorded but never fail it.  The ``str`` mixin
    keeps comparisons like ``finding.severity == "error"`` working.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``location`` is rule-specific: a net or gate name for netlist
    rules, ``module.function:line`` for purity hazards.
    """

    rule_id: str
    severity: Severity
    message: str
    subject: str = ""        # design / stage the finding belongs to
    location: str = ""       # net, gate, or source position

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return (f"{str(self.severity).upper():7s} {self.rule_id}"
                f"{where}: {self.message}")


@dataclass
class LintReport:
    """All findings of one lint run over one subject.

    ``ok`` is the gating predicate: no error-severity findings.
    ``truncated`` counts, per rule, the findings beyond the per-rule
    cap that were not reported (so a flood of dead-cone warnings
    cannot hide that the report is incomplete).
    """

    subject: str = ""
    findings: list[Finding] = field(default_factory=list)
    wall_s: float = 0.0
    truncated: dict[str, int] = field(default_factory=dict)

    def _at(self, severity: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> list[Finding]:
        return self._at(Severity.ERROR)

    @property
    def warnings(self) -> list[Finding]:
        return self._at(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no finding is error-severity."""
        return not self.errors

    def summary(self) -> str:
        """One-line report string."""
        gate = "clean" if self.ok else "GATING"
        infos = len(self._at(Severity.INFO))
        return (f"lint {self.subject or '<subject>'}: "
                f"{len(self.errors)} errors, "
                f"{len(self.warnings)} warnings, {infos} info "
                f"({gate}, {self.wall_s * 1000:.1f} ms)")

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [self.summary()]
        lines.extend(str(f) for f in self.findings)
        for rule_id, count in sorted(self.truncated.items()):
            lines.append(f"...     {rule_id}: {count} further "
                         "finding(s) not reported")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
