"""Lint findings, reports, waivers, and machine-readable export.

The common currency of :mod:`repro.lint`: every rule — netlist,
hierarchy, or purity — emits :class:`Finding` records that a
:class:`LintReport` aggregates.  Reports export to JSON and a
SARIF-style dict so CI and dashboards consume the same data the
flow's pre-run lint records, and a :class:`Waivers` set can mark
known findings as reviewed without deleting the evidence (the
signoff-tool idiom: waived violations stay in the report, they just
stop gating).
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

#: Version of the report wire format (JSON / SARIF export).
REPORT_SCHEMA_VERSION = 1


class Severity(str, Enum):
    """How bad a finding is.

    Unwaived ``ERROR`` findings fail a report (``LintReport.ok``);
    ``WARNING`` and ``INFO`` are recorded but never fail it.  The
    ``str`` mixin keeps comparisons like ``finding.severity ==
    "error"`` working.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value

    @property
    def sarif_level(self) -> str:
        """The SARIF ``level`` value for this severity."""
        return "note" if self is Severity.INFO else self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``location`` is rule-specific: a net, gate or instance name for
    netlist and hierarchy rules, ``module.function:line`` for purity
    hazards.  ``waived`` findings stay in the report (and its
    exports) but do not count toward :attr:`LintReport.errors`.
    """

    rule_id: str
    severity: Severity
    message: str
    subject: str = ""        # design / stage the finding belongs to
    location: str = ""       # net, gate, instance, or source position
    waived: bool = False
    waive_reason: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "rule_id": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "subject": self.subject,
            "location": self.location,
            "waived": self.waived,
            "waive_reason": self.waive_reason,
        }

    def __str__(self) -> str:
        flag = " (waived)" if self.waived else ""
        where = f" [{self.location}]" if self.location else ""
        return (f"{str(self.severity).upper():7s} {self.rule_id}"
                f"{where}: {self.message}{flag}")


@dataclass(frozen=True)
class Waiver:
    """One reviewed-and-accepted finding pattern.

    ``rule_id`` and ``location`` are shell globs (``fnmatch``), so one
    waiver can cover a family of findings (``NET-007`` on ``u_spare*``).
    """

    rule_id: str
    location: str = "*"
    reason: str = ""

    def matches(self, finding: Finding) -> bool:
        return (fnmatch.fnmatchcase(finding.rule_id, self.rule_id)
                and fnmatch.fnmatchcase(finding.location or "",
                                        self.location))


class Waivers:
    """An ordered set of :class:`Waiver` patterns.

    File format (one waiver per line)::

        # comment
        NET-007 u_spare*      # spare cells are intentionally dead
        PURE-005 *            # closures audited 2026-08

    Fields are whitespace-separated: rule glob, optional location glob
    (default ``*``), optional ``#``-prefixed reason.
    """

    def __init__(self, waivers: Iterable[Waiver] = ()) -> None:
        self.waivers: list[Waiver] = list(waivers)

    def __len__(self) -> int:
        return len(self.waivers)

    def __iter__(self) -> Iterator[Waiver]:
        return iter(self.waivers)

    def add(self, rule_id: str, location: str = "*",
            reason: str = "") -> "Waivers":
        """Register one waiver pattern; chainable."""
        self.waivers.append(Waiver(rule_id, location, reason))
        return self

    @classmethod
    def load(cls, path: str | Path) -> "Waivers":
        """Parse a waiver file (see class docstring for the format)."""
        out = cls()
        for raw in Path(path).read_text().splitlines():
            line, _, comment = raw.partition("#")
            fields_ = line.split()
            if not fields_:
                continue
            rule_glob = fields_[0]
            loc_glob = fields_[1] if len(fields_) > 1 else "*"
            out.add(rule_glob, loc_glob, comment.strip())
        return out

    def match(self, finding: Finding) -> Waiver | None:
        """The first waiver covering ``finding``, or None."""
        for waiver in self.waivers:
            if waiver.matches(finding):
                return waiver
        return None

    def apply(self, findings: Iterable[Finding]) -> list[Finding]:
        """Copy ``findings`` with matching ones marked waived."""
        out: list[Finding] = []
        for finding in findings:
            waiver = self.match(finding)
            if waiver is not None and not finding.waived:
                finding = replace(finding, waived=True,
                                  waive_reason=waiver.reason)
            out.append(finding)
        return out


@dataclass
class LintReport:
    """All findings of one lint run over one subject.

    ``ok`` is the gating predicate: no *unwaived* error-severity
    findings.  ``truncated`` names rules whose findings were capped by
    ``max_findings_per_rule`` (so a flood of dead-cone warnings cannot
    hide that the report is incomplete).
    """

    subject: str = ""
    findings: list[Finding] = field(default_factory=list)
    wall_s: float = 0.0
    truncated: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    # -- filtering -----------------------------------------------------

    def by_severity(self, severity: Severity) -> list[Finding]:
        """Unwaived findings at exactly ``severity``."""
        return [f for f in self.findings
                if f.severity is severity and not f.waived]

    @property
    def errors(self) -> list[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Finding]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Finding]:
        return self.by_severity(Severity.INFO)

    @property
    def waived(self) -> list[Finding]:
        return [f for f in self.findings if f.waived]

    @property
    def ok(self) -> bool:
        """True when nothing error-severity survived waiving."""
        return not self.errors

    # -- composition ---------------------------------------------------

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "LintReport") -> "LintReport":
        """Fold another report's findings into this one; chainable."""
        self.findings.extend(other.findings)
        self.wall_s += other.wall_s
        for rule_id, count in other.truncated.items():
            self.truncated[rule_id] = \
                self.truncated.get(rule_id, 0) + count
        return self

    # -- rendering -----------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "waived": len(self.waived),
        }

    def summary(self) -> str:
        """One-line report string."""
        c = self.counts()
        gate = "clean" if self.ok else "GATING"
        return (f"lint {self.subject or '<subject>'}: "
                f"{c['errors']} errors, {c['warnings']} warnings, "
                f"{c['infos']} info, {c['waived']} waived "
                f"({gate}, {self.wall_s * 1000:.1f} ms)")

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [self.summary()]
        lines.extend(str(f) for f in self.findings)
        for rule_id, count in sorted(self.truncated.items()):
            lines.append(
                f"...     {rule_id}: {count} further finding(s) "
                f"suppressed (raise max_findings_per_rule to see all)")
        return "\n".join(lines)

    # -- machine-readable export ---------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "subject": self.subject,
            "ok": self.ok,
            "counts": self.counts(),
            "wall_s": self.wall_s,
            "truncated": dict(self.truncated),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_sarif(self) -> dict[str, object]:
        """SARIF 2.1.0-shaped dict (one run, one result per finding).

        ``physicalLocation`` carries the subject as the artifact and
        the finding location as a logical region description — netlist
        objects have no file/line, so logical locations are the
        faithful encoding.
        """
        rules_meta = [
            {"id": rule_id} for rule_id in
            dict.fromkeys(f.rule_id for f in self.findings)]
        results: list[dict[str, object]] = []
        for finding in self.findings:
            result: dict[str, object] = {
                "ruleId": finding.rule_id,
                "level": finding.severity.sarif_level,
                "message": {"text": finding.message},
                "locations": [{
                    "logicalLocations": [{
                        "fullyQualifiedName":
                            f"{finding.subject}::{finding.location}"
                            if finding.location else finding.subject,
                    }],
                }],
            }
            if finding.waived:
                result["suppressions"] = [{
                    "kind": "external",
                    "justification": finding.waive_reason,
                }]
            results.append(result)
        return {
            "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                        "sarif-spec/master/Schemata/sarif-schema-2.1.0"
                        ".json"),
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {"name": "repro.lint",
                                    "rules": rules_meta}},
                "results": results,
            }],
        }

    def __str__(self) -> str:
        return self.render()
