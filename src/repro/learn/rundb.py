"""The run database: self-monitoring of implementation runs.

:class:`RunDatabase` is an in-memory store of QoR, telemetry, and
recovery records with JSON ``save``/``load``, single-writer by
construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.netlist.circuit import Netlist


@dataclass
class RunRecord:
    """One logged implementation run."""

    design: str
    features: dict           # design fingerprint (see design_features)
    knobs: dict              # tool settings used
    qor: dict                # measured results (hpwl, overflow, ...)
    tags: list = field(default_factory=list)


@dataclass
class TelemetryRecord:
    """One per-stage telemetry span of an implementation run.

    Mirrors :class:`repro.orchestrate.telemetry.Span` plus the design
    it belongs to, so stage-level cost and cache behaviour persist
    alongside the QoR records they explain.
    """

    design: str
    stage: str
    wall_s: float
    status: str = "ok"
    cache: str | None = None
    peak_rss_kb: int | None = None


@dataclass
class RecoveryRecord:
    """One journal-resumed run (see
    :func:`repro.orchestrate.resilience.resume_run`).

    ``replayed`` counts stages restored from the write-ahead journal,
    ``executed`` the frontier stages that actually re-ran — the ratio
    is the work a crash did *not* cost, the metric behind the
    checkpoint/resume design.
    """

    run_id: str
    design: str
    replayed: int
    executed: int
    status: str = "resumed"


def design_features(netlist: Netlist) -> dict:
    """A design fingerprint for similarity lookup.

    Deliberately cheap: instance count, average fanout, sequential
    ratio, area — the features a tool has before placement starts.
    """
    gates = list(netlist.gates.values())
    if not gates:
        return {"instances": 0, "avg_fanout": 0.0, "seq_ratio": 0.0,
                "area_um2": 0.0}
    fanout = netlist.fanout_map()
    loads = [len(v) for v in fanout.values()]
    seq = sum(1 for g in gates if g.cell.is_sequential)
    return {
        "instances": len(gates),
        "avg_fanout": sum(loads) / max(len(loads), 1),
        "seq_ratio": seq / len(gates),
        "area_um2": netlist.area_um2(),
    }


class RunDatabase:
    """Accumulates run records; queryable by design similarity."""

    def __init__(self):
        self.records: list[RunRecord] = []
        self.telemetry: list[TelemetryRecord] = []
        self.recovery: list[RecoveryRecord] = []

    def log(self, record: RunRecord) -> None:
        """Add a run."""
        self.records.append(record)

    def log_recovery(self, record: RecoveryRecord) -> None:
        """Add a checkpoint/resume event."""
        self.recovery.append(record)

    def log_telemetry(self, design: str, spans) -> None:
        """Persist per-stage spans (see ``repro.orchestrate``) for a
        design's run alongside its QoR record."""
        for span in spans:
            payload = span.to_dict() if hasattr(span, "to_dict") \
                else dict(span)
            payload.pop("job", None)
            payload.pop("notes", None)
            self.telemetry.append(TelemetryRecord(design=design,
                                                  **payload))

    def stage_profile(self, design: str | None = None) -> dict:
        """Aggregate stage cost: ``{stage: {"calls", "wall_s",
        "cache_hits"}}``, optionally filtered to one design."""
        profile: dict = {}
        for rec in self.telemetry:
            if design is not None and rec.design != design:
                continue
            agg = profile.setdefault(
                rec.stage, {"calls": 0, "wall_s": 0.0,
                            "cache_hits": 0})
            agg["calls"] += 1
            agg["wall_s"] += rec.wall_s
            agg["cache_hits"] += rec.cache == "hit"
        return profile

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------

    def similar_runs(self, features: dict, *, limit: int = 10) -> list:
        """Records nearest to a design fingerprint.

        Distance: normalized L1 over the shared numeric features.
        """
        def distance(rec: RunRecord) -> float:
            d = 0.0
            for key, val in features.items():
                other = rec.features.get(key)
                if other is None:
                    continue
                scale = max(abs(val), abs(other), 1e-9)
                d += abs(val - other) / scale
            return d
        return sorted(self.records, key=distance)[:limit]

    def best_knobs(self, features: dict, metric: str, *,
                   limit: int = 10) -> dict | None:
        """Knobs of the best similar run by ``metric`` (lower wins)."""
        candidates = [
            r for r in self.similar_runs(features, limit=limit)
            if metric in r.qor
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: r.qor[metric]).knobs

    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Persist runs, telemetry, and recovery events to JSON."""
        payload = {"runs": [asdict(r) for r in self.records],
                   "telemetry": [asdict(t) for t in self.telemetry],
                   "recovery": [asdict(r) for r in self.recovery]}
        Path(path).write_text(json.dumps(payload, indent=1))

    @staticmethod
    def load(path) -> "RunDatabase":
        """Load from JSON written by :meth:`save`.

        Any other top-level shape (such as a bare list of runs) raises
        ``ValueError`` naming the file.
        """
        db = RunDatabase()
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(
                f"{path}: not a run database (expected a JSON object "
                f"written by RunDatabase.save, got "
                f"{type(payload).__name__})")
        for item in payload.get("runs", []):
            db.log(RunRecord(**item))
        for item in payload.get("telemetry", []):
            db.telemetry.append(TelemetryRecord(**item))
        for item in payload.get("recovery", []):
            db.recovery.append(RecoveryRecord(**item))
        return db
