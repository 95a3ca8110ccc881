"""The run database: self-monitoring of implementation runs.

:class:`RunDatabase` is an in-memory store of one :class:`RunRecord`
per run, holding its design features, knobs, QoR and the flow's own
telemetry spans (:class:`~repro.orchestrate.telemetry.Span`), with
JSON ``save``/``load``, single-writer by construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.netlist.circuit import Netlist
from repro.orchestrate.telemetry import Span


@dataclass
class RunRecord:
    """One logged implementation run.

    ``spans`` are the run's telemetry spans as the flow recorded them,
    lint notes included; in a resumed run the stages replayed from its
    journal are the spans with ``cache="journal"``.  ``run_id`` names
    the run journal when the run was journaled.
    """

    design: str
    features: dict           # design fingerprint (see design_features)
    knobs: dict              # tool settings used
    qor: dict                # measured results (hpwl, overflow, ...)
    tags: list = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    run_id: str | None = None


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

    def log(self, record: RunRecord) -> None:
        """Add a run."""
        self.records.append(record)

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
        """Persist the runs, spans included, to JSON."""
        payload = {"runs": [
            {**asdict(r), "spans": [s.to_dict() for s in r.spans]}
            for r in self.records]}
        Path(path).write_text(json.dumps(payload, indent=1))

    @staticmethod
    def load(path) -> "RunDatabase":
        """Load from JSON written by :meth:`save`.

        Any other shape (such as a bare list of runs, or a top-level
        key beside ``runs``) raises ``ValueError`` naming the file.
        """
        db = RunDatabase()
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(
                f"{path}: not a run database (expected a JSON object "
                f"written by RunDatabase.save, got "
                f"{type(payload).__name__})")
        unknown = sorted(set(payload) - {"runs"})
        if unknown:
            raise ValueError(
                f"{path}: not a run database written by "
                f"RunDatabase.save (unexpected keys {unknown})")
        for item in payload.get("runs", []):
            spans = [Span.from_dict(s) for s in item.pop("spans", [])]
            db.log(RunRecord(**item, spans=spans))
        return db
