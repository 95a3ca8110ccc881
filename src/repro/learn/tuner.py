"""Knob tuning: successive halving, warm-started from the run DB."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.learn.rundb import RunDatabase, RunRecord


@dataclass
class KnobSpace:
    """The tunable knobs: name -> list of candidate values."""

    knobs: dict

    def __post_init__(self) -> None:
        if not self.knobs:
            raise ValueError("knob space is empty")
        for name, values in self.knobs.items():
            if not values:
                raise ValueError(f"knob {name!r} has no candidates")

    def grid(self) -> list:
        """Every combination as a dict."""
        names = sorted(self.knobs)
        out = []
        for combo in itertools.product(*(self.knobs[n] for n in names)):
            out.append(dict(zip(names, combo)))
        return out

    def sample(self, count: int, seed: int = 0) -> list:
        """Random subset of the grid (without replacement)."""
        grid = self.grid()
        rng = np.random.default_rng(seed)
        if count >= len(grid):
            return grid
        idx = rng.choice(len(grid), size=count, replace=False)
        return [grid[i] for i in idx]


@dataclass
class TuneResult:
    """Outcome of a tuning session."""

    best_knobs: dict
    best_score: float
    evaluations: int
    history: list = field(default_factory=list)  # (knobs, score)
    warm_started: bool = False


def tune_knobs(evaluate, space: KnobSpace, *,
               db: RunDatabase | None = None,
               design_features: dict | None = None,
               metric: str = "score",
               budget: int = 12, survivors: int = 3,
               seed: int = 0, log_to_db: bool = True) -> TuneResult:
    """Successive-halving search over the knob space.

    ``evaluate(knobs) -> float`` (lower is better; e.g. HPWL or a
    weighted QoR blend).  With a run database and design features the
    initial candidate set is seeded with the best knobs of similar past
    runs — the "exploiting an exhaustive set of information" step that
    makes results consistent across designs.
    """
    if budget < 2:
        raise ValueError("budget must be at least 2")
    candidates = space.sample(budget, seed=seed)
    warm = False
    if db is not None and design_features is not None and len(db):
        prior = db.best_knobs(design_features, metric)
        if prior is not None and prior not in candidates:
            candidates[0] = prior
            warm = True

    history = []
    evaluations = 0
    scores = []
    for knobs in candidates:
        score = float(evaluate(knobs))
        evaluations += 1
        history.append((knobs, score))
        scores.append(score)
    order = np.argsort(scores)
    finalists = [candidates[i] for i in order[:max(survivors, 1)]]
    # Refinement round: re-evaluate finalists (captures run-to-run
    # noise the way a real halving schedule does) and pick the best
    # average.
    final_scores = []
    for knobs in finalists:
        score = float(evaluate(knobs))
        evaluations += 1
        history.append((knobs, score))
        prev = next(s for k, s in history if k == knobs)
        final_scores.append((score + prev) / 2)
    best_idx = int(np.argmin(final_scores))
    best = finalists[best_idx]
    best_score = final_scores[best_idx]
    if db is not None and log_to_db:
        db.log(RunRecord(
            design="tuning",
            features=design_features or {},
            knobs=best,
            qor={metric: best_score},
            tags=["tuner"],
        ))
    return TuneResult(
        best_knobs=best,
        best_score=best_score,
        evaluations=evaluations,
        history=history,
        warm_started=warm,
    )
