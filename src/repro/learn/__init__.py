"""The self-learning implementation engine Rossi asks for.

"There is no real self-monitoring of the implementation tools able to
generate information useful to the next runs ... a kind of built-in
self-learning engine having access [to] and greatly exploiting an
exhaustive set of information could better drive for more consistent
results." (E8)

* :mod:`repro.learn.rundb` — the run database: every implementation run
  logs its design features, knob settings, QoR, and the flow's own
  telemetry spans, in one record per run.
* :mod:`repro.learn.predictor` — ridge-regression QoR predictor trained
  on the run DB.
* :mod:`repro.learn.tuner` — successive-halving knob tuning, warm-
  started from the run DB.
"""

from repro.learn.rundb import RunDatabase, RunRecord, design_features
from repro.learn.predictor import QorPredictor
from repro.learn.tuner import KnobSpace, tune_knobs

__all__ = [
    "RunDatabase",
    "RunRecord",
    "design_features",
    "QorPredictor",
    "KnobSpace",
    "tune_knobs",
]
