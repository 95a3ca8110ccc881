"""Flow orchestration and the panel's backwards/forwards analytics.

* :mod:`repro.core.flow` — the flow datatypes (options, status,
  result), with basic vs advanced recipes ("do more with less", E15);
  :func:`repro.orchestrate.run` executes the flow.
* :mod:`repro.core.throughput` — P&R throughput calibration and the
  1M-instances/day extrapolation (E7).
* :mod:`repro.core.panel` — the decade retrospective/prospective
  report quantifying the panel's abstract.
* :mod:`repro.core.experiments` — the registry mapping experiment ids
  (E1..E15) to their benchmark entry points.
"""

from repro.core.flow import FlowOptions, FlowResult, FlowStatus
from repro.core.throughput import (
    ThroughputModel,
    calibrate_throughput,
)
from repro.core.panel import decade_report
from repro.core.experiments import EXPERIMENTS, experiment_info
from repro.core.signoff import SignoffReport, signoff, signoff_frequency_ghz

__all__ = [
    "FlowOptions",
    "FlowResult",
    "FlowStatus",
    "ThroughputModel",
    "calibrate_throughput",
    "decade_report",
    "EXPERIMENTS",
    "experiment_info",
    "SignoffReport",
    "signoff",
    "signoff_frequency_ghz",
]
