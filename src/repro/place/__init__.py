"""Placement: quadratic global placement, legalization, detailed moves.

Supports the panel's implementation-side experiments: flat vs
hierarchical flows and their buffering overhead (E2), P&R throughput
scaling (E7), hot-spot-aware spreading (E9), and layout-aware scan
reordering (E10).
"""

from repro.place.placement import Placement
from repro.place.analytic import analytic_place
from repro.place.global_place import global_place, star_pairs
from repro.place.detailed import detailed_place
from repro.place.buffering import buffer_long_nets, estimate_buffers
from repro.place.flows import (
    PnrResult,
    place_flat,
    place_hierarchical,
)
from repro.place.timing_driven import (
    slack_weights,
    timing_driven_place,
)

__all__ = [
    "Placement",
    "analytic_place",
    "global_place",
    "star_pairs",
    "detailed_place",
    "buffer_long_nets",
    "estimate_buffers",
    "PnrResult",
    "place_flat",
    "place_hierarchical",
    "slack_weights",
    "timing_driven_place",
]
