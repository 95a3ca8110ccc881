"""The flow datatypes.

This module owns the public datatypes of an implementation run:
:class:`FlowOptions` (recipe knobs), :class:`FlowStatus`, and
:class:`FlowResult` — including the one canonical
:meth:`FlowResult.from_run` conversion from an executor-level
:class:`~repro.orchestrate.executor.RunResult`.

The ``basic``/``advanced`` recipes realize Domic's "do more with less"
comparison (E15): the advanced flow wins on every axis using the same
substrate algorithms with the decade's options enabled.

The flow itself runs through :func:`repro.orchestrate.run` and
:func:`repro.orchestrate.resume_run`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.netlist.circuit import Netlist


class FlowStatus(str, Enum):
    """Terminal status of a flow run.

    A ``str`` mixin keeps every existing ``result.status == "ok"``
    comparison working; ``RESUMED`` means
    :func:`~repro.orchestrate.resume_run` finished the run and at
    least one of its stages hit in the run's stores (its metrics are
    bit-identical to an uninterrupted ``OK`` run).  A failed required
    stage raises :class:`~repro.orchestrate.executor.StageError`
    rather than returning a status.
    """

    OK = "ok"
    DEGRADED = "degraded"      # an optional stage failed
    RESUMED = "resumed"        # a resume that found completed stages

    def __str__(self) -> str:
        return self.value


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    return _number(value) and 0 < value < math.inf


def _int_at_least(low: int):
    return lambda value: (isinstance(value, int)
                          and not isinstance(value, bool)
                          and value >= low)


def _is_bool(value) -> bool:
    return isinstance(value, bool)


#: ``FlowOptions`` field -> (check, what the check demands); ``era`` is
#: checked against the synthesis recipes in :meth:`FlowOptions.validate`.
_FIELD_CHECKS = {
    "utilization": (lambda v: _number(v) and 0 < v <= 1,
                    "a number in (0, 1]"),
    "spreading_passes": (_int_at_least(1), "an int >= 1"),
    "detailed_passes": (_int_at_least(0), "an int >= 0"),
    "routing_layers": (_int_at_least(2), "an int >= 2 (metal layers)"),
    "routing_iterations": (_int_at_least(1), "an int >= 1"),
    "gcell_um": (_finite_positive, "a finite number > 0"),
    "scan": (_is_bool, "a bool"),
    "scan_chains": (_int_at_least(1), "an int >= 1"),
    "layout_aware_scan": (_is_bool, "a bool"),
    "cts": (_is_bool, "a bool"),
    "clock_period_ps": (_finite_positive, "a finite number > 0"),
    "freq_ghz": (_finite_positive, "a finite number > 0"),
    "seed": (_int_at_least(0), "an int >= 0"),
}


@dataclass
class FlowOptions:
    """Recipe knobs for :func:`repro.orchestrate.run`.

    The named constructors give the two era recipes; individual knobs
    remain overridable for ablations and tuning (E8).

    :meth:`validate` checks every field when the options object is
    constructed, so an out-of-range value is a ``ValueError`` naming
    the field here rather than a surprise mid-flow.  Unpickling
    (journal/cache decode) and later attribute assignment bypass that
    check, so the flow validates again before any stage runs.

    ``routing_iterations`` is a cap on the router's passes (the first
    pass plus negotiation rounds): negotiation also stops at zero
    overflow and after a round that cuts overflow by less than 1%, so
    ``result.routing.iterations`` can be lower.
    """

    era: str = "2016"
    utilization: float = 0.4
    spreading_passes: int = 3
    detailed_passes: int = 2
    routing_layers: int = 6
    routing_iterations: int = 4
    gcell_um: float = 2.0
    scan: bool = False
    scan_chains: int = 1
    layout_aware_scan: bool = True
    cts: bool = False
    clock_period_ps: float = 2000.0
    freq_ghz: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first field out of range."""
        from repro.synthesis.flow import ERAS
        if self.era not in ERAS:
            raise ValueError(f"era={self.era!r}: must be one of {ERAS}")
        for name, (check, doc) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if not check(value):
                raise ValueError(f"{name}={value!r}: must be {doc}")

    @staticmethod
    def basic() -> "FlowOptions":
        """The 2006-era recipe."""
        return FlowOptions(era="2006", spreading_passes=1,
                           detailed_passes=0, routing_iterations=1,
                           layout_aware_scan=False)

    @staticmethod
    def advanced() -> "FlowOptions":
        """The 2016-era recipe."""
        return FlowOptions()


@dataclass
class FlowResult:
    """Signoff-style QoR of one implementation run."""

    netlist: Netlist
    placement: object
    routing: object
    options: FlowOptions
    instances: int
    area_um2: float
    hpwl_um: float
    routed_wirelength: int
    overflow: int
    delay_ps: float
    power_uw: float
    runtime_s: float
    stage_runtimes: dict = field(default_factory=dict)
    clock_tree: object = None
    status: FlowStatus = FlowStatus.OK
    run_id: str | None = None    # set when the run was journaled
    lint: object = None          # netlist LintReport; None otherwise

    @classmethod
    def from_run(cls, run, options: FlowOptions,
                 stage_runtimes: dict | None = None,
                 run_id: str | None = None) -> "FlowResult":
        """The canonical ``RunResult`` → ``FlowResult`` conversion.

        Every flow front-end (``repro.orchestrate.run``,
        ``resume_run``) assembles its result here, so field mapping
        cannot drift between entry points.  The status is the run's
        (``ok`` or ``degraded``); ``resume_run`` marks its own result
        ``resumed``.
        """
        outputs = run.outputs
        placement = outputs["dft"]
        netlist = placement.netlist
        routing = outputs["routing"]
        signoff = outputs["signoff"]
        return cls(
            netlist=netlist,
            placement=placement,
            routing=routing,
            options=options,
            instances=netlist.num_instances(),
            area_um2=netlist.area_um2(),
            hpwl_um=placement.total_hpwl(),
            routed_wirelength=routing.wirelength,
            overflow=routing.overflow,
            delay_ps=signoff["delay_ps"],
            power_uw=signoff["power_uw"],
            runtime_s=run.wall_s,
            stage_runtimes=dict(stage_runtimes or {}),
            clock_tree=outputs.get("cts"),
            status=FlowStatus(run.status),
            run_id=run_id,
        )

    @property
    def clock_skew_ps(self) -> float:
        """CTS skew, or 0 when the flow ran without CTS."""
        return self.clock_tree.skew_ps if self.clock_tree else 0.0

    def summary(self) -> str:
        """One-line QoR string."""
        return (
            f"{self.options.era}-flow: {self.instances} cells, "
            f"{self.area_um2:.1f} um2, wl {self.routed_wirelength} "
            f"gcells (ovfl {self.overflow}), {self.delay_ps:.0f} ps, "
            f"{self.power_uw:.1f} uW, {self.runtime_s:.2f} s"
        )
