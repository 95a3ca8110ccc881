"""The engine registry: one catalog of stage engines and their knobs.

Placement grew a second engine in PR 7 and routing grows one now; both
subsystems previously validated their ``engine=`` strings ad hoc (a
typo fell through to a ``ValueError`` deep inside a worker process, or
worse, to a silent default).  This module centralizes that:

* Engines register by ``(stage, name)`` with a loader (deferred
  import, so registering every engine costs nothing at import time), a
  description, and a *knob schema* — the :class:`FlowOptions` fields
  the engine honors, each with an optional value check.
* :func:`get_engine` is the only lookup, and it is strict: unknown
  names raise :class:`UnknownEngineError` (a ``ValueError``) naming the
  stage, the known engines, and the closest spelling.  A run never
  executes an engine other than the one its options name.
* :func:`validate_options` runs the strict check at *option
  construction* time, so ``FlowOptions(routing_engine="mase")`` is an
  early ``ValueError`` in the caller's stack, not a mid-flow surprise.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable


class UnknownEngineError(ValueError):
    """An engine name the registry does not know."""


@dataclass(frozen=True)
class Knob:
    """One option field an engine honors.

    ``check`` (when given) receives the option value and returns
    whether it is acceptable; ``doc`` explains the constraint in the
    error message.
    """

    name: str
    doc: str = ""
    check: Callable[[Any], bool] | None = None


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: identity, loader, and knob schema."""

    stage: str
    name: str
    loader: Callable[[], Callable[..., Any]]
    description: str = ""
    knobs: tuple[Knob, ...] = ()
    default: bool = False

    def load(self) -> Callable[..., Any]:
        """Import and return the engine callable (deferred)."""
        return self.loader()


@dataclass
class _Registry:
    specs: dict[tuple[str, str], EngineSpec] = field(default_factory=dict)
    defaults: dict[str, str] = field(default_factory=dict)


_REGISTRY = _Registry()


def register(spec: EngineSpec) -> EngineSpec:
    """Add an engine to the registry; duplicate ``(stage, name)`` raises."""
    key = (spec.stage, spec.name)
    if key in _REGISTRY.specs:
        raise ValueError(f"engine {spec.name!r} already registered "
                         f"for stage {spec.stage!r}")
    _REGISTRY.specs[key] = spec
    if spec.default:
        if spec.stage in _REGISTRY.defaults:
            raise ValueError(f"stage {spec.stage!r} already has a "
                             f"default engine "
                             f"({_REGISTRY.defaults[spec.stage]!r})")
        _REGISTRY.defaults[spec.stage] = spec.name
    return spec


def engine_names(stage: str) -> tuple[str, ...]:
    """The registered engine names for a stage, registration order."""
    return tuple(name for (s, name) in _REGISTRY.specs if s == stage)


def stage_names() -> tuple[str, ...]:
    """Every stage with at least one registered engine, first-seen
    order."""
    seen: list[str] = []
    for stage, _ in _REGISTRY.specs:
        if stage not in seen:
            seen.append(stage)
    return tuple(seen)


def axes() -> dict[str, tuple[str, ...]]:
    """The full ablation grid: stage -> registered engine names.

    One source of truth for sweep and tuning tooling
    (:func:`repro.learn.tuner.engine_space`,
    :func:`repro.orchestrate.sweep.engine_grid_options`): anything that
    wants to enumerate "every engine of every stage" reads this map
    instead of hard-coding names that rot when an engine is added or
    retired.
    """
    return {stage: engine_names(stage) for stage in stage_names()}


def default_engine(stage: str) -> str:
    """The stage's default engine name."""
    try:
        return _REGISTRY.defaults[stage]
    except KeyError:
        raise UnknownEngineError(
            f"no engines registered for stage {stage!r}") from None


def get_engine(stage: str, name: str) -> EngineSpec:
    """Strict lookup: unknown names raise with a did-you-mean hint."""
    spec = _REGISTRY.specs.get((stage, name))
    if spec is not None:
        return spec
    known = engine_names(stage)
    if not known:
        raise UnknownEngineError(
            f"no engines registered for stage {stage!r}")
    hint = ""
    close = difflib.get_close_matches(name, known, n=1)
    if close:
        hint = f" (did you mean {close[0]!r}?)"
    raise UnknownEngineError(
        f"unknown {stage} engine {name!r}; known engines: "
        f"{', '.join(repr(k) for k in known)}{hint}")


#: (stage, FlowOptions attribute) pairs validated at option construction.
OPTION_ENGINE_FIELDS: tuple[tuple[str, str], ...] = (
    ("synthesis", "synth_engine"),
    ("placement", "place_engine"),
    ("cts", "cts_engine"),
    ("routing", "routing_engine"),
    ("sizing", "sizing_engine"),
)


def validate_options(options: Any) -> None:
    """Early validation of every engine knob on an options object.

    For each engine-selection field: the engine must exist for its
    stage (typo -> :class:`UnknownEngineError` here, in the
    constructor's stack), and the engine's knob checks run against the
    option values they constrain.
    """
    for stage, attr in OPTION_ENGINE_FIELDS:
        name = getattr(options, attr, None)
        if name is None:
            continue
        try:
            spec = get_engine(stage, name)
        except UnknownEngineError as exc:
            raise UnknownEngineError(f"{attr}: {exc}") from None
        for knob in spec.knobs:
            if knob.check is None or not hasattr(options, knob.name):
                continue
            value = getattr(options, knob.name)
            if not knob.check(value):
                raise ValueError(
                    f"{attr}={spec.name!r}: bad {knob.name}={value!r}"
                    f" ({knob.doc})")
