"""One row of a flow's stage table: :class:`Stage`.

:func:`repro.orchestrate.executor.run_stages` runs a table of stages in
order; :data:`repro.orchestrate.flows.STAGES` is the implementation
flow's.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Stage:
    """A pure-ish callable ``fn(ctx) -> value`` and what it reads.

    ``deps`` name earlier stages whose outputs this stage consumes;
    ``params`` name run parameters (e.g. ``"options"``) it reads.  The
    executor builds ``ctx`` from exactly those keys, which doubles as
    the content-hash domain for caching.  ``knobs`` optionally names
    the attributes of the run's options the stage reads: its
    ``ctx["options"]`` then holds only those, and its cache key hashes
    only those, so changing one knob only invalidates the stages that
    read it.
    """

    name: str
    fn: object
    deps: tuple = ()
    params: tuple = ()
    knobs: tuple = ()
    optional: bool = False      # failure degrades the run, not kills it
