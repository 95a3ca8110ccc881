"""``python -m repro.engines``: render the stage-engine catalog.

The enumerable knob surface in human and machine form: every stage and
its registered engines (default first-class, descriptions, honored
knobs).  The docs quote the text output; sweep tooling consumes
``--json`` (the payload mirrors :func:`repro.engines.axes` plus
per-engine metadata, so a script can build the full ablation grid
without importing the package).

    python -m repro.engines                 # every stage, text
    python -m repro.engines cts             # one stage
    python -m repro.engines --json          # machine-readable catalog
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.engines import (
    default_engine,
    engine_names,
    get_engine,
    stage_names,
)


def catalog(stages: tuple[str, ...]) -> dict[str, Any]:
    """The catalog as one JSON-ready dict, stage registration order."""
    out: dict[str, Any] = {}
    for stage in stages:
        out[stage] = {
            "default": default_engine(stage),
            "engines": [
                {
                    "name": spec.name,
                    "default": spec.default,
                    "description": spec.description,
                    "knobs": [knob.name for knob in spec.knobs],
                }
                for spec in (get_engine(stage, name)
                             for name in engine_names(stage))
            ],
        }
    return out


def render_text(data: dict[str, Any]) -> str:
    """The human-facing listing, one block per stage."""
    lines: list[str] = []
    for stage, info in data.items():
        lines.append(f"{stage} (default: {info['default']})")
        for engine in info["engines"]:
            marker = "*" if engine["default"] else " "
            lines.append(f"  {marker} {engine['name']:<12} "
                         f"{engine['description']}")
            if engine["knobs"]:
                lines.append(f"      knobs: "
                             f"{', '.join(engine['knobs'])}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engines", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("stage", nargs="?",
                        help="restrict to one stage (default: all)")
    parser.add_argument("--json", action="store_true",
                        help="emit the catalog as JSON")
    args = parser.parse_args(argv)
    stages = stage_names()
    if args.stage is not None:
        if args.stage not in stages:
            print(f"unknown stage {args.stage!r}; stages: "
                  f"{', '.join(stages)}", file=sys.stderr)
            return 2
        stages = (args.stage,)
    data = catalog(stages)
    if args.json:
        json.dump(data, sys.stdout, indent=1)
        print()
    else:
        sys.stdout.write(render_text(data))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
