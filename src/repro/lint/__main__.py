"""Command-line netlist linter.

Lint a structural-Verilog netlist (the format
:func:`repro.netlist.io.write_verilog` emits) against the full
netlist rule set::

    PYTHONPATH=src python -m repro.lint design.v --node 28nm
    PYTHONPATH=src python -m repro.lint design.v --json > lint.json
    PYTHONPATH=src python -m repro.lint design.v --sarif lint.sarif \\
        --waivers waivers.txt

Exit status: 0 when the report is clean (no unwaived errors), 1 when
error findings gate, 2 on usage/parse problems (including a
``--max-findings`` below 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.netlist_rules import LintConfig, lint_netlist
from repro.lint.report import LintReport, Waivers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Netlist linter: structural signoff checks for "
                    "mapped gate-level Verilog.")
    parser.add_argument("netlist", help="structural Verilog file")
    parser.add_argument("--node", default="28nm",
                        help="technology node for the cell library "
                             "(default: 28nm)")
    parser.add_argument("--waivers", default=None,
                        help="waiver file (RULE LOCATION_GLOB # why)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON on stdout")
    parser.add_argument("--sarif", default=None, metavar="PATH",
                        help="also write a SARIF 2.1.0 report")
    parser.add_argument("--max-findings", type=int, default=50,
                        help="per-rule finding cap (default: 50)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = LintConfig(max_findings_per_rule=args.max_findings)
    except ValueError as err:
        parser.error(f"--max-findings: {err}")
    from repro.netlist import build_library
    from repro.netlist.io import read_verilog
    from repro.tech import get_node

    try:
        text = Path(args.netlist).read_text()
    except OSError as err:
        print(f"error: cannot read {args.netlist}: {err}",
              file=sys.stderr)
        return 2
    library = build_library(get_node(args.node),
                            vt_flavors=("lvt", "rvt", "hvt"))
    try:
        netlist = read_verilog(text, library)
    except (ValueError, KeyError) as err:
        print(f"error: cannot parse {args.netlist}: {err}",
              file=sys.stderr)
        return 2

    waivers = Waivers.load(args.waivers) if args.waivers else None
    report: LintReport = lint_netlist(netlist, config=config,
                                      waivers=waivers)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(report.to_sarif(), indent=1))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
