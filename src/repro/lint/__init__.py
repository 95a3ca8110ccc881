"""Static analysis: netlist lint and stage purity before runtime.

The panel's economics are blunt: design cost and debug time, not tool
speed, bound what gets built.  The cheapest debug hour is the one a
static check made unnecessary — so this package holds the two checks
the suite runs:

* **Netlist lint** (:func:`lint_netlist`, in
  :mod:`~repro.lint.netlist_rules`) — undriven and multi-driven nets,
  floating pins, dangling POs, combinational cycles, fanout overloads
  and dead cones (``NET-001`` to ``NET-007``): seven plain rule
  functions in one ``RULES`` tuple, with fixed limits.
  ``orchestrate.run`` lints a ``Netlist`` subject before any stage
  runs: errors become a failed ``lint`` telemetry span, the run
  proceeds, and the report is ``FlowResult.lint``.  A caller that
  wants a gate checks first: ``if not lint_netlist(design).ok: ...``.
* **Purity checking** (:func:`lint_flow`, in :mod:`~repro.lint.purity`)
  — AST-level cache-soundness hazards in stage functions: wall-clock
  reads, unseeded randomness, environment reads, captured-global
  mutation (``PURE-xxx``).  A tier-1 test runs it over the shipped
  stage table.  The rest of a table's soundness is the executor's:
  :func:`~repro.orchestrate.executor.run_stages` refuses a bad table
  before any stage runs, and a stage with ``knobs`` cannot read an
  option outside them.

Both return a :class:`LintReport` of :class:`Finding` records.
"""

from repro.lint.netlist_rules import INVARIANT_RULE_IDS, lint_netlist
from repro.lint.purity import check_stage_purity, lint_flow
from repro.lint.report import Finding, LintReport, Severity

__all__ = [
    "Finding",
    "INVARIANT_RULE_IDS",
    "LintReport",
    "Severity",
    "check_stage_purity",
    "lint_flow",
    "lint_netlist",
]
