"""Static analysis: netlist lint and flow verification before runtime.

The panel's economics are blunt: design cost and debug time, not tool
speed, bound what gets built.  The cheapest debug hour is the one a
static check made unnecessary — so this package gives the suite
signoff-style lint with one rule registry and machine-readable
reports:

* **Netlist lint** (:mod:`~repro.lint.netlist_rules`) — undriven and
  multi-driven nets, floating pins, dangling POs, combinational
  cycles, fanout overloads, dead cones (``NET-xxx``), plus hierarchy
  port checks for two-level designs (``NET-008``).
* **Flow static verification** (:mod:`~repro.lint.flow_rules`) —
  deps on no earlier stage, knob typos, undeclared ``ctx`` reads, and
  option reads outside a stage's cache-key ``knobs``, on a table of
  :class:`~repro.orchestrate.dag.Stage` rows (``FLOW-xxx``).
* **Purity checking** (:mod:`~repro.lint.purity`) — AST-level
  cache-soundness hazards in stage functions: wall-clock reads,
  unseeded randomness, environment reads, captured-global mutation
  (``PURE-xxx``), with inline ``# lint: waive`` support.

Everything lands in a :class:`LintReport` (JSON / SARIF export,
waiver files).  ``orchestrate.run`` lints a ``Netlist`` subject before
any stage runs: errors become a failed ``lint`` telemetry span, the
run proceeds, and the report is ``FlowResult.lint``.  A caller that
wants a gate checks first: ``if not lint_netlist(design).ok: ...``.

Command line::

    PYTHONPATH=src python -m repro.lint design.v --node 28nm --json
"""

from repro.lint.flow_rules import (
    DEFAULT_RUN_PARAMS,
    FlowLintContext,
    lint_flow,
)
from repro.lint.netlist_rules import (
    INVARIANT_RULE_IDS,
    LintConfig,
    NetlistLintContext,
    lint_design,
    lint_netlist,
)
from repro.lint.purity import check_flow_purity, check_stage_purity
from repro.lint.registry import REGISTRY, Rule, RuleRegistry, rule
from repro.lint.report import (
    Finding,
    LintReport,
    Severity,
    Waiver,
    Waivers,
)

__all__ = [
    "DEFAULT_RUN_PARAMS",
    "Finding",
    "FlowLintContext",
    "INVARIANT_RULE_IDS",
    "LintConfig",
    "LintReport",
    "NetlistLintContext",
    "REGISTRY",
    "Rule",
    "RuleRegistry",
    "Severity",
    "Waiver",
    "Waivers",
    "check_flow_purity",
    "check_stage_purity",
    "lint_design",
    "lint_flow",
    "lint_netlist",
    "rule",
]
