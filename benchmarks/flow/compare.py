#!/usr/bin/env python3
"""Compare two ``bench_flow.py --out`` result files.

    python3 benchmarks/flow/compare.py A.json B.json

For every workload and end-to-end metric of ``BENCHMARK.json`` it
prints both medians and quartiles and a verdict against the metric's
bound, taking A as the parent and B as the change:

* ``pass``: B's median is not worse than A's by more than the bound;
* ``FAIL``: it is;
* ``unresolved``: the spread of either side (quartile distance over
  median) exceeds the bound, so the runs cannot tell (unless every B
  sample beats every A sample, which reads ``better``).

QoR is compared too.  It is seeded, so equal code gives equal values;
a change may not make any QoR value worse by more than ``QOR_BOUND``.
QoR is not in ``BENCHMARK.json`` because it varies across ``--seed``
values by more than any bound allowed there.  Exits 1 on any ``FAIL``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from checks import QOR_FIELDS

ROOT = Path(__file__).resolve().parent.parent.parent
QOR_BOUND = 0.01


def _worse(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a."""
    change = (b - a) / a if a else 0.0
    return change if better == "lower" else -change


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    """One row per (workload, metric) present in both result files."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            sa, sb = wa["metrics"][name], wb["metrics"][name]
            spread = max((s["q3"] - s["q1"]) / s["median"]
                         for s in (sa, sb))
            worse = _worse(sa["median"], sb["median"], metric["better"])
            sign = 1 if metric["better"] == "lower" else -1
            if spread > metric["bound"]:
                verdict = "better" if (
                    sign * max(sb["samples"]) < sign * min(sa["samples"])
                ) else "unresolved"
            else:
                verdict = "FAIL" if worse > metric["bound"] else "pass"
            rows.append({"workload": workload, "metric": name,
                         "a": sa, "b": sb, "worse": worse,
                         "spread": spread, "bound": metric["bound"],
                         "verdict": verdict})
        qa, qb = wa.get("qor") or {}, wb.get("qor") or {}
        for name in QOR_FIELDS:
            if name not in qa or name not in qb:
                continue
            worse = _worse(qa[name], qb[name], "lower")
            verdict = "same" if qa[name] == qb[name] else (
                "FAIL" if worse > QOR_BOUND else "pass")
            rows.append({"workload": workload, "metric": name,
                         "a": _point(qa[name]), "b": _point(qb[name]),
                         "worse": worse, "spread": 0.0,
                         "bound": QOR_BOUND, "verdict": verdict})
    return rows


def _point(value: float) -> dict:
    """A single exact value in the shape of a timing summary."""
    return {"median": value, "q1": value, "q3": value}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="parent results")
    ap.add_argument("b", type=Path, help="change results")
    ap.add_argument("--benchmark", type=Path,
                    default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    rows = compare(json.loads(args.a.read_text()),
                   json.loads(args.b.read_text()),
                   json.loads(args.benchmark.read_text()))
    print(f"{'workload':<10} {'metric':<18} {'A median':>12} "
          f"{'A q1..q3':>25} {'B median':>12} {'B q1..q3':>25} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        a, b = r["a"], r["b"]
        print(f"{r['workload']:<10} {r['metric']:<18} "
              f"{a['median']:12.4f} {a['q1']:12.4f}{a['q3']:13.4f} "
              f"{b['median']:12.4f} {b['q1']:12.4f}{b['q3']:13.4f} "
              f"{r['worse']:+8.2%} {r['spread']:7.2%} {r['bound']:6.0%}  "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "FAIL" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
