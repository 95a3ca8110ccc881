"""Append machine-normalized benchmark results to a trend file.

``BENCH_*.json`` snapshots are absolute numbers from whatever machine
ran them, so comparing across commits compares hardware as much as
code.  This tool extracts each bench's headline metrics, divides the
time-like ones by a measured *machine score* (a short fixed pure-
Python workload, timed at append time), and appends one JSONL row per
bench to a trajectory file (default ``BENCH_TREND.jsonl``).  Ratios
and counts are dimensionless and pass through unchanged.

Rows carry the git revision when available, so the trajectory reads
as "normalized metric over history":

    python benchmarks/trend.py                  # append all BENCH_*.json
    python benchmarks/trend.py BENCH_perf.json  # just one
    python benchmarks/trend.py --show           # print the trajectory
    python benchmarks/trend.py --check          # regression gate

``--check`` compares the two most recent rows of every (bench, quick)
series and exits nonzero if any gated time-like metric regressed by
more than 10% (machine-normalized, so a slower CI box alone does not
trip it).  It also alerts — advisory unless ``--gate-best`` — when
the newest row drifts more than ``--best-tolerance`` (default 25%)
above the *best* value its series ever recorded, catching slow
multi-commit erosion the pairwise gate cannot see.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: bench name -> (headline metrics, which of them are seconds-like and
#: therefore divided by the machine score).  Metrics missing from a
#: snapshot are skipped, so older files still append.
HEADLINES = {
    "perf": {
        "metrics": ["designs.large.sta_incremental_ms",
                    "designs.large.place_ms",
                    "designs.large.speedup_incr_vs_cold",
                    "designs.large.place_speedup",
                    "designs.large.hpwl_ratio"],
        "time_like": ["designs.large.sta_incremental_ms",
                      "designs.large.place_ms"],
    },
    "serialize": {
        "metrics": ["designs.large.size_ratio",
                    "designs.large.pipeline_ratio",
                    "designs.large.packed_pipeline_ms"],
        "time_like": ["designs.large.packed_pipeline_ms"],
    },
    "lint": {
        "metrics": ["designs.large.lint_full_ms",
                    "designs.large.lint_invariants_ms"],
        "time_like": ["designs.large.lint_full_ms",
                      "designs.large.lint_invariants_ms"],
    },
    "resilience": {
        "metrics": ["clean_run_s", "scenarios", "identical",
                    "divergent"],
        "time_like": ["clean_run_s"],
    },
    "route": {
        "metrics": ["route_ms", "route_speedup",
                    "overflow_batched", "wl_ratio"],
        "time_like": ["route_ms"],
    },
}


def machine_score(repeats: int = 3) -> float:
    """Relative speed of this machine (1.0 = the reference box).

    Times a fixed integer/string workload; the reference constant was
    measured once on the box that seeded the trend file.  Dividing a
    wall-clock metric by this score cancels (to first order) raw
    single-core speed differences between machines.
    """
    def workload() -> int:
        acc = 0
        for i in range(200_000):
            acc = (acc * 1103515245 + i) % (1 << 31)
        return acc ^ sum(map(hash, map(str, range(10_000))))

    best = min(_timed(workload) for _ in range(repeats))
    reference_s = 0.034              # the seeding machine's best time
    return reference_s / best


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _lookup(payload: dict, dotted: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def append_snapshot(path: Path, trend_path: Path,
                    score: float) -> dict | None:
    name = path.stem.replace("BENCH_", "")
    spec = HEADLINES.get(name)
    if spec is None:
        print(f"  {path.name}: no headline spec, skipped")
        return None
    payload = json.loads(path.read_text())
    metrics = {}
    for dotted in spec["metrics"]:
        value = _lookup(payload, dotted)
        if value is None:
            continue
        if dotted in spec["time_like"]:
            value = value / score    # faster machine -> smaller raw
        metrics[dotted] = value
    row = {"bench": name, "rev": _git_rev(),
           "machine_score": score, "quick": payload.get("quick"),
           "metrics": metrics}
    with open(trend_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return row


def show(trend_path: Path) -> None:
    if not trend_path.exists():
        print("no trend file yet")
        return
    for line in trend_path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        metrics = ", ".join(f"{k}={v:.4g}" if isinstance(v, float)
                            else f"{k}={v}"
                            for k, v in row["metrics"].items())
        print(f"{row.get('rev') or '???????':>9}  "
              f"{row['bench']:<10} {metrics}")


def check(trend_path: Path, tolerance: float = 0.10,
          best_tolerance: float = 0.25,
          gate_best: bool = False) -> int:
    """Fail on >``tolerance`` regression of any gated kernel.

    For every (bench, quick) series in the trend file, the newest row
    is compared against the one before it; only the ``time_like``
    headline metrics are gated (ratios and counts drift for
    legitimate reasons).  Both rows are machine-normalized at append
    time, so this compares code, not hardware.

    The newest row is *also* compared against the best (smallest)
    value the series ever recorded: a kernel can erode a few percent
    per commit without ever tripping the vs-prev gate, so drifting
    more than ``best_tolerance`` above the historical best prints a
    ``DRIFT`` alert.  Alerts are advisory by default (a long-lived
    series legitimately trades peak speed for features); with
    ``gate_best`` they fail the check like a regression.
    """
    if not trend_path.exists():
        print("no trend file yet; nothing to check")
        return 0
    series: dict[tuple, list] = {}
    for line in trend_path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        series.setdefault((row["bench"], row.get("quick")),
                          []).append(row)
    failures = 0
    drifts = 0
    for (bench, quick), rows in sorted(series.items()):
        spec = HEADLINES.get(bench)
        if spec is None or len(rows) < 2:
            continue
        prev, last = rows[-2], rows[-1]
        for metric in spec["time_like"]:
            a = prev["metrics"].get(metric)
            b = last["metrics"].get(metric)
            if a is None or b is None or a <= 0:
                continue
            ratio = b / a
            tag = f"{bench}[quick={quick}] {metric}"
            if ratio > 1 + tolerance:
                print(f"REGRESSION {tag}: {a:.4g} -> {b:.4g} "
                      f"({ratio:.2f}x, max {1 + tolerance:.2f}x)")
                failures += 1
            else:
                print(f"ok {tag}: {a:.4g} -> {b:.4g} ({ratio:.2f}x)")
            history = [r["metrics"][metric] for r in rows[:-1]
                       if r["metrics"].get(metric)]
            best = min(history) if history else None
            if best and best > 0 and b / best > 1 + best_tolerance:
                print(f"DRIFT {tag}: {b:.4g} is {b / best:.2f}x the "
                      f"series best {best:.4g} "
                      f"(alert above {1 + best_tolerance:.2f}x)")
                drifts += 1
    if drifts:
        print(f"{drifts} gated kernel(s) drifted >"
              f"{best_tolerance:.0%} above their series best"
              + (" (gating)" if gate_best else " (advisory)"))
    if failures or (gate_best and drifts):
        print(f"{failures} gated kernel(s) regressed >10%")
        return 1
    print("no gated kernel regressed")
    return 0


def report(trend_path: Path, out_path: Path) -> int:
    """Render the trajectory as a committed markdown summary.

    One table row per (series, metric): the latest normalized value,
    the best value the series ever recorded (min for time-like
    metrics, where smaller is faster), and the delta of the latest
    row against the one before it.  The output is deterministic for a
    given trend file, so CI can regenerate it and diff against the
    committed copy.
    """
    if not trend_path.exists():
        print("no trend file yet; nothing to report")
        return 1
    series: dict[tuple, list] = {}
    for line in trend_path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        series.setdefault((row["bench"], row.get("quick")),
                          []).append(row)
    lines = [
        "# Benchmark trend",
        "",
        "Machine-normalized headline metrics from "
        "`BENCH_TREND.jsonl` (time-like metrics are divided by the "
        "appending machine's score, so rows compare code, not "
        "hardware).  Regenerate with "
        "`python benchmarks/trend.py --report`.",
        "",
        "| series | metric | latest | best | Δ vs prev | rev |",
        "|---|---|---:|---:|---:|---|",
    ]
    for (bench, quick), rows in sorted(
            series.items(), key=lambda kv: (kv[0][0],
                                            str(kv[0][1]))):
        spec = HEADLINES.get(bench)
        if spec is None:
            continue
        tier = f"{bench}" + (" (quick)" if quick else "")
        for metric in spec["metrics"]:
            vals = [r["metrics"][metric] for r in rows
                    if metric in r["metrics"]]
            if not vals:
                continue
            latest = vals[-1]
            fmt = (lambda v: f"{v:.4g}"
                   if isinstance(v, float) else f"{v}")
            best = (fmt(min(vals)) if metric in spec["time_like"]
                    else "—")
            if len(vals) >= 2 and isinstance(vals[-2], (int, float)) \
                    and vals[-2]:
                delta = f"{(latest / vals[-2] - 1) * 100:+.1f}%"
            else:
                delta = "—"
            rev = rows[-1].get("rev") or "—"
            lines.append(f"| {tier} | {metric} | {fmt(latest)} "
                         f"| {best} | {delta} | {rev} |")
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path} ({len(lines) - 6} metric rows)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("snapshots", nargs="*",
                        help="BENCH_*.json files "
                             "(default: all in the repo root)")
    parser.add_argument("--trend", default=REPO / "BENCH_TREND.jsonl")
    parser.add_argument("--show", action="store_true",
                        help="print the trajectory and exit")
    parser.add_argument("--check", action="store_true",
                        help="gate: fail on >10%% regression of any "
                             "time-like headline metric between the "
                             "two newest rows of each series; also "
                             "alert when the newest row drifts above "
                             "the series' historical best")
    parser.add_argument("--best-tolerance", type=float, default=0.25,
                        help="vs-best drift alert threshold "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--gate-best", action="store_true",
                        help="treat vs-best drift alerts as failures "
                             "instead of advisories")
    parser.add_argument("--report", action="store_true",
                        help="write the markdown summary "
                             "(BENCH_TREND.md) and exit")
    parser.add_argument("--report-out",
                        default=REPO / "BENCH_TREND.md")
    args = parser.parse_args(argv)
    trend_path = Path(args.trend)
    if args.show:
        show(trend_path)
        return 0
    if args.check:
        return check(trend_path, best_tolerance=args.best_tolerance,
                     gate_best=args.gate_best)
    if args.report:
        return report(trend_path, Path(args.report_out))
    paths = [Path(p) for p in args.snapshots] or \
        sorted(REPO.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json snapshots found", file=sys.stderr)
        return 1
    score = machine_score()
    print(f"machine score {score:.3f} (1.0 = reference box)")
    appended = 0
    for path in paths:
        row = append_snapshot(path, trend_path, score)
        if row is not None:
            appended += 1
            print(f"  {path.name}: {len(row['metrics'])} metrics")
    print(f"appended {appended} row(s) to {trend_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
