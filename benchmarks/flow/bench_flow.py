#!/usr/bin/env python3
"""Benchmark the default implementation flow end to end.

Measures the wall time of ``repro.orchestrate.run`` with default
``FlowOptions(cts=True)`` on four workloads (see README.md), with
per-layer timing from a separate traced op::

    python3 benchmarks/flow/bench_flow.py --workload cloud12k --seed 0 \\
        --seconds 10 --trace 0
    python3 benchmarks/flow/bench_flow.py --out results.json  # all four

Each workload runs in its own fresh ``worker.py`` process, started one
at a time from this process with OpenBLAS/OpenMP/MKL pinned to one
thread, after two set-up-only probe processes (``setup_s`` is the
median of the three set-ups).  The metric names, units and bounds come
from ``BENCHMARK.json`` at the repository root.

Prints a table per workload, then as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, whose metrics are
the end-to-end ones (``--trace 0``) or the per-layer ones of the traced
op (``--trace 1``).  Exits 1 if an output check failed and 2 if the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
WORKLOADS = ("cloud12k", "cloud50k", "synth_aig", "sweep12k")
SETUP_PROBES = 2
#: Budget for all processes of one workload; a run must end in 180 s.
TIMEOUT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: outputs were wrong)."""


def stats(values: list) -> dict:
    """Median, quartiles (inclusive method) and sample count."""
    values = [float(v) for v in values]
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _worker(workload: str, args, deadline: float, *, setup_only: bool,
            tag: str) -> dict:
    """Run one worker process to completion and return its JSON."""
    result = OUT / f"{workload}-{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(OUT / f"tmp-{workload}-{tag}"),
           "--trace-file", str(OUT / f"trace-{workload}-seed{args.seed}"
                                     ".json"),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(ROOT / "src"),
                             os.environ.get("PYTHONPATH")]))}
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload}: worker timed out") from err
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def run_workload(workload: str, args) -> dict:
    """Set-up probes, then the measuring worker; the workload summary."""
    deadline = time.time() + TIMEOUT_S
    setups = [_worker(workload, args, deadline, setup_only=True,
                      tag=f"probe{i}")["setup_s"]
              for i in range(SETUP_PROBES)]
    data = _worker(workload, args, deadline, setup_only=False, tag="main")
    setups.append(data["setup_s"])
    ops = data["ops"]
    failed = sum(bool(op["problems"]) for op in ops)
    status_counts = Counter(status for op in ops
                            for status in op.get("statuses", ["raised"]))
    summary = {
        "attempted": len(ops), "failed": failed,
        "fail_rate": failed / len(ops),
        "status_counts": dict(status_counts),
        "metrics": {"setup_s": stats(setups),
                    "flow_s": stats([op["wall_s"] for op in ops]),
                    "peak_rss_mb": stats([data["peak_rss_mb"]])},
        "qor": data.get("qor"),
        "checks": data["checks"],
        "problems": [p for op in ops for p in op["problems"]],
    }
    if "trace" in data:
        summary["trace"] = data["trace"]
        summary["problems"] += data["trace"]["problems"]
    return summary


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def spec_metrics(summary: dict, spec: dict, trace: int) -> dict:
    """The metrics the last line reports, with names and units from
    BENCHMARK.json: end-to-end medians, or the traced op's layers."""
    if trace:
        layers = summary["trace"]["metrics"]
        return {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                            "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": summary["metrics"][m["name"]]["median"],
                        "unit": m["unit"]}
            for m in spec["end_to_end"]}


def print_summary(workload: str, summary: dict) -> None:
    print(f"== {workload}: {summary['attempted']} ops, "
          f"{summary['failed']} failed (fail_rate "
          f"{summary['fail_rate']:.3f}), statuses "
          f"{summary['status_counts']}")
    for name, s in summary["metrics"].items():
        print(f"   {name:<14} median {s['median']:12.4f}  "
              f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  n={s['n']}")
    for name, value in (summary["qor"] or {}).items():
        print(f"   {name:<14} {value!r}")
    if "trace" in summary:
        tr = summary["trace"]
        print(f"   traced op {tr['op_s']:.4f} s, tracing overhead "
              f"{tr['overhead_s']:+.4f} s")
        for name, value in sorted(tr["metrics"].items()):
            print(f"   {name:<34} {value:14.4f}")
    for problem in summary["problems"][:20]:
        print(f"   PROBLEM {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"),
                    default="all")
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to the design generators' seeds")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure for this long per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced op and report its layers")
    ap.add_argument("--out", type=Path,
                    help="write every workload's summary here (JSON)")
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        spec = load_spec()
        OUT.mkdir(exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = {}
        for name in names:
            summaries[name] = run_workload(name, args)
            print_summary(name, summaries[name])
    except BenchError as err:
        print(f"bench_flow: {err}", file=sys.stderr)
        return 2

    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": summaries}, indent=1) + "\n")
    correct = not any(s["problems"] for s in summaries.values())
    if len(names) == 1:
        metrics = spec_metrics(summaries[names[0]], spec, args.trace)
    else:
        metrics = {f"{name}/{metric}": value
                   for name, s in summaries.items()
                   for metric, value in
                   spec_metrics(s, spec, args.trace).items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
