"""One workload of the flow benchmark, in its own process.

``bench_flow.py`` starts this script once per workload (plus set-up
probes) with BLAS pinned to one thread and ``src`` on ``PYTHONPATH``,
and reads the JSON it writes to ``--result``.  The process:

1. sets up: imports, ``build_library(28nm)``, and one untimed warm-up
   op of the workload's shape at 1/8 size;
2. runs timed ops until ``--seconds`` have passed, each on a freshly
   generated design (generation is outside the timed region: a reused
   ``Netlist`` keeps its memoized ``to_packed()`` view);
3. checks the first op's outputs with ``checks.py`` (outside the
   measured time) and every later op's QoR against the first;
4. with ``--trace 1``, runs one more op under a :class:`Tracer` and
   writes its spans as Chrome trace-event JSON to ``--trace-file``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
from tracing import (TraceSpan, Tracer, chrome_trace, layer_metrics,
                     self_times, span_tree)

#: ``run_sweep`` variants of ``sweep12k``: routing iterations x clock.
SWEEP_GRID = [(iterations, freq) for iterations in (4, 6)
              for freq in (0.5, 0.75, 1.0)]
#: Warm-up ops run the same shape at 1/WARMUP_SCALE size.
WARMUP_SCALE = 8


def make_design(workload: str, library, seed: int, scale: int = 1):
    """The workload's design for ``seed``; ``scale`` shrinks it."""
    from repro.netlist.generators import random_aig, registered_cloud
    if workload in ("cloud12k", "sweep12k"):
        return registered_cloud(48, 192 // scale, 12000 // scale, library,
                                seed=7 + seed)
    if workload == "cloud50k":
        return registered_cloud(96, 512 // scale, 50000 // scale, library,
                                seed=seed)
    if workload == "synth_aig":
        return random_aig(24, 2000 // scale, 24, seed=3 + seed)
    raise ValueError(f"unknown workload {workload!r}")


def sweep_options() -> list:
    from repro.core.flow import FlowOptions
    return [FlowOptions(cts=True, routing_iterations=it, freq_ghz=f)
            for it, f in SWEEP_GRID]


def run_op(workload: str, design, library, cache_dir: Path) -> list:
    """One timed op: the default flow, or one cached ``run_sweep``.

    The flow is called through its module attribute so a
    :class:`~tracing.Tracer` sees it.
    """
    from repro.core.flow import FlowOptions
    from repro.orchestrate import resilience, sweep
    if workload == "sweep12k":
        from repro.orchestrate.cache import ResultCache
        cache = ResultCache(disk_dir=cache_dir)
        return sweep.run_sweep(design, library, sweep_options(), jobs=1,
                               cache=cache).results
    return [resilience.run(design, library, FlowOptions(cts=True))]


def summed_qor(results: list) -> dict:
    """QoR of one op; a sweep's is summed over its jobs."""
    rows = [checks.qor(r) for r in results]
    return {f: sum(row[f] for row in rows) for f in checks.QOR_FIELDS}


def check_outputs(workload: str, results: list, library,
                  seed: int) -> dict:
    """Independent checks of one op's outputs: name -> problems."""
    from repro.orchestrate import resilience
    found: dict[str, list] = {}
    picked = {0: results[0], len(results) - 1: results[-1]}
    for i, result in picked.items():
        tag = f"job{i}." if workload == "sweep12k" else ""
        found[tag + "placement_legal"] = \
            checks.placement_legal(result.placement)
        found[tag + "routing_connected"] = checks.routing_connected(
            result.placement, result.routing)
        found[tag + "delay_matches_scalar_sta"] = \
            checks.delay_matches_scalar(result, library)
        if workload == "sweep12k":
            fresh = resilience.run(make_design(workload, library, seed),
                                   library, sweep_options()[i])
            found[tag + "matches_uncached_run"] = checks.same_qor(
                checks.qor(fresh), checks.qor(result), "uncached run")
    if workload == "synth_aig":
        found["netlist_matches_aig"] = checks.netlist_matches_aig(
            results[0].netlist, make_design(workload, library, seed),
            seed=seed)
    return found


def traced_op(workload: str, library, seed: int, cache_dir: Path,
              trace_file: Path) -> tuple:
    """One more op under a Tracer: (results, op seconds, layer metrics,
    self-time table).  Writes the Chrome trace to ``trace_file``."""
    design = make_design(workload, library, seed)
    gc.collect()
    with Tracer() as tracer:
        t0 = time.perf_counter()
        results = run_op(workload, design, library, cache_dir)
        t1 = time.perf_counter()
    tracer.spans.append(TraceSpan("op", t0, t1))
    spans = span_tree(tracer.spans)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(chrome_trace(spans)))
    metrics = layer_metrics(spans, tracer.counters, t1 - t0)
    return results, t1 - t0, metrics, self_times(spans)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() when bench_flow.py started this "
                         "process; set-up time counts from there")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    from repro.netlist import build_library
    from repro.tech import get_node

    library = build_library(get_node("28nm"))
    args.scratch.mkdir(parents=True, exist_ok=True)
    try:
        warmup = make_design(args.workload, library, args.seed,
                             WARMUP_SCALE)
        run_op(args.workload, warmup, library,
               Path(tempfile.mkdtemp(dir=args.scratch)))
        out: dict = {"setup_s": time.time() - args.spawned_at}
        if not args.setup_only:
            out.update(measure(args, library))
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    args.result.write_text(json.dumps(out))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(args, library) -> dict:
    """The timed loop, the checks, and the optional traced op.

    The first op that completes is checked in full right away, and
    ``peak_rss_mb`` is read just before, so neither depends on how many
    ops fit in ``--seconds`` (check time does not count against it).
    Later ops must repeat its QoR bit for bit.
    """
    ops: list[dict] = []
    out: dict = {"ops": ops, "checks": {}}
    loop_t0 = time.perf_counter()
    check_s = 0.0
    while not ops or \
            time.perf_counter() - loop_t0 - check_s < args.seconds:
        design = make_design(args.workload, library, args.seed)
        cache_dir = Path(tempfile.mkdtemp(dir=args.scratch))
        gc.collect()
        op: dict = {"problems": []}
        t0 = time.perf_counter()
        try:
            results = run_op(args.workload, design, library, cache_dir)
        except Exception as err:     # noqa: BLE001 - counted as failed
            results = None
            op["problems"].append(f"raised {err!r}")
        op["wall_s"] = time.perf_counter() - t0
        if results is not None:
            op["statuses"] = [str(r.status) for r in results]
            op["qor"] = summed_qor(results)
            if "failed" in op["statuses"]:
                op["problems"].append("a flow returned FlowStatus.FAILED")
            if "qor" in out:
                op["problems"] += checks.same_qor(
                    op["qor"], out["qor"], "QoR vs first op")
            else:
                out["peak_rss_mb"] = _peak_rss_mb()
                out["qor"] = op["qor"]
                t_check = time.perf_counter()
                out["checks"] = check_outputs(args.workload, results,
                                              library, args.seed)
                check_s = time.perf_counter() - t_check
                op["problems"] += [p for found in out["checks"].values()
                                   for p in found]
        shutil.rmtree(cache_dir, ignore_errors=True)
        del design, results
        ops.append(op)
    out.setdefault("peak_rss_mb", _peak_rss_mb())

    if args.trace:
        results, op_s, metrics, table = traced_op(
            args.workload, library, args.seed,
            Path(tempfile.mkdtemp(dir=args.scratch)), args.trace_file)
        untraced = statistics.median(op["wall_s"] for op in ops)
        out["trace"] = {
            "op_s": op_s, "overhead_s": op_s - untraced,
            "metrics": metrics, "self_times": table,
            "problems": checks.same_qor(
                summed_qor(results), out["qor"], "traced op QoR vs first op")
            if "qor" in out else ["no untraced op completed"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
