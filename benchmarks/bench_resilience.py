#!/usr/bin/env python
"""Chaos-smoke harness for the crash-safe flow runner.

For each seed, a journaled flow run is killed mid-flight at a
seed-chosen stage (via :class:`~repro.orchestrate.ChaosPolicy`), a
journal blob or disk-cache entry is optionally corrupted, and the run
is finished with :func:`~repro.orchestrate.resume_run`.  The harness
asserts two invariants per scenario:

* the resumed run's signoff metrics are bit-identical to an
  uninterrupted run of the same design, and
* only the frontier re-executes — every verified journal entry replays
  (telemetry spans tagged ``cache="journal"``), corrupted ones re-run.

Results land in ``BENCH_resilience.json`` (repo root by default).

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py            # seeds 0-9
    PYTHONPATH=src python benchmarks/bench_resilience.py --seeds 0 1 2
    PYTHONPATH=src python benchmarks/bench_resilience.py --seeds 0 1 2 --check

``--check`` exits nonzero if any scenario diverges from the clean
baseline or re-executes more than the frontier.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import FlowOptions
from repro.netlist import build_library, registered_cloud
from repro.orchestrate import (
    ChaosPolicy,
    ResultCache,
    RunJournal,
    TelemetrySink,
    WorkerCrash,
    corrupt_file,
    resume_run,
    run,
)
from repro.orchestrate.flows import STAGE_NAMES
from repro.tech import get_node

OPTS = dict(scan=True, cts=True)


def _design(lib):
    return registered_cloud(8, 16, 120, lib, seed=3)


def _qor(result):
    return (result.delay_ps, result.power_uw, result.hpwl_um,
            result.routed_wirelength, result.overflow,
            result.instances, result.area_um2)


def _scenario(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "seed": seed,
        "kill": rng.choice(STAGE_NAMES[1:]),   # after >=1 record
        "rot": rng.choice(("none", "journal", "cache")),
    }


def run_scenario(lib, clean, scenario, root: Path) -> dict:
    seed, kill = scenario["seed"], scenario["kill"]
    run_id = f"smoke{seed}"
    cache_dir = root / f"cache{seed}"
    cache = ResultCache(disk_dir=cache_dir) \
        if scenario["rot"] == "cache" else None

    t0 = time.perf_counter()
    try:
        run(_design(lib), lib, FlowOptions(**OPTS), journal_root=root,
            run_id=run_id, cache=cache,
            chaos=ChaosPolicy(crash_stages=(kill,)))
        raise AssertionError(f"chaos never fired at {kill}")
    except WorkerCrash:
        pass

    journal = RunJournal.open(root, run_id)
    journaled = {e["stage"] for e in journal.entries()}
    rotted = None
    if scenario["rot"] == "journal" and journaled:
        rotted = sorted(journaled)[seed % len(journaled)]
        corrupt_file(journal.blob_dir / f"{rotted}.pkl", seed=seed)
    elif scenario["rot"] == "cache":
        entries = sorted(cache_dir.glob("*.pkl"))
        if entries:
            corrupt_file(entries[seed % len(entries)], seed=seed)
        cache = ResultCache(disk_dir=cache_dir)

    sink = TelemetrySink()
    resumed = resume_run(run_id, journal_root=root, cache=cache,
                         telemetry=sink)
    wall_s = time.perf_counter() - t0

    replayed = {s.stage for s in sink.spans if s.cache == "journal"}
    executed = {s.stage for s in sink.spans if s.cache != "journal"}
    expected_replay = journaled - ({rotted} if rotted else set())
    identical = _qor(resumed) == clean
    frontier_only = (replayed == expected_replay
                     and executed == set(STAGE_NAMES) - expected_replay)
    return {
        **scenario,
        "rotted": rotted,
        "replayed": sorted(replayed),
        "executed": sorted(executed),
        "identical": identical,
        "frontier_only": frontier_only,
        "complete": RunJournal.open(root, run_id).is_complete,
        "wall_s": wall_s,
        "ok": identical and frontier_only,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(10)),
                        help="scenario seeds (default 0-9)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on any divergence")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_resilience.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    lib = build_library(get_node("28nm"),
                        vt_flavors=("lvt", "rvt", "hvt"))
    t0 = time.perf_counter()
    clean = _qor(run(_design(lib), lib, FlowOptions(**OPTS)))
    clean_s = time.perf_counter() - t0

    rows = []
    with tempfile.TemporaryDirectory(prefix="chaos_smoke_") as tmp:
        for seed in args.seeds:
            scenario = _scenario(seed)
            row = run_scenario(lib, clean, scenario, Path(tmp))
            rows.append(row)
            print(f"[seed{seed:3d}] kill={row['kill']:<9} "
                  f"rot={row['rot']:<7} "
                  f"replayed={len(row['replayed'])} "
                  f"executed={len(row['executed'])} "
                  f"{'OK' if row['ok'] else 'DIVERGED'}")

    bad = [r for r in rows if not r["ok"]]
    results = {
        "clean_run_s": clean_s,
        "scenarios": rows,
        "divergent": len(bad),
    }
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    if bad:
        print(f"CHECK FAILED: {len(bad)}/{len(rows)} scenarios "
              f"diverged: {[r['seed'] for r in bad]}")
        return 1 if args.check else 0
    print(f"CHECK OK: {len(rows)}/{len(rows)} interrupted runs "
          f"resumed bit-identical, frontier-only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
