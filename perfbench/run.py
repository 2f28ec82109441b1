#!/usr/bin/env python3
"""pdtsim benchmark.

    python3 perfbench/run.py --workload {matrix,simulate,check} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/`` of the
same checkout. One process, one caller, no threads: the workload's
operations run one after another in a closed loop. A run sets up at least
SETUP_REPEATS times and for at least SETUP_MIN_S (reporting the median),
then attempts whole rounds of the same operations, in the order the seed
gives them, while the next round is expected to end within ``--seconds``
(always at least one round), and checks every output.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public functions of every layer and reports per-layer counts and self times
instead, writing its spans to ``perfbench/out/``. The last line of standard
output is the JSON result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0  # cheap set-ups repeat until they add up to this


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (nearest rank on the sorted samples)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def measure(workload, seed: int, seconds: float, workdir: Path, tracer=None) -> dict:
    import bench_workloads

    setup_times = []
    setup_runs = bench_workloads.EngineRuns()
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        state = workload.setup(workdir, setup_runs)
        setup_times.append(time.perf_counter() - t0)
    # The seed sets the order of a round's operations; the set is fixed.
    random.Random(seed).shuffle(state.ops)

    # One record per attempted operation: (round, input, seconds, ok, decisions, steps).
    records: list[tuple[int, object, float, bool, int, int]] = []
    round_times: list[float] = []
    errors: list[str] = []
    failures: dict[str, int] = {}
    digest = hashlib.sha256()
    start = time.perf_counter()
    while not round_times or time.perf_counter() - start + statistics.mean(round_times) <= seconds:
        rnd = len(round_times)
        round_work = 0.0
        for i, op in enumerate(state.ops):
            if tracer is not None:
                tracer.op = f"round{rnd}-op{i}"
            # Each operation starts from a collected heap, as it would in a
            # fresh `pdtsim` process, so the garbage an earlier operation left
            # does not land in its timing.
            gc.collect()
            t0 = time.perf_counter()
            out = workload.run(state, op)
            dt = time.perf_counter() - t0
            fault = workload.fault(state, op, out)
            if fault is not None:
                records.append((rnd, workload.group(op), dt, False, 0, 0))
                failures[fault] = failures.get(fault, 0) + 1
                continue
            round_work += dt
            records.append((rnd, workload.group(op), dt, True, *workload.work(op, out)))
            errors += workload.check(state, op, out)
            if rnd == 0:
                digest.update(workload.digest(out).encode() + b"\0")
        round_times.append(round_work)
    if tracer is not None:
        tracer.op = "final-check"
    errors += workload.final_check(state)
    return {
        "setup_times": setup_times,
        "setup_runs": setup_runs.runs,
        "records": records,
        "round_times": round_times,
        "failures": failures,
        "errors": errors,
        "digest": digest.hexdigest(),
    }


def end_to_end(workload, m: dict) -> dict:
    """Every end-to-end metric; README.md says what each means per workload."""
    ok = [r for r in m["records"] if r[3]]
    ops = [r[2] for r in ok]
    build_s = statistics.median(m["round_times"])
    # Engine throughput over the timed runs, or over set-up's runs when the
    # timed operations are not engine runs: (decisions, steps, seconds).
    runs = [(d, n, t) for _, _, t, _, d, n in ok] if workload.engine_timed else m["setup_runs"]
    if runs:
        engine_s = sum(t for _, _, t in runs)
        decisions_per_s = sum(d for d, _, _ in runs) / engine_s
        steps_per_s = sum(n for _, n, _ in runs) / engine_s
    else:
        # `matrix` makes no engine run of its own outside build_matrix, which
        # reports no decision or step count: both read builds per second.
        decisions_per_s = steps_per_s = 1 / build_s
    if workload.name == "check":
        # Steps of the traces whose whole check completed, over the time
        # spent checking them: a trace with a failed operation adds neither.
        per_trace: dict[tuple, list] = {}
        for rnd, trace, t, good, _, n in m["records"]:
            acc = per_trace.setdefault((rnd, trace), [0.0, 0, True])
            acc[0] += t
            acc[1] = n
            acc[2] = acc[2] and good
        done = [acc for acc in per_trace.values() if acc[2]]
        steps_per_s = sum(a[1] for a in done) / sum(a[0] for a in done)
    values = {
        "setup_s": (statistics.median(m["setup_times"]), "s"),
        "matrix_s": (build_s, "s"),
        "run_ms_p50": (statistics.median(ops) * 1e3, "ms"),
        "run_ms_p90": (_percentile(ops, 90) * 1e3, "ms"),
        "decisions_per_s": (decisions_per_s, "1/s"),
        "check_steps_per_s": (steps_per_s, "steps/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("matrix", "simulate", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pdtsim" / "__init__.py").is_file():
        print(f"error: no pdtsim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_tracing
    import bench_workloads

    workload = bench_workloads.WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = bench_tracing.Tracer()
        tracer.install()
    wall = time.perf_counter()
    try:
        m = measure(workload, args.seed, args.seconds, workdir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - wall

    for err in m["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for msg, n in sorted(m["failures"].items()):
        print(f"failed x{n}: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(m['round_times'])} round(s), "
          f"{len(m['records'])} ops, wall {wall:.2f} s, output digest {m['digest'][:16]}", file=sys.stderr)

    if tracer is not None:
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
    else:
        metrics = end_to_end(workload, m)
    failed = sum(not r[3] for r in m["records"])
    print(json.dumps({"correct": not m["errors"], "attempted": len(m["records"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
