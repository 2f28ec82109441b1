"""Self-test of the benchmark, small enough for the tier-1 suite.

Tracing must change no program output, must reach every module that binds a
wrapped name, and must leave pdtsim as it found it.
"""
from __future__ import annotations

import json

import bench_gen
import bench_tracing
import bench_workloads
from pdtsim import checkers, engine, explore, matrix, model, scenarios
from pdtsim.engine import Schedule
from pdtsim.protocols import AlgorithmVariant


def _outputs(workdir) -> list[str]:
    """Program outputs of a small slice of each workload."""
    workdir.mkdir()
    out = []
    simulate = bench_workloads.SimulateWorkload()
    check = bench_workloads.CheckWorkload()
    cases = [bench_gen.case(kind, 4, v, 3) for kind in bench_gen.PLACEMENTS for v in bench_gen.variants_for(kind)]
    for i, case in enumerate(cases):
        result = bench_workloads.run_case(case)
        out.append(simulate.digest(result))
        if i < 2:
            inp = check._record(workdir, i, case, result)
            for prop in bench_workloads.CHECK_PROPERTIES:
                out.append(check.digest(check.run(None, (inp, prop))))
    base = AlgorithmVariant("base")
    fids = scenarios.scenario_fids()
    out.append(json.dumps(scenarios.fids_schedule(base, fids).to_json()))
    out.append(json.dumps(explore.explore(fids, base, max_schedules=20).to_json()))
    solo = scenarios.scenario_solo(0)
    out.append(json.dumps(checkers.check_seamless_ft(solo.config, base, solo, Schedule("fair"), s=1).to_json()))
    res = engine.run(solo.config, base, solo, Schedule("fair"))
    out.append(json.dumps(checkers.check_fast_decision(res.trace).to_json()))
    return out


def test_tracing_changes_no_output(tmp_path):
    plain = _outputs(tmp_path / "plain")
    tracer = bench_tracing.Tracer()
    tracer.install()
    try:
        # Names bound by importing modules are wrapped too, not only the originals.
        assert hasattr(checkers.happened_before, "__wrapped__")
        assert hasattr(matrix.explore, "__wrapped__")
        assert hasattr(matrix.check_seamless_ft, "__wrapped__")
        traced = _outputs(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert checkers.happened_before is model.happened_before
    assert not hasattr(engine.Simulation.apply, "__wrapped__")

    metrics = {k: v for k, (v, _) in tracer.metrics().items()}
    for name in ("engine.decisions", "protocols.resumes", "memory.prims", "model.hb_pairs",
                 "checkers.invariants_s", "checkers.seamless-ft_runs", "explore.schedules",
                 "scenarios.counterexample_s", "traceio.write_s", "traceio.read_s"):
        assert metrics[name] > 0, name
    assert 0 < metrics["protocols.commit_ratio"] <= 1
    assert metrics["explore.schedules"] == 20
    assert {s[1] for s in tracer.spans} >= {"engine.run", "checkers.invariants", "explore.explore"}


def test_generator_is_deterministic():
    a = bench_gen.case("sharded", 6, "base", 5)
    b = bench_gen.case("sharded", 6, "base", 5)
    assert a.label == b.label and a.schedule == b.schedule
    assert a.scenario.to_json() == b.scenario.to_json()
    writes = [v for p in a.scenario.transactions for _, _, v in p.write_rule]
    assert len(writes) == len(set(writes))
