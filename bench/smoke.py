"""Smoke test of the benchmark itself, on tiny configs (about half a minute).

    python3 bench/smoke.py

Run from the repository root.  Checks that BENCHMARK.json and the harness
agree on workloads, metric names and units; that a run of each workload
emits every metric with its unit and passes its oracles; and that the
tracing wrappers put back every module attribute they replaced.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import child  # noqa: E402
import run  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402

TINY = {
    "exact-demo": ["stationary-check", "--r", "1", "--w", "0.5", "--nodes", "30", "--cases", "6"],
    "short-walks": ["convergence", "--r", "1 0.1", "--w", "1 0.5", "--replicates", "50"],
    "prevalence": ["prevalence", "--replicates", "10"],
    # --max-failure-rate 1: five replicates are too few for the default cap
    "motif-ppw": ["motif-total", "--motif", "triangle", "--weights", "ppw",
                  "--normalization", "estimated", "--replicates", "5",
                  "--replicates-ratio", "5", "--max-failure-rate", "1"],
}


def check_emitted_metrics() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS) == set(TINY)
    for workload, argv in TINY.items():
        record = run.run_workload(workload, 5, 0, trace=True, argv=argv)
        assert record["correct"], (workload, record["oracle_problems"])
        for section, trace in (("end_to_end", False), ("per_layer", True)):
            declared = {m["name"]: m["unit"] for m in bench[section]}
            line = run.result_line(record, trace)
            assert line["attempted"] >= 1, (workload, line)
            emitted = {name: m["unit"] for name, m in line["metrics"].items()}
            assert emitted == declared, (workload, section, set(emitted) ^ set(declared))
            for name, m in line["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
        print(f"ok {workload}: every end-to-end and per-layer metric emitted with its unit")


def check_wrappers_restored() -> None:
    sys.path.insert(0, run.SRC)
    import lagwalk
    from lagwalk import cli, experiments

    modules = [lagwalk, cli] + [getattr(lagwalk, name) for name in child.LAYERS]
    before = [dict(vars(m)) for m in modules]
    patcher = Patcher()
    probe = child.LayerProbe(Tracer(), lagwalk)
    failures = child.FailureCounter()
    try:
        probe.install(patcher)
        failures.install(patcher, experiments, lagwalk.NoObservationsError)
        replaced = sum(vars(m)[k] is not v for m, snap in zip(modules, before) for k, v in snap.items())
        assert replaced > 0, "no attribute was wrapped"
        cfg = cli.make_config(cli.build_parser().parse_args(TINY["prevalence"]))
        experiments.run_campaign(cfg)
        assert probe.tracer.summary()["sampling.run_walk"]["calls"] == child.replicates_attempted(cfg)
    finally:
        patcher.restore()
    for module, snap in zip(modules, before):
        now = vars(module)
        assert now.keys() == snap.keys(), module.__name__
        stale = [k for k, v in snap.items() if now[k] is not v]
        assert not stale, (module.__name__, stale)
    print(f"ok wrappers: {replaced} attributes replaced and restored")


if __name__ == "__main__":
    check_emitted_metrics()
    check_wrappers_restored()
    print("smoke test passed")
