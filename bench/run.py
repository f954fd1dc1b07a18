"""Campaign benchmark: time lagwalk CLI campaigns end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Every timed campaign runs in a
fresh single process (``bench/child.py``) with BLAS/OpenMP threads pinned to
one and ``--jobs 1``.  The harness first starts a few processes that only
set up (import, parse the config, load the graph), then runs the campaign
in fresh processes until ``--seconds`` have passed, and reports medians.
With ``--trace 1`` one more process runs the campaign with every layer
module's public functions wrapped, and the per-layer numbers come from it.

Every campaign CSV is checked against stream-independent oracles
(``oracles.py``); all CSVs of one run, traced or not, must be byte-identical.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  The lines before it
print every metric by name with its unit, the CSV SHA-256 and the
environment; the same record is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_DIGESTS = os.path.join(BENCH_DIR, "reference_digests.json")

# CLI argv of each workload, without --seed and --jobs.  Replicate counts
# are sized so that one campaign takes a few seconds on one core while the
# ratio bias stays visible; the stationary check is one (r, w) cell.
WORKLOADS = {
    "exact-demo": ["stationary-check", "--r", "1", "--w", "0.5"],
    "short-walks": ["convergence", "--r", "1 0.1", "--w", "1 0.5", "--replicates", "1500"],
    "prevalence": ["prevalence", "--replicates", "500"],
    "motif-ppw": ["motif-total", "--motif", "triangle", "--weights", "ppw",
                  "--normalization", "estimated", "--replicates", "40",
                  "--replicates-ratio", "160"],
}

# Least number of processes that only set up.  They alternate with the
# campaign processes, after one untimed warm-up that fills the bytecode and
# file caches.
SETUP_RUNS = 5
# A run must end within 180 s; no process is started past this budget.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "run_cpu_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kernel.build_pair_chain_s": "s",
    "kernel.pair_matrix_bytes": "bytes_computed",
    "kernel.stationary_pair_s": "s",
    "kernel.stationary_residual_l1": "l1",
    "kernel.marginal_at_t_s": "s",
    "kernel.marginal_matvecs": "count",
    "kernel.sequence_prob_calls": "count",
    "kernel.sequence_prob_self_us": "us",
    "kernel.transition_prob_calls": "count",
    "kernel.self_total_s": "s",
    "sampling.walk_steps": "count",
    "sampling.run_walk_us_per_step": "us",
    "sampling.sample_initial_state_us": "us",
    "sampling.build_sample_graph_us": "us",
    "sampling.windows": "count",
    "sampling.observations": "count",
    "sampling.detect_observations_us_per_window": "us",
    "sampling.incidence_weights_calls": "count",
    "sampling.incidence_weights_self_us": "us",
    "sampling.equivalent_sequences_calls": "count",
    "sampling.ppw_fallback_share": "share",
    "sampling.self_total_s": "s",
    "estimators.estimate_total_ms": "ms",
    "estimators.estimate_ratio_ms": "ms",
    "estimators.informative_window_share": "share",
    "estimators.no_observation_failures": "count",
    "estimators.collision_failures": "count",
    "estimators.count_collisions_us": "us",
    "estimators.weighted_mean_degree_us": "us",
    "estimators.ratio_bias_z_max": "z",
    "estimators.self_total_s": "s",
    "experiments.replicates": "count",
    "experiments.replicate_rng_us": "us",
    "experiments.render_csv_ms": "ms",
    "experiments.self_total_s": "s",
    "graph.load_s": "s",
    "graph.enumerate_motifs_s": "s",
    "graph.self_total_s": "s",
    "cli.import_s": "s",
    "cli.make_config_ms": "ms",
    "tracing.overhead_share": "share",
    "failed_share": "share",
    "oracle_violations": "count",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Harness:
    """Starts the workload processes of one run and keeps their reports."""

    def __init__(self, argv: list[str], deadline: float):
        self.argv = argv
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": SRC}

    def child(self, mode: str, spans_path: str | None = None) -> dict:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, json.dumps(self.argv)]
        if spans_path:
            cmd.append(spans_path)
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("time budget of the run used up")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the time budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        report["setup_s"] = report["ready"] - start
        return report


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "jobs": 1,
    }


def reference_digest(workload: str, seed: int) -> str | None:
    """Digest of the same CLI command run by hand, if one was recorded."""
    try:
        with open(REFERENCE_DIGESTS) as fh:
            reference = json.load(fh)
    except (OSError, ValueError):
        return None
    if reference.get("argv", {}).get(workload) != WORKLOADS[workload]:
        return None
    return reference.get("digests", {}).get(workload, {}).get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 argv: list[str] | None = None) -> dict:
    """Measure one workload; returns the full record of the run.

    ``argv`` replaces the workload's pinned CLI argv (the smoke test uses
    tiny configs).
    """
    if not os.path.isdir(os.path.join(SRC, "lagwalk")):
        raise BenchError(f"no lagwalk sources under {SRC}; run from the repository root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import oracles
    from lagwalk import cli, experiments

    pinned = argv is None
    argv = list(WORKLOADS[workload] if pinned else argv) + ["--seed", str(seed), "--jobs", "1"]
    cfg = cli.make_config(cli.build_parser().parse_args(argv))
    graph = experiments.load_graph(cfg)
    os.makedirs(OUT_DIR, exist_ok=True)

    harness = Harness(argv, time.perf_counter() + RUN_BUDGET_S)
    harness.child("setup")
    setups, runs = [], []
    start = now = time.perf_counter()
    step = 0.0
    # Start another campaign only while it should end within the time.
    while not runs or now - start + step <= seconds:
        if len(setups) < SETUP_RUNS:
            setups.append(harness.child("setup"))
        runs.append(harness.child("run"))
        step = max(step, time.perf_counter() - now)
        now = time.perf_counter()
    while len(setups) < SETUP_RUNS:
        setups.append(harness.child("setup"))
    traced = None
    if trace:
        traced = harness.child("trace", os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"))

    csv_text = runs[0]["csv"]
    digests = {hashlib.sha256(r["csv"].encode()).hexdigest() for r in runs + ([traced] if traced else [])}
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    rows = oracles.parse_csv(csv_text)
    failures = runs[0]["collision_failures"] + runs[0]["no_observation_failures"]
    problems = oracles.violations(rows, cfg, graph, failures)
    if len(digests) != 1:
        problems.append(f"campaign CSVs of one run differ: {sorted(digests)}")
    attempted = runs[0]["attempted"]
    reference = reference_digest(workload, seed) if pinned else None

    def median(key, reports=runs):
        return statistics.median(r[key] for r in reports)

    end_to_end = {
        "setup_s": median("setup_s", setups + runs),
        "run_s": median("run_s"),
        "run_cpu_s": median("run_cpu_s"),
        "replicates_per_s": statistics.median(r["attempted"] / r["run_s"] for r in runs),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    info = {
        "failed_share": failures / attempted,
        "oracle_violations": float(len(problems)),
        "estimators.ratio_bias_z_max": oracles.ratio_bias_z_max(rows),
    }
    per_layer = None
    if traced is not None:
        everyone = setups + runs + [traced]
        per_layer = {
            **traced["layers"],
            **info,
            "estimators.no_observation_failures": float(traced["no_observation_failures"]),
            "estimators.collision_failures": float(traced["collision_failures"]),
            "graph.load_s": median("load_s", everyone),
            "cli.import_s": median("import_s", everyone),
            "cli.make_config_ms": median("make_config_ms", everyone),
            "tracing.overhead_share": traced["run_s"] / end_to_end["run_s"] - 1.0,
        }
    return {
        "workload": workload,
        "seed": seed,
        "argv": argv,
        "env": environment(),
        "correct": not problems,
        "campaigns": len(runs) + (traced is not None),
        "replicates_attempted": attempted * len(runs),
        "replicates_failed": failures * len(runs),
        "end_to_end": end_to_end,
        "info": info,
        "per_layer": per_layer,
        "csv_sha256": digest,
        "reference_sha256": reference,
        "oracle_problems": problems,
        "samples": {
            "setup_s": [r["setup_s"] for r in setups + runs],
            "run_s": [r["run_s"] for r in runs],
            "run_cpu_s": [r["run_cpu_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "traced_run_s": traced["run_s"] if traced else None,
        },
        "top_self_time": sorted(
            ((name, s["self_s"], s["calls"]) for name, s in traced["functions"].items()),
            key=lambda item: -item[1])[:12] if traced else None,
    }


def result_line(record: dict, trace: bool) -> dict:
    """The result object printed as the last line of a run.

    An operation is one campaign process.  A campaign that fails stops the
    run with exit code 1, so no result counts a failed one; replicates whose
    estimate is NaN are a statistical outcome, reported as ``failed_share``.
    """
    values, units = ((record["per_layer"], PER_LAYER_UNITS) if trace
                     else (record["end_to_end"], END_TO_END_UNITS))
    return {
        "correct": record["correct"],
        "attempted": record["campaigns"],
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _print_record(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  argv {' '.join(record['argv'])}")
    print(f"env python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu_model']!r} threads {env['threads']}")
    n = len(record["samples"]["run_s"])
    print(f"end-to-end (median of {n} campaign processes):")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:45s} {record['end_to_end'][name]:14.6g} {unit}")
    layers = record["per_layer"] or record["info"]
    print("per-layer" + (" (traced process)" if record["per_layer"] else " (untraced run only)") + ":")
    for name, unit in PER_LAYER_UNITS.items():
        if name in layers:
            print(f"  {name:45s} {layers[name]:14.6g} {unit}")
    if record["top_self_time"]:
        print("largest self times (s, calls):")
        for name, self_s, calls in record["top_self_time"]:
            print(f"  {name:45s} {self_s:10.4f} {calls:10d}")
    ref = record["reference_sha256"]
    status = "no reference" if ref is None else "matches reference" if ref == record["csv_sha256"] \
        else f"differs from reference {ref}"
    print(f"csv sha256 {record['csv_sha256']} ({status})")
    for problem in record["oracle_problems"]:
        print(f"oracle violation: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    _print_record(record)
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
