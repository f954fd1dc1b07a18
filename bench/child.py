"""One workload process: set up, run one campaign, print a JSON report.

    python3 bench/child.py {setup|run|trace} '<CLI argv as JSON>' [spans.json]

``setup`` stops once the graph is loaded; ``run`` also runs the campaign
and renders its CSV; ``trace`` does the same with every public function of
the layer modules wrapped (see ``tracer.py``) and adds per-layer numbers.
Failure counters are installed in both ``run`` and ``trace``: they wrap the
three estimator calls a replicate can fail in, once per replicate.  The
report's ``ready`` is a ``time.perf_counter()`` reading; on Linux that clock
is shared by all processes, so the parent can time process start-up.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Patcher, Tracer, public_functions  # noqa: E402

LAYERS = ("graph", "kernel", "sampling", "estimators", "experiments")

# Calls made per window, per observation or per step are timed without a
# stored span; the hottest leaves are only counted.
TIMED = {"kernel.sequence_prob", "sampling.incidence_weights", "estimators.estimate_total_window"}
COUNTED = {
    "kernel.transition_prob", "kernel.stationary_node", "kernel.make_stepper", "kernel.step",
    "sampling.equivalent_sequences", "experiments.substream_seed", "experiments.format_cell",
    "graph.motif_value", "estimators.report_row",
}


def _cpu_seconds() -> float:
    """CPU time of this process and of any children it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def replicates_attempted(cfg) -> int:
    """Replicates the campaign runs; a stationary-check cell counts as one."""
    cells = len(cfg.r_values) * len(cfg.w_values)
    if cfg.experiment == "stationary-check":
        return cells
    if cfg.experiment == "convergence":
        return cells * len(cfg.convergence_inits) * cfg.replicates
    cells *= len(cfg.lengths)
    if cfg.experiment == "motif-total":
        return cells * (cfg.replicates + cfg.replicates_ratio)
    return cells * cfg.replicates


class FailureCounter:
    """Counts failed replicates by cause at the campaign call sites."""

    def __init__(self):
        self.collision = 0
        self.no_observation = 0

    def install(self, patcher: Patcher, experiments, no_observations_error) -> None:
        count_collisions = experiments.count_collisions

        def counted_collisions(*args, **kwargs):
            stat = count_collisions(*args, **kwargs)
            if stat.m <= 0:
                self.collision += 1
            return stat

        patcher.replace(experiments, "count_collisions", counted_collisions)
        for name in ("estimate_total", "estimate_ratio"):
            patcher.replace(experiments, name, self._observing(getattr(experiments, name),
                                                               no_observations_error))

    def _observing(self, fn, no_observations_error):
        def observed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except no_observations_error:
                self.no_observation += 1
                raise
        return observed


class LayerProbe:
    """Installs the tracer on every layer module, plus counters that need
    the arguments or results of a call."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self.package = package
        self.observation_order = package.sampling.OBSERVATION_ORDER
        self.coverage_error = package.errors.Es3CoverageError
        self.walk_steps = 0
        self.windows = 0
        self.observations = 0
        self.informative_windows = 0
        self.ppw_calls = 0
        self.ppw_fallbacks = 0
        self.marginal_matvecs = 0
        self.pair_matrix_bytes = 0
        self.solved: list[tuple[object, object]] = []

    def install(self, patcher: Patcher) -> None:
        package = self.package
        modules = [package] + [getattr(package, name) for name in ("cli", *LAYERS)]
        hooks = {
            "kernel.build_pair_chain": self._after_build,
            "kernel.stationary_pair": self._after_solve,
            "kernel.marginal_at_t": self._after_marginal,
            "sampling.run_walk": self._after_walk,
            "sampling.detect_observations": self._after_detect,
            "sampling.incidence_weights": self._after_weights,
        }
        for layer in LAYERS:
            for name, fn in public_functions(getattr(package, layer)):
                key = f"{layer}.{name}"
                kind = "timed" if key in TIMED else "count" if key in COUNTED else "span"
                patcher.replace_everywhere(modules, fn, self.tracer.wrap(key, fn, kind, hooks.get(key)))

    def _after_build(self, args, kwargs, chain, exc):
        if chain is not None:
            m = chain.matrix
            self.pair_matrix_bytes = max(self.pair_matrix_bytes,
                                         m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)

    def _after_solve(self, args, kwargs, pi, exc):
        if pi is not None:
            self.solved.append((args[0] if args else kwargs["chain"], pi))

    def _after_marginal(self, args, kwargs, result, exc):
        self.marginal_matvecs += args[3] if len(args) > 3 else kwargs["t"]

    def _after_walk(self, args, kwargs, trace, exc):
        if trace is not None:
            self.walk_steps += len(trace.states) - 1

    def _after_detect(self, args, kwargs, found, exc):
        if found is not None:
            trace, kind = args[0], args[2]
            self.windows += len(trace.states) - self.observation_order[kind]
            self.observations += len(found)
            self.informative_windows += len({obs.t for obs in found})

    def _after_weights(self, args, kwargs, weights, exc):
        scheme = args[3] if len(args) > 3 else kwargs.get("scheme", "multiplicity")
        if scheme == "ppw":
            self.ppw_calls += 1
            if isinstance(exc, self.coverage_error):
                self.ppw_fallbacks += 1

    def residual_l1(self) -> float:
        """Largest ||pi P - pi||_1 over the solved pair chains."""
        worst = 0.0
        for chain, pi in self.solved:
            worst = max(worst, float(abs(chain.matrix.T @ pi - pi).sum()))
        return worst

    def layer_metrics(self, replicates: int, render_s: float) -> dict[str, float]:
        stats = self.tracer.summary()

        def calls(name):
            return stats.get(name, {}).get("calls", 0)

        def per_call(name, field="total_s", scale=1.0):
            s = stats.get(name)
            return s[field] / s["calls"] * scale if s else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        walk_self = stats.get("sampling.run_walk", {}).get("self_s", 0.0)
        detect_total = stats.get("sampling.detect_observations", {}).get("total_s", 0.0)
        metrics = {
            "kernel.build_pair_chain_s": per_call("kernel.build_pair_chain"),
            "kernel.pair_matrix_bytes": float(self.pair_matrix_bytes),
            "kernel.stationary_pair_s": per_call("kernel.stationary_pair"),
            "kernel.stationary_residual_l1": self.residual_l1(),
            "kernel.marginal_at_t_s": per_call("kernel.marginal_at_t"),
            "kernel.marginal_matvecs": float(self.marginal_matvecs),
            "kernel.sequence_prob_calls": float(calls("kernel.sequence_prob")),
            "kernel.sequence_prob_self_us": per_call("kernel.sequence_prob", "self_s", 1e6),
            "kernel.transition_prob_calls": float(calls("kernel.transition_prob")),
            "sampling.walk_steps": float(self.walk_steps),
            "sampling.run_walk_us_per_step": ratio(walk_self * 1e6, self.walk_steps),
            "sampling.sample_initial_state_us": per_call("kernel.sample_initial_state", scale=1e6),
            "sampling.build_sample_graph_us": per_call("sampling.build_sample_graph", scale=1e6),
            "sampling.windows": float(self.windows),
            "sampling.observations": float(self.observations),
            "sampling.detect_observations_us_per_window": ratio(detect_total * 1e6, self.windows),
            "sampling.incidence_weights_calls": float(calls("sampling.incidence_weights")),
            "sampling.incidence_weights_self_us": per_call("sampling.incidence_weights", "self_s", 1e6),
            "sampling.equivalent_sequences_calls": float(calls("sampling.equivalent_sequences")),
            "sampling.ppw_fallback_share": ratio(self.ppw_fallbacks, self.ppw_calls),
            "estimators.estimate_total_ms": per_call("estimators.estimate_total", scale=1e3),
            "estimators.estimate_ratio_ms": per_call("estimators.estimate_ratio", scale=1e3),
            "estimators.informative_window_share": ratio(self.informative_windows, self.windows),
            "estimators.count_collisions_us": per_call("estimators.count_collisions", scale=1e6),
            "estimators.weighted_mean_degree_us": per_call("estimators.weighted_mean_degree", scale=1e6),
            "experiments.replicates": float(replicates),
            "experiments.replicate_rng_us": per_call("experiments.replicate_rng", scale=1e6),
            "experiments.render_csv_ms": render_s * 1e3,
            "graph.enumerate_motifs_s": per_call("graph.enumerate_motifs"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_total_s"] = sum(
                s["self_s"] for name, s in stats.items() if name.startswith(layer + "."))
        return metrics


def main(argv: list[str]) -> int:
    mode, cli_argv = argv[1], json.loads(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    import lagwalk
    from lagwalk import cli, experiments
    t_import = time.perf_counter()
    cfg = cli.make_config(cli.build_parser().parse_args(cli_argv))
    t_config = time.perf_counter()
    graph = experiments.load_graph(cfg)
    t_ready = time.perf_counter()
    report = {
        "ready": t_ready,
        "import_s": t_import - T_START,
        "make_config_ms": (t_config - t_import) * 1e3,
        "load_s": t_ready - t_config,
    }
    if mode != "setup":
        patcher = Patcher()
        probe = LayerProbe(Tracer(), lagwalk) if mode == "trace" else None
        failures = FailureCounter()
        try:
            if probe is not None:
                probe.install(patcher)
            failures.install(patcher, experiments, lagwalk.NoObservationsError)
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            rows, columns = experiments.run_campaign(cfg, graph)
            t_render = time.perf_counter()
            text = experiments.render_csv(rows, columns)
            t1 = time.perf_counter()
            cpu1 = _cpu_seconds()
        finally:
            patcher.restore()
        report.update({
            "run_s": t1 - t0,
            "run_cpu_s": cpu1 - cpu0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": replicates_attempted(cfg),
            "collision_failures": failures.collision,
            "no_observation_failures": failures.no_observation,
            "csv": text,
        })
        if probe is not None:
            report["layers"] = probe.layer_metrics(report["attempted"], t1 - t_render)
            report["functions"] = probe.tracer.summary()
            if spans_path:
                probe.tracer.write_spans(spans_path)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
