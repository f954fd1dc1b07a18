"""Experiment campaigns: stationary checks, convergence, prevalence, size, motif totals.

Every campaign is a deterministic function of its configuration and master
seed.  Replicate k of cell c draws from a substream derived as
SeedSequence((master, experiment_id, cell_index, k, stream)), so results are
identical whatever the execution order or degree of parallelism; workers
return per-replicate values and all reductions happen over index-ordered
arrays.  CSV output uses a fixed column order, a mandatory header, and 6
significant digits, and every row carries the full configuration tuple.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import random
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NoObservationsError, ObservationFailureError
from .estimators import (
    count_collisions,
    estimate_ratio,
    estimate_size_cr,
    estimate_size_gr,
    estimate_size_grcr,
    estimate_total,
    replicate_summary,
    weighted_mean_degree,
)
from .graph import (
    DEFAULT_GRAPH_SEED,
    DEFAULT_N_CASES,
    DEFAULT_N_NODES,
    DEFAULT_P_CASE_CASE,
    DEFAULT_P_CASE_NONCASE,
    DEFAULT_P_NONCASE_NONCASE,
    Graph,
    MotifKind,
    enumerate_motifs,
    generate_case_graph,
    graph_total,
    read_edge_list,
)
from .kernel import (
    STATIONARY_SOLVER,
    WalkConfig,
    build_pair_chain,
    marginal_at_t,
    stationary_node,
    stationary_pair,
)
from .sampling import OBSERVATION_ORDER, WEIGHT_SCHEMES, WalkTrace, build_sample_graph, run_walk

EXPERIMENTS = ("stationary-check", "convergence", "prevalence", "size", "motif-total")
SIZE_ESTIMATORS = ("cr", "gr", "grcr")
NORMALIZATIONS = ("exact", "estimated")
_EXPERIMENT_IDS = {name: i for i, name in enumerate(EXPERIMENTS)}

# Stream tags inside one replicate.
_STREAM_X = 0
_STREAM_Y = 1

_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class CampaignConfig:
    """Full description of one campaign run."""

    experiment: str
    graph_path: str | None = None
    n_nodes: int = DEFAULT_N_NODES
    n_cases: int = DEFAULT_N_CASES
    p_case_case: float = DEFAULT_P_CASE_CASE
    p_case_noncase: float = DEFAULT_P_CASE_NONCASE
    p_noncase_noncase: float = DEFAULT_P_NONCASE_NONCASE
    graph_seed: int = DEFAULT_GRAPH_SEED
    r_values: tuple[float, ...] = (0.1, 6.0)
    w_values: tuple[float, ...] = (1.0, 0.01)
    lengths: tuple[int, ...] = (50, 100)
    replicates: int = 1000
    replicates_ratio: int = 1000
    seed: int = 1
    init: str = "stationary"
    init_node: int | None = None
    burn_in: int | None = None
    estimators: tuple[str, ...] = SIZE_ESTIMATORS
    motif: MotifKind = MotifKind.TRIANGLE
    weights: str = "multiplicity"
    normalization: str = "estimated"
    out: str | None = None
    jobs: int = 1
    max_failure_rate: float = 0.1
    convergence_inits: tuple[str, ...] = ("stationary", "uniform", "fixed")
    t_checkpoints: tuple[int, ...] = (1, 4, 8, 16)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        # Every campaign but the stationary check reports an SD over replicates.
        if self.experiment != "stationary-check" and self.replicates < 2:
            raise ConfigError(f"{self.experiment} reports an SD and needs replicates >= 2")
        if self.experiment == "motif-total" and self.replicates_ratio < 2:
            raise ConfigError("motif-total reports an SD and needs replicates_ratio >= 2")
        if not self.r_values or not self.w_values or not self.lengths:
            raise ConfigError("r, w and length grids must be nonempty")
        if self.experiment == "size" and min(self.lengths) < 1:
            raise ConfigError(f"size walk length {min(self.lengths)} must be >= 1: "
                              "it counts the states extracted per walk")
        if self.experiment == "motif-total" and min(self.lengths) < OBSERVATION_ORDER[self.motif]:
            raise ConfigError(f"motif-total walk length {min(self.lengths)} is below the window "
                              f"order {OBSERVATION_ORDER[self.motif]} of a {self.motif.value}")
        for name, value, allowed in (("weights", self.weights, WEIGHT_SCHEMES),
                                     ("normalization", self.normalization, NORMALIZATIONS),
                                     *(("estimator", e, SIZE_ESTIMATORS) for e in self.estimators)):
            if value not in allowed:
                raise ConfigError(f"unknown {name} {value!r}; expected one of {allowed}")
        if self.graph_seed < 0:
            raise ConfigError(f"graph_seed={self.graph_seed} must be >= 0")
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigError(f"burn_in={self.burn_in} must be >= 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if not 0.0 <= self.max_failure_rate <= 1.0:
            raise ConfigError("max_failure_rate must be in [0, 1]")

    def effective_burn_in(self) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return 0 if self.init == "stationary" else 16


def load_graph(cfg: CampaignConfig) -> Graph:
    if cfg.graph_path:
        return read_edge_list(cfg.graph_path)
    return generate_case_graph(
        cfg.n_nodes, cfg.n_cases, cfg.p_case_case, cfg.p_case_noncase,
        cfg.p_noncase_noncase, cfg.graph_seed,
    )


def substream_seed(master: int, *path: int) -> int:
    ss = np.random.SeedSequence(entropy=[master & _MASK, *(p & _MASK for p in path)])
    return int(ss.generate_state(1, np.uint64)[0])


def replicate_rng(master: int, experiment: str, cell: int, rep: int, stream: int = 0) -> random.Random:
    return random.Random(substream_seed(master, _EXPERIMENT_IDS[experiment], cell, rep, stream))


COMMON_COLUMNS = (
    "experiment", "graph", "n_nodes", "n_cases", "p_case_case", "p_case_noncase",
    "p_noncase_noncase", "graph_seed", "master_seed", "init", "burn_in",
)


def _common_columns(cfg: CampaignConfig, graph: Graph) -> dict:
    """Provenance columns of every row.  Node and case counts come from the
    graph used; the generator parameters are blank for a loaded graph."""
    generated = not cfg.graph_path
    return {
        "experiment": cfg.experiment,
        "graph": cfg.graph_path or "generated",
        "n_nodes": graph.n,
        "n_cases": sum(1 for v in graph.values if v == 1.0),
        "p_case_case": cfg.p_case_case if generated else "",
        "p_case_noncase": cfg.p_case_noncase if generated else "",
        "p_noncase_noncase": cfg.p_noncase_noncase if generated else "",
        "graph_seed": cfg.graph_seed if generated else "",
        "master_seed": cfg.seed,
        "init": cfg.init if cfg.init != "fixed" else f"fixed:{cfg.init_node}",
        "burn_in": cfg.effective_burn_in(),
    }


def format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _run_indexed(worker, n: int, jobs: int):
    """Run worker(k) for k in range(n), results in index order."""
    if jobs <= 1:
        return [worker(k) for k in range(n)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, n // (jobs * 8))
        return list(pool.map(worker, range(n), chunksize=chunk))


def _walk_config(cfg: CampaignConfig, r: float, w: float, length: int) -> WalkConfig:
    return WalkConfig(r=r, w=w, walk_length=length + cfg.effective_burn_in(),
                      init=cfg.init, init_node=cfg.init_node)


def _analysis_trace(graph: Graph, wcfg: WalkConfig, burn_in: int, rng: random.Random):
    trace = run_walk(graph, wcfg, rng)
    if burn_in:
        sliced = trace.states[burn_in:]
        trace = WalkTrace(sliced, replace(wcfg, walk_length=len(sliced) - 1), graph.n)
    return trace


# --------------------------------------------------------------------------
# stationary-check

STATIONARY_COLUMNS = COMMON_COLUMNS + (
    "r", "w", "solver", "n_states", "edge_count",
    "max_marginal_dev", "max_pair_dev", "max_mixed_residual",
)


def run_stationary_check(cfg: CampaignConfig, graph: Graph | None = None) -> list[dict]:
    """Solve the pair chain over the (r, w) grid and report closed-form deviations."""
    graph = graph if graph is not None else load_graph(cfg)
    n = graph.n
    two_r = 2 * graph.edge_count
    common = _common_columns(cfg, graph)
    rows = []
    for r in cfg.r_values:
        for w in cfg.w_values:
            wcfg = WalkConfig(r=r, w=w)
            chain = build_pair_chain(graph, wcfg)
            pi = stationary_pair(chain)
            marginal = chain.node_marginal(pi)
            closed = stationary_node(graph, wcfg)
            # Two-value pattern: adjacent pairs carry (1 + r/N), the rest r/N,
            # normalised by 2R + rN.
            adj = graph.adjacency_matrix().astype(float)
            expected_pairs = (adj * 1.0 + r / n) / (two_r + r * n)
            pair_dev = float(np.max(np.abs(pi.reshape(n, n) - expected_pairs)))
            mixed = _mixed_equation_residual(graph, wcfg, pi)
            rows.append({
                **common,
                "r": r, "w": w, "solver": STATIONARY_SOLVER,
                "n_states": chain.n_states, "edge_count": graph.edge_count,
                "max_marginal_dev": float(np.max(np.abs(marginal - closed))),
                "max_pair_dev": pair_dev,
                "max_mixed_residual": mixed,
            })
    return rows


def _mixed_equation_residual(graph: Graph, wcfg: WalkConfig, pair_pi: np.ndarray) -> float:
    """Residual of the stationarity identity that splits arrivals at h into
    adjacent-pair mass plus jump inflow from non-neighbours."""
    n = graph.n
    r = wcfg.r
    pair = pair_pi.reshape(n, n)
    marginal = pair.sum(axis=0)
    degs = np.asarray(graph.degrees, dtype=float)
    adj = graph.adjacency_matrix().astype(float)
    worst = 0.0
    jump_in = marginal / (degs + r) * (r / n)
    for h in range(n):
        adj_mass = float(pair[adj[:, h] == 1.0, h].sum())
        outside = float(jump_in[adj[:, h] == 0.0].sum())
        worst = max(worst, abs(marginal[h] - adj_mass - outside))
    return worst


# --------------------------------------------------------------------------
# convergence

CONVERGENCE_COLUMNS = COMMON_COLUMNS + (
    "B", "r", "w", "t", "y_mc", "y_mc_se", "y_exact", "y_equilibrium",
)


def _convergence_rep(graph: Graph, wcfg: WalkConfig, checkpoints: tuple[int, ...],
                     master: int, cell: int, k: int) -> tuple[float, ...]:
    rng = replicate_rng(master, "convergence", cell, k, _STREAM_X)
    trace = run_walk(graph, wcfg, rng)
    return tuple(graph.values[trace.states[t]] for t in checkpoints)


def run_convergence(cfg: CampaignConfig, graph: Graph | None = None) -> list[dict]:
    """Monte Carlo expected node value at checkpoints, with the exact pair-chain
    propagation and the equilibrium target as companions."""
    graph = graph if graph is not None else load_graph(cfg)
    common = {**_common_columns(cfg, graph), "burn_in": 0}  # its walks never burn in
    node = cfg.init_node if cfg.init_node is not None else 0
    if "fixed" in cfg.convergence_inits and not 0 <= node < graph.n:
        raise ConfigError(f"init_node {node} outside graph of order {graph.n}")
    checkpoints = cfg.t_checkpoints
    horizon = max(checkpoints)
    y = np.asarray(graph.values)
    rows = []
    cell = 0
    for r in cfg.r_values:
        for w in cfg.w_values:
            wcfg_base = WalkConfig(r=r, w=w, walk_length=horizon)
            chain = build_pair_chain(graph, wcfg_base)
            equilibrium = float(stationary_node(graph, wcfg_base) @ y)
            for init in cfg.convergence_inits:
                wcfg = WalkConfig(r=r, w=w, walk_length=horizon, init=init,
                                  init_node=node if init == "fixed" else None)
                if init == "stationary":
                    p0 = stationary_node(graph, wcfg)
                elif init == "uniform":
                    p0 = np.full(graph.n, 1.0 / graph.n)
                else:
                    p0 = np.zeros(graph.n)
                    p0[node] = 1.0
                worker = functools.partial(_convergence_rep, graph, wcfg, checkpoints,
                                           cfg.seed, cell)
                values = np.asarray(_run_indexed(worker, cfg.replicates, cfg.jobs))
                exact = {t: float(marginal_at_t(graph, wcfg, p0, t, chain=chain) @ y)
                         for t in checkpoints}
                for idx, t in enumerate(checkpoints):
                    summary = replicate_summary(values[:, idx])
                    rows.append({
                        **common,
                        "init": init if init != "fixed" else f"fixed:{node}",
                        "B": cfg.replicates, "r": r, "w": w, "t": t,
                        "y_mc": summary.mean, "y_mc_se": summary.se,
                        "y_exact": exact[t],
                        "y_equilibrium": equilibrium,
                    })
                cell += 1
    return rows


# --------------------------------------------------------------------------
# prevalence

PREVALENCE_COLUMNS = COMMON_COLUMNS + (
    "B", "walk_length", "r", "w",
    "mu_mean", "mu_sd", "mu_se", "psi_mean", "mu_true", "failure_rate",
)


def _prevalence_rep(graph: Graph, wcfg: WalkConfig, burn_in: int, scheme: str,
                    master: int, cell: int, k: int) -> tuple[float, float]:
    rng = replicate_rng(master, "prevalence", cell, k, _STREAM_X)
    trace = _analysis_trace(graph, wcfg, burn_in, rng)
    sg = build_sample_graph(graph, trace)
    try:
        mu = estimate_ratio(trace, sg, wcfg, MotifKind.NODE, "product", "ones", scheme)
    except NoObservationsError:
        mu = np.nan
    return mu, trace.traverse


def run_prevalence(cfg: CampaignConfig, graph: Graph | None = None) -> list[dict]:
    """Node-value ratio estimation over the (T, r, w) grid.

    A replicate without observations counts as a failure; the ``mu_*``
    columns summarise the successful replicates.
    """
    graph = graph if graph is not None else load_graph(cfg)
    common = _common_columns(cfg, graph)
    mu_true = float(np.mean(graph.values))
    burn = cfg.effective_burn_in()
    rows = []
    for cell, (length, r, w) in enumerate(_grid(cfg)):
        wcfg = _walk_config(cfg, r, w, length)
        worker = functools.partial(_prevalence_rep, graph, wcfg, burn, cfg.weights,
                                   cfg.seed, cell)
        values = np.asarray(_run_indexed(worker, cfg.replicates, cfg.jobs))
        mu = replicate_summary(values[:, 0])
        failure_rate = float(np.mean(np.isnan(values[:, 0])))
        rows.append({
            **common,
            "B": cfg.replicates, "walk_length": length, "r": r, "w": w,
            "mu_mean": mu.mean, "mu_sd": mu.sd, "mu_se": mu.se,
            "psi_mean": float(values[:, 1].mean()),
            "mu_true": mu_true,
            "failure_rate": failure_rate,
        })
        _check_failure_rate(cfg, failure_rate, f"cell (T={length}, r={r}, w={w})")
    return rows


def _grid(cfg: CampaignConfig):
    for length in cfg.lengths:
        for r in cfg.r_values:
            for w in cfg.w_values:
                yield length, r, w


# --------------------------------------------------------------------------
# size

SIZE_COLUMNS = COMMON_COLUMNS + (
    "B", "n_extracted", "r", "w", "estimator",
    "mean", "sd", "se", "n_success", "failure_rate", "negative_rate", "true_edge_count",
)


def _paired_size_stats(graph: Graph, wcfg: WalkConfig, burn_in: int, trace_x: WalkTrace,
                       sample_x, rng_y: random.Random):
    """Run walk Y of a paired-walk replicate; return the collision statistic of X and Y
    and their weighted mean degree, each degree read through a walk's sample graph."""
    trace_y = _analysis_trace(graph, wcfg, burn_in, rng_y)
    stat = count_collisions(trace_x, trace_y, sample_x, wcfg.r)
    d_bar = weighted_mean_degree([trace_x, trace_y],
                                 [sample_x, build_sample_graph(graph, trace_y)], wcfg.r)
    return stat, d_bar


def _size_rep(graph: Graph, wcfg: WalkConfig, burn_in: int,
              master: int, cell: int, k: int) -> tuple[float, float, float, float]:
    """The SIZE_ESTIMATORS estimates in that order, then 1.0 if the CR one is negative."""
    rng_x = replicate_rng(master, "size", cell, k, _STREAM_X)
    trace_x = _analysis_trace(graph, wcfg, burn_in, rng_x)
    rng_y = replicate_rng(master, "size", cell, k, _STREAM_Y)
    stat, d_bar = _paired_size_stats(graph, wcfg, burn_in, trace_x,
                                     build_sample_graph(graph, trace_x), rng_y)
    gr = estimate_size_gr(d_bar, graph.n).r_hat
    if stat.m <= 0:
        return np.nan, gr, np.nan, 0.0
    cr = estimate_size_cr(stat, wcfg.r, graph.n)
    grcr = estimate_size_grcr(stat, d_bar, wcfg.r)
    return cr.r_hat, gr, grcr.r_hat, 1.0 if cr.negative else 0.0


def run_size(cfg: CampaignConfig, graph: Graph | None = None) -> list[dict]:
    """CR / GR / GR-CR size estimation with paired independent walks.

    Grid lengths are interpreted as the number of extracted states n per
    walk (walk length n - 1).  Collisionless replicates leave the CR and
    GR-CR cells empty and are reported via the failure-rate column.
    """
    graph = graph if graph is not None else load_graph(cfg)
    common = _common_columns(cfg, graph)
    burn = cfg.effective_burn_in()
    rows = []
    for cell, (n_states, r, w) in enumerate(_grid(cfg)):
        wcfg = _walk_config(cfg, r, w, n_states - 1)
        worker = functools.partial(_size_rep, graph, wcfg, burn, cfg.seed, cell)
        values = np.asarray(_run_indexed(worker, cfg.replicates, cfg.jobs))
        collision_failures = float(np.mean(np.isnan(values[:, 0])))
        for name in cfg.estimators:
            summary = replicate_summary(values[:, SIZE_ESTIMATORS.index(name)])
            rows.append({
                **common,
                "B": cfg.replicates, "n_extracted": n_states, "r": r, "w": w,
                "estimator": name,
                "mean": summary.mean, "sd": summary.sd, "se": summary.se,
                "n_success": summary.count,
                "failure_rate": 0.0 if name == "gr" else collision_failures,
                "negative_rate": float(np.mean(values[:, 3])) if name == "cr" else 0.0,
                "true_edge_count": graph.edge_count,
            })
        _check_failure_rate(cfg, collision_failures, f"cell (n={n_states}, r={r}, w={w})")
    return rows


def _check_failure_rate(cfg: CampaignConfig, rate: float, label: str) -> None:
    if rate > cfg.max_failure_rate:
        raise ObservationFailureError(
            f"{label}: failure rate {rate:.3f} exceeds threshold {cfg.max_failure_rate}",
            rate=rate,
            threshold=cfg.max_failure_rate,
        )


# --------------------------------------------------------------------------
# motif totals and ratio

MOTIF_COLUMNS = COMMON_COLUMNS + (
    "motif", "weights", "normalization", "B", "walk_length", "r", "w", "target",
    "mean", "sd", "se", "n_success", "failure_rate",
    "true_total", "true_value_total", "true_ratio",
)


def _total_rep(graph: Graph, wcfg: WalkConfig, burn_in: int, motif: MotifKind, scheme: str,
               normalization: str, master: int, cell: int, k: int) -> float:
    rng_x = replicate_rng(master, "motif-total", cell, k, _STREAM_X)
    trace_x = _analysis_trace(graph, wcfg, burn_in, rng_x)
    sg = build_sample_graph(graph, trace_x)
    if normalization == "exact":
        size = float(graph.edge_count)
    else:
        rng_y = replicate_rng(master, "motif-total", cell, k, _STREAM_Y)
        stat, d_bar = _paired_size_stats(graph, wcfg, burn_in, trace_x, sg, rng_y)
        if stat.m <= 0:
            return np.nan
        size = estimate_size_grcr(stat, d_bar, wcfg.r).r_hat
    try:
        est = estimate_total(trace_x, sg, wcfg, motif, scheme, "ones", size, ppw_fallback=True)
    except NoObservationsError:
        return np.nan
    return est.theta_hat


def _ratio_rep(graph: Graph, wcfg: WalkConfig, burn_in: int, motif: MotifKind, scheme: str,
               master: int, cell: int, k: int) -> float:
    rng = replicate_rng(master, "motif-total", cell, k, _STREAM_X + 2)
    trace = _analysis_trace(graph, wcfg, burn_in, rng)
    sg = build_sample_graph(graph, trace)
    try:
        return estimate_ratio(trace, sg, wcfg, motif, "product", "ones", scheme,
                              ppw_fallback=True)
    except NoObservationsError:
        return np.nan


def run_motif_total(cfg: CampaignConfig, graph: Graph | None = None) -> list[dict]:
    """Motif-total and motif-ratio estimation over the (T, r, w) grid.

    The total campaign runs cfg.replicates replicates and, in "estimated"
    normalisation, pairs every walk with an independent one to plug a
    combined size estimate into the sequence probabilities.  The ratio
    campaign runs cfg.replicates_ratio replicates with unnormalised
    probabilities.  True totals come from the brute-force enumeration.
    """
    graph = graph if graph is not None else load_graph(cfg)
    common = _common_columns(cfg, graph)
    burn = cfg.effective_burn_in()
    occs = enumerate_motifs(graph, cfg.motif, "ones")
    true_total = graph_total(graph, occs)
    true_value_total = graph_total(graph, enumerate_motifs(graph, cfg.motif, "product"))
    true_ratio = true_value_total / true_total if true_total else np.nan
    rows = []
    for cell, (length, r, w) in enumerate(_grid(cfg)):
        wcfg = _walk_config(cfg, r, w, length)
        total_worker = functools.partial(_total_rep, graph, wcfg, burn, cfg.motif,
                                         cfg.weights, cfg.normalization, cfg.seed, cell)
        ratio_worker = functools.partial(_ratio_rep, graph, wcfg, burn, cfg.motif,
                                         cfg.weights, cfg.seed, cell)
        for target, worker, b in (
            ("total", total_worker, cfg.replicates),
            ("ratio", ratio_worker, cfg.replicates_ratio),
        ):
            values = np.asarray(_run_indexed(worker, b, cfg.jobs))
            summary = replicate_summary(values)
            failure_rate = float(np.mean(np.isnan(values)))
            rows.append({
                **common,
                "motif": cfg.motif.value, "weights": cfg.weights,
                "normalization": cfg.normalization if target == "total" else "unnormalized",
                "B": b, "walk_length": length, "r": r, "w": w, "target": target,
                "mean": summary.mean, "sd": summary.sd, "se": summary.se,
                "n_success": summary.count,
                "failure_rate": failure_rate,
                "true_total": true_total,
                "true_value_total": true_value_total,
                "true_ratio": true_ratio,
            })
            _check_failure_rate(cfg, failure_rate, f"cell (T={length}, r={r}, w={w}, {target})")
    return rows


RUNNERS = {
    "stationary-check": (run_stationary_check, STATIONARY_COLUMNS),
    "convergence": (run_convergence, CONVERGENCE_COLUMNS),
    "prevalence": (run_prevalence, PREVALENCE_COLUMNS),
    "size": (run_size, SIZE_COLUMNS),
    "motif-total": (run_motif_total, MOTIF_COLUMNS),
}


def _check_out_path(path: str) -> None:
    """Refuse an output path that cannot be written, without touching it."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {path}: directory {parent} is not writable")


def run_campaign(cfg: CampaignConfig, graph: Graph | None = None) -> tuple[list[dict], tuple[str, ...]]:
    """Dispatch to the experiment runner; returns (rows, column order).

    An ``out`` path is checked before the campaign starts and written once
    it has finished.
    """
    if cfg.out:
        _check_out_path(cfg.out)
    runner, columns = RUNNERS[cfg.experiment]
    rows = runner(cfg, graph)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(render_csv(rows, columns))
        except OSError as exc:
            raise ConfigError(f"cannot write --out {cfg.out}: {exc}") from exc
    return rows, columns
