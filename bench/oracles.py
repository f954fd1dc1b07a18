"""Checks on a campaign CSV that hold for any correct random stream.

Each check recomputes a column from the graph with the package's own exact
functions, or tests an invariant of the campaign's bookkeeping.  The ratio
estimator means are not checked: their O(1/T) bias is a known defect, which
:func:`ratio_bias_z_max` reports instead.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from lagwalk import WalkConfig, enumerate_motifs, graph_total, stationary_node

# Exact stationary-check deviations must stay below the acceptance
# tolerance of criteria 1 and 2.
EXACT_TOL = 1e-8
# |y_mc - y_exact| may reach this many standard errors; over the 48 rows of
# the convergence campaign a correct stream exceeds it with probability
# below 1e-4.
MC_Z = 5.0
# CSV cells carry 6 significant digits.
CSV_RTOL = 1e-5


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(cell: str, expected: float) -> bool:
    got = float(cell)
    if math.isnan(expected):
        return math.isnan(got)
    return math.isclose(got, expected, rel_tol=CSV_RTOL, abs_tol=1e-12)


def _expected_rows(cfg) -> int:
    cells = len(cfg.r_values) * len(cfg.w_values)
    if cfg.experiment == "stationary-check":
        return cells
    if cfg.experiment == "convergence":
        return cells * len(cfg.convergence_inits) * len(cfg.t_checkpoints)
    cells *= len(cfg.lengths)
    return 2 * cells if cfg.experiment == "motif-total" else cells


def violations(rows: list[dict[str, str]], cfg, graph, counted_failures: int) -> list[str]:
    """Human-readable description of every failed check (empty when all pass).

    ``counted_failures`` is the number of failed replicates counted at the
    estimator call sites, which must match the CSV's success counts.
    """
    out: list[str] = []

    def check(ok: bool, i: int, what: str) -> None:
        if not ok:
            out.append(f"row {i}: {what}")

    if len(rows) != _expected_rows(cfg):
        out.append(f"{len(rows)} rows, expected {_expected_rows(cfg)}")
    values = np.asarray(graph.values)
    csv_failures = 0
    for i, row in enumerate(rows):
        check(row["experiment"] == cfg.experiment, i, f"experiment {row['experiment']}")
        check(int(row["master_seed"]) == cfg.seed, i, f"master_seed {row['master_seed']}")
        if cfg.experiment == "stationary-check":
            for col in ("max_marginal_dev", "max_pair_dev", "max_mixed_residual"):
                check(float(row[col]) < EXACT_TOL, i, f"{col} {row[col]} >= {EXACT_TOL}")
            check(int(row["edge_count"]) == graph.edge_count, i, f"edge_count {row['edge_count']}")
            check(int(row["n_states"]) == graph.n ** 2, i, f"n_states {row['n_states']}")
        elif cfg.experiment == "convergence":
            wcfg = WalkConfig(r=float(row["r"]), w=float(row["w"]))
            check(int(row["B"]) == cfg.replicates, i, f"B {row['B']}")
            check(_close(row["y_equilibrium"], float(stationary_node(graph, wcfg) @ values)), i,
                  f"y_equilibrium {row['y_equilibrium']}")
            dev = abs(float(row["y_mc"]) - float(row["y_exact"]))
            check(dev <= MC_Z * float(row["y_mc_se"]) + CSV_RTOL, i,
                  f"|y_mc - y_exact| = {dev:.3g} beyond {MC_Z} x y_mc_se {row['y_mc_se']}")
        elif cfg.experiment == "prevalence":
            check(int(row["B"]) == cfg.replicates, i, f"B {row['B']}")
            check(_close(row["mu_true"], float(values.mean())), i, f"mu_true {row['mu_true']}")
        elif cfg.experiment == "motif-total":
            b, ok = int(row["B"]), int(row["n_success"])
            expected_b = cfg.replicates if row["target"] == "total" else cfg.replicates_ratio
            check(b == expected_b, i, f"B {b}, expected {expected_b}")
            check(0 <= ok <= b, i, f"n_success {ok} outside [0, {b}]")
            check(_close(row["failure_rate"], (b - ok) / b), i,
                  f"failure_rate {row['failure_rate']} with n_success {ok} of {b}")
            csv_failures += b - ok
        else:
            out.append(f"row {i}: no oracle for experiment {cfg.experiment}")
    if cfg.experiment == "motif-total":
        total = graph_total(graph, enumerate_motifs(graph, cfg.motif, "ones"))
        value_total = graph_total(graph, enumerate_motifs(graph, cfg.motif, "product"))
        ratio = value_total / total if total else math.nan
        for i, row in enumerate(rows):
            check(_close(row["true_total"], total), i, f"true_total {row['true_total']}")
            check(_close(row["true_value_total"], value_total), i,
                  f"true_value_total {row['true_value_total']}")
            check(_close(row["true_ratio"], ratio), i, f"true_ratio {row['true_ratio']}")
        if csv_failures != counted_failures:
            out.append(f"CSV shows {csv_failures} failed replicates, "
                       f"the estimator calls {counted_failures}")
    elif counted_failures:
        out.append(f"{counted_failures} failed replicates in a campaign that reports none")
    return out


def ratio_bias_z_max(rows: list[dict[str, str]]) -> float:
    """Largest |mean - truth| / se of the ratio estimates (0 when there are none)."""
    worst = 0.0
    for row in rows:
        if "mu_mean" in row:
            mean, truth, se = row["mu_mean"], row["mu_true"], row["mu_se"]
        elif row.get("target") == "ratio":
            mean, truth, se = row["mean"], row["true_ratio"], row["se"]
        else:
            continue
        if float(se) > 0:
            worst = max(worst, abs(float(mean) - float(truth)) / float(se))
    return worst
