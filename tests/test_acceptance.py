"""Acceptance suite: one test per criterion, one printed verdict line each.

Campaign-based criteria run on the frozen demo graph with master seed 1 and
are deterministic; re-running the suite reproduces these numbers exactly.

Known honest failures (see the decisions ledger outside the package): the
combined ratio estimators carry an O(1/T) finite-length bias, so at B = 1e3
their Monte Carlo mean sits several standard errors of the mean away from
the truth at short walk lengths.  Criterion 5 (prevalence, T = 50 cells) and
criterion 7 (triangle-ratio clause) pin 3-SE tolerances that this bias
exceeds on every graph realization tried; they are implemented faithfully
and left red rather than loosened.
"""

import itertools
import time

import numpy as np
import pytest

from lagwalk import (
    CampaignConfig,
    CollisionStat,
    Graph,
    MotifKind,
    WalkConfig,
    WalkTrace,
    build_pair_chain,
    estimate_size_cr,
    estimate_size_gr,
    estimate_size_grcr,
    estimate_total_window,
    stationary_node,
    stationary_pair,
)
from lagwalk.experiments import (
    render_csv,
    run_campaign,
    run_convergence,
    run_motif_total,
    run_prevalence,
    run_size,
)
from lagwalk.sampling import detect_observations
from helpers import brute_force_total, complete_graph, connected_graphs_up_to, random_graph

pytestmark = pytest.mark.slow

MASTER_SEED = 1
JOBS = 2

R_GRID = (0.1, 1.0, 6.0)
W_GRID = (0.0, 0.5, 1.0)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


def _stationary_grid_graphs():
    """20 random graphs, N in [5, 30], mixed densities, isolated nodes included."""
    graphs = []
    for i in range(20):
        n = 5 + (25 * i) // 19
        p = (0.08, 0.2, 0.45, 0.75)[i % 4]
        isolated = (0, 1, 2)[i % 3]
        graphs.append(random_graph(n, p, seed=100 + i, n_isolated=isolated))
    return graphs


@pytest.fixture(scope="module")
def solved_grid():
    """Pair-chain solutions for the criterion 1/2 grid, with elapsed time."""
    t0 = time.monotonic()
    out = []
    for g in _stationary_grid_graphs():
        for r in R_GRID:
            for w in W_GRID:
                cfg = WalkConfig(r=r, w=w)
                chain = build_pair_chain(g, cfg)
                pi = stationary_pair(chain)
                out.append((g, r, w, chain, pi))
    return out, time.monotonic() - t0


def test_criterion_1_pair_chain_stationary_law(solved_grid):
    solved, elapsed = solved_grid
    worst_marginal = 0.0
    worst_pair = 0.0
    for g, r, w, chain, pi in solved:
        n = g.n
        marginal = chain.node_marginal(pi)
        closed = stationary_node(g, WalkConfig(r=r, w=w))
        worst_marginal = max(worst_marginal, float(np.abs(marginal - closed).max()))
        adj = g.adjacency_matrix().astype(float)
        expected_pairs = (adj + r / n) / (2 * g.edge_count + r * n)
        worst_pair = max(worst_pair, float(np.abs(pi.reshape(n, n) - expected_pairs).max()))
    ok = worst_marginal < 1e-8 and worst_pair < 1e-8 and elapsed < 60.0
    _verdict(1, ok, f"{len(solved)} solves, max marginal dev {worst_marginal:.2e}, "
                    f"max pair dev {worst_pair:.2e}, {elapsed:.1f}s")
    assert worst_marginal < 1e-8
    assert worst_pair < 1e-8
    assert elapsed < 60.0


def test_criterion_2_mixed_equation_residual(solved_grid):
    solved, _ = solved_grid
    worst = 0.0
    for g, r, w, chain, pi in solved:
        n = g.n
        pair = pi.reshape(n, n)
        marginal = pair.sum(axis=0)
        degs = np.asarray(g.degrees, dtype=float)
        adj = g.adjacency_matrix().astype(float)
        jump_in = marginal / (degs + r) * (r / n)
        for h in range(n):
            mask = adj[:, h] == 1.0
            residual = abs(marginal[h] - pair[mask, h].sum() - jump_in[~mask].sum())
            worst = max(worst, residual)
    _verdict(2, worst < 1e-8, f"max per-node residual {worst:.2e}")
    assert worst < 1e-8


def _window_law(g: Graph, r: float, window: tuple[int, ...]) -> float:
    n, two_r = g.n, 2 * g.edge_count
    if len(window) == 1:
        return (g.degree(window[0]) + r) / (two_r + r * n)
    i, j = window
    return ((1.0 if g.has_edge(i, j) else 0.0) + r / n) / (two_r + r * n)


def _expected_window_estimate(g: Graph, kind: MotifKind, r: float, scheme: str,
                              value_mode: str) -> float:
    cfg = WalkConfig(r=r, w=1.0)
    q = 0 if kind is MotifKind.EDGE else 1
    total = 0.0
    for window in itertools.product(range(g.n), repeat=q + 1):
        trace = WalkTrace(window, WalkConfig(r=r, w=1.0, walk_length=q), g.n)
        obs = detect_observations(trace, g, kind, value_mode)
        theta_t, _ = estimate_total_window(obs, g, cfg, scheme, size=float(g.edge_count))
        total += _window_law(g, r, window) * theta_t
    return total


def test_criterion_3_window_unbiasedness_oracle():
    graphs = connected_graphs_up_to(6)
    assert len(graphs) == 143  # 1+1+2+6+21+112 isomorphism classes
    rng = np.random.default_rng(3)
    worst = 0.0
    checks = 0
    for g_plain in graphs:
        values = rng.integers(0, 2, g_plain.n).astype(float)
        g = Graph(g_plain.n, g_plain.edges, values)
        r_values = (1.0, 0.1) if g.n <= 5 else (1.0,)
        for kind in (MotifKind.EDGE, MotifKind.TRIANGLE):
            theta = {
                "product": brute_force_total(g, kind.value, "product"),
                "ones": brute_force_total(g, kind.value, "ones"),
            }
            for r in r_values:
                for scheme in ("multiplicity", "ppw"):
                    for mode in ("product", "ones"):
                        got = _expected_window_estimate(g, kind, r, scheme, mode)
                        worst = max(worst, abs(got - theta[mode]))
                        checks += 1
    # K3 spot values: informative-window estimate and window probability
    k3 = complete_graph(3, values=[1.0, 1.0, 1.0])
    cfg = WalkConfig(r=1.0, w=1.0)
    trace = WalkTrace((0, 1), WalkConfig(r=1.0, w=1.0, walk_length=1), 3)
    obs = detect_observations(trace, k3, MotifKind.TRIANGLE, "ones")
    spot, _ = estimate_total_window(obs, k3, cfg, "multiplicity", size=3.0)
    informative_mass = sum(
        _window_law(k3, 1.0, w) for w in itertools.permutations(range(3), 2)
    )
    spot_ok = abs(spot - 9 / 8) < 1e-12 and abs(informative_mass - 8 / 9) < 1e-12
    ok = worst < 1e-10 and spot_ok
    _verdict(3, ok, f"{checks} exhaustive expectations over {len(graphs)} graphs, "
                    f"max |E - theta| = {worst:.2e}; K3 window estimate {spot:.6f}, "
                    f"informative mass {informative_mass:.6f}")
    assert worst < 1e-10
    assert spot_ok


@pytest.fixture(scope="module")
def study_campaigns():
    common = dict(seed=MASTER_SEED, jobs=JOBS)
    return common


def test_criterion_4_convergence_pattern(study_campaigns):
    cfg = CampaignConfig(experiment="convergence", replicates=100_000,
                         r_values=(1.0, 0.1), w_values=(1.0,),
                         init_node=0, **study_campaigns)
    rows = run_convergence(cfg)
    stationary_bad = []
    late_bad = []
    for row in rows:
        if row["init"] == "stationary":
            if abs(row["y_mc"] - row["y_equilibrium"]) > 3 * row["y_mc_se"]:
                stationary_bad.append(row)
        elif row["t"] == 16:
            if abs(row["y_mc"] - row["y_equilibrium"]) > 0.01:
                late_bad.append(row)
    ok = not stationary_bad and not late_bad
    _verdict(4, ok, f"stationary cells out of 3 SE: {len(stationary_bad)}/8; "
                    f"|E(Y_16) - E(Y_inf)| > 0.01: {len(late_bad)}/4")
    assert not stationary_bad, stationary_bad
    assert not late_bad, late_bad


def test_criterion_5_prevalence_pattern(study_campaigns):
    cfg = CampaignConfig(experiment="prevalence", replicates=1000, **study_campaigns)
    rows = run_prevalence(cfg)
    failures = []
    for row in rows:
        z = abs(row["mu_mean"] - row["mu_true"]) / row["mu_se"]
        if z > 3:
            failures.append(
                f"(T={row['walk_length']}, r={row['r']}, w={row['w']}): z={z:.2f}"
            )
    sd = {(r["walk_length"], r["r"], r["w"]): r["mu_sd"] for r in rows}
    ratio = sd[(100, 0.1, 0.01)] / sd[(100, 0.1, 1.0)]
    ratio_ok = ratio <= 0.85
    ok = not failures and ratio_ok
    _verdict(5, ok, f"cells beyond 3 SE: {len(failures)}/8 {failures}; "
                    f"SD ratio at (T=100, r=0.1): {ratio:.3f} (cap 0.85)")
    assert ratio_ok, f"SD ratio {ratio:.3f} above 0.85"
    # Known honest failure: the combined ratio estimator's O(1/T) bias at
    # T = 50 exceeds 3 standard errors of the mean at B = 1e3 on every
    # realization tried (about +0.01 against SE of the mean near 0.003).
    assert not failures, f"mean deviations beyond 3 SE of the mean: {failures}"


def test_criterion_6_size_pattern(study_campaigns):
    cfg = CampaignConfig(experiment="size", replicates=10_000, **study_campaigns)
    rows = run_size(cfg)
    true_r = rows[0]["true_edge_count"]
    caps = {"gr": 0.03, "cr": 0.16, "grcr": 0.16}
    failures = []
    for row in rows:
        rel = abs(row["mean"] - true_r) / true_r
        if rel > caps[row["estimator"]]:
            failures.append(
                f"(n={row['n_extracted']}, r={row['r']}, w={row['w']}, "
                f"{row['estimator']}): {100 * rel:.1f}%"
            )
    se = {(r["n_extracted"], r["r"], r["w"], r["estimator"]): r["se"] for r in rows}
    key = (50, 0.1, 1.0)
    ordering = (se[key + ("gr",)], se[key + ("grcr",)], se[key + ("cr",)])
    order_ok = ordering[0] < ordering[1] < ordering[2]
    ok = not failures and order_ok
    _verdict(6, ok, f"bias failures: {failures or 'none'}; SE ordering at (50, 0.1, 1): "
                    f"gr {ordering[0]:.2f} < grcr {ordering[1]:.2f} < cr {ordering[2]:.2f}")
    assert not failures, failures
    assert order_ok, ordering


def test_criterion_7_motif_total_pattern(study_campaigns):
    cfg = CampaignConfig(experiment="motif-total", replicates=10_000,
                         replicates_ratio=1000, lengths=(100,), **study_campaigns)
    rows = run_motif_total(cfg)
    total_failures = []
    ratio_failures = []
    for row in rows:
        if row["target"] == "total":
            rel = abs(row["mean"] - row["true_total"]) / row["true_total"]
            if rel > 0.05:
                total_failures.append(f"(r={row['r']}, w={row['w']}): {100 * rel:.1f}%")
        else:
            z = abs(row["mean"] - row["true_ratio"]) / row["se"]
            if z > 3:
                ratio_failures.append(f"(r={row['r']}, w={row['w']}): z={z:.2f}")
    ok = not total_failures and not ratio_failures
    _verdict(7, ok, f"total bias failures: {total_failures or 'none'}; "
                    f"ratio cells beyond 3 SE: {len(ratio_failures)}/4 {ratio_failures}")
    assert not total_failures, total_failures
    # Known honest failure: the triangle-ratio estimator keeps an O(1/T)
    # finite-length bias near -0.01 at T = 100, which is 4-7 standard errors
    # of the mean at B = 1e3 on every realization tried.
    assert not ratio_failures, f"ratio deviations beyond 3 SE of the mean: {ratio_failures}"


def test_criterion_8_plug_in_inversions():
    g = random_graph(40, 0.2, seed=77, values=[1.0] * 8 + [0.0] * 32)
    r = 0.7
    n_x = n_y = 60
    true_r = g.edge_count
    m_star = n_x * n_y / (2 * true_r + r * g.n)
    d_star = 2 * true_r / g.n
    stat = CollisionStat(m_star, n_x, n_y)
    cr = estimate_size_cr(stat, r, g.n).r_hat
    gr = estimate_size_gr(d_star, g.n).r_hat
    grcr = estimate_size_grcr(stat, d_star, r)
    devs = (
        abs(cr - true_r) / true_r,
        abs(gr - true_r) / true_r,
        abs(grcr.r_hat - true_r) / true_r,
        abs(grcr.n_hat - g.n) / g.n,
    )
    ok = max(devs) <= 1e-12
    _verdict(8, ok, f"max relative deviation {max(devs):.2e}")
    assert max(devs) <= 1e-12


def test_criterion_9_reproducibility():
    cfg = CampaignConfig(
        experiment="prevalence", n_nodes=30, n_cases=8, graph_seed=3,
        r_values=(0.5, 2.0), w_values=(1.0, 0.2), lengths=(20,),
        replicates=30, seed=11, jobs=1,
    )
    first = render_csv(*run_campaign(cfg))
    second = render_csv(*run_campaign(cfg))
    import dataclasses

    parallel = render_csv(*run_campaign(dataclasses.replace(cfg, jobs=2)))
    size_cfg = CampaignConfig(
        experiment="size", n_nodes=30, n_cases=8, graph_seed=3,
        r_values=(0.5,), w_values=(1.0,), lengths=(15,),
        replicates=24, seed=11, jobs=1, max_failure_rate=1.0,
    )
    size_serial = render_csv(*run_campaign(size_cfg))
    size_parallel = render_csv(*run_campaign(dataclasses.replace(size_cfg, jobs=2)))
    ok = first == second and first == parallel and size_serial == size_parallel
    _verdict(9, ok, "byte-identical re-run and parallel/serial agreement")
    assert first == second
    assert first == parallel
    assert size_serial == size_parallel
