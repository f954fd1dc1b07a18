"""Campaign runners, CSV output, substream seeding, CLI and exit codes."""

import csv
import hashlib
import io
import os
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagwalk import (
    CampaignConfig,
    ConfigError,
    Graph,
    MotifKind,
    UnobservedEntryError,
    WalkConfig,
    build_pair_chain,
    build_sample_graph,
    count_collisions,
    estimate_size_cr,
    estimate_size_gr,
    estimate_ratio,
    estimate_size_grcr,
    estimate_total,
    marginal_at_t,
    stationary_node,
    weighted_mean_degree,
    write_edge_list,
)
from lagwalk import cli, estimators, experiments
from lagwalk.graph import MAX_GRAPH_NODES
from lagwalk.cli import (
    _SETTINGS,
    EXIT_CONFIG,
    EXIT_NO_OBSERVATIONS,
    EXIT_NON_ERGODIC,
    EXIT_OK,
    build_parser,
    main,
    make_config,
    read_config_file,
)
from lagwalk.errors import ObservationFailureError
from lagwalk.experiments import (
    MAX_REPLICATES,
    format_cell,
    render_csv,
    run_campaign,
    run_convergence,
    run_motif_total,
    run_prevalence,
    run_size,
    run_stationary_check,
    substream_seeds,
)
from lagwalk.sampling import WEIGHT_SCHEMES, WalkTrace
from helpers import complete_graph, path_graph, random_graph, reference_stationary_columns

SMALL_GRAPH = dict(n_nodes=24, n_cases=6, p_case_case=0.6, p_case_noncase=0.2,
                   p_noncase_noncase=0.1, graph_seed=5)


def small_cfg(**kw):
    base = dict(experiment="prevalence", r_values=(0.5,), w_values=(1.0,),
                lengths=(12,), replicates=24, replicates_ratio=12, seed=7, **SMALL_GRAPH)
    base.update(kw)
    return CampaignConfig(**base)


STREAM_TAGS = (experiments._STREAM_X, experiments._STREAM_Y, experiments._STREAM_RATIO)


def seed_sequence_seed(master, experiment, cell, k, stream):
    """The seed of one replicate, from numpy's SeedSequence itself."""
    ss = np.random.SeedSequence([master, experiments.EXPERIMENTS.index(experiment), cell, k, stream])
    return int(ss.generate_state(1, np.uint64)[0])


class TestSeeding:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(master=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1)),
           experiment=st.sampled_from(experiments.EXPERIMENTS), cell=st.integers(0, 200),
           n=st.integers(0, 50), stream=st.sampled_from(STREAM_TAGS))
    @example(master=0, experiment="stationary-check", cell=0, n=1, stream=0)
    @example(master=2**32 - 1, experiment="size", cell=3, n=50, stream=1)
    @example(master=2**32, experiment="motif-total", cell=7, n=50, stream=2)
    @example(master=2**63 - 1, experiment="prevalence", cell=0, n=50, stream=0)
    def test_substream_seeds_match_seed_sequence(self, master, experiment, cell, n, stream):
        """Masters of one and two 32-bit words, k from 0, every stream tag."""
        seeds = substream_seeds(master, experiment, cell, n, stream)
        assert seeds == [seed_sequence_seed(master, experiment, cell, k, stream)
                         for k in range(n)]
        assert all(type(seed) is int for seed in seeds)
        assert len(set(seeds)) == n

    def test_substream_seeds_spot_check_5000(self):
        master, stream = 2**40 + 9, experiments._STREAM_RATIO
        seeds = substream_seeds(master, "motif-total", 11, 5000, stream)
        assert seeds == [seed_sequence_seed(master, "motif-total", 11, k, stream)
                         for k in range(5000)]

    def test_replicate_index_fits_one_word(self):
        with pytest.raises(AssertionError, match="32-bit word"):
            substream_seeds(1, "size", 0, 2**32 + 1, 0)


class TestStationaryCheckRunner:
    def test_deviations_are_tiny(self):
        cfg = small_cfg(experiment="stationary-check", r_values=(0.5, 2.0), w_values=(0.0, 1.0))
        rows = run_stationary_check(cfg)
        assert len(rows) == 4
        for row in rows:
            assert row["max_marginal_dev"] < 1e-10
            assert row["max_pair_dev"] < 1e-10
            assert row["max_mixed_residual"] < 1e-10

    def test_regular_graph_uniform_marginals(self):
        cfg = small_cfg(experiment="stationary-check", r_values=(1.0,), w_values=(0.0, 0.5, 1.0))
        g = complete_graph(6)
        rows = run_stationary_check(cfg, g)
        for row in rows:
            assert row["max_marginal_dev"] < 1e-10  # closed form is uniform here

    @pytest.mark.parametrize("graph", [
        # Node n hangs off node 0 and node n + 1 is isolated.
        *(Graph(n + 2, [*random_graph(n, 0.3, seed).edges, (0, n)])
          for n, seed in [(4, 1), (9, 2), (17, 3), (30, 4)]),
        complete_graph(5),  # only the diagonal is non-adjacent
        Graph(6, []),
    ], ids=["random-6", "random-11", "random-19", "random-32", "complete-5", "edgeless-6"])
    def test_lumped_columns_match_dense_reference(self, graph):
        """Read off the lumped law, the columns agree with the ones the dense
        N^2 pair vector gives, to rounding."""
        r_values, w_values = (0.1, 1.0, 6.0), (0.0, 0.5, 1.0)
        cfg = small_cfg(experiment="stationary-check", r_values=r_values, w_values=w_values)
        rows = run_stationary_check(cfg, graph)
        cells = [(r, w) for r in r_values for w in w_values]
        assert [(row["r"], row["w"]) for row in rows] == cells
        for row, (r, w) in zip(rows, cells):
            wcfg = WalkConfig(r=r, w=w)
            reference = reference_stationary_columns(graph, wcfg, build_pair_chain(graph, wcfg))
            lumped = (row["max_marginal_dev"], row["max_pair_dev"], row["max_mixed_residual"])
            assert np.abs(np.subtract(lumped, reference)).max() <= 1e-15, (r, w, lumped, reference)
            assert row["n_states"] == graph.n ** 2


class TestConvergenceRunner:
    def test_columns_and_self_validation(self):
        cfg = small_cfg(experiment="convergence", r_values=(1.0,), w_values=(1.0,),
                        replicates=4000, t_checkpoints=(1, 4), convergence_inits=("stationary", "fixed"))
        rows = run_convergence(cfg)
        assert len(rows) == 4
        for row in rows:
            assert abs(row["y_mc"] - row["y_exact"]) <= 4 * row["y_mc_se"] + 1e-9
        stationary_rows = [r for r in rows if r["init"] == "stationary"]
        for row in stationary_rows:
            assert abs(row["y_exact"] - row["y_equilibrium"]) < 1e-10


class TestPrevalenceRunner:
    def test_degenerate_all_cases(self):
        cfg = small_cfg(replicates=10)
        g = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)], values=[1.0] * 6)
        rows = run_prevalence(cfg, g)
        assert len(rows) == 1
        assert rows[0]["mu_mean"] == pytest.approx(1.0)
        assert rows[0]["mu_sd"] == pytest.approx(0.0)
        assert rows[0]["mu_true"] == 1.0

    def test_row_per_cell(self):
        cfg = small_cfg(r_values=(0.5, 1.0), w_values=(1.0, 0.1), lengths=(8, 12), replicates=6)
        rows = run_prevalence(cfg)
        assert len(rows) == 8
        for row in rows:
            assert 0 <= row["mu_mean"] <= 1
            assert 0 < row["psi_mean"] <= 1

    def test_failed_replicate_counts_as_failure(self, monkeypatch):
        rep = experiments._prevalence_rep
        seeds = substream_seeds(7, "prevalence", 0, 4, experiments._STREAM_X)

        def one_fails(graph, wcfg, burn_in, scheme, seed):
            mu, psi = rep(graph, wcfg, burn_in, scheme, seed)
            return (np.nan if seed == seeds[1] else mu), psi

        cfg = small_cfg(replicates=4, max_failure_rate=0.5)
        (full,) = run_prevalence(cfg)
        ok = np.array([rep(experiments.load_graph(cfg), experiments._walk_config(cfg, 0.5, 1.0, 12),
                           0, "multiplicity", seeds[k])[0] for k in (0, 2, 3)])
        monkeypatch.setattr(experiments, "_prevalence_rep", one_fails)
        (row,) = run_prevalence(cfg)
        assert full["failure_rate"] == 0.0
        assert row["failure_rate"] == 0.25
        assert row["mu_mean"] == float(ok.mean())
        assert row["mu_sd"] == float(ok.std(ddof=1))
        assert row["mu_se"] == float(ok.std(ddof=1) / np.sqrt(3))
        assert row["psi_mean"] == full["psi_mean"]
        with pytest.raises(ObservationFailureError):
            run_prevalence(small_cfg(replicates=4, max_failure_rate=0.2))


class TestSizeRunner:
    def test_smoke_and_shape(self):
        cfg = small_cfg(experiment="size", lengths=(20,), replicates=40,
                        max_failure_rate=1.0)
        rows = run_size(cfg)
        assert len(rows) == 3  # one row per estimator
        by_est = {r["estimator"]: r for r in rows}
        assert set(by_est) == {"cr", "gr", "grcr"}
        assert by_est["gr"]["n_success"] == 40
        assert by_est["cr"]["n_success"] <= 40
        for row in rows:
            assert row["true_edge_count"] == row["true_edge_count"]  # not NaN

    def test_degrees_read_through_the_audit(self, monkeypatch):
        """Sizes, totals and the prevalence ratio read through the walks' sample
        graphs, and give the same values as the full graph."""
        cfg = small_cfg(experiment="size", lengths=(20,), replicates=4, max_failure_rate=1.0)
        graph = experiments.load_graph(cfg)
        wcfg = experiments._walk_config(cfg, 0.5, 1.0, 19)
        seed_x, seed_y = (substream_seeds(7, "size", 0, 1, stream)[0] for stream in (0, 1))
        traces = [experiments._analysis_trace(graph, wcfg, 0, random.Random(seed))
                  for seed in (seed_x, seed_y)]
        stat = count_collisions(*traces, graph, 0.5)
        d_bar = weighted_mean_degree(traces, [graph, graph], 0.5)
        cr, gr, grcr, _ = experiments._size_rep(graph, wcfg, 0, seed_x, seed_y)
        assert gr == estimate_size_gr(d_bar, graph.n).r_hat
        assert grcr == estimate_size_grcr(stat, d_bar, 0.5).r_hat
        assert cr == estimate_size_cr(stat, 0.5, graph.n).r_hat
        mu, _ = experiments._prevalence_rep(graph, wcfg, 0, "multiplicity", seed_x)
        assert mu == estimate_ratio(traces[0], graph, wcfg, MotifKind.NODE)

        monkeypatch.setattr(experiments, "build_sample_graph", _sample_graph_missing_last_state)
        with pytest.raises(UnobservedEntryError):
            experiments._size_rep(graph, wcfg, 0, seed_x, seed_y)
        with pytest.raises(UnobservedEntryError):
            experiments._total_rep(graph, wcfg, 0, cfg.motif, "multiplicity", seed_x, seed_y)
        for scheme in WEIGHT_SCHEMES:
            with pytest.raises(UnobservedEntryError):
                experiments._prevalence_rep(graph, wcfg, 0, scheme, seed_x)

    def test_estimator_selection(self):
        cfg = small_cfg(experiment="size", lengths=(16,), replicates=10,
                        estimators=("gr",), max_failure_rate=1.0)
        rows = run_size(cfg)
        assert [r["estimator"] for r in rows] == ["gr"]


def _sample_graph_missing_last_state(graph, trace):
    """The sample graph of a trace with every visit to its last state removed."""
    kept = tuple(v for v in trace.states if v != trace.states[-1])
    return build_sample_graph(graph, WalkTrace(kept, trace.config, trace.n_nodes))


class TestMotifTotalRunner:
    def test_exact_normalization_smoke(self):
        cfg = small_cfg(experiment="motif-total", lengths=(20,), replicates=30,
                        replicates_ratio=20, normalization="exact", max_failure_rate=1.0)
        rows = run_motif_total(cfg)
        assert len(rows) == 2
        targets = {r["target"]: r for r in rows}
        assert targets["total"]["normalization"] == "exact"
        assert targets["ratio"]["normalization"] == "unnormalized"
        assert targets["total"]["true_total"] > 0
        assert 0 <= targets["ratio"]["true_ratio"] <= 1

    @pytest.mark.parametrize("normalization", ["exact", "estimated"])
    def test_triangle_ppw_is_multiplicity(self, normalization):
        """Every equivalent sequence of a triangle weighs 1 + r/N, so the ppw
        rows are the multiplicity rows, bit for bit, but for their label."""
        rows = {}
        for scheme in WEIGHT_SCHEMES:
            cfg = CampaignConfig(experiment="motif-total", motif=MotifKind.TRIANGLE, weights=scheme,
                                 normalization=normalization, r_values=(0.5, 2.0), w_values=(0.3,),
                                 lengths=(40,), replicates=6, replicates_ratio=4, seed=3,
                                 max_failure_rate=1.0)
            rows[scheme] = [{k: v for k, v in row.items() if k != "weights"}
                            for row in run_motif_total(cfg)]
        assert len(rows["ppw"]) == 4
        assert all(row["mean"] > 0 for row in rows["ppw"])
        assert rows["ppw"] == rows["multiplicity"]

    def test_rule_runs_once_per_adjacent_window(self, monkeypatch, study_graph):
        """On the demo graph a jump window skips the detection rule, and the
        graph keeps what the rule found once per kind, so each adjacent window
        runs it exactly once across both targets ("ones" totals and "product"
        ratios) and all four (r, w) cells."""
        calls = Counter()
        target = []
        rule = estimators._window_occurrences

        def tagged(name, estimate):
            def run(*args, **kwargs):
                target[:] = [name]
                return estimate(*args, **kwargs)
            return run

        def counted_rule(provider, window, kind):
            calls[window, target[0]] += 1
            return rule(provider, window, kind)

        monkeypatch.setattr(experiments, "estimate_total", tagged("total", estimate_total))
        monkeypatch.setattr(experiments, "estimate_ratio", tagged("ratio", estimate_ratio))
        monkeypatch.setattr(estimators, "_window_occurrences", counted_rule)
        cfg = CampaignConfig(experiment="motif-total", motif=MotifKind.TRIANGLE, weights="ppw",
                             r_values=(0.1, 6.0), w_values=(1.0, 0.01), lengths=(50,),
                             replicates=8, replicates_ratio=8, seed=7, max_failure_rate=1.0)
        rows = run_motif_total(cfg)
        assert Counter(row["target"] for row in rows) == {"total": 4, "ratio": 4}
        assert {name for _, name in calls} == {"total", "ratio"}
        windows = Counter(window for window, _ in calls)
        assert set(windows.values()) == {1}
        assert all(study_graph.has_edge(*window) for window in windows)
        assert len(windows) <= 2 * study_graph.edge_count

    def test_failure_threshold_raises(self):
        cfg = small_cfg(experiment="motif-total", lengths=(6,), replicates=8,
                        replicates_ratio=8, normalization="exact", max_failure_rate=0.1)
        triangle_free = path_graph(10)
        with pytest.raises(ObservationFailureError):
            run_motif_total(cfg, triangle_free)


class TestCsvOutput:
    def test_format_cell(self):
        assert format_cell(0.123456789) == "0.123457"
        assert format_cell(299) == "299"
        assert format_cell("gr") == "gr"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(True) == "true"

    def test_every_row_carries_full_config(self):
        cfg = small_cfg(replicates=5)
        rows, columns = run_campaign(cfg)
        text = render_csv(rows, columns)
        lines = text.splitlines()
        assert lines[0].startswith("experiment,graph,n_nodes")
        assert len(lines) == len(rows) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == len(columns)

    def test_out_path_written(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = small_cfg(replicates=5, out=str(out))
        rows, columns = run_campaign(cfg)
        assert out.exists()
        assert out.read_text() == render_csv(rows, columns)


class TestReproducibility:
    def test_same_seed_same_bytes(self):
        cfg = small_cfg(replicates=16)
        a = render_csv(*run_campaign(cfg))
        b = render_csv(*run_campaign(cfg))
        assert a == b

    def test_different_seed_differs(self):
        a = render_csv(*run_campaign(small_cfg(replicates=16, seed=1)))
        b = render_csv(*run_campaign(small_cfg(replicates=16, seed=2)))
        assert a != b

    def test_parallel_equals_serial(self):
        """--jobs 2 writes the bytes of --jobs 1 on every campaign that runs
        replicates, paired walks (stream Y) included."""
        motif = dict(experiment="motif-total", lengths=(20,), replicates=10, replicates_ratio=10,
                     max_failure_rate=1.0)
        for cfg in (
            small_cfg(replicates=20),
            small_cfg(experiment="convergence", replicates=20),  # all three inits
            small_cfg(experiment="size", lengths=(20,), replicates=20, max_failure_rate=1.0),
            small_cfg(**motif, normalization="exact"),
            small_cfg(**motif, normalization="estimated"),
        ):
            serial = render_csv(*run_campaign(cfg))
            parallel = render_csv(*run_campaign(replace(cfg, jobs=2)))
            assert serial == parallel, (cfg.experiment, cfg.normalization)

    def test_jobs_is_capped_by_cpus_and_replicates(self, monkeypatch):
        """A pool starts all its workers at once, so --jobs 10**6 starts no
        more workers than there are usable CPUs or replicates in a cell, and
        writes the bytes of --jobs 1.  The pool is a fake that maps in process."""
        started = []

        class InProcessPool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                started.append(max_workers)
                if initializer is not None:
                    initializer(*initargs)  # as each worker process runs it when it starts

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = small_cfg(replicates=5)
        serial = render_csv(*run_campaign(cfg))
        assert render_csv(*run_campaign(replace(cfg, jobs=10**6))) == serial
        workers = min(len(os.sched_getaffinity(0)), cfg.replicates)
        assert started == ([workers] if workers > 1 else [])


class TestConfigValidation:
    def test_bad_experiment(self):
        with pytest.raises(ConfigError):
            CampaignConfig(experiment="bogus")

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            small_cfg(r_values=())

    def test_bad_replicates(self):
        with pytest.raises(ConfigError):
            small_cfg(replicates=0)

    @pytest.mark.parametrize("experiment", ["convergence", "prevalence", "size", "motif-total"])
    def test_one_replicate_rejected_where_sd_reported(self, experiment):
        with pytest.raises(ConfigError, match="replicates >= 2"):
            small_cfg(experiment=experiment, replicates=1)

    def test_one_ratio_replicate_rejected(self):
        with pytest.raises(ConfigError, match="replicates_ratio >= 2"):
            small_cfg(experiment="motif-total", replicates_ratio=1)

    def test_stationary_check_accepts_one_replicate(self):
        assert small_cfg(experiment="stationary-check", replicates=1).replicates == 1

    @pytest.mark.parametrize("field, value, message", [
        ("estimators", ("cr", "foo"), "unknown estimator 'foo'"),
        ("weights", "bogus", "unknown weights 'bogus'"),
        ("normalization", "bogus", "unknown normalization 'bogus'"),
        ("graph_seed", -1, "graph_seed=-1 must be >= 0"),
    ])
    def test_bad_value_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("motif, length", [
        (MotifKind.TRIANGLE, 1), (MotifKind.FOUR_CYCLE, 2), (MotifKind.THREE_PATH, 2),
        (MotifKind.NODE, 0),
    ])
    def test_motif_total_accepts_walks_of_the_window_order(self, motif, length):
        assert small_cfg(experiment="motif-total", motif=motif, lengths=(length,)).lengths == (length,)

    def test_burn_in_defaults(self):
        assert small_cfg().effective_burn_in() == 0
        assert small_cfg(init="uniform").effective_burn_in() == 16
        assert small_cfg(init="uniform", burn_in=4).effective_burn_in() == 4


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_tiny_campaign_to_file(self, tmp_path):
        out = tmp_path / "out.csv"
        code = self.run(
            "stationary-check", "--nodes", "12", "--cases", "3",
            "--r", "0.5 1", "--w", "0 1",
            "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 grid

    def test_stdout_when_no_out(self, capsys):
        code = self.run("stationary-check", "--nodes", "8", "--cases", "2",
                        "--r", "1", "--w", "1")
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("experiment,graph")

    def test_bad_flag_exits_2(self):
        assert self.run("prevalence", "--weights", "bogus") == EXIT_CONFIG

    def test_unknown_subcommand_exits_2(self):
        assert self.run("not-an-experiment") == EXIT_CONFIG

    def test_above_the_returned_pair_vector_cap(self, tmp_path):
        """N = 2,100 has 4,410,000 pair states, above MAX_PAIR_STATES.  The
        lumped chain runs a convergence campaign, propagates a law and runs
        stationary-check, which no longer reads the N^2 pair vector."""
        graph = ["--nodes", "2100", "--cases", "20", "--p-cc", "0.05", "--p-cn", "0.002",
                 "--p-nn", "0.002", "--r", "0.5", "--w", "0.3", "--jobs", "1"]
        out = tmp_path / "out.csv"
        assert self.run("convergence", "--replicates", "2", *graph, "--out", str(out)) == EXIT_OK
        assert out.read_text().count("\n") > 1
        path, cfg = path_graph(2100), WalkConfig(r=0.5, w=0.3)
        pi = stationary_node(path, cfg)
        assert np.abs(marginal_at_t(path, cfg, pi, 16) - pi).max() < 1e-12
        assert self.run("stationary-check", *graph, "--out", str(out)) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [row["n_states"] for row in rows] == ["4410000"]

    def test_stationary_check_on_20000_nodes(self, tmp_path):
        """4e8 pair states: the check reads only the lumped law.  The generator
        would draw 2e8 node pairs at this N, so the test writes the graph."""
        n = 20_000
        pairs = np.sort(np.random.default_rng(5).integers(0, n - 10, size=(70_000, 2)), axis=1)
        edges = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)[:60_000]
        assert len(edges) == 60_000  # nodes n - 10, ..., n - 1 stay isolated
        gpath, out = tmp_path / "big.edges", tmp_path / "out.csv"
        gpath.write_text(f"N {n}\ncases 200\n" + "".join(f"{i} {j}\n" for i, j in edges.tolist()))
        assert self.run("stationary-check", "--graph", str(gpath), "--r", "0.5", "--w", "0.3",
                        "--out", str(out)) == EXIT_OK
        (row,) = csv.DictReader(io.StringIO(out.read_text()))
        assert row["n_states"] == "400000000"
        assert row["edge_count"] == "60000"
        for column in ("max_marginal_dev", "max_pair_dev", "max_mixed_residual"):
            assert float(row[column]) < 1e-8

    def test_oversize_generated_graph_exits_2(self, capsys):
        """The generator's pair budget is checked before it allocates."""
        code = self.run("prevalence", "--nodes", "100000000", "--p-cc", "0", "--p-cn", "0",
                        "--p-nn", "0", "--replicates", "2")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "draws 4999999950000000 node pairs, above the cap of 33554432" in err

    def test_oversize_edge_list_header_exits_2(self, tmp_path, capsys):
        """The node budget is checked on the N header, before anything is built."""
        gpath = tmp_path / "huge.edges"
        gpath.write_text(f"N {MAX_GRAPH_NODES + 1}\ncases 0\n0 1\n")
        code = self.run("prevalence", "--graph", str(gpath), "--replicates", "2")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"N {MAX_GRAPH_NODES + 1} is above the cap of {MAX_GRAPH_NODES} nodes" in err

    @pytest.mark.parametrize("flag", ["--graph", "--config"])
    def test_non_utf8_input_file_exits_2(self, tmp_path, capsys, flag):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfeN\x00 \x003\x00\n\x00")
        assert self.run("prevalence", flag, str(path), "--replicates", "2") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read {flag[2:]} file {path}: 'utf-8' codec can't decode" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--replicates", "--replicates-ratio"])
    @pytest.mark.parametrize("b", [MAX_REPLICATES + 1, 100_000_000_000])
    def test_oversize_replicates_exits_2(self, capsys, monkeypatch, flag, b):
        """The replicate budget is checked before any seed is drawn."""
        def no_seeds(*args):
            raise AssertionError("seeds were drawn")

        monkeypatch.setattr(experiments, "substream_seeds", no_seeds)
        code = self.run("motif-total", "--nodes", "10", "--cases", "2", "--r", "1", "--w", "1",
                        "--walk-length", "8", flag, str(b))
        assert code == EXIT_CONFIG
        name = flag[2:].replace("-", "_")
        assert f"{name}={b} is above the cap of {MAX_REPLICATES}" in capsys.readouterr().err

    def test_non_ergodic_exits_3(self):
        code = self.run("stationary-check", "--nodes", "8", "--cases", "2",
                        "--r", "0", "--w", "1")
        assert code == EXIT_NON_ERGODIC

    @pytest.mark.parametrize("experiment, argv", [
        ("size", ["--init", "uniform", "--walk-length", "1", "--replicates", "20"]),
        ("prevalence", ["--init", "fixed:3", "--walk-length", "0", "--replicates", "2"]),
    ])
    def test_r_zero_walk_from_a_sink_exits_3(self, tmp_path, capsys, experiment, argv):
        """A walk that takes no step still cannot start at a sink when r = 0."""
        gpath = tmp_path / "isolated.edges"
        write_edge_list(Graph(4, [(0, 1), (1, 2)], [1.0, 0.0, 0.0, 0.0]), str(gpath))
        code = self.run(experiment, "--graph", str(gpath), "--r", "0", "--burn-in", "0", *argv)
        assert code == EXIT_NON_ERGODIC
        assert "node 3 is a sink: degree 0 and r = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--r", "6,-1", "jump rate r=-1.0 must be finite and >= 0"),
        ("--w", "1 1.5", "backtracking weight w=1.5 must be in [0, 1]"),
    ])
    def test_bad_grid_value_exits_2_before_any_walk(self, capsys, monkeypatch, flag, value,
                                                    message):
        monkeypatch.setattr(experiments, "run_walk", _no_walk)
        code = self.run("prevalence", flag, value, "--nodes", "10", "--cases", "2",
                        "--walk-length", "5", "--replicates", "2")
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_observation_failure_exits_4(self, tmp_path):
        gpath = tmp_path / "path.edges"
        write_edge_list(path_graph(10, values=[1.0] * 0 + [0.0] * 10), str(gpath))
        code = self.run(
            "motif-total", "--graph", str(gpath), "--motif", "triangle",
            "--walk-length", "6", "--replicates", "6", "--replicates-ratio", "6",
            "--normalization", "exact", "--seed", "2",
        )
        assert code == EXIT_NO_OBSERVATIONS

    def test_graph_roundtrip_through_cli(self, tmp_path, study_graph):
        gpath = tmp_path / "g.edges"
        write_edge_list(study_graph, str(gpath))
        out = tmp_path / "out.csv"
        code = self.run(
            "prevalence", "--graph", str(gpath), "--r", "0.5", "--w", "1",
            "--walk-length", "10", "--replicates", "5", "--seed", "1",
            "--out", str(out),
        )
        assert code == EXIT_OK
        assert str(gpath) in out.read_text()

    @pytest.mark.parametrize("text", [
        "N 5\ncases 1\n0 x\n",
        "N abc\ncases 1\n",
        "N 5\ncases 1.5\n",
        "N 5\ncases 1\n0 1 2\n",
    ])
    def test_malformed_edge_list_exits_2(self, tmp_path, capsys, text):
        gpath = tmp_path / "bad.edges"
        gpath.write_text(text)
        assert self.run("stationary-check", "--graph", str(gpath)) == EXIT_CONFIG
        assert "malformed" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, capsys):
        code = self.run("stationary-check", "--nodes", "8", "--cases", "2",
                        "--r", "1", "--w", "1", "--out", "/nonexistent/dir/x.csv")
        assert code == EXIT_CONFIG
        assert "does not exist" in capsys.readouterr().err

    def test_out_directory_exits_2(self, tmp_path, capsys):
        code = self.run("stationary-check", "--nodes", "8", "--cases", "2",
                        "--r", "1", "--w", "1", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "is a directory" in capsys.readouterr().err

    def test_out_untouched_when_campaign_fails(self, tmp_path):
        gpath = tmp_path / "path.edges"
        write_edge_list(path_graph(10), str(gpath))
        out = tmp_path / "out.csv"
        out.write_text("earlier results\n")
        code = self.run(
            "motif-total", "--graph", str(gpath), "--motif", "triangle",
            "--walk-length", "6", "--replicates", "6", "--replicates-ratio", "6",
            "--normalization", "exact", "--seed", "2", "--out", str(out),
        )
        assert code == EXIT_NO_OBSERVATIONS
        assert out.read_text() == "earlier results\n"

    def test_prevalence_one_replicate_exits_2(self, capsys):
        code = self.run("prevalence", "--nodes", "10", "--cases", "2", "--r", "1", "--w", "1",
                        "--walk-length", "8", "--replicates", "1")
        assert code == EXIT_CONFIG
        assert "replicates >= 2" in capsys.readouterr().err

    def test_negative_burn_in_exits_2(self, capsys):
        code = self.run("prevalence", "--nodes", "10", "--cases", "2", "--r", "1", "--w", "1",
                        "--walk-length", "100", "--burn-in", "-5", "--replicates", "2")
        assert code == EXIT_CONFIG
        assert "burn_in=-5 must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_r_exits_2(self, r, capsys):
        code = self.run("prevalence", "--nodes", "10", "--cases", "2", "--r", r, "--w", "1",
                        "--walk-length", "8", "--replicates", "2")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"jump rate r={r} must be finite" in err
        assert "Warning" not in err

    def test_missing_graph_file_exits_2(self, tmp_path):
        assert self.run("stationary-check", "--graph", str(tmp_path / "none.edges")) == EXIT_CONFIG

    def test_loaded_graph_provenance(self, tmp_path):
        gpath = tmp_path / "small.edges"
        write_edge_list(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1.0, 1.0, 0.0, 0.0, 0.0]),
                        str(gpath))
        out = tmp_path / "out.csv"
        code = self.run("stationary-check", "--graph", str(gpath), "--r", "1", "--w", "0.5",
                        "--out", str(out))
        assert code == EXIT_OK
        (row,) = csv.DictReader(io.StringIO(out.read_text()))
        assert (row["n_nodes"], row["n_cases"]) == ("5", "2")
        for col in ("p_case_case", "p_case_noncase", "p_noncase_noncase", "graph_seed"):
            assert row[col] == ""
        assert row["solver"] == "power"

    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# demo config\n"
            "nodes = 12\n"
            "cases = 3\n"
            "r = 0.5 1\n"
            "w = 1\n"
            "seed = 5\n"
        )
        out1 = tmp_path / "a.csv"
        code = self.run("stationary-check", "--config", str(cfgfile), "--out", str(out1))
        assert code == EXIT_OK
        body = out1.read_text()
        assert ",12," in body  # nodes from file
        # flag overrides file
        out2 = tmp_path / "b.csv"
        code = self.run("stationary-check", "--config", str(cfgfile),
                        "--nodes", "14", "--out", str(out2))
        assert code == EXIT_OK
        assert ",14," in out2.read_text()

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense line\n")
        assert self.run("prevalence", "--config", str(bad)) == EXIT_CONFIG
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("frobnicate = 3\n")
        assert self.run("prevalence", "--config", str(unknown)) == EXIT_CONFIG
        assert self.run("prevalence", "--config", str(tmp_path / "missing.cfg")) == EXIT_CONFIG

    @pytest.mark.parametrize("experiment, text, message", [
        ("size", "estimator = foo", "unknown estimator 'foo'"),
        ("prevalence", "weights = bogus", "unknown weights 'bogus'"),
        ("motif-total", "normalization = bogus", "unknown normalization 'bogus'"),
        ("prevalence", "generate = maybe", "bad value 'maybe'"),
        ("prevalence", "graph = g.edges\ngenerate = true", "already set by an earlier key"),
    ])
    def test_bad_config_file_value_exits_2_before_any_walk(self, tmp_path, capsys, monkeypatch,
                                                            experiment, text, message):
        def no_walk(*args):
            raise AssertionError("a walk ran")

        monkeypatch.setattr(experiments, "run_walk", no_walk)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text + "\n")
        ratio = ["--replicates-ratio", "2"] if experiment == "motif-total" else []
        code = self.run(experiment, "--config", str(cfgfile), "--nodes", "10", "--cases", "2",
                        "--r", "1", "--w", "1", "--walk-length", "8", "--replicates", "2", *ratio)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_generate_overrides_config_file_graph(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"graph = {tmp_path / 'missing.edges'}\n")
        out = tmp_path / "out.csv"
        code = self.run("prevalence", "--config", str(cfgfile), "--generate", "--nodes", "10",
                        "--cases", "2", "--r", "1", "--w", "1", "--walk-length", "8",
                        "--replicates", "2", "--out", str(out))
        assert code == EXIT_OK
        (row,) = csv.DictReader(io.StringIO(out.read_text()))
        assert row["graph"] == "generated"

    @pytest.mark.parametrize("seed", ["-1", "-3", str(2**63), str(2**63 + 5)])
    def test_seed_outside_range_exits_2(self, capsys, monkeypatch, seed):
        """A master seed outside [0, 2**63) would alias one inside it."""
        monkeypatch.setattr(experiments, "run_walk", _no_walk)
        code = self.run("prevalence", "--seed", seed, "--nodes", "10", "--cases", "2",
                        "--walk-length", "5", "--replicates", "2")
        assert code == EXIT_CONFIG
        assert f"seed={seed} must be in [0, 2**63)" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["0", str(2**63 - 1)])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        out = tmp_path / "out.csv"
        code = self.run("prevalence", "--seed", seed, "--nodes", "10", "--cases", "2",
                        "--walk-length", "5", "--replicates", "2", "--out", str(out))
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows
        assert {row["master_seed"] for row in rows} == {seed}

    def test_negative_graph_seed_exits_2(self, capsys):
        code = self.run("prevalence", "--graph-seed", "-1", "--replicates", "2",
                        "--walk-length", "5")
        assert code == EXIT_CONFIG
        assert "graph_seed=-1 must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", ["0", "-5"])
    def test_generated_graph_without_nodes_exits_2(self, capsys, nodes):
        """The node count is checked before the case count it bounds."""
        code = self.run("prevalence", "--nodes", nodes, "--cases", "0", "--replicates", "2")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"n_nodes={nodes} must be at least 1" in err
        assert "n_cases" not in err

    def test_size_walk_length_below_one_exits_2(self, capsys):
        code = self.run("size", "--walk-length", "5 0", "--replicates", "2")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "size walk length 0 must be >= 1" in err
        assert "states extracted per walk" in err

    @pytest.mark.parametrize("motif, length", [
        ("triangle", 0), ("four-cycle", 1), ("three-path", 1), ("three-path", 0),
    ])
    def test_motif_total_walk_below_window_order_exits_2(self, capsys, monkeypatch, motif,
                                                          length):
        monkeypatch.setattr(experiments, "run_walk", _no_walk)
        code = self.run("motif-total", "--motif", motif, "--walk-length", f"5 {length}",
                        "--nodes", "10", "--cases", "2", "--replicates", "2",
                        "--replicates-ratio", "2")
        assert code == EXIT_CONFIG
        q = 1 if motif == "triangle" else 2
        assert (f"motif-total walk length {length} is below the window order {q} of a {motif}"
                in capsys.readouterr().err)

    def test_convergence_reports_no_burn_in(self, tmp_path):
        out = tmp_path / "c.csv"
        code = self.run("convergence", "--nodes", "10", "--cases", "2", "--r", "1", "--w", "1",
                        "--replicates", "4", "--init", "uniform", "--out", str(out))
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows
        assert {(row["init"], row["burn_in"]) for row in rows} == {("uniform", "0")}

    @pytest.mark.parametrize("node", ["999", "-1"])
    def test_convergence_fixed_node_outside_graph_exits_2(self, capsys, monkeypatch, node):
        monkeypatch.setattr(experiments, "run_walk", _no_walk)
        code = self.run("convergence", "--init", f"fixed:{node}", "--replicates", "2",
                        "--nodes", "10", "--cases", "2")
        assert code == EXIT_CONFIG
        assert f"init_node {node} outside graph of order 10" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--nodes", "--cases", "--p-cc", "--p-cn", "--p-nn",
                                      "--graph-seed"])
    def test_generator_setting_with_loaded_graph_exits_2(self, tmp_path, capsys, monkeypatch,
                                                         flag):
        monkeypatch.setattr(cli, "run_campaign", _no_campaign)
        gpath = tmp_path / "g.edges"
        write_edge_list(path_graph(5), str(gpath))
        value = FLAG_VALUES[flag]
        graph_file = tmp_path / "graph.cfg"
        graph_file.write_text(f"graph = {gpath}\n")
        generator_file = tmp_path / "generator.cfg"
        generator_file.write_text(f"{flag[2:]} = {value}\n")
        for argv in (["--graph", str(gpath), flag, value],
                     ["--config", str(graph_file), flag, value],
                     ["--config", str(generator_file), "--graph", str(gpath)]):
            assert self.run("prevalence", *argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"{flag} set the graph generator, but the graph is loaded from {gpath}" in err

    def test_read_config_file_parsing(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("walk-length = 10 20  # trailing comment\nweights = ppw\n")
        parsed = read_config_file(str(f))
        assert parsed == {"walk_length": "10 20", "weights": "ppw"}

    def test_fixed_init_parsing(self, tmp_path):
        out = tmp_path / "o.csv"
        code = self.run("prevalence", "--nodes", "10", "--cases", "2",
                        "--r", "1", "--w", "1", "--walk-length", "8",
                        "--replicates", "4", "--init", "fixed:3", "--out", str(out))
        assert code == EXIT_OK
        assert "fixed:3" in out.read_text()
        assert self.run("prevalence", "--init", "fixed") == EXIT_CONFIG


# A value for every flag of the settings table, unlike every experiment's default.
FLAG_VALUES = {
    "--graph": "g.edges", "--generate": None, "--nodes": "15", "--cases": "4", "--p-cc": "0.3",
    "--p-cn": "0.2", "--p-nn": "0.05", "--graph-seed": "4", "--r": "0.5, 2", "--w": "0 0.3",
    "--walk-length": "8 9", "--replicates": "3", "--replicates-ratio": "5", "--seed": "2",
    "--init": "fixed:1", "--burn-in": "2", "--estimator": "gr", "--motif": "edge",
    "--weights": "ppw", "--normalization": "exact", "--out": "o.csv", "--jobs": "3",
    "--max-failure-rate": "0.3",
}


def _no_walk(*args):
    raise AssertionError("a walk ran")


def _no_campaign(*args):
    raise AssertionError("the campaign ran")


@pytest.mark.parametrize("key", sorted(_SETTINGS))
def test_config_file_key_matches_flag(tmp_path, key):
    """Setting a value in a config file gives the config the flag gives, on
    every experiment that reads the setting."""
    flag = _SETTINGS[key].flag
    value = FLAG_VALUES[flag]
    flag_args = [flag] if value is None else [flag, value]
    cfgfile = tmp_path / "one.cfg"
    cfgfile.write_text(f"{flag[2:]} = {'true' if value is None else value}\n")
    for experiment in _SETTINGS[key].reads:
        by_flag = make_config(build_parser().parse_args([experiment, *flag_args]))
        by_file = make_config(build_parser().parse_args([experiment, "--config", str(cfgfile)]))
        assert by_file == by_flag
        if value is not None:
            assert by_flag != make_config(build_parser().parse_args([experiment]))


# The experiments that do not read a setting, from what each runner uses;
# every other setting is read by all five.
_NOT_MOTIF_TOTAL = ("stationary-check", "convergence", "prevalence", "size")
NOT_READ = {
    "walk_length": ("stationary-check", "convergence"),
    "burn_in": ("stationary-check", "convergence"),
    "max_failure_rate": ("stationary-check", "convergence"),
    "replicates": ("stationary-check",),
    "init": ("stationary-check",),
    "weights": ("stationary-check", "convergence", "size"),
    "estimator": ("stationary-check", "convergence", "prevalence", "motif-total"),
    "motif": _NOT_MOTIF_TOTAL,
    "normalization": _NOT_MOTIF_TOTAL,
    "replicates_ratio": _NOT_MOTIF_TOTAL,
}


def test_settings_table_reads():
    for key, setting in _SETTINGS.items():
        unread = tuple(e for e in experiments.EXPERIMENTS if e not in setting.reads)
        assert unread == NOT_READ.get(key, ()), key


@pytest.mark.parametrize("key, experiment", [
    (key, experiment) for key, unread in sorted(NOT_READ.items()) for experiment in unread
])
def test_unread_setting_exits_2(tmp_path, capsys, monkeypatch, key, experiment):
    """A flag or config-file key that the experiment does not read exits 2
    before any work, with a message naming both."""
    monkeypatch.setattr(cli, "run_campaign", _no_campaign)
    flag = _SETTINGS[key].flag
    value = FLAG_VALUES[flag]
    assert main([experiment, flag, value]) == EXIT_CONFIG
    assert (f"lagwalk {experiment}: error: unrecognized arguments: {flag} {value}"
            in capsys.readouterr().err)
    cfgfile = tmp_path / "one.cfg"
    cfgfile.write_text(f"{flag[2:]} = {value}\n")
    assert main([experiment, "--config", str(cfgfile)]) == EXIT_CONFIG
    assert f"config key {key!r} is not read by {experiment}" in capsys.readouterr().err


def test_help_lists_only_the_settings_read(capsys):
    for experiment in experiments.EXPERIMENTS:
        with pytest.raises(SystemExit):
            build_parser().parse_args([experiment, "--help"])
        text = capsys.readouterr().out
        for setting in _SETTINGS.values():
            assert (setting.flag + " " in text) == (experiment in setting.reads), setting.flag


class TestMonotoneInformation:
    def test_prevalence_sd_non_increasing_in_walk_length(self):
        """Longer walks cannot be noticeably noisier (10% slack for MC noise)."""
        cfg = small_cfg(r_values=(0.5,), w_values=(1.0,), lengths=(20, 60),
                        replicates=400, seed=3)
        rows = run_prevalence(cfg)
        sd = {row["walk_length"]: row["mu_sd"] for row in rows}
        assert sd[60] <= sd[20] * 1.1


# SHA-256 of campaign CSVs from tiny CLI configs, computed at commit 093f327,
# before the window pass stopped building observation objects; the convergence
# and uniform-start prevalence digests were computed at commit 9405a84, and the
# two-word-seed size and fixed-start prevalence digests at commit c454426,
# before the replicate seeds were derived in one vectorised pass.  A change
# that alters a random stream or a float operation on purpose must update
# these digests and say so.
DIGEST_ARGS = ["--nodes", "30", "--cases", "8", "--p-cc", "0.5", "--p-cn", "0.2", "--p-nn", "0.15",
               "--graph-seed", "3", "--r", "0.5", "--w", "0.3"]
CSV_DIGESTS = {
    "convergence": "fe1c7f7a8a946a0efd34b3996d6aedfde73e30f1bc9ad7e849f939956bc1048b",
    "size-two-word-seed": "bc6bacfca4dd5be62cbfa98faab60250093972e0881d77768350be232818296b",
    "prevalence-fixed-init": "a923e310ccaab628ceccfeceb9ffe715464b472857d495449dcbf8b323ec0199",
    "prevalence-uniform-init": "9f96ca756b204bb547906f7e172b61b3ca106c555747bfa6e4fcac95ecda2531",
    "prevalence-multiplicity": "7e1db8455ef34a390c9a8ecc43bd0ab5324ab885b9d0d25d0c7ef517ef801473",
    "prevalence-ppw": "7e1db8455ef34a390c9a8ecc43bd0ab5324ab885b9d0d25d0c7ef517ef801473",
    "size": "5f91dbda8ec97c50fbbbbcba890f204846da2f3a3432420fb71ee9e87b0ae408",
    "motif-total-node-multiplicity-exact": "4c6257f7e93127e0a3ca34db7d5bbe7eefcda11e97760912605a243cfcd9fc83",
    "motif-total-node-multiplicity-estimated": "3c68b4c5a5cb240d266b686ad715bfcabce232cca2f7242a506856f93074d1c1",
    "motif-total-node-ppw-exact": "b1b6bb77075371a7ddb9b6e7e0d2ad50b2b5ff7cbd1c8772e0c05c5671d224bb",
    "motif-total-node-ppw-estimated": "32099b03a88676e3897fa5a3caeff4459a589a95d2f4512e51ed195b6482477e",
    "motif-total-edge-multiplicity-exact": "f735c72792260097a7189980ce4673f4ec301a0d15f26792e4da983537c4de5f",
    "motif-total-edge-multiplicity-estimated": "131d7f947c401f434d9fd07658f6873570f171575f75c578f579a5f0a058bcc8",
    "motif-total-edge-ppw-exact": "15e63ff3c61bfd25cdea6f2f6cbba67e67677acb8eca62171256852bb6aa518f",
    "motif-total-edge-ppw-estimated": "d9a56ca03a6a362dae794541889207db5a87d094db91801b909206b36eb040d7",
    "motif-total-two-star-multiplicity-exact": "9420a099e5dda3bbfe00f732dddd5edcc3a5db216fba20155014f70eb56f434a",
    "motif-total-two-star-multiplicity-estimated": "6f07e95c272084d6ec186e8706d5d691f0995fbfc5b30798eb9393620b54ffa3",
    "motif-total-two-star-ppw-exact": "d988092003ccb868c1bf131aab8dd3b742e46ec9201587f9048579df5144fc8a",
    "motif-total-two-star-ppw-estimated": "cd082de154f48d85c262bbbea44738f5a20f899870b949c4b57ecd4fd89f527c",
    "motif-total-triangle-multiplicity-exact": "7121b053fdc167c3d62484196cccb61229ca66d48ce24cf831df38be7118057b",
    "motif-total-triangle-multiplicity-estimated": "a1bb928b8192e77207387329cf50049f8958df27846f723475ed0a815d648c5b",
    "motif-total-triangle-ppw-exact": "a0282ad584e61f56bfb631a949e433afd1a9852dd2356bb8b59807cc34697f2d",
    "motif-total-triangle-ppw-estimated": "6399ca23f6b744b5eed54fb1ddf414d443552df6b0b858a3d84c0752e861f298",
    "motif-total-four-cycle-multiplicity-exact": "d5b1cb994391ef1ecc42fe96cb6e6d922c530946cf5759360d529b3d280f88b9",
    "motif-total-four-cycle-multiplicity-estimated": "cd03fd581b96d91e95ff873d4d94328ddfe11d7db056e987104cd5d25b32ca62",
    "motif-total-four-cycle-ppw-exact": "d0db608b2c296a7ed5c93ff07bd3ffd86b511dbb4337846b212ee4ceeddf82f2",
    "motif-total-four-cycle-ppw-estimated": "4ae4a11746aecf2bee1aeeadd81ca7e94a8986a0f8e55e47a664f6c8a9ad4557",
    "motif-total-three-path-multiplicity-exact": "c220e14406312dc0ae655c0b0e083e90754bc2575c01a7e04410ab3129f2ec77",
    "motif-total-three-path-multiplicity-estimated": "11f2feea58897123295c298b3374f7796a63c86ab22f9031a71e22a1476df202",
    "motif-total-three-path-ppw-exact": "5414b6caa0fd0e7af60a455e40ffb436fe820eb14789f20947601f199d0d331d",
    "motif-total-three-path-ppw-estimated": "0605fc5f8d6c707faae0b9784244b4acc418a43a5812744f97cb2aa20843229e",
}


def _digest_argv(name):
    if name == "convergence":
        return ["convergence", "--replicates", "5"]
    if name == "prevalence-uniform-init":  # burns in 16 steps
        return ["prevalence", "--init", "uniform", "--walk-length", "30", "--replicates", "5"]
    if name == "prevalence-fixed-init":
        return ["prevalence", "--init", "fixed:3", "--burn-in", "4", "--walk-length", "30",
                "--replicates", "5"]
    if name.startswith("size"):
        return ["size", "--walk-length", "40", "--replicates", "6"]
    if name.startswith("prevalence-"):
        return ["prevalence", "--weights", name.split("-", 1)[1], "--walk-length", "60",
                "--replicates", "5"]
    kind, scheme, norm = name[len("motif-total-"):].rsplit("-", 2)
    return ["motif-total", "--motif", kind, "--weights", scheme, "--normalization", norm,
            "--walk-length", "30", "--replicates", "3", "--replicates-ratio", "3"]


class TestCsvDigests:
    @pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
    def test_csv_bytes(self, tmp_path, name):
        out = tmp_path / "out.csv"
        cap = [] if name == "convergence" else ["--max-failure-rate", "1"]  # convergence has none
        seed = "4294967301" if name == "size-two-word-seed" else "11"  # 2**32 + 5: two words
        argv = _digest_argv(name) + DIGEST_ARGS + cap + ["--seed", seed, "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[name]
