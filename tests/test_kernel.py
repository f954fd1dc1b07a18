"""Transition law, pair chain, stationary solvers and sequence probabilities."""

import itertools
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagwalk import (
    ConfigError,
    ConvergenceError,
    Graph,
    NonErgodicError,
    PairStateChain,
    SequenceUnreachableError,
    StateSpaceError,
    UnobservedEntryError,
    WalkConfig,
    WalkTrace,
    build_pair_chain,
    build_sample_graph,
    marginal_at_t,
    sequence_prob,
    stationary_node,
    stationary_pair,
    transition_prob,
)
from lagwalk import kernel
from lagwalk.graph import generate_case_graph
from lagwalk.kernel import make_stepper, sample_initial_state
from helpers import (
    complete_graph,
    cycle_graph,
    expanded_step,
    lumped_law,
    path_graph,
    random_graph,
    reference_sequence_prob,
    reference_stationary_pair,
    reference_stationary_start,
    reference_stepper,
    reference_transition_prob,
    transition_row,
)

GRID = [(0.1, 0.0), (0.1, 0.5), (0.1, 1.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0),
        (6.0, 0.0), (6.0, 0.5), (6.0, 1.0)]


class TestWalkConfig:
    def test_validation(self):
        for r in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                WalkConfig(r=r)
        with pytest.raises(ConfigError):
            WalkConfig(r=1.0, w=1.5)
        with pytest.raises(ConfigError):
            WalkConfig(r=1.0, walk_length=-1)
        with pytest.raises(ConfigError):
            WalkConfig(r=1.0, init="bogus")
        with pytest.raises(ConfigError):
            WalkConfig(r=1.0, init="fixed")

    def test_r_zero_allowed_for_kernel_evaluation(self):
        WalkConfig(r=0.0)


class TestTransitionLaw:
    def test_pure_rw_on_path(self, path5):
        cfg = WalkConfig(r=0.0, w=1.0)
        assert transition_prob(path5, cfg, 1, 2, 1) == 0.5
        assert transition_prob(path5, cfg, 1, 2, 3) == 0.5
        assert transition_prob(path5, cfg, 1, 2, 0) == 0.0

    def test_worked_example_degree3(self):
        # d_cur = 3, r = 1, N = 100, w = 0.5, prev adjacent
        g = Graph(100, [(0, 1), (1, 2), (1, 3)])
        cfg = WalkConfig(r=1.0, w=0.5)
        assert transition_prob(g, cfg, 0, 1, 0) == pytest.approx(0.1275, abs=1e-15)
        assert transition_prob(g, cfg, 0, 1, 2) == pytest.approx(0.315, abs=1e-15)
        assert transition_prob(g, cfg, 0, 1, 50) == pytest.approx(0.0025, abs=1e-15)
        row = transition_row(g, cfg, 0, 1)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_leaf(self):
        g = Graph(5, [(0, 1)])
        cfg = WalkConfig(r=1.0)
        assert transition_prob(g, cfg, 3, 0, 1) == pytest.approx(0.6, abs=1e-15)
        for other in (0, 2, 3, 4):
            assert transition_prob(g, cfg, 3, 0, other) == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("r,w", GRID + [(0.0, 0.5)])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_stochastic_everywhere(self, r, w, seed):
        g = random_graph(9, 0.35, seed)
        if r == 0.0 and 0 in g.degrees:
            return  # sinks need a jump rate
        cfg = WalkConfig(r=r, w=w)
        for prev, cur in itertools.product(range(g.n), repeat=2):
            assert abs(transition_row(g, cfg, prev, cur).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("r", [5e-324, 0.1, 1.0, 6.0, 0.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_weight_table_keeps_the_bits(self, r, seed):
        """transition_prob equals the law as written out before its weights
        moved into one table, bit for bit, on graphs with isolated and
        degree-1 nodes; at r = 0 both refuse a sink."""
        core = random_graph(8, 0.4, seed)
        g = Graph(11, list(core.edges) + [(0, 8), (8, 9)])  # a 2-path tail and node 10 isolated
        for w in (0.0, 0.5, 1.0):
            cfg = WalkConfig(r=r, w=w)
            for prev, cur in itertools.product(range(g.n), repeat=2):
                if r == 0 and g.degree(cur) == 0:
                    with pytest.raises(NonErgodicError):
                        transition_prob(g, cfg, prev, cur, 0)
                    with pytest.raises(NonErgodicError):
                        reference_transition_prob(g, cfg, prev, cur, 0)
                    continue
                for nxt in range(g.n):
                    assert (transition_prob(g, cfg, prev, cur, nxt)
                            == reference_transition_prob(g, cfg, prev, cur, nxt)), (w, prev, cur, nxt)

    def test_isolated_node_jumps_uniformly(self):
        g = Graph(4, [(0, 1)])
        cfg = WalkConfig(r=0.5)
        row = transition_row(g, cfg, 0, 3)
        assert np.allclose(row, 0.25)

    def test_sink_raises_without_jumps(self):
        g = Graph(4, [(0, 1)])
        cfg = WalkConfig(r=0.0)
        with pytest.raises(NonErgodicError):
            transition_prob(g, cfg, 0, 3, 1)

    def test_full_backtracking_ignores_which_neighbor_was_prev(self):
        g = random_graph(8, 0.5, 3)
        cfg = WalkConfig(r=0.7, w=1.0)
        cur = max(range(8), key=g.degree)
        nbrs = sorted(g.neighbors_of(cur))
        rows = [transition_row(g, cfg, p, cur) for p in nbrs]
        for row in rows[1:]:
            assert np.allclose(row, rows[0], atol=1e-15)


class TestStep:
    def test_empirical_matches_row(self, path5):
        cfg = WalkConfig(r=1.0, w=0.3)
        rng = random.Random(42)
        n_draws = 1_000_000
        counts = np.zeros(5)
        walk = make_stepper(path5, cfg)
        for _ in range(n_draws):
            counts[walk(1, 2, 1, rng)[0]] += 1
        freq = counts / n_draws
        row = transition_row(path5, cfg, 1, 2)
        se = np.sqrt(row * (1 - row) / n_draws)
        assert (np.abs(freq - row) <= 4 * se + 1e-12).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_core=st.integers(1, 6),
        edge_flags=st.lists(st.booleans(), min_size=15, max_size=15),
        r=st.floats(0.0, 5.0, exclude_min=True),
        w=st.floats(0.0, 1.0),
        prev=st.integers(0, 7),
        cur=st.integers(0, 7),
        came_along_edge=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_frequencies_match_row(self, n_core, edge_flags, r, w, prev, cur,
                                        came_along_edge, seed):
        """Chi-square test of 20,000 sampler draws against the row, at p > 1e-6."""
        from scipy.stats import chi2

        # A random graph on 1-6 core nodes, a pendant node hanging off node 0
        # and an isolated node: 3-8 nodes in all.
        pairs = list(itertools.combinations(range(n_core), 2))
        edges = [pair for pair, flag in zip(pairs, edge_flags) if flag]
        g = Graph(n_core + 2, edges + [(0, n_core)])
        cur = cur % g.n
        nbrs = sorted(g.neighbors_of(cur))
        # A walk mostly arrives along an edge, where backtracking applies.
        prev = nbrs[prev % len(nbrs)] if came_along_edge and nbrs else prev % g.n
        cfg = WalkConfig(r=r, w=w)
        row = transition_row(g, cfg, prev, cur)
        walk = make_stepper(g, cfg)
        rng = random.Random(seed)
        n_draws = 20_000
        counts = np.bincount([walk(prev, cur, 1, rng)[0] for _ in range(n_draws)], minlength=g.n)
        assert counts[row == 0].sum() == 0
        expected = n_draws * row[row > 0]
        observed = counts[row > 0]
        # Cells expected fewer than 5 times are pooled; a pool still below 5
        # joins the smallest other cell.  Pooling keeps the test valid.
        small = expected < 5
        obs, exp = list(observed[~small]), list(expected[~small])
        if small.any():
            if expected[small].sum() >= 5 or not exp:
                obs.append(observed[small].sum())
                exp.append(expected[small].sum())
            else:
                k = int(np.argmin(exp))
                obs[k] += observed[small].sum()
                exp[k] += expected[small].sum()
        obs, exp = np.asarray(obs, dtype=float), np.asarray(exp)
        if len(exp) > 1:
            stat = float(((obs - exp) ** 2 / exp).sum())
            assert chi2.sf(stat, len(exp) - 1) > 1e-6

    @pytest.mark.parametrize("r", [0.1, 1.0, 6.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_streams_match_the_randrange_sampler(self, r, seed):
        """From equal rng states, the sampler and the randrange sampler of
        helpers.reference_stepper give the same next state and leave the same
        rng state, for every (prev, cur) on graphs with isolated and degree-1 nodes."""
        core = random_graph(8, 0.4, seed)
        g = Graph(11, list(core.edges) + [(0, 8), (8, 9)])  # a 2-path tail and node 10 isolated
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for w in (0.0, 0.5, 1.0):
            cfg = WalkConfig(r=r, w=w)
            walk, reference = make_stepper(g, cfg), reference_stepper(g, cfg)
            for prev, cur in itertools.product(range(g.n), repeat=2):
                for _ in range(4):
                    assert walk(prev, cur, 1, rng) == [reference(prev, cur, ref_rng)], (w, prev, cur)
                    assert rng.getstate() == ref_rng.getstate(), (w, prev, cur)

    def test_picks_are_randrange_draws(self):
        """A jump from an isolated node and a neighbour pick at the centre of a
        star equal rng.randrange(m) for m = 1..1100, powers of two included,
        from equal rng states: the streams rest on how CPython draws randrange."""
        rng, ref_rng = random.Random(5), random.Random(5)
        for m in range(1, 1101):
            jump = make_stepper(Graph(m, []), WalkConfig(r=1.0))
            assert jump(0, 0, 1, rng) == [ref_rng.randrange(m)], m
            assert rng.getstate() == ref_rng.getstate(), m
            if m == 1:
                continue  # a degree-1 node moves without a pick
            # At r = 5e-324 the jump coin is drawn and never lands.
            star = Graph(m + 1, [(0, j) for j in range(1, m + 1)])
            (pick,) = make_stepper(star, WalkConfig(r=5e-324))(0, 0, 1, rng)
            ref_rng.random()
            assert pick == 1 + ref_rng.randrange(m), m
            assert rng.getstate() == ref_rng.getstate(), m

    def test_support_without_jumps(self, path5):
        cfg = WalkConfig(r=0.0, w=1.0)
        rng = random.Random(0)
        walk = make_stepper(path5, cfg)
        seen = {walk(1, 2, 1, rng)[0] for _ in range(200)}
        assert seen <= {1, 3}

    def test_isolated_node_jump(self):
        g = Graph(6, [(0, 1)])
        cfg = WalkConfig(r=2.0)
        rng = random.Random(1)
        walk = make_stepper(g, cfg)
        seen = {walk(5, 5, 1, rng)[0] for _ in range(300)}
        assert seen == set(range(6))

    def test_sink_raises(self):
        g = Graph(3, [(0, 1)])
        for steps in (1, 10):
            with pytest.raises(NonErgodicError):
                make_stepper(g, WalkConfig(r=0.0))(2, 2, steps, random.Random(0))

    def test_stepper_is_kept_per_r_and_w(self, path5):
        """One closure per (graph, r, w), whatever the walk length or start
        mode; a pickled copy of the graph builds its own."""
        cfg = WalkConfig(r=1.0, w=0.3, walk_length=4)
        walk = make_stepper(path5, cfg)
        assert make_stepper(path5, WalkConfig(r=1.0, w=0.3, walk_length=9, init="uniform")) is walk
        assert make_stepper(path5, WalkConfig(r=1.0, w=0.5)) is not walk
        assert make_stepper(path5, WalkConfig(r=2.0, w=0.3)) is not walk
        copy = pickle.loads(pickle.dumps(path5))
        assert make_stepper(copy, cfg) is not walk
        assert make_stepper(copy, cfg)(0, 1, 30, random.Random(3)) == walk(0, 1, 30, random.Random(3))


class TestPairChain:
    @pytest.mark.parametrize("seed", range(20))
    def test_rows_sum_to_one(self, seed):
        g = random_graph(5 + seed, 0.3, seed, n_isolated=seed % 3)
        cfg = WalkConfig(r=0.5 + 0.3 * (seed % 4), w=(seed % 3) / 2.0)
        chain = build_pair_chain(g, cfg)
        sums = np.asarray(chain.matrix.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_structural_zeros(self, path5):
        chain = build_pair_chain(path5, WalkConfig(r=1.0, w=0.5))
        dense = chain.matrix.toarray()
        n = path5.n
        for (i, h), (g2, j) in itertools.product(
            itertools.product(range(n), repeat=2), repeat=2
        ):
            if g2 != h:
                assert dense[i * n + h, g2 * n + j] == 0.0

    def test_matrix_entries_match_kernel(self, path5):
        cfg = WalkConfig(r=0.8, w=0.25)
        chain = build_pair_chain(path5, cfg)
        dense = chain.matrix.toarray()
        n = path5.n
        for i, h, j in itertools.product(range(n), repeat=3):
            expected = transition_prob(path5, cfg, i, h, j)
            assert dense[i * n + h, h * n + j] == pytest.approx(expected, abs=1e-15)

    def test_irreducible_by_reachability(self, path5):
        chain = build_pair_chain(path5, WalkConfig(r=1.0, w=0.0))
        support = chain.matrix.toarray() > 0
        n_states = chain.n_states
        reach = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for t in np.nonzero(support[s])[0]:
                if t not in reach:
                    reach.add(int(t))
                    frontier.append(int(t))
        assert len(reach) == n_states

    def test_package_import_loads_no_scipy(self, tmp_path):
        """scipy is needed only for the explicit reference matrix: the package
        imports without loading it, and every campaign runs with it blocked."""
        src = os.path.dirname(os.path.dirname(kernel.__file__))
        code = "import sys, lagwalk; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"
        blocked = ("import sys; sys.modules['scipy'] = None\n"
                   "from lagwalk.cli import main; sys.exit(main(sys.argv[1:]))")
        graph = ["--nodes", "12", "--cases", "3", "--p-cc", "0.6", "--p-cn", "0.3", "--p-nn", "0.3",
                 "--graph-seed", "2", "--r", "0.5", "--w", "0.3", "--jobs", "1"]
        walks = ["--walk-length", "10", "--replicates", "3", "--max-failure-rate", "1"]
        for campaign in (["stationary-check"], ["convergence", "--replicates", "3"],
                         ["prevalence", *walks], ["size", *walks],
                         ["motif-total", *walks, "--replicates-ratio", "3"]):
            out = tmp_path / f"{campaign[0]}.csv"
            run = subprocess.run([sys.executable, "-c", blocked, *campaign, *graph, "--out", str(out)],
                                 env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
            assert run.returncode == 0, (campaign, run.stderr)
            assert out.read_text().count("\n") > 1

    def test_requires_positive_jump_rate(self, path5):
        with pytest.raises(NonErgodicError):
            build_pair_chain(path5, WalkConfig(r=0.0))

    def test_constructor_checks_jump_rate_and_cap(self, path5, monkeypatch):
        with pytest.raises(NonErgodicError):
            PairStateChain(path5, WalkConfig(r=0.0, w=0.5))
        # The cap bounds only the N^2 vector stationary_pair returns.
        monkeypatch.setattr(kernel, "MAX_PAIR_STATES", 24)
        chain = PairStateChain(path5, WalkConfig(r=1.0))
        with pytest.raises(StateSpaceError):
            stationary_pair(chain)

    def test_state_space_cap(self, path5, monkeypatch):
        chain = build_pair_chain(path_graph(201), WalkConfig(r=1.0))
        assert chain.n_states > kernel.MATRIX_MAX_STATES
        with pytest.raises(StateSpaceError):
            chain.matrix
        monkeypatch.setattr(kernel, "MAX_PAIR_STATES", 24)
        cfg = WalkConfig(r=1.0)
        chain = build_pair_chain(path5, cfg)
        assert marginal_at_t(path5, cfg, np.full(5, 0.2), 3, chain=chain).sum() == pytest.approx(1.0)
        with pytest.raises(StateSpaceError):
            stationary_pair(chain)

    @settings(max_examples=150, deadline=None)
    @given(
        n_core=st.integers(2, 7),
        edge_flags=st.lists(st.booleans(), min_size=21, max_size=21),
        r=st.floats(0.0, 10.0, exclude_min=True),
        w=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_matches_explicit_matrix(self, n_core, edge_flags, r, w, seed):
        # A random graph on the core nodes, plus a pendant (degree 1) node
        # hanging off node 0 and an isolated node.  Each core edge is its own
        # coin and the core has at least two nodes, so most examples have
        # branching nodes, where the backtracking coefficients apply.
        pairs = list(itertools.combinations(range(n_core), 2))
        edges = [pair for pair, flag in zip(pairs, edge_flags) if flag]
        g = Graph(n_core + 2, edges + [(0, n_core)])
        chain = build_pair_chain(g, WalkConfig(r=r, w=w))
        x = np.random.default_rng(seed).random(chain.n_states)
        x /= x.sum()
        law, dense = lumped_law(chain, x), chain.matrix.T @ x
        assert np.abs(expanded_step(chain, law) - dense).max() < 1e-15
        assert np.abs(chain.step(law)[0] - lumped_law(chain, dense)).max() < 1e-15

    def test_step_at_subnormal_jump_rate(self):
        """At r = 5e-324 an isolated node's jump weight is r/r = 1 and its move
        weights are 0/r = 0: a step stays finite and keeps the mass."""
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])  # node 5 isolated
        chain = build_pair_chain(g, WalkConfig(r=5e-324, w=0.5))
        x = np.random.default_rng(3).random(chain.n_states)
        x /= x.sum()
        law, dense = lumped_law(chain, x), chain.matrix.T @ x
        nxt = chain.step(law)[0]
        assert np.isfinite(nxt).all()
        assert abs(nxt.sum() - 1.0) < 1e-12
        assert np.abs(nxt - lumped_law(chain, dense)).max() < 1e-15
        assert np.abs(expanded_step(chain, law) - dense).max() < 1e-15


class TestStationary:
    @pytest.mark.parametrize("r,w", GRID)
    def test_two_value_pattern_and_marginals(self, r, w):
        g = random_graph(11, 0.3, seed=int(r * 10 + w * 2), n_isolated=1)
        cfg = WalkConfig(r=r, w=w)
        chain = build_pair_chain(g, cfg)
        pi = stationary_pair(chain)
        n = g.n
        adj = g.adjacency_matrix().astype(float)
        expected = (adj + r / n) / (2 * g.edge_count + r * n)
        assert np.abs(pi.reshape(n, n) - expected).max() < 1e-8
        marginal = chain.node_marginal(pi)
        assert np.abs(marginal - stationary_node(g, cfg)).max() < 1e-8

    @pytest.mark.parametrize("r,w", GRID)
    def test_pair_vector_keeps_the_bits(self, r, w):
        """The N^2 expansion of the lumped solve, with the jump mass taken from
        the step itself, equals the old loop bit for bit."""
        demo = generate_case_graph(100, 20, 0.5, 0.05, 3.1 / 79, seed=331)  # the default graph
        pendant = Graph(9, [*random_graph(7, 0.4, seed=6).edges, (0, 7)])  # 8 isolated
        for g in (demo, pendant, complete_graph(5), Graph(4, [])):
            chain = build_pair_chain(g, WalkConfig(r=r, w=w))
            assert stationary_pair(chain).tobytes() == reference_stationary_pair(chain).tobytes()

    def test_adjacent_to_nonadjacent_ratio(self):
        g = random_graph(10, 0.4, seed=8)
        r = 0.7
        chain = build_pair_chain(g, WalkConfig(r=r, w=0.3))
        pi = stationary_pair(chain).reshape(10, 10)
        i, j = g.edges[0]
        non = next(
            (a, b) for a, b in itertools.product(range(10), repeat=2)
            if not g.has_edge(a, b)
        )
        ratio = pi[i, j] / pi[non]
        assert ratio == pytest.approx((1 + r / 10) / (r / 10), rel=1e-8)

    def test_path5_marginals(self, path5):
        cfg = WalkConfig(r=1.0, w=0.5)
        chain = build_pair_chain(path5, cfg)
        marginal = chain.node_marginal(stationary_pair(chain))
        assert np.allclose(marginal, np.array([2, 3, 3, 3, 2]) / 13, atol=1e-10)

    @pytest.mark.parametrize("r,w", [(0.5, 0.2), (0.1, 0.0), (6.0, 1.0)])
    def test_power_matches_dense_solve(self, r, w):
        g = random_graph(9, 0.35, seed=21, n_isolated=1)
        chain = build_pair_chain(g, WalkConfig(r=r, w=w))
        # Balance equations pi (P - I) = 0, one replaced by sum(pi) = 1.
        system = chain.matrix.toarray().T - np.eye(chain.n_states)
        system[0] = 1.0
        rhs = np.zeros(chain.n_states)
        rhs[0] = 1.0
        dense = np.linalg.solve(system, rhs)
        assert np.abs(stationary_pair(chain) - dense).max() < 1e-10

    def test_power_iteration_cap_reports_diagnostics(self, path5):
        chain = build_pair_chain(path5, WalkConfig(r=0.5, w=0.2))
        with pytest.raises(ConvergenceError) as err:
            stationary_pair(chain, max_iter=2)
        assert err.value.iterations == 2
        assert err.value.residual > 0

    def test_closed_form_node_law(self):
        k_regular = cycle_graph(6)
        pi = stationary_node(k_regular, WalkConfig(r=2.0))
        assert np.allclose(pi, 1 / 6)
        empty = Graph(4, [])
        pi = stationary_node(empty, WalkConfig(r=0.3))
        assert np.allclose(pi, 0.25)
        with pytest.raises(NonErgodicError):
            stationary_node(k_regular, WalkConfig(r=0.0))

    @pytest.mark.parametrize("r,w", [(0.1, 0.0), (1.0, 0.5), (6.0, 1.0)])
    def test_mixed_equation(self, r, w):
        g = random_graph(9, 0.35, seed=13, n_isolated=1)
        cfg = WalkConfig(r=r, w=w)
        chain = build_pair_chain(g, cfg)
        pair = stationary_pair(chain).reshape(g.n, g.n)
        marginal = pair.sum(axis=0)
        for h in range(g.n):
            adjacent_mass = sum(pair[i, h] for i in g.neighbors_of(h))
            jump_in = sum(
                marginal[i] / (g.degree(i) + r) * (r / g.n)
                for i in range(g.n)
                if not g.has_edge(i, h)
            )
            assert marginal[h] == pytest.approx(adjacent_mass + jump_in, abs=1e-8)


class TestMarginalAtT:
    def test_stationary_start_stays_at_equilibrium(self, path5):
        cfg = WalkConfig(r=0.4, w=0.3)  # non-Markovian node process
        pi = stationary_node(path5, cfg)
        chain = build_pair_chain(path5, cfg)
        for t in (1, 4, 8, 16):
            out = marginal_at_t(path5, cfg, pi, t, chain=chain)
            assert np.abs(out - pi).max() < 1e-10

    def test_t_zero_identity(self, path5):
        init = np.array([1.0, 0, 0, 0, 0])
        out = marginal_at_t(path5, WalkConfig(r=1.0), init, 0)
        assert np.array_equal(out, init)

    @pytest.mark.parametrize("init_kind", ["uniform", "point"])
    def test_total_variation_contracts(self, init_kind):
        g = random_graph(8, 0.4, seed=2)
        cfg = WalkConfig(r=0.8, w=0.5)
        pi = stationary_node(g, cfg)
        init = np.full(8, 1 / 8) if init_kind == "uniform" else np.eye(8)[0]
        chain = build_pair_chain(g, cfg)
        tvs = [
            0.5 * np.abs(marginal_at_t(g, cfg, init, t, chain=chain) - pi).sum()
            for t in (1, 4, 8, 16)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))

    def test_validates_distribution(self, path5):
        cfg = WalkConfig(r=1.0)
        with pytest.raises(ConfigError):
            marginal_at_t(path5, cfg, np.array([0.5, 0.5]), 1)
        with pytest.raises(ConfigError):
            marginal_at_t(path5, cfg, np.array([0.9, 0.2, 0, 0, -0.1]), 1)
        with pytest.raises(ConfigError):
            marginal_at_t(path5, cfg, np.array([np.nan, 0.5, 0.25, 0.25, 0]), 1)


def integrated_sequence_prob(g, cfg, seq):
    """Equilibrium probability of a mid-walk sequence with the first state's
    predecessor integrated out against the solved pair-chain law."""
    n = g.n
    pair = stationary_pair(build_pair_chain(g, cfg)).reshape(n, n)
    if len(seq) == 1:
        return float(pair[:, seq[0]].sum())
    total = sum(pair[i, seq[0]] * transition_prob(g, cfg, i, seq[0], seq[1]) for i in range(n))
    for k in range(2, len(seq)):
        total *= transition_prob(g, cfg, seq[k - 2], seq[k - 1], seq[k])
    return float(total)


def normalised_sequence_prob(g, cfg, seq, size):
    """The window probability a total estimator uses: the unnormalised weight over 2R + rN."""
    return sequence_prob(g, cfg, seq) / (2.0 * size + cfg.r * g.n)


class TestSequenceProb:
    def test_k3_adjacent_pair(self, k3):
        cfg = WalkConfig(r=1.0, w=1.0)
        got = normalised_sequence_prob(k3, cfg, (0, 1), 3)
        assert got == pytest.approx(4 / 27, abs=1e-15)
        # equals (1 + r/N) / (2R + rN)
        assert got == pytest.approx((1 + 1 / 3) / 9, abs=1e-15)

    def test_single_state_is_stationary_prob(self, path5):
        cfg = WalkConfig(r=0.7)
        got = normalised_sequence_prob(path5, cfg, (2,), path5.edge_count)
        assert got == pytest.approx(stationary_node(path5, cfg)[2], abs=1e-15)

    def test_two_step_closed_form_on_cycle(self, c4):
        # walk along a 4-cycle: pi_i * p(lag-free) * p(middle) with w = 1
        r = 0.5
        cfg = WalkConfig(r=r, w=1.0)
        got = normalised_sequence_prob(c4, cfg, (0, 1, 2), 4)
        n, two_r = 4, 8
        expected = (1 / (c4.degree(1) + r)) * (1 + r / n) ** 2 / (two_r + r * n)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unreachable_without_jumps(self, path5):
        cfg = WalkConfig(r=0.0)
        with pytest.raises(SequenceUnreachableError):
            sequence_prob(path5, cfg, (0, 3))

    def test_empty_sequence_rejected(self, path5):
        with pytest.raises(ConfigError):
            sequence_prob(path5, WalkConfig(r=1.0), ())

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_closed_form_matches_product_form(self, seed):
        """a_{x0 x1} + r/N equals (d_0 + r) p(x_1 | x_0, x_0) on every sequence."""
        g = Graph(7, list(random_graph(5, 0.5, seed).edges) + [(0, 5)])  # 5 pendant, 6 isolated
        assert g.degree(5) == 1 and g.degree(6) == 0
        seqs = [seq for length in range(1, 5) for seq in itertools.product(range(g.n), repeat=length)]
        for r, w in GRID:
            cfg = WalkConfig(r=r, w=w)
            got = [sequence_prob(g, cfg, seq) for seq in seqs]
            expected = [reference_sequence_prob(g, cfg, seq) for seq in seqs]
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    def test_first_state_need_not_be_visited(self):
        """A 3-path's equivalent sequence that starts off the seed sample reads
        only its interior degrees, so the audited view answers it."""
        g = path_graph(4)  # the 3-path 0 - 1 - 2 - 3
        cfg = WalkConfig(r=0.5, w=0.3)
        sg = build_sample_graph(g, WalkTrace((1, 2, 1), cfg, g.n))
        for seq in [(0, 1, 2), (3, 2, 1)]:
            assert sequence_prob(sg, cfg, seq) == sequence_prob(g, cfg, seq)
            assert sequence_prob(g, cfg, seq) == pytest.approx(
                reference_sequence_prob(g, cfg, seq), rel=1e-14, abs=0)
            with pytest.raises(UnobservedEntryError):
                reference_sequence_prob(sg, cfg, seq)

    def test_exact_matches_product_for_pairs(self):
        g = random_graph(7, 0.4, seed=4)
        cfg = WalkConfig(r=0.6, w=0.2)
        for seq in [(0, 1), (2, 5), (3, 3)]:
            exact = integrated_sequence_prob(g, cfg, seq)
            product = normalised_sequence_prob(g, cfg, seq, g.edge_count)
            assert exact == pytest.approx(product, rel=1e-10)
        # single state: marginal
        assert integrated_sequence_prob(g, cfg, (2,)) == pytest.approx(
            stationary_node(g, cfg)[2], rel=1e-10
        )

    def test_exact_matches_product_for_markov_case(self):
        g = random_graph(7, 0.4, seed=4)
        cfg = WalkConfig(r=0.6, w=1.0)
        seq = (0, 1, 2)
        exact = integrated_sequence_prob(g, cfg, seq)
        product = normalised_sequence_prob(g, cfg, seq, g.edge_count)
        assert exact == pytest.approx(product, rel=1e-10)

    def test_history_discrepancy_is_measurable_for_low_w(self):
        g = random_graph(7, 0.4, seed=4)
        cfg = WalkConfig(r=0.6, w=0.1)
        seq = (0, 1, 2)
        exact = integrated_sequence_prob(g, cfg, seq)
        product = normalised_sequence_prob(g, cfg, seq, g.edge_count)
        assert exact > 0 and product > 0
        assert abs(exact - product) / product < 0.25
        # the pair law factorises, so the measured discrepancy is solver noise
        assert exact == pytest.approx(product, rel=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n_core=st.integers(2, 7),
        edge_flags=st.lists(st.booleans(), min_size=21, max_size=21),
        r=st.floats(0.1, 10.0),
        w=st.floats(0.0, 1.0),
    )
    def test_window_probability_is_exact(self, data, n_core, edge_flags, r, w):
        """The lag-free first transition is exact: integrating out the first
        state's predecessor against the stationary pair law changes nothing."""
        pairs = list(itertools.combinations(range(n_core), 2))
        edges = [pair for pair, flag in zip(pairs, edge_flags) if flag]
        g = Graph(n_core + 2, edges + [(0, n_core)])
        cfg = WalkConfig(r=r, w=w)
        n = g.n
        const = 2 * g.edge_count + r * n
        for length in range(1, 5):
            seq = [data.draw(st.integers(0, n - 1))]
            while len(seq) < length:
                # mostly along an edge, so backtracking moves are exercised
                nbrs = sorted(g.neighbors_of(seq[-1]))
                along_edge = bool(nbrs) and data.draw(st.integers(0, 3)) > 0
                seq.append(data.draw(st.sampled_from(nbrs) if along_edge else st.integers(0, n - 1)))
            got = normalised_sequence_prob(g, cfg, seq, g.edge_count)
            if length == 1:
                assert got == pytest.approx((g.degree(seq[0]) + r) / const, rel=1e-12)
            if length == 2:
                adjacent = 1.0 if g.has_edge(*seq) else 0.0
                assert got == pytest.approx((adjacent + r / n) / const, rel=1e-12)
            expected = integrated_sequence_prob(g, cfg, seq)
            assert got == pytest.approx(expected, rel=1e-9, abs=0)


class TestInitialState:
    def test_fixed_and_uniform(self, path5):
        rng = random.Random(0)
        cfg = WalkConfig(r=1.0, init="fixed", init_node=3)
        assert sample_initial_state(path5, cfg, rng) == 3
        cfg = WalkConfig(r=1.0, init="uniform")
        seen = {sample_initial_state(path5, cfg, rng) for _ in range(200)}
        assert seen == set(range(5))

    def test_fixed_out_of_range(self, path5):
        cfg = WalkConfig(r=1.0, init="fixed", init_node=7)
        with pytest.raises(ConfigError):
            sample_initial_state(path5, cfg, random.Random(0))

    def test_stationary_frequencies(self, path5):
        cfg = WalkConfig(r=1.0, init="stationary")
        rng = random.Random(11)
        n_draws = 40_000
        counts = np.zeros(5)
        for _ in range(n_draws):
            counts[sample_initial_state(path5, cfg, rng)] += 1
        freq = counts / n_draws
        target = stationary_node(path5, cfg)
        se = np.sqrt(target * (1 - target) / n_draws)
        assert (np.abs(freq - target) <= 5 * se).all()

    @pytest.mark.parametrize("graph", [
        random_graph(10, 0.25, seed=2, n_isolated=2),
        path_graph(6),
        Graph(5, [(0, 1), (1, 2)]),
    ], ids=["random-with-isolated", "path", "short-path-and-isolated"])
    def test_start_table_matches_per_call_draw(self, graph):
        """The per-graph start table gives the draws of the law rebuilt on every
        call, with two r values alternating on one graph, on copies pickled
        before and after the tables are built."""

        def check(g):
            rng, ref_rng = random.Random(5), random.Random(5)
            for i in range(300):
                cfg = WalkConfig(r=(0.1, 6.0)[i % 2])
                assert sample_initial_state(g, cfg, rng) == reference_stationary_start(g, cfg, ref_rng)
            assert rng.getstate() == ref_rng.getstate()

        copied_unused = pickle.loads(pickle.dumps(graph))
        check(graph)
        check(pickle.loads(pickle.dumps(graph)))
        check(copied_unused)

    def test_pickle_leaves_derived_tables_behind(self):
        """A pickled graph, as sent to every --jobs worker, carries no cached table."""
        g = random_graph(30, 0.3, seed=4)
        before = pickle.dumps(g)
        build_pair_chain(g, WalkConfig(r=1.0))
        sample_initial_state(g, WalkConfig(r=0.5), random.Random(0))
        assert g._derived
        assert len(pickle.dumps(g)) == len(before)
        assert pickle.loads(pickle.dumps(g)) == g
