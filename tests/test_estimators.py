"""Size estimators, window/combined totals, ratio parameters and summaries."""

import builtins
import functools
import itertools
import math
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagwalk import (
    ConfigError,
    EstimationError,
    Graph,
    MotifKind,
    NoCollisionsError,
    NoObservationsError,
    UnobservedEntryError,
    WalkConfig,
    WalkTrace,
    build_pair_chain,
    build_sample_graph,
    count_collisions,
    estimate_ratio,
    estimate_size_cr,
    estimate_size_gr,
    estimate_size_grcr,
    estimate_total,
    estimate_total_window,
    replicate_summary,
    run_walk,
    sequence_prob,
    stationary_node,
    stationary_pair,
    transition_prob,
    weighted_mean_degree,
)
from lagwalk import LagwalkError, enumerate_motifs, estimators, sampling
from lagwalk.experiments import CampaignConfig, load_graph, run_campaign
from lagwalk.graph import MotifOccurrence
from lagwalk.sampling import (
    MULTIPLICITY,
    OBSERVATION_ORDER,
    MotifObservation,
    SampleGraph,
    detect_observations,
    _ppw_weights,
    _window_occurrences,
    equivalent_sequences,
)
from helpers import (
    brute_force_total,
    complete_graph,
    cycle_graph,
    exact_expectation,
    figure_walk_graph,
    path_graph,
    random_graph,
    reference_count_collisions,
    reference_node_ratio,
    reference_ratio,
    reference_total,
    reference_total_window,
    reference_weighted_mean_degree,
    reference_weights,
)


def make_trace(states, g, r=1.0, w=1.0):
    return WalkTrace(tuple(states), WalkConfig(r=r, w=w, walk_length=len(states) - 1), g.n)


class TestCollisions:
    def test_single_match_weighted_by_degree(self, path5):
        tx = make_trace([1], path5)
        ty = make_trace([1], path5)
        stat = count_collisions(tx, ty, path5, r=1.0)
        assert stat.m == pytest.approx(1 / 3)  # degree 2, r = 1
        assert (stat.n_x, stat.n_y) == (1, 1)

    def test_disjoint_supports(self, path5):
        tx = make_trace([0, 1], path5)
        ty = make_trace([3, 4], path5)
        assert count_collisions(tx, ty, path5, r=1.0).m == 0.0

    def test_multiplicities_multiply(self, path5):
        tx = make_trace([2, 2], path5)
        ty = make_trace([2, 2, 2], path5)
        stat = count_collisions(tx, ty, path5, r=1.0)
        assert stat.m == pytest.approx(6 / 3)

    def test_k3_expected_collisions(self, k3):
        # E(m) = n_x n_y / (2R + rN) = n^2 / 9
        cfg = WalkConfig(r=1.0, w=1.0, walk_length=24)
        rng = random.Random(7)
        n = 25
        ms = []
        for _ in range(400):
            tx = run_walk(k3, cfg, rng)
            ty = run_walk(k3, cfg, rng)
            ms.append(count_collisions(tx, ty, k3, 1.0).m)
        ms = np.asarray(ms)
        expected = n * n / 9
        se = ms.std(ddof=1) / np.sqrt(len(ms))
        assert abs(ms.mean() - expected) < 4 * se


class TestSizeEstimators:
    def test_cr_worked_example(self):
        from lagwalk import CollisionStat

        stat = CollisionStat(m=4.0, n_x=50, n_y=50)
        est = estimate_size_cr(stat, r=0.1, n_nodes=100)
        assert est.r_hat == pytest.approx(307.5)
        assert not est.negative

    def test_cr_plug_in_inversion(self, study_graph):
        from lagwalk import CollisionStat

        r, n = 0.7, study_graph.n
        true_r = study_graph.edge_count
        m_star = 50 * 60 / (2 * true_r + r * n)
        est = estimate_size_cr(CollisionStat(m_star, 50, 60), r, n)
        assert est.r_hat == pytest.approx(true_r, rel=1e-12)

    def test_cr_no_collisions(self):
        from lagwalk import CollisionStat

        with pytest.raises(NoCollisionsError):
            estimate_size_cr(CollisionStat(0.0, 10, 10), 1.0, 5)

    def test_cr_negative_flag(self):
        from lagwalk import CollisionStat

        est = estimate_size_cr(CollisionStat(50.0, 10, 10), r=1.0, n_nodes=100)
        assert est.negative and est.r_hat < 0

    def test_weighted_mean_degree_examples(self, c4):
        tx = make_trace([0, 1], c4)
        # one state of degree 1 and one of degree 3 at r=1 -> 5/3
        g = Graph(5, [(0, 1), (1, 2), (1, 3)])
        t1 = make_trace([0], g)
        t2 = make_trace([1], g)
        assert weighted_mean_degree([t1, t2], [g, g], r=1.0) == pytest.approx(5 / 3)
        # regular graph: exactly k whatever the states
        assert weighted_mean_degree([tx], [c4], r=0.3) == pytest.approx(2.0)

    def test_audited_providers(self, study_graph):
        g = study_graph
        cfg = WalkConfig(r=0.5, w=0.5, walk_length=40)
        tx, ty = (run_walk(g, cfg, random.Random(seed)) for seed in (1, 2))
        sx, sy = build_sample_graph(g, tx), build_sample_graph(g, ty)
        assert weighted_mean_degree([tx, ty], [sx, sy], 0.5) == weighted_mean_degree([tx, ty], [g, g], 0.5)
        assert count_collisions(tx, ty, sx, 0.5) == count_collisions(tx, ty, g, 0.5)
        assert set(ty.states) - sx.seed  # y visits nodes x did not
        with pytest.raises(UnobservedEntryError):
            weighted_mean_degree([tx, ty], [sx, sx], 0.5)
        with pytest.raises(UnobservedEntryError):
            weighted_mean_degree([tx, ty], [sy, sx], 0.5)
        with pytest.raises(ValueError):
            weighted_mean_degree([tx, ty], [sx], 0.5)
        matched = set(tx.states) & set(ty.states)
        assert matched
        elsewhere = build_sample_graph(g, make_trace([v for v in range(g.n) if v not in matched], g))
        with pytest.raises(UnobservedEntryError):
            count_collisions(tx, ty, elsewhere, 0.5)

    def test_weighted_mean_degree_needs_states(self, c4):
        empty = WalkTrace((), WalkConfig(r=1.0), c4.n)
        for traces in ([], [empty]):
            with pytest.raises(ConfigError):
                weighted_mean_degree(traces, [c4] * len(traces), r=1.0)

    def test_gr(self):
        assert estimate_size_gr(6.0, 100).r_hat == pytest.approx(300.0)
        assert estimate_size_gr(0.0, 100).r_hat == 0.0

    def test_gr_exact_on_regular_graph(self, c4):
        tx = make_trace([0, 3, 1], c4)
        d_bar = weighted_mean_degree([tx], [c4], r=0.5)
        assert estimate_size_gr(d_bar, c4.n).r_hat == pytest.approx(c4.edge_count)

    def test_grcr_worked_example(self):
        from lagwalk import CollisionStat

        stat = CollisionStat(m=4.0, n_x=50, n_y=50)
        est = estimate_size_grcr(stat, d_bar_w=6.0, r=0.1)
        assert est.n_hat == pytest.approx(2500 / 24.4)
        assert est.r_hat == pytest.approx(15000 / 48.8)

    def test_grcr_plug_in_inversion(self, study_graph):
        from lagwalk import CollisionStat

        g = study_graph
        r = 1.3
        m_star = 40 * 40 / (2 * g.edge_count + r * g.n)
        d_star = 2 * g.edge_count / g.n
        est = estimate_size_grcr(CollisionStat(m_star, 40, 40), d_star, r)
        assert est.n_hat == pytest.approx(g.n, rel=1e-12)
        assert est.r_hat == pytest.approx(g.edge_count, rel=1e-12)

    def test_grcr_errors(self):
        from lagwalk import CollisionStat

        with pytest.raises(NoCollisionsError):
            estimate_size_grcr(CollisionStat(0.0, 5, 5), 3.0, 1.0)
        with pytest.raises(EstimationError):
            estimate_size_grcr(CollisionStat(1.0, 5, 5), 0.0, 0.0)


class TestWindowEstimator:
    def test_k3_informative_window_value(self, k3):
        cfg = WalkConfig(r=1.0, w=1.0)
        trace = make_trace([0, 1], k3)
        obs = detect_observations(trace, k3, MotifKind.TRIANGLE, "ones")
        theta, ind = estimate_total_window(obs, k3, cfg, "multiplicity", size=3)
        assert ind == 1
        assert theta == pytest.approx(9 / 8, abs=1e-12)

    def test_empty_window(self, k3):
        theta, ind = estimate_total_window([], k3, WalkConfig(r=1.0))
        assert (theta, ind) == (0.0, 0)

    @pytest.mark.parametrize("scheme", ["multiplicity", "ppw"])
    def test_exact_expectation_over_window_law(self, k3, scheme):
        # sum over ordered pairs of the two-value law times the window estimate
        cfg = WalkConfig(r=1.0, w=1.0)
        n, R = 3, 3
        E = 0.0
        for i, j in itertools.product(range(3), repeat=2):
            if k3.has_edge(i, j):
                law = (1 + 1 / n) / (2 * R + n)
            else:
                law = (1 / n) / (2 * R + n)
            trace = make_trace([i, j], k3)
            obs = detect_observations(trace, k3, MotifKind.TRIANGLE, "ones")
            theta, _ = estimate_total_window(obs, k3, cfg, scheme, size=R)
            E += law * theta
        assert E == pytest.approx(1.0, abs=1e-10)

    def test_rejects_mixed_windows(self, k3):
        cfg = WalkConfig(r=1.0)
        t1 = make_trace([0, 1], k3)
        t2 = make_trace([1, 2], k3)
        o1 = detect_observations(t1, k3, MotifKind.TRIANGLE, "ones")
        o2 = detect_observations(t2, k3, MotifKind.TRIANGLE, "ones")
        with pytest.raises(ConfigError):
            estimate_total_window(o1 + o2, k3, cfg, size=3)

    def test_rejects_mixed_kinds(self):
        """The node and edge observations of one window raise in either order,
        and each observation is checked for its window before its kind."""
        g = complete_graph(4, values=[1, 2, 3, 4])
        cfg = WalkConfig(r=1.0, w=1.0)
        node, edge, other = (detect_observations(make_trace([h], g), g, kind)
                             for h, kind in ((0, MotifKind.NODE), (0, MotifKind.EDGE),
                                             (1, MotifKind.NODE)))
        for obs in (node + edge, edge + node, node + edge + other):
            with pytest.raises(ConfigError, match="expects observations of one kind"):
                estimate_total_window(obs, g, cfg, size=6.0)
        with pytest.raises(ConfigError, match="expects observations from one window"):
            estimate_total_window(node + other + edge, g, cfg, size=6.0)


class TestCombinedEstimator:
    def test_constant_windows_on_cycle(self):
        # every single-state window of a 5-cycle gives exactly R for edges
        c5 = cycle_graph(5)
        cfg = WalkConfig(r=1.0, w=1.0, walk_length=30)
        trace = run_walk(c5, cfg, random.Random(3))
        sg = build_sample_graph(c5, trace)
        est = estimate_total(trace, sg, cfg, MotifKind.EDGE, "multiplicity", "ones", size=5)
        assert est.theta_hat == pytest.approx(5.0, abs=1e-12)
        assert est.n_windows == 31
        assert est.n_informative == 31

    def test_k3_two_window_traces_exhaustive(self, k3):
        """Exact trace-law expectation of the combined estimate equals theta."""
        from lagwalk import stationary_node, transition_prob

        cfg = WalkConfig(r=1.0, w=1.0, walk_length=2)
        pi0 = stationary_node(k3, cfg)
        E = 0.0
        for states in itertools.product(range(3), repeat=3):
            x0, x1, x2 = states
            # exact law of (X_0, X_1, X_2): stationary start, lag-free first step
            law = (pi0[x0]
                   * transition_prob(k3, cfg, x0, x0, x1)
                   * transition_prob(k3, cfg, x0, x1, x2))
            trace = make_trace(list(states), k3)
            informative = [(a, b) for a, b in zip(states, states[1:]) if k3.has_edge(a, b)]
            if not informative:
                with pytest.raises(NoObservationsError):
                    estimate_total(trace, k3, cfg, MotifKind.TRIANGLE, "multiplicity", "ones", size=3)
                theta_hat = 0.0
            else:
                est = estimate_total(trace, k3, cfg, MotifKind.TRIANGLE, "multiplicity", "ones", size=3)
                # both windows adjacent: both contribute 9/8; one adjacent: half
                expected = (9 / 8) * len(informative) / 2
                assert est.theta_hat == pytest.approx(expected, abs=1e-10)
                theta_hat = est.theta_hat
            E += law * theta_hat
        assert E == pytest.approx(1.0, abs=1e-10)

    def test_no_observation_error(self, path5):
        trace = make_trace([0, 2, 4], path5)  # jump-only moves, no adjacent pair
        cfg = WalkConfig(r=1.0)
        with pytest.raises(NoObservationsError):
            estimate_total(trace, path5, cfg, MotifKind.TRIANGLE, size=4)

    @pytest.mark.parametrize("w", [1.0, 0.4])
    @pytest.mark.parametrize("n_nodes", [6, 7, 8])
    @pytest.mark.parametrize("kind", [MotifKind.EDGE, MotifKind.TRIANGLE])
    def test_window_unbiasedness_any_w(self, kind, n_nodes, w):
        """Order <= 1 windows use the exact pair law, so E[estimate] = theta."""
        rng = random.Random(n_nodes)
        g = random_graph(n_nodes, 0.55, seed=9,
                         values=[rng.randint(0, 1) for _ in range(n_nodes)])
        r = 0.8
        cfg = WalkConfig(r=r, w=w)
        n, R = g.n, g.edge_count
        theta = sum(o.value for o in enumerate_motifs(g, kind, "product"))
        q = 0 if kind is MotifKind.EDGE else 1
        E = 0.0
        for window in itertools.product(range(n), repeat=q + 1):
            if q == 0:
                law = (g.degree(window[0]) + r) / (2 * R + r * n)
            else:
                i, j = window
                law = ((1.0 if g.has_edge(i, j) else 0.0) + r / n) / (2 * R + r * n)
            trace = make_trace(list(window), g, r=r, w=w)
            obs = detect_observations(trace, g, kind, "product")
            theta_t, _ = estimate_total_window(obs, g, cfg, "multiplicity", size=R)
            E += law * theta_t
        assert E == pytest.approx(theta, abs=1e-10)

    @pytest.mark.parametrize("scheme", ["multiplicity", "ppw"])
    @pytest.mark.parametrize("kind", list(MotifKind))
    def test_window_unbiasedness_from_the_pair_chain(self, kind, scheme):
        """E[window estimate] = theta for every kind, scheme, value mode and w.

        The window law comes from the solved pair chain, pi_pair(x0, x1) times
        p(x2 | x1, x0) for a third state, not from sequence_prob; theta comes
        from the brute-force oracle.  Each graph holds every motif kind.
        """
        q = OBSERVATION_ORDER[kind]
        for n, seed in ((5, 21), (6, 0), (7, 0)):
            rng = random.Random(seed)
            values = [rng.choice((0.5, 1.0, 3.0)) for _ in range(n)]
            g = random_graph(n, 0.6, seed=seed, values=values)
            assert brute_force_total(g, kind.value) > 0
            for r, w in ((0.8, 1.0), (0.3, 0.2), (2.0, 0.0)):
                cfg = WalkConfig(r=r, w=w)
                pair = stationary_pair(build_pair_chain(g, cfg)).reshape(n, n)
                for mode in ("ones", "product"):
                    E = 0.0
                    for window in itertools.product(range(n), repeat=q + 1):
                        law = pair[:, window[0]].sum() if q == 0 else pair[window[0], window[1]]
                        if q == 2:
                            law *= transition_prob(g, cfg, *window)
                        obs = detect_observations(make_trace(window, g, r, w), g, kind, mode)
                        theta_t, _ = estimate_total_window(obs, g, cfg, scheme, size=g.edge_count)
                        E += law * theta_t
                    theta = brute_force_total(g, kind.value, mode)
                    assert E == pytest.approx(theta, rel=1e-9), (n, r, w, mode)


class TestRatioEstimator:
    def test_all_ones_gives_one(self):
        g = random_graph(8, 0.6, 3, values=[1.0] * 8)
        cfg = WalkConfig(r=1.0, w=0.5, walk_length=40)
        trace = run_walk(g, cfg, random.Random(0))
        sg = build_sample_graph(g, trace)
        for kind in MotifKind:
            for scheme in ("multiplicity", "ppw"):
                ratio = estimate_ratio(trace, sg, cfg, kind, scheme, ppw_fallback=True)
                assert ratio == pytest.approx(1.0, rel=1e-12), (kind, scheme)

    def test_node_ratio_reduces_to_classic_form(self, study_graph):
        g = study_graph
        cfg = WalkConfig(r=0.1, w=1.0, walk_length=80)
        trace = run_walk(g, cfg, random.Random(12))
        sg = build_sample_graph(g, trace)
        mu = estimate_ratio(trace, sg, cfg, MotifKind.NODE)
        num = sum(g.values[x] / (g.degree(x) + 0.1) for x in trace.states)
        den = sum(1 / (g.degree(x) + 0.1) for x in trace.states)
        assert mu == pytest.approx(num / den, rel=1e-12)

    def test_scale_invariance(self, study_graph):
        """Unnormalised probabilities give the same ratio as exact ones."""
        g = study_graph
        cfg = WalkConfig(r=0.1, w=0.01, walk_length=60)
        trace = run_walk(g, cfg, random.Random(5))
        sg = build_sample_graph(g, trace)
        mu = estimate_ratio(trace, sg, cfg, MotifKind.TRIANGLE)
        num = estimate_total(trace, sg, cfg, MotifKind.TRIANGLE, "multiplicity", "product",
                             size=float(g.edge_count))
        den = estimate_total(trace, sg, cfg, MotifKind.TRIANGLE, "multiplicity", "ones",
                             size=float(g.edge_count))
        assert mu == pytest.approx(num.theta_hat / den.theta_hat, rel=1e-12)

    def test_no_informative_window(self, path5):
        cfg = WalkConfig(r=1.0)
        trace = make_trace([0, 2, 4], path5)
        with pytest.raises(NoObservationsError):
            estimate_ratio(trace, path5, cfg, MotifKind.TRIANGLE)
        empty = WalkTrace((), cfg, path5.n)  # the direct node sum and the pass refuse it alike
        for scheme in ("multiplicity", "ppw"):
            with pytest.raises(NoObservationsError, match="trace of length 0 has no window of order 0"):
                estimate_ratio(empty, path5, cfg, MotifKind.NODE, scheme)


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except LagwalkError as exc:
        return type(exc), str(exc)


class TestWindowPass:
    """The one window pass reproduces the plain per-observation loop exactly."""

    @pytest.mark.parametrize("scheme", ["multiplicity", "ppw"])
    @pytest.mark.parametrize("kind", list(MotifKind))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n=st.integers(4, 12),
        density=st.floats(0.3, 0.9),
        ppw_fallback=st.booleans(),
        size=st.one_of(st.none(), st.floats(1.0, 60.0)),
        audited=st.booleans(),
        r=st.floats(0.05, 2.0),
        w=st.floats(0.0, 1.0),
        length=st.integers(2, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_exactly(self, data, n, density, kind, scheme, ppw_fallback,
                                       size, audited, r, w, length, seed):
        values = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
        g = random_graph(n, density, seed, values=values)
        cfg = WalkConfig(r=r, w=w, walk_length=length, init="uniform")
        trace = run_walk(g, cfg, random.Random(seed))
        provider = build_sample_graph(g, trace) if audited else g

        expected = _outcome(reference_total, trace, provider, cfg, kind, scheme, "product",
                            size, ppw_fallback)
        got = _outcome(estimate_total, trace, provider, cfg, kind, scheme, "product",
                       size, ppw_fallback)
        assert got == expected
        expected = _outcome(reference_ratio, trace, provider, cfg, kind, scheme, ppw_fallback)
        got = _outcome(estimate_ratio, trace, provider, cfg, kind, scheme,
                       ppw_fallback=ppw_fallback)
        assert got == expected
        windows: dict[int, list] = {}
        for obs in detect_observations(trace, provider, kind):
            windows.setdefault(obs.t, []).append(obs)
        for obs_list in [[], *windows.values()]:
            args = (obs_list, provider, cfg, scheme, size, ppw_fallback)
            assert _outcome(estimate_total_window, *args) == _outcome(reference_total_window, *args)
        prob = functools.partial(sequence_prob, provider, cfg)
        for obs_list in windows.values():
            for obs in obs_list:
                occ = obs.occurrence
                if scheme == "ppw" and OBSERVATION_ORDER[kind] != 1:  # order 1: multiplicity weights
                    got = _outcome(_ppw_weights, provider, kind, occ.nodes, occ.center, prob)
                else:
                    got = dict.fromkeys(equivalent_sequences(provider, obs), 1.0 / MULTIPLICITY[kind])
                assert got == _outcome(reference_weights, provider, cfg, obs, scheme)

    def test_size_adds_no_sequence_prob_call(self, monkeypatch):
        """A total's window probability is the memoised unnormalised weight over
        2R + rN, so a size costs no sequence probability of its own.  Each
        size gets a fresh copy of the graph, whose memos start empty."""
        g = random_graph(12, 0.5, seed=3)
        cfg = WalkConfig(r=0.5, w=0.5, walk_length=60, init="uniform")
        trace = run_walk(g, cfg, random.Random(2))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sequence_prob(*args, **kwargs)

        monkeypatch.setattr(estimators, "sequence_prob", counted)
        counts = []
        for size in (None, float(g.edge_count)):
            calls.clear()
            fresh = pickle.loads(pickle.dumps(g))  # a pickled graph leaves its tables behind
            est = estimate_total(trace, fresh, cfg, MotifKind.TRIANGLE, "ppw", size=size)
            counts.append(len(calls))
        assert est.n_informative > 0
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("kind", list(MotifKind))
    def test_multiplicity_counts(self, kind):
        g = figure_walk_graph()
        occurrences = enumerate_motifs(g, kind, "ones")
        assert occurrences
        for occ in occurrences:
            obs = MotifObservation(occ, (), 0)
            assert len(equivalent_sequences(g, obs)) == MULTIPLICITY[kind]


def reveal_memo(g, kind):
    """The windows whose detection the estimators keep on ``g``."""
    return g.derived(("reveals", kind), dict)


# Where theory says the total is exact: every multiplicity total, and ppw where
# an occurrence's weights read only what each of its revealing windows saw.
# These are the (kind, scheme) pairs whose windows the estimators keep in tables.
EXACT_TOTALS = [(kind, "multiplicity") for kind in MotifKind] + [
    (kind, "ppw") for kind in
    (MotifKind.NODE, MotifKind.TWO_STAR, MotifKind.TRIANGLE, MotifKind.THREE_PATH)]


def window_table(g, kind, scheme, cfg):
    """``window -> (prob, product values, weights)`` as the estimators keep it
    on ``g``; a window of one or two states weighs the same for every w."""
    w = cfg.w if OBSERVATION_ORDER[kind] > 1 else None
    return g.derived(("window-table", kind, scheme, cfg.r, w), dict)


def window_tables(g):
    """Every window table kept on ``g``, by its key."""
    return {key: table for key, table in g._derived.items() if key[0] == "window-table"}


class TestRevealMemo:
    """Detection answers, node terms and window weights kept on the graph
    change no estimate and no error, are bounded by the graph, and are
    audited on every read."""

    @pytest.mark.parametrize("value_mode", ["product", "ones"])
    @pytest.mark.parametrize("scheme", ["multiplicity", "ppw"])
    @pytest.mark.parametrize("kind", list(MotifKind))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n=st.integers(4, 10),
        density=st.floats(0.3, 0.9),
        ppw_fallback=st.booleans(),
        size=st.one_of(st.none(), st.floats(1.0, 60.0)),
        r=st.floats(0.05, 2.0),
        w=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_warm_memo_matches_reference_exactly(self, data, n, density, kind, scheme, value_mode,
                                                 ppw_fallback, size, r, w, seed):
        """Many walks on one graph, so later walks read windows and node terms
        earlier ones stored.  The size statistics pair each walk with the one
        before it, once with matching providers and once with swapped ones."""
        values = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
        g = random_graph(n, density, seed, values=values)
        rng = random.Random(seed)
        prev = prev_provider = None
        for k in range(8):
            cfg = WalkConfig(r=r, w=w, walk_length=rng.randint(2, 14), init="uniform")
            trace = run_walk(g, cfg, rng)
            provider = build_sample_graph(g, trace) if k % 4 else g
            assert (_outcome(estimate_ratio, trace, provider, cfg, MotifKind.NODE)
                    == _outcome(reference_node_ratio, trace, provider, cfg))
            if prev is not None:
                for providers in ([provider, prev_provider], [prev_provider, provider]):
                    args = ([trace, prev], providers, r)
                    assert (_outcome(weighted_mean_degree, *args)
                            == _outcome(reference_weighted_mean_degree, *args))
                    args = (trace, prev, providers[0], r)
                    assert (_outcome(count_collisions, *args)
                            == _outcome(reference_count_collisions, *args))
            prev, prev_provider = trace, provider
            expected = _outcome(reference_total, trace, provider, cfg, kind, scheme, value_mode,
                                size, ppw_fallback)
            got = _outcome(estimate_total, trace, provider, cfg, kind, scheme, value_mode,
                           size, ppw_fallback)
            assert got == expected
            expected = _outcome(reference_ratio, trace, provider, cfg, kind, scheme, ppw_fallback)
            got = _outcome(estimate_ratio, trace, provider, cfg, kind, scheme,
                           ppw_fallback=ppw_fallback)
            assert got == expected
            windows: dict[int, list] = {}
            for obs in detect_observations(trace, provider, kind, value_mode):
                windows.setdefault(obs.t, []).append(obs)
            for obs_list in windows.values():
                args = (obs_list, provider, cfg, scheme, size, ppw_fallback)
                assert (_outcome(estimate_total_window, *args)
                        == _outcome(reference_total_window, *args))

    @pytest.mark.parametrize("first", ["product", "ones"])
    @pytest.mark.parametrize("kind, scheme", EXACT_TOTALS)
    def test_value_modes_share_memo_and_tables(self, monkeypatch, kind, scheme, first):
        """What one value mode's estimator keeps, the other reads: once
        "product" ratios have run on a set of traces, "ones" totals on the
        same traces run no detection rule and no sequence probability, and
        equal their references bit for bit; and the other way round."""
        g = figure_walk_graph()
        cfg = WalkConfig(r=0.5, w=0.5, walk_length=60, init="uniform")
        rng = random.Random(4)
        walks = [(trace, provider) for trace in (run_walk(g, cfg, rng) for _ in range(4))
                 for provider in (build_sample_graph(g, trace), g)]
        size = float(g.edge_count)
        ones = [functools.partial(f, value_mode="ones", size=size)
                for f in (estimate_total, reference_total)]
        ratio = product = [estimate_ratio, reference_ratio]
        if (kind, scheme) == (MotifKind.NODE, "multiplicity"):  # its ratio sums node terms
            product = [functools.partial(f, value_mode="product", size=size)
                       for f in (estimate_total, reference_total)]
        (fill, _), (estimate, reference) = (product, ones) if first == "product" else (ones, ratio)
        for trace, provider in walks:
            fill(trace, provider, cfg, kind, scheme)

        def refuse(*args):
            raise AssertionError("a kept entry was computed again")

        monkeypatch.setattr(estimators, "_window_occurrences", refuse)
        monkeypatch.setattr(estimators, "sequence_prob", refuse)
        for trace, provider in walks:
            args = (trace, provider, cfg, kind, scheme)
            assert estimate(*args) == reference(*args)

    @pytest.mark.parametrize("scheme", ["multiplicity", "ppw"])
    def test_unknown_value_mode_raises_as_before(self, scheme):
        """An unknown value mode raises the unmemoised ConfigError through the
        window table (edge multiplicity) and the audited pass (edge ppw), on a
        cold graph and on one whose memo and table a "product" total filled.
        On a trace that reveals nothing, NoObservationsError comes first."""
        g = figure_walk_graph()
        cfg = WalkConfig(r=0.5, w=0.5, walk_length=30, init="uniform")
        trace = run_walk(g, cfg, random.Random(1))
        sg = build_sample_graph(g, trace)
        for _ in range(2):
            args = (trace, sg, cfg, MotifKind.EDGE, scheme, "x", None, True)
            assert (_outcome(estimate_total, *args) == _outcome(reference_total, *args)
                    == (ConfigError, "unknown value mode 'x'"))
            estimate_total(trace, sg, cfg, MotifKind.EDGE, scheme, "product", None, True)
        lonely = Graph(3, [(0, 1)], [1.0, 2.0, 3.0])
        trace = make_trace([2, 2], lonely)
        args = (trace, build_sample_graph(lonely, trace), trace.config, MotifKind.EDGE, scheme, "x")
        assert (_outcome(estimate_total, *args) == _outcome(reference_total, *args)
                == (NoObservationsError, "no window of the trace revealed any edge"))

    @pytest.mark.parametrize("kind", list(MotifKind))
    def test_stored_window_is_audited(self, kind):
        """A window stored from one walk, read through a sample graph whose
        seed sample lacks one of its states, still raises."""
        g = figure_walk_graph()
        cfg = WalkConfig(r=0.5, w=0.5, walk_length=400, init="uniform")
        trace = run_walk(g, cfg, random.Random(1))
        estimate_total(trace, build_sample_graph(g, trace), cfg, kind)
        window, keys = next(e for e in reveal_memo(g, kind).values() if e[1])
        short = WalkTrace(window, replace(cfg, walk_length=len(window) - 1), g.n)
        sg = SampleGraph(g, frozenset(window[:-1]))
        assert window[-1] not in sg.seed
        for estimate in (estimate_total, estimate_ratio):
            with pytest.raises(UnobservedEntryError):
                estimate(short, sg, cfg, kind)
        # The full graph and a sample graph holding the window read the stored answer.
        for provider in (g, SampleGraph(g, frozenset(window))):
            est = estimate_total(short, provider, cfg, kind)
            assert est.n_informative == 1

    @pytest.mark.parametrize("kind, scheme", EXACT_TOTALS)
    def test_stored_table_entry_is_audited(self, kind, scheme):
        """A window table entry stored from one walk, read through a sample
        graph whose seed sample lacks a state of the window, gives the
        UnobservedEntryError the unmemoised reads give.  The full graph and a
        sample graph holding the window read the entry back."""
        g = figure_walk_graph()
        cfg = WalkConfig(r=0.5, w=0.5, walk_length=400, init="uniform")
        trace = run_walk(g, cfg, random.Random(1))
        sg = build_sample_graph(g, trace)
        estimate_total(trace, sg, cfg, kind, scheme)
        estimate_ratio(trace, sg, cfg, kind, scheme)
        table = window_table(g, kind, scheme, cfg)
        window, entry = next((seq, entry) for seq, entry in table.items() if entry[1])
        short = WalkTrace(window, replace(cfg, walk_length=len(window) - 1), g.n)

        def ratio_reference(trace, provider, cfg, kind, scheme):
            if (kind, scheme) == (MotifKind.NODE, "multiplicity"):  # summed off the node terms
                return reference_node_ratio(trace, provider, cfg)
            return reference_ratio(trace, provider, cfg, kind, scheme)

        pairs = ((estimate_total, reference_total), (estimate_ratio, ratio_reference))
        for missing in (window[0], window[-1]):
            lacking = SampleGraph(g, frozenset(window) - {missing})
            for estimate, reference in pairs:
                with pytest.raises(UnobservedEntryError) as got:
                    estimate(short, lacking, cfg, kind, scheme)
                with pytest.raises(UnobservedEntryError) as expected:
                    reference(short, lacking, cfg, kind, scheme)
                assert str(got.value) == str(expected.value)
        for provider in (g, SampleGraph(g, frozenset(window))):
            for estimate, reference in pairs:
                args = (short, provider, cfg, kind, scheme)
                assert estimate(*args) == reference(*args)
        assert table[window] is entry

    def test_stored_terms_are_audited(self):
        """A node term or window weight stored from one walk, read through a
        sample graph whose seed sample lacks one of its states, raises the
        UnobservedEntryError the unmemoised reads raise."""
        g = figure_walk_graph()
        cfg = WalkConfig(r=0.5, w=0.5, walk_length=400, init="uniform")
        trace = run_walk(g, cfg, random.Random(1))
        sg = build_sample_graph(g, trace)
        estimate_ratio(trace, sg, cfg, MotifKind.NODE)
        for kind in (MotifKind.EDGE, MotifKind.FOUR_CYCLE):  # ppw that the window tables leave out
            estimate_total(trace, sg, cfg, kind, "ppw", ppw_fallback=True)
        terms = g.derived(("node-terms", cfg.r), dict)
        weights = g.derived(("window-weights", cfg.r, cfg.w), dict)
        h = trace.states[0]
        window = next(seq for seq in weights if len(seq) == 3)
        assert h in terms and (h,) in weights

        def refused(fn, *args):
            with pytest.raises(UnobservedEntryError) as info:
                fn(*args)
            return str(info.value)

        short = make_trace([h, h], g, cfg.r, cfg.w)
        other = make_trace([h], g, cfg.r, cfg.w)
        lacking = SampleGraph(g, frozenset(trace.states) - {h})
        assert (refused(estimate_ratio, short, lacking, cfg, MotifKind.NODE)
                == refused(reference_node_ratio, short, lacking, cfg))
        assert (refused(weighted_mean_degree, [short], [lacking], cfg.r)
                == refused(reference_weighted_mean_degree, [short], [lacking], cfg.r))
        assert (refused(count_collisions, short, other, lacking, cfg.r)
                == refused(reference_count_collisions, short, other, lacking, cfg.r))
        # A window weight: a node's one state, and a 3-path window's interior state.
        for seq, missing in (((h,), h), (window, window[1])):
            obs = [MotifObservation(MotifOccurrence(MotifKind.NODE, frozenset(seq), 1.0), seq, 0)]
            view = SampleGraph(g, frozenset(trace.states) - {missing})
            assert (refused(estimate_total_window, obs, view, cfg)
                    == refused(reference_total_window, obs, view, cfg))

    @pytest.mark.parametrize("r", [0, 0.0])
    def test_zero_weight_state_raises_as_before(self, r):
        """At r = 0 a degree-0 state raises the ZeroDivisionError the
        unmemoised reads raise, and no term is stored for it."""
        g = Graph(3, [(0, 1)], [1.0, 2.0, 3.0])
        trace = make_trace([0, 1, 2, 0], g, r)
        cfg = trace.config

        def error(fn, *args):
            with pytest.raises(ZeroDivisionError) as info:
                fn(*args)
            return str(info.value)

        for provider in (g, build_sample_graph(g, trace)):
            assert (error(estimate_ratio, trace, provider, cfg, MotifKind.NODE)
                    == error(reference_node_ratio, trace, provider, cfg))
            assert (error(weighted_mean_degree, [trace], [provider], r)
                    == error(reference_weighted_mean_degree, [trace], [provider], r))
            assert (error(count_collisions, trace, trace, provider, r)
                    == error(reference_count_collisions, trace, trace, provider, r))
        assert sorted(g.derived(("node-terms", r), dict)) == [0, 1]

    def test_campaign_memo_bound(self):
        """After a demo-graph triangle campaign, whose totals and ratios take
        different value modes, one memo holds at most 2R windows, each a pair
        of adjacent states, and no memo key holds a value mode."""
        cfg = CampaignConfig(experiment="motif-total", weights="ppw", lengths=(50,),
                             r_values=(0.1, 6.0), w_values=(1.0,), replicates=20,
                             replicates_ratio=20)
        graph = load_graph(cfg)  # the demo graph, not the shared fixture's copy
        run_campaign(cfg, graph)
        n_triangles = len(enumerate_motifs(graph, MotifKind.TRIANGLE))
        memos = [key for key in graph._derived if key[0] == "reveals"]
        assert memos == [("reveals", MotifKind.TRIANGLE)]
        assert not [key for key in graph._derived
                    if isinstance(key, tuple) and {"ones", "product"} & set(key)]
        memo = reveal_memo(graph, MotifKind.TRIANGLE)
        assert 0 < len(memo) <= 2 * graph.edge_count
        assert sum(len(keys) for _, keys in memo.values()) <= 6 * n_triangles
        for window, (stored, keys) in memo.items():
            assert stored == window
            assert all(graph.has_edge(a, b) for a, b in zip(window, window[1:]))
            assert keys == _window_occurrences(graph, window, MotifKind.TRIANGLE)

    def test_campaign_table_bound(self):
        """After demo-graph motif-total campaigns, each window table holds at most
        N windows for q = 0, 2R for q = 1 and sum d(d - 1) for q = 2, none with a
        jump or a repeated state, and each entry is what the unmemoised reads
        give on the full graph."""
        graph = load_graph(CampaignConfig(experiment="motif-total"))
        bound = {0: graph.n, 1: 2 * graph.edge_count, 2: sum(d * (d - 1) for d in graph.degrees)}
        kinds = (MotifKind.NODE, MotifKind.TRIANGLE, MotifKind.THREE_PATH)
        for kind in kinds:
            run_campaign(CampaignConfig(experiment="motif-total", motif=kind, weights="ppw",
                                        lengths=(50,), r_values=(0.1, 6.0), w_values=(1.0, 0.01),
                                        replicates=10, replicates_ratio=10, max_failure_rate=1.0),
                         graph)
        tables = window_tables(graph)
        assert {key[1] for key in tables} == set(kinds)
        assert len(tables) == 2 + 2 + 4  # (r, w) cells, w only for q = 2
        for (_, kind, scheme, r, w), table in tables.items():
            q = OBSERVATION_ORDER[kind]
            assert 0 < len(table) <= bound[q]
            cfg = WalkConfig(r=r, w=0.5 if w is None else w)  # windows of q <= 1 do not read w
            for window, (prob, values, weights) in table.items():
                assert len(window) == len(set(window)) == q + 1
                assert all(graph.has_edge(a, b) for a, b in zip(window, window[1:]))
                trace = WalkTrace(window, replace(cfg, walk_length=q), graph.n)
                found = detect_observations(trace, graph, kind, "product")
                assert list(values) == [obs.occurrence.value for obs in found]
                assert list(weights) == [reference_weights(graph, cfg, obs, scheme)[window]
                                         for obs in found]
                assert prob == (sequence_prob(graph, cfg, window) if found else None)

    def test_campaign_weight_memo_bound(self):
        """After a demo-graph prevalence and triangle motif-total campaign, at most
        N node terms are kept per r and one triangle table of at most 2R window
        probabilities per r, each the value the unmemoised reads give.  The window
        tables keep the probabilities, and triangle weights read none, so no
        separate window weight is kept."""
        graph = load_graph(CampaignConfig(experiment="prevalence"))
        r_values, w_values = (0.1, 6.0), (1.0, 0.01)
        run_campaign(CampaignConfig(experiment="prevalence", lengths=(50,), r_values=r_values,
                                    w_values=w_values, replicates=20), graph)
        run_campaign(CampaignConfig(experiment="motif-total", weights="ppw", lengths=(50,),
                                    r_values=r_values, w_values=w_values, replicates=20,
                                    replicates_ratio=20), graph)
        for r in r_values:
            terms = graph.derived(("node-terms", r), dict)
            assert 0 < len(terms) <= graph.n
            for h, stored in terms.items():
                d = graph.degree(h)
                assert stored == (d + r, 1.0 / (d + r), graph.value(h) / (d + r), d / (d + r))
            for w in w_values:
                assert not graph.derived(("window-weights", r, w), dict)
                cfg = WalkConfig(r=r, w=w)
                table = window_table(graph, MotifKind.TRIANGLE, "ppw", cfg)
                assert 0 < len(table) <= 2 * graph.edge_count
                for seq, (prob, values, _) in table.items():
                    assert len(seq) == 2 and graph.has_edge(*seq)
                    if values:
                        assert prob == sequence_prob(graph, cfg, seq)
        assert len(window_tables(graph)) == len(r_values)


def window_mean(trace, provider, cfg, kind, scheme, size):
    """estimate_total's combined value as a campaign computes it (with the ppw
    fallback), and 0 where no window of the trace reveals anything."""
    try:
        return estimate_total(trace, provider, cfg, kind, scheme, "product", size,
                              ppw_fallback=True).theta_hat
    except NoObservationsError:
        return 0.0


class TestExactOracle:
    """Each total's exact expectation at finite T, by enumerating every walk of
    a 6-node graph that holds every kind, with each walk's sample graph."""

    @pytest.mark.parametrize("seed", [0, 21, 25])
    @pytest.mark.parametrize("r, w", [(0.7, 0.3), (0.2, 1.0), (3.0, 0.0)])
    def test_totals_are_exact(self, seed, r, w):
        g = random_graph(6, 0.55, seed, values=[1.0, 2.0, 0.5, 1.0, 3.0, 1.5])
        cfg = WalkConfig(r=r, w=w, walk_length=3)
        got = exact_expectation(g, cfg, lambda trace, sg: [
            window_mean(trace, sg, cfg, kind, scheme, g.edge_count) for kind, scheme in EXACT_TOTALS])
        truth = [brute_force_total(g, kind.value, "product") for kind, _ in EXACT_TOTALS]
        assert min(truth) > 0
        np.testing.assert_allclose(got, truth, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [0, 21, 25])
    @pytest.mark.parametrize("r, w", [(0.7, 0.3), (0.2, 1.0), (3.0, 0.0)])
    def test_ratios_match_references_on_every_walk(self, seed, r, w):
        """The node ratio, weighted mean degree and collision count equal their
        unmemoised references bit for bit on every walk, each paired with the
        walk enumerated before it; the second enumeration reads warm memos."""
        g = random_graph(6, 0.55, seed, values=[1.0, 2.0, 0.5, 1.0, 3.0, 1.5])
        cfg = WalkConfig(r=r, w=w, walk_length=3)
        previous = []

        def check(trace, sg):
            prev, prev_sg = previous.pop() if previous else (trace, sg)
            assert (estimate_ratio(trace, sg, cfg, MotifKind.NODE)
                    == reference_node_ratio(trace, sg, cfg))
            args = ([trace, prev], [sg, prev_sg], r)
            assert weighted_mean_degree(*args) == reference_weighted_mean_degree(*args)
            args = (trace, prev, sg, r)
            assert count_collisions(*args) == reference_count_collisions(*args)
            previous.append((trace, sg))
            return 1.0

        for _ in range(2):
            previous.clear()
            assert exact_expectation(g, cfg, check) == pytest.approx(1.0, rel=1e-12)
        assert len(g.derived(("node-terms", r), dict)) == g.n

    @pytest.mark.parametrize("seed, r, w", [(0, 0.7, 0.3), (21, 0.2, 1.0), (25, 3.0, 0.0)])
    def test_tables_match_references_on_every_walk(self, seed, r, w):
        """Every total and ratio whose windows the estimators keep in tables
        equals its unmemoised reference bit for bit on every walk, with each
        walk enumerated twice: the second time reads every window warm."""
        g = random_graph(6, 0.55, seed, values=[1.0, 2.0, 0.5, 1.0, 3.0, 1.5])
        cfg = WalkConfig(r=r, w=w, walk_length=3)
        size = float(g.edge_count)

        def check(trace, sg):
            for kind, scheme in EXACT_TOTALS:  # a total's values as campaigns take them
                args = (trace, sg, cfg, kind, scheme, "ones", size)
                assert _outcome(estimate_total, *args) == _outcome(reference_total, *args)
                args = (trace, sg, cfg, kind, scheme)
                assert _outcome(estimate_ratio, *args) == _outcome(reference_ratio, *args)
            return 1.0

        for _ in range(2):
            assert exact_expectation(g, cfg, check) == pytest.approx(1.0, rel=1e-12)
        tables = window_tables(g)  # the node ratio under multiplicity sums node terms instead
        assert len(tables) == len(EXACT_TOTALS)
        assert all(tables.values())

    def test_walk_law_sums_to_one(self):
        g = random_graph(6, 0.55, 25)
        cfg = WalkConfig(r=0.7, w=0.3, walk_length=3)
        assert exact_expectation(g, cfg, lambda trace, sg: 1.0) == pytest.approx(1.0, abs=1e-14)
        # the start law is the stationary one, and stays so at every step
        for t in (0, 3):
            marginal = exact_expectation(g, cfg, lambda trace, sg: np.eye(g.n)[trace.states[t]])
            np.testing.assert_allclose(marginal, stationary_node(g, cfg), rtol=1e-13)


def _compensated_sum(items, start=0):
    """Builtin sum as Python 3.12 and later compute it over floats: Neumaier
    compensated summation.  Anything else is summed as before."""
    items = list(items)
    if not all(isinstance(x, float) for x in items):
        return builtins.sum(items, start)
    total = float(start)
    c = 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


class TestFloatSums:
    """Totals and ppw normalisers are left folds, so they do not depend on
    the Python version's builtin sum."""

    def test_compensated_builtin_sum_changes_nothing(self, monkeypatch):
        assert _compensated_sum([0.1] * 10) == 1.0 != builtins.sum([0.1] * 10)
        g = random_graph(12, 0.5, seed=3, values=[0.3, 1.0, 2.5, 0.7] * 3)
        cfg = WalkConfig(r=0.3, w=0.4, walk_length=200, init="uniform")
        traces = [run_walk(g, cfg, random.Random(seed)) for seed in range(4)]

        def results():
            out = []
            for trace in traces:
                sg = build_sample_graph(g, trace)
                for kind in MotifKind:
                    out.append(_outcome(estimate_total, trace, sg, cfg, kind, "ppw",
                                        size=float(g.edge_count), ppw_fallback=True))
                    out.append(_outcome(estimate_ratio, trace, sg, cfg, kind, "ppw",
                                        ppw_fallback=True))
            return out

        plain = results()
        for module in (estimators, sampling):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
        assert results() == plain


class TestReplicateSummary:
    def test_constant(self):
        s = replicate_summary([1.0, 1.0, 1.0])
        assert (s.count, s.mean, s.sd, s.se) == (3, 1.0, 0.0, 0.0)

    def test_two_values(self):
        s = replicate_summary([0.0, 2.0])
        assert s.mean == 1.0
        assert s.sd == pytest.approx(np.sqrt(2))
        assert s.se == pytest.approx(1.0)

    def test_needs_two(self):
        """NaN (failed) replicates are left out; an undefined statistic is NaN."""
        one = replicate_summary([np.nan, 1.0])
        assert (one.count, one.mean) == (1, 1.0)
        assert np.isnan(one.sd) and np.isnan(one.se)
        for empty in ([], [np.nan, np.nan]):
            none = replicate_summary(empty)
            assert none.count == 0
            assert np.isnan(none.mean) and np.isnan(none.sd) and np.isnan(none.se)
        assert replicate_summary([0.0, np.nan, 2.0]) == replicate_summary([0.0, 2.0])

    def test_matches_numpy_on_larger_sample(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(10, 2, size=500)
        s = replicate_summary(vals)
        assert s.mean == pytest.approx(vals.mean())
        assert s.sd == pytest.approx(vals.std(ddof=1))
        assert s.se == pytest.approx(vals.std(ddof=1) / np.sqrt(500))

