"""Size estimators, window/combined totals, ratio parameters and summaries."""

import functools
import itertools
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
from lagwalk import LagwalkError, enumerate_motifs, estimators
from lagwalk.experiments import CampaignConfig, load_graph, run_campaign
from lagwalk.estimators import _trace_pass, _window_value
from lagwalk.sampling import (
    MULTIPLICITY,
    OBSERVATION_ORDER,
    MotifObservation,
    SampleGraph,
    detect_observations,
    _ppw_weights,
    equivalent_sequences,
)
from helpers import (
    brute_force_total,
    cycle_graph,
    exact_expectation,
    figure_walk_graph,
    path_graph,
    random_graph,
    reference_ratio,
    reference_total,
    reference_total_window,
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
        2R + rN, so a size costs no sequence probability of its own."""
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
            est = estimate_total(trace, g, cfg, MotifKind.TRIANGLE, "ppw", size=size)
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


def reveal_memo(g, kind, value_mode):
    """The windows whose detection the estimators keep on ``g``."""
    return g.derived(("reveals", kind, value_mode), dict)


class TestRevealMemo:
    """Detection answers kept on the graph change no estimate and no error,
    hold only windows of adjacent states, and are audited on every read."""

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
        """Many walks on one graph, so later walks read windows earlier ones stored."""
        values = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
        g = random_graph(n, density, seed, values=values)
        rng = random.Random(seed)
        for k in range(8):
            cfg = WalkConfig(r=r, w=w, walk_length=rng.randint(2, 14), init="uniform")
            trace = run_walk(g, cfg, rng)
            provider = build_sample_graph(g, trace) if k % 4 else g
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

    @pytest.mark.parametrize("kind", list(MotifKind))
    def test_stored_window_is_audited(self, kind):
        """A window stored from one walk, read through a sample graph whose
        seed sample lacks one of its states, still raises."""
        g = figure_walk_graph()
        cfg = WalkConfig(r=0.5, w=0.5, walk_length=400, init="uniform")
        trace = run_walk(g, cfg, random.Random(1))
        estimate_total(trace, build_sample_graph(g, trace), cfg, kind)
        window, keys, _ = next(e for e in reveal_memo(g, kind, "product").values() if e[1])
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

    def test_campaign_memo_bound(self):
        """After a demo-graph triangle campaign at most 2R windows are stored
        for each value mode, each a pair of adjacent states."""
        cfg = CampaignConfig(experiment="motif-total", weights="ppw", lengths=(50,),
                             r_values=(0.1, 6.0), w_values=(1.0,), replicates=20,
                             replicates_ratio=20)
        graph = load_graph(cfg)  # the demo graph, not the shared fixture's copy
        run_campaign(cfg, graph)
        n_triangles = len(enumerate_motifs(graph, MotifKind.TRIANGLE))
        for value_mode in ("ones", "product"):
            memo = reveal_memo(graph, MotifKind.TRIANGLE, value_mode)
            assert 0 < len(memo) <= 2 * graph.edge_count
            assert sum(len(keys) for _, keys, _ in memo.values()) <= 6 * n_triangles
            for window, (stored, keys, values) in memo.items():
                assert stored == window
                assert all(graph.has_edge(a, b) for a, b in zip(window, window[1:]))
                assert len(keys) == len(values)


def window_mean(trace, provider, cfg, kind, scheme, size):
    """estimate_total's combined value as a campaign computes it (with the ppw
    fallback), and 0 where no window of the trace reveals anything."""
    values = [0.0 if pi is None else _window_value(pi, pairs)
              for pi, pairs in _trace_pass(trace, provider, cfg, kind, scheme, "product", True,
                                           size)]
    return sum(values) / len(values)


# Where theory says the total is exact: every multiplicity total, and ppw where
# an occurrence's weights read only what each of its revealing windows saw.
EXACT_TOTALS = [(kind, "multiplicity") for kind in MotifKind] + [
    (kind, "ppw") for kind in
    (MotifKind.NODE, MotifKind.TWO_STAR, MotifKind.TRIANGLE, MotifKind.THREE_PATH)]


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

    def test_walk_law_sums_to_one(self):
        g = random_graph(6, 0.55, 25)
        cfg = WalkConfig(r=0.7, w=0.3, walk_length=3)
        assert exact_expectation(g, cfg, lambda trace, sg: 1.0) == pytest.approx(1.0, abs=1e-14)
        # the start law is the stationary one, and stays so at every step
        for t in (0, 3):
            marginal = exact_expectation(g, cfg, lambda trace, sg: np.eye(g.n)[trace.states[t]])
            np.testing.assert_allclose(marginal, stationary_node(g, cfg), rtol=1e-13)


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

