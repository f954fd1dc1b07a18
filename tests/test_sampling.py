"""Walk traces, the audited sample view, detection and incidence weights."""

import itertools
import random

import numpy as np
import pytest

from lagwalk import (
    ConfigError,
    Es3CoverageError,
    Graph,
    MotifKind,
    UnobservedEntryError,
    WalkConfig,
    WalkTrace,
    build_sample_graph,
    detect_observations,
    enumerate_motifs,
    equivalent_sequences,
    estimate_ratio,
    estimate_total,
    run_walk,
    sequence_prob,
)
from lagwalk.sampling import (
    MULTIPLICITY,
    OBSERVATION_ORDER,
    MotifObservation,
    _ppw_weights,
)
from helpers import (
    figure_walk_graph,
    observable_answers,
    observed_nodes,
    path_graph,
    random_graph,
)


def make_trace(states, g, r=1.0, w=1.0):
    return WalkTrace(tuple(states), WalkConfig(r=r, w=w, walk_length=len(states) - 1), g.n)


class TestRunWalk:
    def test_length_and_traverse(self, study_graph):
        cfg = WalkConfig(r=0.1, w=1.0, walk_length=50)
        trace = run_walk(study_graph, cfg, random.Random(1))
        assert len(trace.states) == 51
        assert trace.traverse == len(set(trace.states)) / 100
        assert 0 < trace.traverse <= 1

    def test_zero_length_walk(self, path5):
        cfg = WalkConfig(r=1.0, walk_length=0, init="fixed", init_node=2)
        trace = run_walk(path5, cfg, random.Random(0))
        assert trace.states == (2,)
        assert trace.traverse == 1 / 5

    def test_single_node_graph(self):
        g = Graph(1, [])
        trace = run_walk(g, WalkConfig(r=1.0, walk_length=10), random.Random(0))
        assert trace.states == (0,) * 11
        assert trace.traverse == 1.0

    def test_transitions_follow_support_without_jumps(self, path5):
        cfg = WalkConfig(r=0.0, w=1.0, walk_length=40, init="fixed", init_node=2)
        trace = run_walk(path5, cfg, random.Random(3))
        for a, b in zip(trace.states, trace.states[1:]):
            assert path5.has_edge(a, b)

    def test_traverse_scale_on_study_graph(self, study_graph):
        cfg = WalkConfig(r=0.1, w=1.0, walk_length=50)
        rng = random.Random(2024)
        psis = [run_walk(study_graph, cfg, rng).traverse for _ in range(300)]
        assert 0.28 <= np.mean(psis) <= 0.36  # about a third of the graph


class TestSampleGraph:
    def test_observed_region(self, figure_graph):
        trace = make_trace([0, 1, 2], figure_graph)
        sg = build_sample_graph(figure_graph, trace)
        assert sg.seed == {0, 1, 2}
        for i, j in sg.edges:
            assert figure_graph.has_edge(i, j)
        incident = {v for e in sg.edges for v in e}
        assert observed_nodes(sg) == sg.seed | incident
        # every edge has an endpoint in the seed
        assert all(i in sg.seed or j in sg.seed for i, j in sg.edges)

    def test_full_seed_recovers_graph(self, path5):
        trace = make_trace([0, 1, 2, 3, 4], path5)
        sg = build_sample_graph(path5, trace)
        assert sg.edges == path5.edges
        assert observed_nodes(sg) == frozenset(range(5))

    def test_audited_refusals(self, figure_graph):
        trace = make_trace([0, 1], figure_graph)
        sg = build_sample_graph(figure_graph, trace)
        with pytest.raises(UnobservedEntryError):
            sg.degree(2)  # adjacent to the seed but never visited
        with pytest.raises(UnobservedEntryError):
            sg.degree(5)  # not even adjacent
        with pytest.raises(UnobservedEntryError):
            sg.has_edge(4, 5)  # both endpoints outside the seed
        with pytest.raises(UnobservedEntryError):
            sg.neighbors_of(3)
        with pytest.raises(UnobservedEntryError):
            sg.value(5)
        # observed queries fine
        assert sg.degree(0) == figure_graph.degree(0)
        assert sg.has_edge(1, 2) and not sg.has_edge(0, 4)
        assert sg.value(2) == figure_graph.value(2)


class TestDetection:
    def test_figure_walk_observations(self, figure_graph):
        g = figure_graph
        trace = make_trace([0, 1, 2, 3, 4, 5], g)
        sg = build_sample_graph(g, trace)

        triangles = detect_observations(trace, sg, MotifKind.TRIANGLE, "ones")
        by_window = {}
        for obs in triangles:
            by_window.setdefault(obs.sequence, set()).add(obs.occurrence.nodes)
        # adjacent move (1, 2) reveals both triangles on that edge (7 is the
        # diamond-shaped corner); (2, 3) reveals {1, 2, 3} again
        assert by_window[(1, 2)] == {frozenset({1, 2, 3}), frozenset({1, 2, 7})}
        assert frozenset({1, 2, 3}) in by_window[(2, 3)]

        cycles = detect_observations(trace, sg, MotifKind.FOUR_CYCLE, "ones")
        cycle_map = {obs.sequence: obs.occurrence.nodes for obs in cycles}
        assert cycle_map[(2, 3, 4)] == frozenset({2, 3, 4, 6})

        edges = detect_observations(trace, sg, MotifKind.EDGE, "ones")
        windows_of_12 = {obs.sequence for obs in edges if obs.occurrence.nodes == frozenset({1, 2})}
        assert windows_of_12 == {(1,), (2,)}

    def test_no_adjacent_move_means_no_triangles(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])
        trace = make_trace([0, 3, 1, 3, 2], g)  # visits all triangle nodes via jumps
        sg = build_sample_graph(g, trace)
        assert detect_observations(trace, sg, MotifKind.TRIANGLE, "ones") == []

    def test_k3_single_adjacent_move(self, k3):
        trace = make_trace([0, 1], k3)
        sg = build_sample_graph(k3, trace)
        obs = detect_observations(trace, sg, MotifKind.TRIANGLE, "ones")
        assert len(obs) == 1
        assert obs[0].occurrence.nodes == frozenset({0, 1, 2})

    def test_two_star_center_rule(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        trace = make_trace([1], g)  # leaf visit reveals only one edge
        sg = build_sample_graph(g, trace)
        assert detect_observations(trace, sg, MotifKind.TWO_STAR, "ones") == []
        trace = make_trace([0], g)
        sg = build_sample_graph(g, trace)
        stars = detect_observations(trace, sg, MotifKind.TWO_STAR, "ones")
        assert len(stars) == 3
        assert all(o.occurrence.center == 0 for o in stars)

    def test_window_with_chord_reveals_no_order4_motif(self):
        diamond = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        trace = make_trace([1, 0, 3], diamond)
        sg = build_sample_graph(diamond, trace)
        # the only candidate cycle {0,1,2,3} has chord (0,2): never induced
        assert detect_observations(trace, sg, MotifKind.FOUR_CYCLE, "ones") == []

    def test_values_travel_with_occurrences(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], values=[1.0, 1.0, 0.0])
        trace = make_trace([0, 1], g)
        sg = build_sample_graph(g, trace)
        prod = detect_observations(trace, sg, MotifKind.TRIANGLE, "product")
        ones = detect_observations(trace, sg, MotifKind.TRIANGLE, "ones")
        assert prod[0].occurrence.value == 0.0
        assert ones[0].occurrence.value == 1.0


class TestEquivalentSequences:
    def test_cardinalities(self, figure_graph):
        g = figure_graph
        trace = make_trace([0, 1, 2, 3, 4, 5], g)
        sg = build_sample_graph(g, trace)
        sizes = {}
        for kind in MotifKind:
            for obs in detect_observations(trace, sg, kind, "ones"):
                sizes.setdefault(kind, set()).add(len(equivalent_sequences(sg, obs)))
        assert sizes[MotifKind.NODE] == {1}
        assert sizes[MotifKind.EDGE] == {2}
        assert sizes[MotifKind.TWO_STAR] == {1}
        assert sizes[MotifKind.TRIANGLE] == {6}
        assert sizes[MotifKind.FOUR_CYCLE] == {8}
        assert sizes.get(MotifKind.THREE_PATH, {4}) == {4}

    def test_three_path_sequences(self):
        g = path_graph(4)
        trace = make_trace([0, 1, 2], g)
        sg = build_sample_graph(g, trace)
        obs = detect_observations(trace, sg, MotifKind.THREE_PATH, "ones")
        assert len(obs) == 1
        seqs = set(equivalent_sequences(sg, obs[0]))
        assert seqs == {(0, 1, 2), (2, 1, 0), (1, 2, 3), (3, 2, 1)}

    @pytest.mark.parametrize("kind", list(MotifKind))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_detection_consistency_exhaustive(self, kind, seed):
        """A window reveals kappa exactly when it belongs to kappa's sequence set."""
        g = random_graph(6, 0.5, seed)
        q = OBSERVATION_ORDER[kind]
        f_sets = {}
        for occ in enumerate_motifs(g, kind, "ones"):
            probe = MotifObservation(occ, (), -1)
            f_sets[(occ.nodes, occ.center)] = set(equivalent_sequences(g, probe))
        for window in itertools.product(range(g.n), repeat=q + 1):
            trace = make_trace(list(window), g)
            detected = {
                (o.occurrence.nodes, o.occurrence.center)
                for o in detect_observations(trace, g, kind, "ones")
            }
            expected = {key for key, seqs in f_sets.items() if window in seqs}
            assert detected == expected, (kind, window)

    def test_splice_property(self, figure_graph):
        """Replaying any equivalent sequence at the window re-detects the motif."""
        g = figure_graph
        trace = run_walk(g, WalkConfig(r=1.0, w=0.5, walk_length=30), random.Random(5))
        for kind in (MotifKind.TRIANGLE, MotifKind.FOUR_CYCLE, MotifKind.EDGE):
            for obs in detect_observations(trace, g, kind, "ones"):
                for seq in equivalent_sequences(g, obs):
                    spliced = make_trace(list(seq), g)
                    again = {
                        (o.occurrence.nodes, o.occurrence.center)
                        for o in detect_observations(spliced, g, kind, "ones")
                    }
                    assert (obs.occurrence.nodes, obs.occurrence.center) in again


def ppw_weights(provider, cfg, obs):
    occ = obs.occurrence
    return _ppw_weights(provider, occ.kind, occ.nodes, occ.center,
                        lambda seq: sequence_prob(provider, cfg, seq))


class TestIncidenceWeights:
    def test_triangle_weights_agree(self, k3):
        cfg = WalkConfig(r=1.0, w=1.0)
        trace = make_trace([0, 1], k3)
        obs = detect_observations(trace, k3, MotifKind.TRIANGLE, "ones")[0]
        weights = ppw_weights(k3, cfg, obs)
        assert len(weights) == MULTIPLICITY[MotifKind.TRIANGLE] == 6
        for v in weights.values():
            assert v == pytest.approx(1 / 6, abs=1e-12)

    def test_weights_sum_to_one(self, figure_graph):
        g = figure_graph
        cfg = WalkConfig(r=0.5, w=0.3)
        trace = run_walk(g, WalkConfig(r=1.0, w=1.0, walk_length=40), random.Random(9))
        for kind in MotifKind:
            for obs in detect_observations(trace, g, kind, "ones")[:20]:
                seqs = equivalent_sequences(g, obs)
                assert obs.sequence in seqs
                assert len(seqs) == MULTIPLICITY[kind]
                weights = ppw_weights(g, cfg, obs)
                assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
                assert set(weights) == set(seqs)

    def test_equal_degree_cycle_ppw_is_uniform(self, c4):
        cfg = WalkConfig(r=1.0, w=1.0)
        trace = make_trace([0, 1, 2], c4)
        obs = detect_observations(trace, c4, MotifKind.FOUR_CYCLE, "ones")[0]
        weights = ppw_weights(c4, cfg, obs)
        assert all(v == pytest.approx(1 / 8, abs=1e-12) for v in weights.values())

    def test_unequal_degree_cycle_ppw_differs(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])  # node 2 has degree 3
        cfg = WalkConfig(r=1.0, w=1.0)
        trace = make_trace([0, 1, 2], g)
        obs = detect_observations(trace, g, MotifKind.FOUR_CYCLE, "ones")[0]
        weights = ppw_weights(g, cfg, obs)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        spread = {round(v, 12) for v in weights.values()}
        assert len(spread) > 1
        # sequences through the high-degree middle node are the lighter ones
        light = min(weights, key=weights.get)
        assert light[1] == 2

    def test_ppw_needs_full_coverage(self, k3):
        cfg = WalkConfig(r=1.0, w=1.0)
        trace = make_trace([0, 1], k3)
        sg = build_sample_graph(k3, trace)  # node 2 observed but never visited
        obs = detect_observations(trace, sg, MotifKind.TRIANGLE, "ones")[0]
        with pytest.raises(Es3CoverageError):
            ppw_weights(sg, cfg, obs)
        # multiplicity weights need only the equivalent sequences
        assert len(equivalent_sequences(sg, obs)) == MULTIPLICITY[MotifKind.TRIANGLE]

    def test_unknown_scheme(self, k3):
        trace = make_trace([0, 1], k3)
        cfg = WalkConfig(r=1.0)
        with pytest.raises(ConfigError, match="unknown weight scheme"):
            estimate_total(trace, k3, cfg, MotifKind.TRIANGLE, "bogus")
        with pytest.raises(ConfigError, match="unknown weight scheme"):
            estimate_ratio(trace, k3, cfg, MotifKind.TRIANGLE, "ones", "ones", "bogus")


class TestObservabilityAudit:
    def test_unobserved_region_cannot_leak(self, figure_graph):
        """Changing the graph outside the observed region changes nothing."""
        g1 = figure_walk_graph()
        trace = make_trace([0, 1, 2], g1, r=0.5, w=0.5)
        sg1 = build_sample_graph(g1, trace)
        # nodes 4, 5, 10, 11 are outside the seed; rewire among them
        extra = [(4, 11), (5, 10), (10, 11)]
        g2 = Graph(g1.n, list(g1.edges) + extra, g1.values)
        sg2 = build_sample_graph(g2, trace)
        assert observable_answers(sg1) == observable_answers(sg2)
        cfg = WalkConfig(r=0.5, w=0.5)
        mu1 = estimate_ratio(trace, sg1, cfg, MotifKind.NODE, "ones", "ones")
        mu2 = estimate_ratio(trace, sg2, cfg, MotifKind.NODE, "ones", "ones")
        assert mu1 == mu2
        t1 = estimate_total(trace, sg1, cfg, MotifKind.TRIANGLE, "multiplicity", "ones", size=15.0)
        t2 = estimate_total(trace, sg2, cfg, MotifKind.TRIANGLE, "multiplicity", "ones", size=15.0)
        assert t1.theta_hat == t2.theta_hat


class TestSequenceFamilies:
    def test_walk_windows_always_computable(self, figure_graph):
        """Every contiguous run of the walk has a probability computable
        from the observed sample alone."""
        cfg = WalkConfig(r=0.8, w=0.4, walk_length=25)
        trace = run_walk(figure_graph, cfg, random.Random(2))
        sg = build_sample_graph(figure_graph, trace)
        states = trace.states
        for q in (0, 1, 2):
            for t in range(len(states) - q):
                assert sequence_prob(sg, cfg, states[t : t + q + 1]) > 0

    def test_window_count(self):
        # a 5-path with the chord (0, 2): windows of every order reveal something
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        trace = make_trace([0, 1, 2, 3], g)
        for kind, n_windows in ((MotifKind.NODE, 4), (MotifKind.TRIANGLE, 3),
                                (MotifKind.THREE_PATH, 2)):
            assert estimate_total(trace, g, trace.config, kind).n_windows == n_windows
        first = detect_observations(trace, g, MotifKind.TRIANGLE)[0]
        assert (first.t, first.sequence) == (0, (0, 1))
