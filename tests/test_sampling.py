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
    MotifOccurrence,
    NonErgodicError,
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
    COMPLETIONS,
    MULTIPLICITY,
    OBSERVATION_ORDER,
    MotifObservation,
    SampleGraph,
    _ppw_weights,
    _window_occurrences,
)
from lagwalk.kernel import sample_initial_state
from helpers import (
    figure_walk_graph,
    observable_answers,
    observed_nodes,
    path_graph,
    random_graph,
    reference_equivalent_sequences,
    reference_stepper,
    reference_window_occurrences,
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

    @pytest.mark.parametrize("r", [5e-324, 0.1, 1.0, 6.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_walk_matches_the_reference_stepper(self, r, seed):
        """A walk drawn in one loop equals, state by state and in its final rng
        state, the walk helpers.reference_stepper draws one step at a time, on
        graphs with a 2-path tail (degree-1 nodes) and an isolated node."""
        core = random_graph(8, 0.4, seed)
        g = Graph(11, list(core.edges) + [(0, 8), (8, 9)])
        inits = [{"init": "stationary"}, {"init": "uniform"},
                 {"init": "fixed", "init_node": 9}, {"init": "fixed", "init_node": 10}]
        for w, init, length in itertools.product((0.0, 0.5, 1.0), inits, (0, 1, 16, 116)):
            cfg = WalkConfig(r=r, w=w, walk_length=length, **init)
            rng, ref_rng = random.Random(seed), random.Random(seed)
            trace = run_walk(g, cfg, rng)
            step = reference_stepper(g, cfg)
            states = [sample_initial_state(g, cfg, ref_rng)]
            prev = states[0]
            for _ in range(length):
                states.append(step(prev, states[-1], ref_rng))
                prev = states[-2]
            assert trace.states == tuple(states), (w, init, length)
            assert rng.getstate() == ref_rng.getstate(), (w, init, length)

    @pytest.mark.parametrize("length", [0, 1, 5])
    def test_sink_start_without_jumps_raises(self, length):
        g = Graph(4, [(0, 1), (1, 2)])  # node 3 is isolated
        cfg = WalkConfig(r=0.0, walk_length=length, init="fixed", init_node=3)
        with pytest.raises(NonErgodicError, match="node 3 is a sink"):
            run_walk(g, cfg, random.Random(0))


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

    def test_value_refusals_out_of_range_and_two_hops(self, figure_graph):
        trace = make_trace([0, 1], figure_graph)
        sg = build_sample_graph(figure_graph, trace)
        for v in (-1, figure_graph.n):
            with pytest.raises(UnobservedEntryError):
                sg.value(v)
        assert not figure_graph.neighbors_of(6) & sg.seed  # 6 is two hops from 1
        with pytest.raises(UnobservedEntryError):
            sg.value(6)
        assert sg.value(3) == figure_graph.value(3)

    @pytest.mark.parametrize("states, edges, text", [
        ([0, 1, 2], ((0, 1), (0, 8), (0, 9), (1, 2), (1, 3), (1, 7), (2, 3), (2, 6), (2, 7)),
         "SampleGraph(n=12, seed=3, edges=9)"),
        ([4, 4, 5], ((3, 4), (4, 5), (4, 6), (4, 10), (5, 6), (5, 11)),
         "SampleGraph(n=12, seed=2, edges=6)"),
        ([3], ((1, 3), (2, 3), (3, 4)), "SampleGraph(n=12, seed=1, edges=3)"),
    ])
    def test_edges_and_repr(self, figure_graph, states, edges, text):
        """The view lists the observed edges sorted, as the materialised sample graph did."""
        sg = build_sample_graph(figure_graph, make_trace(states, figure_graph))
        assert sg.edges == edges
        assert repr(sg) == text


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

    def test_order2_occurrences_keep_their_order(self):
        """A window lists 4-cycles by closing node, and 3-paths z side first;
        the window sums add up in this order."""
        g = Graph(7, [(1, 2), (2, 3), (3, 5), (3, 4), (1, 6), (1, 0)])
        trace = make_trace([1, 2, 3], g)
        paths = [o.occurrence.nodes for o in detect_observations(trace, g, MotifKind.THREE_PATH)]
        assert paths == [frozenset(q) for q in ((1, 2, 3, 4), (1, 2, 3, 5), (0, 1, 2, 3), (1, 2, 3, 6))]
        g = Graph(5, [(0, 1), (1, 2), (0, 4), (4, 2), (0, 3), (3, 2)])
        trace = make_trace([0, 1, 2], g)
        cycles = [o.occurrence.nodes for o in detect_observations(trace, g, MotifKind.FOUR_CYCLE)]
        assert cycles == [frozenset((0, 1, 2, 3)), frozenset((0, 1, 2, 4))]

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
    @pytest.mark.parametrize("seed", range(10))
    def test_detection_consistency_exhaustive(self, kind, seed):
        """The sequences of an occurrence are exactly the windows that reveal it, in sorted order."""
        g = random_graph(5 + seed % 4, 0.5, seed)
        full = build_sample_graph(g, make_trace(range(g.n), g))
        q = OBSERVATION_ORDER[kind]
        for provider in (g, full):
            revealed = {}
            for window in itertools.product(range(g.n), repeat=q + 1):
                for o in detect_observations(make_trace(window, g), provider, kind, "ones"):
                    revealed.setdefault((o.occurrence.nodes, o.occurrence.center), []).append(window)
            occurrences = enumerate_motifs(g, kind, "ones")
            assert set(revealed) == {(occ.nodes, occ.center) for occ in occurrences}
            for occ in occurrences:
                seqs = equivalent_sequences(provider, MotifObservation(occ, (), -1))
                assert seqs == tuple(revealed[occ.nodes, occ.center]), (kind, occ)

    @pytest.mark.parametrize("kind, edges, nodes", [
        (MotifKind.NODE, [(0, 1)], (0, 1)),
        (MotifKind.EDGE, [(0, 1), (1, 2)], (0, 1, 2)),
        (MotifKind.TRIANGLE, [(0, 1), (1, 2), (2, 0), (2, 3)], (0, 1, 2, 3)),
        (MotifKind.FOUR_CYCLE, [(0, 1), (1, 2), (2, 3)], (0, 1, 2, 3)),  # a path
        (MotifKind.FOUR_CYCLE, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], (0, 1, 2, 3)),  # diamond
        (MotifKind.FOUR_CYCLE, [(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2, 3, 4)),  # + isolated
        (MotifKind.THREE_PATH, [(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2, 3)),  # a 4-cycle
        (MotifKind.THREE_PATH, [(0, 1), (0, 2), (0, 3)], (0, 1, 2, 3)),  # a star
        (MotifKind.THREE_PATH, [(0, 1), (1, 2), (2, 0), (2, 3)], (0, 1, 2, 3)),  # a paw
        (MotifKind.EDGE, [(0, 1), (1, 2)], (0, 2)),  # not adjacent
        (MotifKind.TRIANGLE, [(0, 1), (1, 2)], (0, 1, 2)),  # a wedge
        (MotifKind.TRIANGLE, [(0, 1), (1, 2)], (0, 3, 4)),  # independent
    ])
    def test_node_set_not_of_the_kind(self, kind, edges, nodes):
        g = Graph(5, edges)
        probe = MotifObservation(MotifOccurrence(kind, frozenset(nodes)), (), -1)
        with pytest.raises(ConfigError, match=f"do not form a {kind.value}"):
            equivalent_sequences(g, probe)

    def test_unsupported_kind(self, c4):
        probe = MotifObservation(MotifOccurrence("pentagon", frozenset(range(4))), (), -1)
        with pytest.raises(ConfigError, match="unsupported motif kind"):
            equivalent_sequences(c4, probe)

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


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ConfigError, UnobservedEntryError) as exc:
        return type(exc), str(exc)


def _graphs_with_pendant_and_isolated(count):
    """Random graphs on 4 to 8 nodes: the last node is isolated, the one before a pendant of 0."""
    for seed in range(count):
        n = 4 + seed % 5
        core = random_graph(n - 2, 0.6, seed)
        yield Graph(n, [*core.edges, (0, n - 2)])


class TestOneWindowRule:
    """The table-driven rules against the per-kind rules they replace."""

    def test_tables_cover_every_kind(self):
        assert set(OBSERVATION_ORDER) == set(MULTIPLICITY) == set(MotifKind)
        assert set(COMPLETIONS) == set(MotifKind) - {MotifKind.NODE, MotifKind.TWO_STAR}
        assert all(COMPLETIONS[kind] for kind in COMPLETIONS)
        assert OBSERVATION_ORDER == {MotifKind.NODE: 0, MotifKind.EDGE: 0, MotifKind.TWO_STAR: 0,
                                     MotifKind.TRIANGLE: 1, MotifKind.FOUR_CYCLE: 2,
                                     MotifKind.THREE_PATH: 2}

    @pytest.mark.parametrize("kind", list(MotifKind))
    def test_windows_match_the_per_kind_rules(self, kind):
        """Every window, read through the graph and through views seeded with
        the window and with its first state: the same keys in the same order,
        or the same error."""
        q = OBSERVATION_ORDER[kind]
        for g in _graphs_with_pendant_and_isolated(15):
            for window in itertools.product(range(g.n), repeat=q + 1):
                for provider in (g, SampleGraph(g, frozenset(window)),
                                 SampleGraph(g, frozenset(window[:1]))):
                    want = _outcome(reference_window_occurrences, provider, window, kind)
                    assert _outcome(_window_occurrences, provider, window, kind) == want

    @pytest.mark.parametrize("kind", list(MotifKind))
    def test_sequences_match_the_per_kind_rules(self, kind):
        """Every node set of one to five nodes, read through the graph and
        through views seeded with the set and with its least node.

        One outcome differs: a set that is not a triangle, seen through a
        view that leaves one of its pairs unobserved.  The per-kind rule reads
        pairs up to the first missing edge, at any size; the path rule refuses
        a set of the wrong size before it reads, and otherwise reads every
        pair.  So either may name the unobserved pair or the missing shape.
        """
        for g in _graphs_with_pendant_and_isolated(15):
            for size in range(1, 6):
                for nodes in itertools.combinations(range(g.n), size):
                    centers = nodes if kind is MotifKind.TWO_STAR else (None,)
                    for center in centers:
                        occ = MotifOccurrence(kind, frozenset(nodes), 1.0, center)
                        obs = MotifObservation(occ, (), -1)
                        for provider in (g, SampleGraph(g, frozenset(nodes)),
                                         SampleGraph(g, frozenset(nodes[:1]))):
                            want = _outcome(reference_equivalent_sequences, provider, obs)
                            got = _outcome(equivalent_sequences, provider, obs)
                            if got != want:
                                assert kind is MotifKind.TRIANGLE and provider is not g
                                assert _outcome(equivalent_sequences, g, obs)[0] is ConfigError
                                assert {want[0], got[0]} == {ConfigError, UnobservedEntryError}


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

    def test_ppw_needs_full_coverage(self, c4):
        cfg = WalkConfig(r=1.0, w=1.0)
        trace = make_trace([0, 1, 2], c4)
        sg = build_sample_graph(c4, trace)  # node 3 observed but never visited
        obs = detect_observations(trace, sg, MotifKind.FOUR_CYCLE, "ones")[0]
        # the sequences (0, 3, 2) and (2, 3, 0) step out of node 3
        with pytest.raises(Es3CoverageError, match="not observed"):
            ppw_weights(sg, cfg, obs)
        with pytest.raises(Es3CoverageError):
            estimate_total(trace, sg, cfg, MotifKind.FOUR_CYCLE, "ppw")
        # multiplicity weights need only the equivalent sequences
        assert len(equivalent_sequences(sg, obs)) == MULTIPLICITY[MotifKind.FOUR_CYCLE]

    def test_triangle_ppw_needs_no_coverage(self, k3):
        """Every equivalent sequence of a triangle weighs 1 + r/N, so ppw is
        multiplicity and reads nothing of the unvisited corner."""
        cfg = WalkConfig(r=1.0, w=0.4)
        trace = make_trace([0, 1], k3)
        sg = build_sample_graph(k3, trace)  # node 2 observed but never visited
        got = estimate_total(trace, sg, cfg, MotifKind.TRIANGLE, "ppw", ppw_fallback=False)
        expected = estimate_total(trace, sg, cfg, MotifKind.TRIANGLE, "multiplicity")
        assert got.window_values == expected.window_values
        assert got.theta_hat == expected.theta_hat > 0
        assert (estimate_ratio(trace, sg, cfg, MotifKind.TRIANGLE, "ppw")
                == estimate_ratio(trace, sg, cfg, MotifKind.TRIANGLE, "multiplicity"))

    def test_three_path_ppw_never_falls_back(self):
        """Every revealing window of a 3-path holds both interior nodes, which is
        all its ppw table reads."""
        g = random_graph(40, 0.1, seed=8)
        cfg = WalkConfig(r=0.5, w=0.3, walk_length=20)
        checked = 0
        for seed in range(10):
            trace = run_walk(g, cfg, random.Random(seed))
            sg = build_sample_graph(g, trace)
            for obs in detect_observations(trace, sg, MotifKind.THREE_PATH):
                assert ppw_weights(sg, cfg, obs) == ppw_weights(g, cfg, obs)
                checked += 1
        assert checked > 100

    def test_unknown_scheme(self, k3):
        trace = make_trace([0, 1], k3)
        cfg = WalkConfig(r=1.0)
        with pytest.raises(ConfigError, match="unknown weight scheme"):
            estimate_total(trace, k3, cfg, MotifKind.TRIANGLE, "bogus")
        with pytest.raises(ConfigError, match="unknown weight scheme"):
            estimate_ratio(trace, k3, cfg, MotifKind.TRIANGLE, "bogus")


class TestObservabilityAudit:
    def test_unobserved_region_cannot_leak(self, figure_graph):
        """Changing the graph outside the observed region changes nothing."""
        base = figure_walk_graph()
        g1 = Graph(base.n, base.edges, [float(v % 3) for v in range(base.n)])
        trace = make_trace([0, 1, 2], g1, r=0.5, w=0.5)
        sg1 = build_sample_graph(g1, trace)
        # nodes 4, 5, 10, 11 are outside the seed; rewire among them
        extra = [(4, 11), (5, 10), (10, 11)]
        g2 = Graph(g1.n, list(g1.edges) + extra, g1.values)
        sg2 = build_sample_graph(g2, trace)
        assert observable_answers(sg1) == observable_answers(sg2)
        cfg = WalkConfig(r=0.5, w=0.5)
        mu1 = estimate_ratio(trace, sg1, cfg, MotifKind.NODE)
        mu2 = estimate_ratio(trace, sg2, cfg, MotifKind.NODE)
        assert mu1 == mu2 != 1.0
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
