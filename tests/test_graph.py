"""Graph construction, the core-periphery generator, and motif enumeration."""

import random

import numpy as np
import pytest

from lagwalk import (
    ConfigError,
    Graph,
    MotifKind,
    enumerate_motifs,
    generate_case_graph,
    graph_total,
    read_edge_list,
    write_edge_list,
)
from lagwalk.graph import motif_value
from helpers import (
    brute_force_total,
    complete_graph,
    path_graph,
    random_graph,
    relabeled,
)


def _counts(g, kind):
    return len(enumerate_motifs(g, kind, "ones"))


class TestGraphBasics:
    def test_rejects_self_loops_and_bad_ids(self):
        with pytest.raises(ConfigError):
            Graph(3, [(0, 0)])
        with pytest.raises(ConfigError):
            Graph(3, [(0, 5)])
        with pytest.raises(ConfigError):
            Graph(3, [(0, 1)], values=[1.0])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_invariants(self, seed):
        g = random_graph(12, 0.3, seed, n_isolated=2)
        a = g.adjacency_matrix()
        assert (a == a.T).all()
        assert np.trace(a) == 0
        assert a.sum() == 2 * g.edge_count
        assert list(a.sum(axis=1)) == list(g.degrees)
        assert g.degrees[-1] == 0  # forced isolated node


class TestGenerator:
    def test_complete_graph_case(self):
        g = generate_case_graph(5, 0, 0, 0, 1.0, seed=1)
        assert g.edge_count == 10
        assert all(d == 4 for d in g.degrees)

    def test_empty_graph_case(self):
        g = generate_case_graph(10, 0, 0, 0, 0.0, seed=1)
        assert g.edge_count == 0
        assert all(d == 0 for d in g.degrees)

    def test_deterministic_per_seed(self):
        a = generate_case_graph(30, 6, 0.4, 0.1, 0.05, seed=9)
        b = generate_case_graph(30, 6, 0.4, 0.1, 0.05, seed=9)
        c = generate_case_graph(30, 6, 0.4, 0.1, 0.05, seed=10)
        assert a == b
        assert a != c

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            generate_case_graph(5, 6, 0.1, 0.1, 0.1, seed=0)
        with pytest.raises(ConfigError):
            generate_case_graph(5, 2, 1.5, 0.1, 0.1, seed=0)

    def test_case_values_are_prefix(self):
        g = generate_case_graph(10, 3, 0.5, 0.2, 0.1, seed=3)
        assert g.values == (1.0, 1.0, 1.0) + (0.0,) * 7

    def test_study_graph_matches_calibration(self, study_graph):
        g = study_graph
        degs = np.asarray(g.degrees)
        assert 250 <= g.edge_count <= 350
        assert abs(degs[:20].mean() - 13.5) < 1.5
        assert abs(degs[20:].mean() - 4.1) < 0.6


class TestEnumeration:
    def test_triangle_on_k3(self):
        occs = enumerate_motifs(complete_graph(3), MotifKind.TRIANGLE)
        assert len(occs) == 1
        assert next(iter(occs)).nodes == frozenset({0, 1, 2})

    def test_path5_counts(self, path5):
        assert _counts(path5, MotifKind.EDGE) == 4
        assert _counts(path5, MotifKind.TRIANGLE) == 0
        assert _counts(path5, MotifKind.NODE) == 5
        assert _counts(path5, MotifKind.THREE_PATH) == 2
        assert _counts(path5, MotifKind.FOUR_CYCLE) == 0

    def test_shape_spot_checks(self, c4):
        assert _counts(c4, MotifKind.FOUR_CYCLE) == 1
        assert _counts(c4, MotifKind.THREE_PATH) == 0
        assert _counts(c4, MotifKind.TWO_STAR) == 4
        diamond = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert _counts(diamond, MotifKind.FOUR_CYCLE) == 0  # chord kills it
        assert _counts(complete_graph(4), MotifKind.THREE_PATH) == 0
        assert _counts(path_graph(4), MotifKind.THREE_PATH) == 1
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert _counts(star, MotifKind.TWO_STAR) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_counting_oracles(self, seed):
        g = random_graph(14, 0.35, seed)
        a = g.adjacency_matrix().astype(np.int64)
        assert _counts(g, MotifKind.TRIANGLE) == np.trace(a @ a @ a) // 6
        assert _counts(g, MotifKind.EDGE) == g.edge_count
        expected_stars = sum(d * (d - 1) // 2 for d in g.degrees)
        assert _counts(g, MotifKind.TWO_STAR) == expected_stars

    @pytest.mark.parametrize("kind", [MotifKind.FOUR_CYCLE, MotifKind.THREE_PATH])
    @pytest.mark.parametrize("seed", range(4))
    def test_order4_against_subset_oracle(self, kind, seed):
        g = random_graph(10, 0.35, seed)
        assert _counts(g, kind) == brute_force_total(g, kind.value)

    def test_study_graph_triangles_near_target(self, study_graph):
        a = study_graph.adjacency_matrix().astype(np.int64)
        count = _counts(study_graph, MotifKind.TRIANGLE)
        assert count == np.trace(a @ a @ a) // 6
        assert 120 <= count <= 230  # realization-dependent, near 170

    @pytest.mark.parametrize("kind", list(MotifKind))
    def test_relabeling_closure(self, kind):
        g = random_graph(9, 0.4, 21, values=[1, 0, 1, 0, 1, 0, 0, 1, 0])
        perm = list(range(9))
        random.Random(5).shuffle(perm)
        h = relabeled(g, perm)
        mapped = {
            (frozenset(perm[v] for v in o.nodes),
             perm[o.center] if o.center is not None else None)
            for o in enumerate_motifs(g, kind)
        }
        direct = {(o.nodes, o.center) for o in enumerate_motifs(h, kind)}
        assert mapped == direct


class TestGraphTotal:
    def test_case_prevalence(self, study_graph):
        occs = enumerate_motifs(study_graph, MotifKind.NODE, "product")
        theta = graph_total(study_graph, occs)
        assert theta == 20.0
        assert theta / study_graph.n == 0.2

    def test_edge_total_is_size(self, study_graph):
        occs = enumerate_motifs(study_graph, MotifKind.EDGE, "ones")
        assert graph_total(study_graph, occs) == study_graph.edge_count

    def test_empty_set(self, study_graph):
        assert graph_total(study_graph, []) == 0.0

    def test_value_modes(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], values=[1.0, 0.5, 0.0])
        assert motif_value(g, (0, 1), "product") == 0.5
        assert motif_value(g, (0, 1), "ones") == 1.0
        with pytest.raises(ConfigError):
            motif_value(g, (0, 1), "bogus")


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, study_graph):
        path = tmp_path / "g.edges"
        write_edge_list(study_graph, str(path))
        back = read_edge_list(str(path))
        assert back == study_graph
        repath = tmp_path / "g2.edges"
        write_edge_list(back, str(repath))
        assert path.read_bytes() == repath.read_bytes()

    def test_header_content(self, tmp_path):
        g = Graph(4, [(0, 1), (2, 3)], values=[1.0, 0.0, 0.0, 0.0])
        path = tmp_path / "g.edges"
        write_edge_list(g, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "N 4"
        assert lines[1] == "cases 1"
        assert lines[2:] == ["0 1", "2 3"]

    def test_rejects_non_prefix_values(self, tmp_path):
        g = Graph(3, [(0, 1)], values=[0.0, 1.0, 0.0])
        with pytest.raises(ConfigError):
            write_edge_list(g, str(tmp_path / "bad.edges"))

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_or_negative_order(self, tmp_path, n):
        """N is checked before the cases count that is bounded by it."""
        path = tmp_path / "bad.edges"
        path.write_text(f"N {n}\ncases 0\n")
        with pytest.raises(ConfigError, match=f"N {n} must be at least 1"):
            read_edge_list(str(path))

    def test_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("nonsense\n")
        with pytest.raises(ConfigError):
            read_edge_list(str(path))
