"""Simple undirected graphs, a core-periphery generator, and brute-force motif enumeration.

The enumeration here is exhaustive and serves as the ground-truth oracle for
every estimator in the package.  Complexity is O(N^order) in the worst case,
which is fine at the desk scales this package targets (N up to a few hundred).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError

# Core-periphery defaults: 20 "case" nodes among 100, edge probabilities chosen
# so the expected case degree is exactly 13.5, the expected noncase degree 4.1
# and the expected edge count 299.  The generation seed is frozen so the demo
# graph is reproducible (realization: 306 edges, 169 triangles, 144 of them
# all-case, case mean degree 13.4, noncase 4.3).
DEFAULT_N_NODES = 100
DEFAULT_N_CASES = 20
DEFAULT_P_CASE_CASE = 0.5
DEFAULT_P_CASE_NONCASE = 0.05
DEFAULT_P_NONCASE_NONCASE = 3.1 / 79
DEFAULT_GRAPH_SEED = 331


class MotifKind(str, Enum):
    """Supported motif shapes, identified by the induced subgraph on the node set.

    ``TWO_STAR`` is the exception: it is anchored at a center and counts every
    unordered pair of the center's neighbours, whether or not the pair is
    itself adjacent (so a triangle contains three 2-stars, one per corner).
    ``FOUR_CYCLE`` and ``THREE_PATH`` are induced (no chords).
    """

    NODE = "node"
    EDGE = "edge"
    TWO_STAR = "two-star"
    TRIANGLE = "triangle"
    FOUR_CYCLE = "four-cycle"
    THREE_PATH = "three-path"


@dataclass(frozen=True)
class MotifOccurrence:
    """One occurrence of a motif: its kind, node set and associated value.

    ``center`` is set only for 2-stars, where the same node set can host up to
    three distinct occurrences.
    """

    kind: MotifKind
    nodes: frozenset[int]
    value: float = 1.0
    center: int | None = None


class Graph:
    """Immutable simple undirected graph with per-node real values.

    Nodes are 0..n-1.  Edges are unordered pairs without self-loops.  The
    structure is fixed at construction and safe to share across concurrent
    walkers.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], values: Sequence[float] | None = None):
        if n < 1:
            raise ConfigError(f"graph needs at least one node, got n={n}")
        edge_set: set[tuple[int, int]] = set()
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ConfigError(f"self-loop ({i}, {i}) not allowed")
            edge_set.add((i, j) if i < j else (j, i))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in nbrs)
        self.neighbor_lists: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in nbrs)
        self.degrees: tuple[int, ...] = tuple(len(s) for s in nbrs)
        if values is None:
            values = [0.0] * n
        if len(values) != n:
            raise ConfigError(f"need {n} node values, got {len(values)}")
        self.values: tuple[float, ...] = tuple(float(v) for v in values)
        self._matrix: np.ndarray | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj[i]

    def neighbors_of(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def value(self, v: int) -> float:
        return self.values[v]

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (cached)."""
        if self._matrix is None:
            m = np.zeros((self.n, self.n), dtype=np.uint8)
            for i, j in self.edges:
                m[i, j] = 1
                m[j, i] = 1
            self._matrix = m
        return self._matrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.values))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def generate_case_graph(
    n_nodes: int,
    n_cases: int,
    p_case_case: float,
    p_case_noncase: float,
    p_noncase_noncase: float,
    seed: int,
) -> Graph:
    """Random core-periphery graph: the first ``n_cases`` nodes carry value 1.

    Each unordered pair (i, j) holds an edge independently, with probability
    chosen by how many of the two endpoints are cases.  Deterministic for a
    fixed seed.
    """
    if not 0 <= n_cases <= n_nodes:
        raise ConfigError(f"n_cases={n_cases} outside [0, {n_nodes}]")
    for name, p in [
        ("p_case_case", p_case_case),
        ("p_case_noncase", p_case_noncase),
        ("p_noncase_noncase", p_noncase_noncase),
    ]:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"{name}={p} is not a probability")
    rng = np.random.default_rng(seed)
    values = [1.0] * n_cases + [0.0] * (n_nodes - n_cases)
    if n_nodes == 1:
        return Graph(1, [], values)
    ii, jj = np.triu_indices(n_nodes, 1)
    case = np.arange(n_nodes) < n_cases
    n_case_ends = case[ii].astype(np.int64) + case[jj].astype(np.int64)
    probs = np.choose(n_case_ends, [p_noncase_noncase, p_case_noncase, p_case_case])
    mask = rng.random(len(ii)) < probs
    edges = list(zip(ii[mask].tolist(), jj[mask].tolist()))
    return Graph(n_nodes, edges, values)


def motif_value(provider, nodes: Iterable[int], mode: str = "product") -> float:
    """Value attached to an occurrence: product of node values, or 1.

    ``provider`` is a :class:`Graph` or any view with ``value(v)``, such as
    the audited sample graph.
    """
    if mode == "ones":
        return 1.0
    if mode == "product":
        v = 1.0
        for i in nodes:
            v *= provider.value(i)
        return v
    raise ConfigError(f"unknown value mode {mode!r}")


def enumerate_motifs(g: Graph, kind: MotifKind, value_mode: str = "product") -> set[MotifOccurrence]:
    """All occurrences of ``kind`` in ``g``, each node set exactly once.

    2-stars are keyed by (center, node set); everything else by node set alone.
    """
    occs: set[MotifOccurrence] = set()

    def add(nodes: Iterable[int], center: int | None = None) -> None:
        ns = frozenset(nodes)
        occs.add(MotifOccurrence(kind, ns, motif_value(g, ns, value_mode), center))

    if kind is MotifKind.NODE:
        for v in range(g.n):
            add((v,))
    elif kind is MotifKind.EDGE:
        for i, j in g.edges:
            add((i, j))
    elif kind is MotifKind.TWO_STAR:
        for h in range(g.n):
            for i, j in itertools.combinations(g.neighbor_lists[h], 2):
                add((h, i, j), center=h)
    elif kind is MotifKind.TRIANGLE:
        for i, j in g.edges:
            for k in g._adj[i] & g._adj[j]:
                if k > j:
                    add((i, j, k))
    elif kind is MotifKind.FOUR_CYCLE:
        # Iterate over non-adjacent "diagonal" pairs; any two common neighbours
        # that are themselves non-adjacent close an induced 4-cycle.
        seen: set[frozenset[int]] = set()
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.has_edge(i, j):
                    continue
                common = sorted(g._adj[i] & g._adj[j])
                for u, v in itertools.combinations(common, 2):
                    if not g.has_edge(u, v):
                        ns = frozenset((i, j, u, v))
                        if ns not in seen:
                            seen.add(ns)
                            add(ns)
    elif kind is MotifKind.THREE_PATH:
        # Induced path on 4 nodes: grow one node from each end of a middle edge.
        for a, b in g.edges:
            for i in g._adj[a]:
                if i == b or g.has_edge(i, b):
                    continue
                for h in g._adj[b]:
                    if h == a or h == i or g.has_edge(h, a) or g.has_edge(h, i):
                        continue
                    add((i, a, b, h))
    else:
        raise ConfigError(f"unsupported motif kind {kind!r}")
    return occs


def graph_total(g: Graph, occurrences: Iterable[MotifOccurrence]) -> float:
    """Sum of occurrence values (zero for an empty collection)."""
    total = 0.0
    for occ in occurrences:
        if any(not 0 <= v < g.n for v in occ.nodes):
            raise ConfigError(f"occurrence {occ} has nodes outside the graph")
        total += occ.value
    return total


def write_edge_list(g: Graph, path: str) -> None:
    """Plain-text export: "N <n>", "cases <k>", then one "i j" line per edge.

    Requires the case-block value layout (the first k nodes are exactly the
    value-1 nodes); round-trips bit-exactly with :func:`read_edge_list`.
    """
    k = sum(1 for v in g.values if v == 1.0)
    expected = tuple([1.0] * k + [0.0] * (g.n - k))
    if g.values != expected:
        raise ConfigError("edge-list format needs the first k nodes to be the value-1 nodes")
    lines = [f"N {g.n}", f"cases {k}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path: str) -> Graph:
    """Inverse of :func:`write_edge_list`."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read graph file {path}: {exc}") from exc
    if len(lines) < 2 or not lines[0].startswith("N ") or not lines[1].startswith("cases "):
        raise ConfigError(f"{path}: expected 'N <n>' and 'cases <k>' header lines")
    (n,) = _int_fields(path, lines[0], skip=1, count=1)
    (k,) = _int_fields(path, lines[1], skip=1, count=1)
    if not 0 <= k <= n:
        raise ConfigError(f"{path}: cases {k} outside [0, {n}]")
    edges = [tuple(_int_fields(path, ln, skip=0, count=2)) for ln in lines[2:]]
    values = [1.0] * k + [0.0] * (n - k)
    return Graph(n, edges, values)


def _int_fields(path: str, line: str, skip: int, count: int) -> list[int]:
    """The ``count`` integer fields of ``line`` after ``skip`` leading words."""
    try:
        values = [int(f) for f in line.split()[skip:]]
    except ValueError:
        values = []
    if len(values) != count:
        raise ConfigError(f"{path}: malformed line {line!r}")
    return values
