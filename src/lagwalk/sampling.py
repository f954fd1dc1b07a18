"""Running walks, the observed sample graph, and motif observations.

Visiting a node reveals its entire adjacency row and column (observation
procedure).  The seed sample s is the set of visited states; the sample graph
is exactly the part of the adjacency matrix in s x U union U x s.  The
:class:`SampleGraph` view is access-audited: any query outside the observed
region raises, which is how downstream estimators are kept honest.

Observation rules per motif kind (window length q + 1):

* node (q=0): the visited node itself.
* edge (q=0): every edge incident to the visited node.
* 2-star (q=0): every pair of neighbours of the visited node, anchored there.
  A leaf visit shows only one of the two edges, so the center visit is the
  only revealing single state.
* triangle (q=1): an adjacent consecutive pair (i, j) reveals every triangle
  containing both i and j.
* 4-cycle / 3-path (q=2): two successive adjacent moves along the motif.

A window counts as an adjacent move whenever the consecutive states are
adjacent, regardless of whether the sampler's internal coin was a jump that
happened to land on a neighbour; the one-step law already sums both routes.

The equivalent-sequence set of an occurrence is the set of windows on which
the corresponding rule fires, e.g. the 6 ordered adjacent pairs of a
triangle, the 8 directed two-edge paths along a 4-cycle, the 4 along a
3-path, the 2 endpoints of an edge, and the center alone for a 2-star.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import ConfigError, Es3CoverageError, UnobservedEntryError
from .graph import Graph, MotifKind, MotifOccurrence, motif_value
from .kernel import WalkConfig, make_stepper, sample_initial_state

# Window length minus one needed to observe each motif kind.
OBSERVATION_ORDER = {
    MotifKind.NODE: 0,
    MotifKind.EDGE: 0,
    MotifKind.TWO_STAR: 0,
    MotifKind.TRIANGLE: 1,
    MotifKind.FOUR_CYCLE: 2,
    MotifKind.THREE_PATH: 2,
}

# Number of equivalent sequences of an occurrence of each kind; a
# multiplicity weight is one over it.
MULTIPLICITY = {
    MotifKind.NODE: 1,
    MotifKind.EDGE: 2,
    MotifKind.TWO_STAR: 1,
    MotifKind.TRIANGLE: 6,
    MotifKind.FOUR_CYCLE: 8,
    MotifKind.THREE_PATH: 4,
}

WEIGHT_SCHEMES = ("multiplicity", "ppw")


@dataclass(frozen=True)
class WalkTrace:
    """Realised state sequence X_0..X_T with its seed sample and traverse."""

    states: tuple[int, ...]
    config: WalkConfig
    n_nodes: int

    @property
    def seed_sample(self) -> frozenset[int]:
        return frozenset(self.states)

    @property
    def traverse(self) -> float:
        """Fraction of distinct nodes visited."""
        return len(set(self.states)) / self.n_nodes

    def contiguous_windows(self, q: int):
        """All realised successive-state runs of length q + 1, in walk order.

        These are the sequences whose probabilities are always computable
        from the observed sample; any other sequence needs its node set to
        lie inside the seed sample (see :meth:`SampleGraph.covers`).
        """
        for t in range(len(self.states) - q):
            yield t, self.states[t : t + q + 1]


def run_walk(g: Graph, cfg: WalkConfig, rng: random.Random) -> WalkTrace:
    """Simulate a walk of cfg.walk_length steps; X_0 drawn per cfg.init.

    The first step uses the lag-free kernel (no predecessor exists yet),
    which keeps a stationary start exactly at equilibrium for every w.
    """
    x0 = sample_initial_state(g, cfg, rng)
    states = [x0]
    stepper = make_stepper(g, cfg)
    prev = cur = x0
    for _ in range(cfg.walk_length):
        nxt = stepper(prev, cur, rng)
        states.append(nxt)
        prev, cur = cur, nxt
    return WalkTrace(tuple(states), cfg, g.n)


class SampleGraph:
    """Access-audited view of the graph revealed by a walk.

    Degrees and full neighbourhoods exist only for seed nodes; adjacency is
    answerable only when at least one endpoint is a seed node; node values
    are available for every identified node (seed nodes and their
    neighbours).  Anything else raises :class:`UnobservedEntryError`.
    """

    def __init__(self, n: int, seed: frozenset[int], neighborhoods: dict[int, frozenset[int]],
                 values: dict[int, float]):
        self.n = n
        self.seed = seed
        self._nbrs = neighborhoods
        self._values = values

    @property
    def observed_nodes(self) -> frozenset[int]:
        out = set(self.seed)
        for nbrs in self._nbrs.values():
            out.update(nbrs)
        return frozenset(out)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        found = set()
        for h, nbrs in self._nbrs.items():
            for j in nbrs:
                found.add((h, j) if h < j else (j, h))
        return tuple(sorted(found))

    def degree(self, v: int) -> int:
        if v not in self.seed:
            raise UnobservedEntryError(f"degree of node {v} not observed (not in the seed sample)")
        return len(self._nbrs[v])

    def neighbors_of(self, v: int) -> frozenset[int]:
        if v not in self.seed:
            raise UnobservedEntryError(f"neighbourhood of node {v} not observed")
        return self._nbrs[v]

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        if i in self.seed:
            return j in self._nbrs[i]
        if j in self.seed:
            return i in self._nbrs[j]
        raise UnobservedEntryError(f"adjacency ({i}, {j}) outside the observed region")

    def value(self, v: int) -> float:
        try:
            return self._values[v]
        except KeyError:
            raise UnobservedEntryError(f"value of node {v} not observed") from None

    def covers(self, nodes) -> bool:
        """Whether a hypothetical sequence over ``nodes`` has a computable
        probability, i.e. its node set lies inside the seed sample."""
        return all(v in self.seed for v in nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleGraph):
            return NotImplemented
        return (self.n == other.n and self.seed == other.seed
                and self._nbrs == other._nbrs and self._values == other._values)

    def __repr__(self) -> str:
        return f"SampleGraph(n={self.n}, seed={len(self.seed)}, edges={len(self.edges)})"


def build_sample_graph(g: Graph, trace: WalkTrace) -> SampleGraph:
    """Materialise exactly the walk-observed part of the graph."""
    seed = trace.seed_sample
    nbrs = {h: g.neighbors_of(h) for h in seed}
    observed = set(seed)
    for s in nbrs.values():
        observed.update(s)
    values = {v: g.value(v) for v in observed}
    return SampleGraph(g.n, seed, nbrs, values)


@dataclass(frozen=True)
class MotifObservation:
    """A motif occurrence together with the window that revealed it."""

    occurrence: MotifOccurrence
    sequence: tuple[int, ...]
    t: int


def _window_occurrences(provider, window: tuple[int, ...], kind: MotifKind) -> list[tuple]:
    """Keys (center, nodes) revealed by one window; only 2-stars have a center."""
    if kind is MotifKind.NODE:
        return [(None, frozenset(window))]
    if kind is MotifKind.EDGE:
        h = window[0]
        return [(None, frozenset((h, j))) for j in sorted(provider.neighbors_of(h))]
    if kind is MotifKind.TWO_STAR:
        h = window[0]
        return [
            (h, frozenset((h, i, j)))
            for i, j in itertools.combinations(sorted(provider.neighbors_of(h)), 2)
        ]
    if kind is MotifKind.TRIANGLE:
        i, j = window
        if i == j or not provider.has_edge(i, j):
            return []
        common = provider.neighbors_of(i) & provider.neighbors_of(j)
        return [(None, frozenset((i, j, k))) for k in sorted(common)]
    if kind in (MotifKind.FOUR_CYCLE, MotifKind.THREE_PATH):
        x, y, z = window
        if x == z or not (provider.has_edge(x, y) and provider.has_edge(y, z)):
            return []
        if provider.has_edge(x, z):
            return []  # chord: the window is not a piece of an induced 4-node motif
        out: list[tuple] = []
        if kind is MotifKind.FOUR_CYCLE:
            closing = (provider.neighbors_of(x) & provider.neighbors_of(z)) - {y}
            for h in sorted(closing):
                if not provider.has_edge(y, h):
                    out.append((None, frozenset((x, y, z, h))))
        else:
            for h in sorted(provider.neighbors_of(z) - {x, y}):
                if not provider.has_edge(x, h) and not provider.has_edge(y, h):
                    out.append((None, frozenset((x, y, z, h))))
            for h in sorted(provider.neighbors_of(x) - {y, z}):
                if not provider.has_edge(z, h) and not provider.has_edge(y, h):
                    out.append((None, frozenset((h, x, y, z))))
        return out
    raise ConfigError(f"unsupported motif kind {kind!r}")


def detect_observations(
    trace: WalkTrace,
    provider,
    kind: MotifKind,
    value_mode: str = "product",
) -> list[MotifObservation]:
    """All motif observations of the trace, one per occurrence per window.

    The same occurrence seen from several windows is reported once per
    window; deduplication is deliberately left to the combined estimator,
    which treats each window separately.
    """
    q = OBSERVATION_ORDER[kind]
    out: list[MotifObservation] = []
    for t, window in trace.contiguous_windows(q):
        for center, nodes in _window_occurrences(provider, window, kind):
            occ = MotifOccurrence(kind, nodes, motif_value(provider, nodes, value_mode), center)
            out.append(MotifObservation(occ, window, t))
    return out


def equivalent_sequences(provider, obs: MotifObservation) -> tuple[tuple[int, ...], ...]:
    """All windows that would reveal the occurrence under its observation rule."""
    occ = obs.occurrence
    return _equivalent_sequences(provider, occ.kind, occ.nodes, occ.center)


def _equivalent_sequences(provider, kind: MotifKind, nodes, center: int | None):
    nodes = sorted(nodes)
    if kind is MotifKind.NODE:
        return ((nodes[0],),)
    if kind is MotifKind.EDGE:
        return tuple((v,) for v in nodes)
    if kind is MotifKind.TWO_STAR:
        return ((center,),)
    if kind is MotifKind.TRIANGLE:
        return tuple(itertools.permutations(nodes, 2))
    if kind is MotifKind.FOUR_CYCLE:
        order = _cycle_order(provider, nodes)
        seqs = []
        for idx in range(4):
            u, m, v = order[idx - 1], order[idx], order[(idx + 1) % 4]
            seqs.append((u, m, v))
            seqs.append((v, m, u))
        return tuple(sorted(seqs))
    if kind is MotifKind.THREE_PATH:
        e1, m1, m2, e2 = _path_order(provider, nodes)
        return tuple(sorted([(e1, m1, m2), (m2, m1, e1), (m1, m2, e2), (e2, m2, m1)]))
    raise ConfigError(f"unsupported motif kind {kind!r}")


def _cycle_order(provider, nodes: list[int]) -> list[int]:
    """Arrange 4 nodes of an induced cycle in traversal order."""
    start = nodes[0]
    inside = set(nodes)
    first = sorted(j for j in nodes if j != start and provider.has_edge(start, j))
    if len(first) != 2:
        raise ConfigError(f"nodes {nodes} do not form an induced 4-cycle")
    second = first[0]
    third = [j for j in inside - {start, second} if provider.has_edge(second, j)]
    if len(third) != 1:
        raise ConfigError(f"nodes {nodes} do not form an induced 4-cycle")
    last = (inside - {start, second, third[0]}).pop()
    return [start, second, third[0], last]


def _path_order(provider, nodes: list[int]) -> tuple[int, int, int, int]:
    """Arrange 4 nodes of an induced path endpoint-to-endpoint."""
    inside = set(nodes)
    ends = [v for v in nodes if sum(provider.has_edge(v, u) for u in inside - {v}) == 1]
    if len(ends) != 2:
        raise ConfigError(f"nodes {nodes} do not form an induced 4-node path")
    e1 = min(ends)
    m1 = next(u for u in inside - {e1} if provider.has_edge(e1, u))
    m2 = next(u for u in inside - {e1, m1} if provider.has_edge(m1, u))
    e2 = (inside - {e1, m1, m2}).pop()
    return e1, m1, m2, e2


def _ppw_weights(provider, kind, nodes, center, prob) -> dict[tuple[int, ...], float]:
    """PPW weights of an occurrence from ``prob``, the unnormalised probability of a sequence.

    The normaliser is summed in :func:`equivalent_sequences` order.
    """
    seqs = _equivalent_sequences(provider, kind, nodes, center)
    try:
        probs = {s: prob(s) for s in seqs}
    except UnobservedEntryError as exc:
        raise Es3CoverageError(
            f"ppw needs every equivalent sequence of {set(nodes)} "
            f"inside the seed sample: {exc}"
        ) from exc
    total = sum(probs.values())
    return {s: p / total for s, p in probs.items()}


def write_trace_csv(trace: WalkTrace, path: str) -> None:
    """Trace export: one (t, state) row per step."""
    lines = ["t,state"]
    lines.extend(f"{t},{x}" for t, x in enumerate(trace.states))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sample_graph(sg: SampleGraph, path: str) -> None:
    """Sample-graph export: order header, seed-set line, then observed edges."""
    lines = [f"N {sg.n}", "seed " + " ".join(str(v) for v in sorted(sg.seed))]
    lines.extend(f"{i} {j}" for i, j in sg.edges)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
