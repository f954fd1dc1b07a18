"""Running walks, the observed sample graph, and motif observations.

Visiting a node reveals its entire adjacency row and column (observation
procedure).  The seed sample s is the set of visited states; the sample graph
is exactly the part of the adjacency matrix in s x U union U x s.  The
:class:`SampleGraph` view is access-audited: any query outside the observed
region raises, which is how downstream estimators are kept honest.

Observation rules (window length q + 1):

* node (q=0): the visited node itself.
* 2-star (q=0): every pair of neighbours of the visited node, anchored there.
  A leaf visit shows only one of the two edges, so the center visit is the
  only revealing single state.
* edge, triangle, 4-cycle and 3-path (induced, q = 0, 1, 2, 2): a window of
  successively adjacent states that is an induced path (distinct states, no
  chord) reveals the graphlet on the window plus each neighbour h that
  touches exactly the window positions of a row of :data:`COMPLETIONS`.

A window counts as an adjacent move whenever the consecutive states are
adjacent, regardless of whether the sampler's internal coin was a jump that
happened to land on a neighbour; the one-step law already sums both routes.

The equivalent-sequence set of an occurrence is the set of windows on which
its rule fires: a graphlet's ordered paths on q + 1 nodes, e.g. the 2
endpoints of an edge, the 6 ordered adjacent pairs of a triangle, the 8
directed two-edge paths along a 4-cycle, the 4 along a 3-path.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import ConfigError, Es3CoverageError, NonErgodicError, UnobservedEntryError
from .graph import Graph, MotifKind, MotifOccurrence, motif_value
from .kernel import WalkConfig, make_stepper, sample_initial_state

# The window positions that the k-th node h of each induced graphlet
# touches, one row per way to complete the window, in the order detection
# reports them (a 3-path's z side first).
COMPLETIONS = {
    MotifKind.EDGE: ((0,),),
    MotifKind.TRIANGLE: ((0, 1),),
    MotifKind.FOUR_CYCLE: ((0, 2),),
    MotifKind.THREE_PATH: ((2,), (0,)),
}

# Window length minus one needed to observe each motif kind.
OBSERVATION_ORDER = {kind: max(COMPLETIONS[kind][0]) if kind in COMPLETIONS else 0
                     for kind in MotifKind}

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


def run_walk(g: Graph, cfg: WalkConfig, rng: random.Random) -> WalkTrace:
    """Simulate a walk of cfg.walk_length steps; X_0 drawn per cfg.init.

    The first step uses the lag-free kernel (no predecessor exists yet),
    which keeps a stationary start exactly at equilibrium for every w.
    """
    x0 = sample_initial_state(g, cfg, rng)
    if cfg.r == 0 and g.degrees[x0] == 0:
        # no r = 0 step reaches a sink, so only the start can be one
        raise NonErgodicError(f"node {x0} is a sink: degree 0 and r = 0")
    walk = make_stepper(g, cfg)
    return WalkTrace((x0, *walk(x0, x0, cfg.walk_length, rng)), cfg, g.n)


class SampleGraph:
    """Access-audited view of the graph revealed by a walk.

    Degrees and full neighbourhoods exist only for seed nodes; adjacency is
    answerable only when at least one endpoint is a seed node; node values
    are available for every identified node (seed nodes and their
    neighbours).  Anything else raises :class:`UnobservedEntryError`.  The
    view holds the seed set and reads the graph's own tables; it copies
    nothing.
    """

    def __init__(self, graph: Graph, seed: frozenset[int]):
        self.n = graph.n
        self.seed = seed
        self._adj = graph._adj
        self._degrees = graph.degrees
        self._values = graph.values
        self._derived = graph.derived

    def derived(self, key, build):
        """The graph's table for ``key`` (see :meth:`Graph.derived`).

        No audited read goes through it: the estimators keep there only
        what they read through an audited view, and hand it back only where
        this view observes it.
        """
        return self._derived(key, build)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted({(h, j) if h < j else (j, h) for h in self.seed for j in self._adj[h]}))

    def degree(self, v: int) -> int:
        if v not in self.seed:
            raise UnobservedEntryError(f"degree of node {v} not observed (not in the seed sample)")
        return self._degrees[v]

    def neighbors_of(self, v: int) -> frozenset[int]:
        if v not in self.seed:
            raise UnobservedEntryError(f"neighbourhood of node {v} not observed")
        return self._adj[v]

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        if i in self.seed:
            return j in self._adj[i]
        if j in self.seed:
            return i in self._adj[j]
        raise UnobservedEntryError(f"adjacency ({i}, {j}) outside the observed region")

    def value(self, v: int) -> float:
        # The range check keeps a negative id from indexing the value tuple.
        if v in self.seed or (0 <= v < self.n and not self._adj[v].isdisjoint(self.seed)):
            return self._values[v]
        raise UnobservedEntryError(f"value of node {v} not observed")

    def __repr__(self) -> str:
        return f"SampleGraph(n={self.n}, seed={len(self.seed)}, edges={len(self.edges)})"


def build_sample_graph(g: Graph, trace: WalkTrace) -> SampleGraph:
    """The audited view of exactly the walk-observed part of the graph, in O(T)."""
    return SampleGraph(g, trace.seed_sample)


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
    if kind is MotifKind.TWO_STAR:
        h = window[0]
        return [
            (h, frozenset((h, i, j)))
            for i, j in itertools.combinations(sorted(provider.neighbors_of(h)), 2)
        ]
    if kind not in COMPLETIONS:
        raise ConfigError(f"unsupported motif kind {kind!r}")
    has_edge, n = provider.has_edge, len(window)
    if (not all(map(has_edge, window, window[1:])) or len(set(window)) < n
            or any(has_edge(window[i], window[j]) for j in range(2, n) for i in range(j - 1))):
        return []  # not an induced path
    rows = [provider.neighbors_of(s) for s in window]
    keys = []
    for touched in COMPLETIONS[kind]:  # h: in the touched rows, no other row, not the window
        last = frozenset.intersection(*(rows[p] for p in touched)).difference(
            *(rows[p] for p in range(n) if p not in touched), window)
        keys += [(None, frozenset((*window, h))) for h in sorted(last)]
    return keys


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
    states = trace.states
    out: list[MotifObservation] = []
    for t in range(len(states) - q):
        window = states[t : t + q + 1]
        for center, nodes in _window_occurrences(provider, window, kind):
            occ = MotifOccurrence(kind, nodes, motif_value(provider, nodes, value_mode), center)
            out.append(MotifObservation(occ, window, t))
    return out


def equivalent_sequences(provider, obs: MotifObservation) -> tuple[tuple[int, ...], ...]:
    """All windows that would reveal the occurrence under its observation rule.

    Raises :class:`ConfigError` when the node set does not form the kind.
    """
    occ = obs.occurrence
    # Counting windows tests only an edge's size; detected ones need no check.
    if occ.kind is MotifKind.EDGE and not all(
            provider.has_edge(u, v) for u, v in itertools.combinations(occ.nodes, 2)):
        raise ConfigError(f"nodes {sorted(occ.nodes)} do not form a {occ.kind.value}")
    return _equivalent_sequences(provider, occ.kind, occ.nodes, occ.center)


def _equivalent_sequences(provider, kind: MotifKind, nodes, center: int | None):
    """The windows on which the observation rule of ``kind`` reveals the occurrence, sorted.

    Raises :class:`ConfigError` unless there are ``MULTIPLICITY[kind]`` of
    them, which is how a set of the wrong size or not of the kind shows.
    """
    nodes = sorted(nodes)
    if kind is MotifKind.NODE or kind is MotifKind.EDGE:
        seqs = tuple(zip(nodes))
    elif kind is MotifKind.TWO_STAR:
        seqs = ((center,),)
    elif kind in COMPLETIONS:
        # The ordered paths on q + 1 of the q + 2 nodes: through each m, m's neighbours at the ends.
        q, seqs = OBSERVATION_ORDER[kind], ()
        if len(nodes) == q + 2:
            around = {m: [] for m in nodes}
            for u, v in itertools.combinations(nodes, 2):  # each pair read once
                if provider.has_edge(u, v):
                    around[u].append(v)
                    around[v].append(u)
            seqs = tuple(sorted((ends[0], m) + ends[1:] for m, nbrs in around.items()
                                for ends in itertools.permutations(nbrs, q)))
    else:
        raise ConfigError(f"unsupported motif kind {kind!r}")
    if len(seqs) != MULTIPLICITY[kind]:
        raise ConfigError(f"nodes {nodes} do not form a {kind.value}")
    return seqs


def _ppw_weights(provider, kind, nodes, center, prob) -> dict[tuple[int, ...], float]:
    """PPW weights of an occurrence from ``prob``, the unnormalised probability of a sequence.

    The normaliser is summed in :func:`equivalent_sequences` order.  Each
    sequence's weight reads the degrees of its interior states, or of its one
    state when q = 0.  Every revealing window of a 3-path holds both interior
    nodes, so a 3-path table is always computable from the seed sample; an
    edge needs both end degrees and a 4-cycle all four, and raise
    :class:`Es3CoverageError` when one was not visited.
    """
    seqs = _equivalent_sequences(provider, kind, nodes, center)
    try:
        probs = {s: prob(s) for s in seqs}
    except UnobservedEntryError as exc:
        raise Es3CoverageError(
            f"ppw needs every equivalent sequence of {set(nodes)} "
            f"inside the seed sample: {exc}"
        ) from exc
    total = 0.0  # a left fold: builtin sum is compensated from Python 3.12 on
    for p in probs.values():
        total += p
    return {s: p / total for s, p in probs.items()}

