"""Shared test utilities: small-graph zoos and independent mini-oracles."""

from __future__ import annotations

import bisect
import itertools
import random

import numpy as np

from lagwalk import (
    ConfigError,
    Es3CoverageError,
    Graph,
    NoObservationsError,
    NonErgodicError,
    SequenceUnreachableError,
    TotalEstimate,
    UnobservedEntryError,
    WalkTrace,
    build_sample_graph,
    sequence_prob,
    stationary_node,
    stationary_pair,
    transition_prob,
)
from lagwalk.graph import MotifKind
from lagwalk.sampling import MULTIPLICITY, OBSERVATION_ORDER, detect_observations, equivalent_sequences


def path_graph(n: int, values=None) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)], values)


def cycle_graph(n: int, values=None) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], values)


def complete_graph(n: int, values=None) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)), values)


def figure_walk_graph() -> Graph:
    """Neighbourhood used in the walk-observation illustration.

    Nodes 0..5 form the walked path, 6 is the star-shaped extra corner of the
    4-cycle {2,3,4,6}, 7 is the diamond closing triangles with 1 and 2, and
    8..11 are peripheral nodes.
    """
    edges = [
        (0, 1), (0, 8), (0, 9),
        (1, 2), (1, 3), (1, 7),
        (2, 3), (2, 6), (2, 7),
        (3, 4),
        (4, 5), (4, 6), (4, 10),
        (5, 6), (5, 11),
    ]
    return Graph(12, edges)


def reference_transition_prob(g, cfg, prev: int, cur: int, nxt: int) -> float:
    """The one-step law as written out before its weights moved into one
    table, kept verbatim as the bit-for-bit reference."""
    n = g.n
    d = g.degree(cur)
    r, w = cfg.r, cfg.w
    if d == 0:
        if r == 0:
            raise NonErgodicError(f"node {cur} is a sink: degree 0 and r = 0")
        return 1.0 / n
    denom = d + r
    jump = (r / denom) / n
    if d == 1:
        return jump + (1.0 if g.has_edge(cur, nxt) else 0.0) / denom
    a_prev = 1 if g.has_edge(prev, cur) else 0
    if nxt == prev:
        return jump + w * a_prev / denom
    a_next = 1 if g.has_edge(cur, nxt) else 0
    return jump + a_next * (d - w * a_prev) / (denom * (d - a_prev))


def reference_sequence_prob(provider, cfg, sequence) -> float:
    """The window weight in its earlier product form (d_0 + r) * p(x_1 | x_0, x_0) * ...,
    which reads the first state's degree; kept verbatim as the reference for
    the closed form of :func:`sequence_prob`."""
    seq = tuple(sequence)
    if not seq:
        raise ConfigError("sequence must contain at least one state")
    value = provider.degree(seq[0]) + cfg.r
    prev = seq[0]
    for k in range(1, len(seq)):
        p = transition_prob(provider, cfg, prev, seq[k - 1], seq[k])
        if p == 0.0:
            raise SequenceUnreachableError(
                f"transition {seq[k - 1]} -> {seq[k]} has probability 0 (r = 0 and not adjacent)"
            )
        value *= p
        prev = seq[k - 1]
    return value


def walk_law(g: Graph, cfg):
    """Every walk of ``cfg.walk_length`` steps from a stationary start, as
    ``(states, probability)``: (d_0 + r)/(2R + rN) times a lag-free first step
    and the lagged steps after it, all from :func:`transition_prob`."""
    const = 2 * g.edge_count + cfg.r * g.n

    def extend(states, prob):
        if len(states) > cfg.walk_length:
            yield tuple(states), prob
            return
        prev = states[-2] if len(states) > 1 else states[-1]  # the first step is lag-free
        for nxt in range(g.n):
            yield from extend(states + [nxt], prob * transition_prob(g, cfg, prev, states[-1], nxt))

    for x0 in range(g.n):
        yield from extend([x0], (g.degree(x0) + cfg.r) / const)


def exact_expectation(g: Graph, cfg, estimator) -> np.ndarray:
    """E[estimator(trace, sample graph)] over every walk of :func:`walk_law`, exactly.

    ``estimator`` may return a float or a vector of floats.  The walks number
    N^(T+1), so keep N and T small.
    """
    total = 0.0
    for states, prob in walk_law(g, cfg):
        trace = WalkTrace(states, cfg, g.n)
        total = total + prob * np.asarray(estimator(trace, build_sample_graph(g, trace)))
    return total


def reference_stepper(g: Graph, cfg):
    """The sampler as written before its uniform picks were drawn from
    getrandbits, kept verbatim as the reference for the random streams."""
    n = g.n
    r, w = cfg.r, cfg.w
    nbrs = g.neighbor_lists
    adj = g._adj
    degs = g.degrees

    def next_state(prev: int, cur: int, rng: random.Random) -> int:
        d = degs[cur]
        if d == 0:
            if r == 0:
                raise NonErgodicError(f"node {cur} is a sink: degree 0 and r = 0")
            return rng.randrange(n)
        if rng.random() * (d + r) < r:
            return rng.randrange(n)
        cur_nbrs = nbrs[cur]
        if d == 1:
            return cur_nbrs[0]
        if prev in adj[cur]:
            if rng.random() * d < w:
                return prev
            while True:
                j = cur_nbrs[rng.randrange(d)]
                if j != prev:
                    return j
        return cur_nbrs[rng.randrange(d)]

    return next_state


def transition_row(g: Graph, cfg, prev: int, cur: int) -> np.ndarray:
    """Full row of the one-step law from (prev, cur), read off transition_prob."""
    return np.array([transition_prob(g, cfg, prev, cur, j) for j in range(g.n)])


def lumped_law(chain, pair: np.ndarray) -> np.ndarray:
    """An N^2 pair vector on the chain's lumped states: E(i -> h) on each
    directed edge, then F(h), the mass at h from non-adjacent predecessors."""
    n = chain.n_nodes
    pair = pair.reshape(n, n)
    free = np.ones((n, n), dtype=bool)
    free[chain.src, chain.dst] = False
    return np.concatenate((pair[chain.src, chain.dst], (pair * free).sum(axis=0)))


def expanded_step(chain, law: np.ndarray) -> np.ndarray:
    """The N^2 pair vector one lumped step after ``law``: E'(i -> h) on each
    adjacent pair, and on every other pair (i, h) the mass at i times
    p(h | i, i), the jump probability of a non-neighbour."""
    g, n, edge_count = chain.graph, chain.n_nodes, len(chain.src)
    jump = np.array([transition_prob(g, chain.cfg, i, i, i) for i in range(n)])
    mass = np.bincount(chain.dst, law[:edge_count], n) + law[edge_count:]
    pair = np.repeat(mass * jump, n)
    pair[chain.src * n + chain.dst] = chain.step(law)[0][:edge_count]
    return pair


def reference_stationary_pair(chain, max_iter: int = 200_000) -> np.ndarray:
    """The pair vector as the solve loop made it when it recomputed the jump
    mass from the node mass beside each step, kept as the bit-for-bit
    reference for the N^2 expansion of the lumped solve."""
    n, edge_count = chain.n_nodes, len(chain.src)
    law = np.full(edge_count + n, 1.0 / chain.n_states)
    law[edge_count:] *= n - np.asarray(chain.graph.degrees)
    jumps = np.full(n, 1.0 / chain.n_states)
    for _ in range(max_iter):
        mass = np.bincount(chain.dst, law[:edge_count], n) + law[edge_count:]
        nxt, nxt_jumps = chain.step(law)[0], mass * chain._jump
        delta = max(float(np.max(np.abs(nxt_jumps - jumps))),
                    float(np.max(np.abs(nxt - law)[:edge_count], initial=0.0)))
        law, jumps = nxt, nxt_jumps
        if delta < 1e-12:
            pair = np.repeat(jumps, n)
            pair[chain.src * n + chain.dst] = law[:edge_count]
            return pair / pair.sum()
    raise AssertionError(f"reference power iteration stalled after {max_iter} iterations")


def reference_stationary_columns(graph: Graph, wcfg, chain) -> tuple[float, float, float]:
    """The stationary check's deviation columns (marginal, pair, mixed) off
    the dense N^2 pair vector and the N x N adjacency matrix, as the
    campaign computed them before it read the lumped law."""
    n, r = graph.n, wcfg.r
    two_r = 2 * graph.edge_count
    pi = stationary_pair(chain)
    marginal = chain.node_marginal(pi)
    closed = stationary_node(graph, wcfg)
    # Two-value pattern: adjacent pairs carry (1 + r/N), the rest r/N,
    # normalised by 2R + rN.
    adj = graph.adjacency_matrix().astype(float)
    expected_pairs = (adj * 1.0 + r / n) / (two_r + r * n)
    pair_dev = float(np.max(np.abs(pi.reshape(n, n) - expected_pairs)))
    mixed = _mixed_equation_residual(graph, wcfg, pi)
    return float(np.max(np.abs(marginal - closed))), pair_dev, mixed


def _mixed_equation_residual(graph: Graph, wcfg, pair_pi: np.ndarray) -> float:
    """Residual of the stationarity identity that splits arrivals at h into
    adjacent-pair mass plus jump inflow from non-neighbours."""
    n = graph.n
    pair = pair_pi.reshape(n, n)
    marginal = pair.sum(axis=0)
    adj = graph.adjacency_matrix().astype(float)
    jump_in = marginal * [wcfg.step_weights(d)[0] / n for d in graph.degrees]
    residual = marginal - np.einsum("ih,ih->h", adj, pair) - jump_in @ (1.0 - adj)
    return float(np.max(np.abs(residual)))


def random_graph(n: int, p: float, seed: int, n_isolated: int = 0, values=None) -> Graph:
    """Erdos-Renyi graph with optionally forced isolated nodes at the end."""
    rng = random.Random(seed)
    live = n - n_isolated
    edges = [(i, j) for i, j in itertools.combinations(range(live), 2) if rng.random() < p]
    return Graph(n, edges, values)


def reference_stationary_start(g: Graph, cfg, rng: random.Random) -> int:
    """A stationary start drawn with the cumulative law rebuilt on every call:
    one rng.random() and the same bisect as the sampler."""
    cum = np.cumsum(stationary_node(g, cfg)).tolist()
    return min(bisect.bisect_right(cum, rng.random() * cum[-1]), g.n - 1)


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """Graph with node i renamed perm[i]."""
    edges = [(perm[i], perm[j]) for i, j in g.edges]
    values = [0.0] * g.n
    for i, v in enumerate(g.values):
        values[perm[i]] = v
    return Graph(g.n, edges, values)


def connected_graphs_up_to(max_n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs, n <= max_n.

    Canonical form of an edge bitmask is its minimum over all node
    permutations, computed vectorised over every mask at once.
    """
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        m = len(slots)
        slot_index = {e: k for k, e in enumerate(slots)}
        masks = np.arange(1 << m, dtype=np.int64)
        canon = masks.copy()
        for perm in itertools.permutations(range(n)):
            target = [
                slot_index[tuple(sorted((perm[i], perm[j])))] for i, j in slots
            ]
            permuted = np.zeros_like(masks)
            for k in range(m):
                permuted |= ((masks >> k) & 1) << target[k]
            np.minimum(canon, permuted, out=canon)
        for mask in sorted(set(int(v) for v in canon)):
            edges = [slots[k] for k in range(m) if (mask >> k) & 1]
            g = Graph(n, edges)
            if _is_connected(g):
                out.append(g)
    return out


def _is_connected(g: Graph) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in g.neighbors_of(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.n


def _answer(query, *args):
    """The answer of an audited query, or None where the sample graph refuses it."""
    try:
        return query(*args)
    except UnobservedEntryError:
        return None


def observed_nodes(sg) -> frozenset[int]:
    """Nodes whose value the sample graph answers: the seed sample and its neighbours."""
    return frozenset(v for v in range(sg.n) if _answer(sg.value, v) is not None)


def observable_answers(sg) -> tuple:
    """Every answer the audited queries of a sample graph give, None where one is refused."""
    nodes = range(sg.n)
    return (
        sg.n,
        sg.seed,
        [(_answer(sg.degree, v), _answer(sg.neighbors_of, v), _answer(sg.value, v)) for v in nodes],
        [_answer(sg.has_edge, i, j) for i, j in itertools.combinations(nodes, 2)],
    )


def brute_force_total(g: Graph, kind: str, value_mode: str = "ones") -> float:
    """Independent motif-total oracle via direct subset predicates."""

    def val(nodes) -> float:
        if value_mode == "ones":
            return 1.0
        v = 1.0
        for i in nodes:
            v *= g.values[i]
        return v

    total = 0.0
    if kind == "node":
        total = sum(val((i,)) for i in range(g.n))
    elif kind == "edge":
        for i, j in itertools.combinations(range(g.n), 2):
            if g.has_edge(i, j):
                total += val((i, j))
    elif kind == "triangle":
        for i, j, k in itertools.combinations(range(g.n), 3):
            if g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(i, k):
                total += val((i, j, k))
    elif kind == "two-star":
        for h in range(g.n):
            for i, j in itertools.combinations(sorted(g.neighbors_of(h)), 2):
                total += val((h, i, j))
    elif kind == "four-cycle":
        for quad in itertools.combinations(range(g.n), 4):
            sub = [(a, b) for a, b in itertools.combinations(quad, 2) if g.has_edge(a, b)]
            degs = {v: 0 for v in quad}
            for a, b in sub:
                degs[a] += 1
                degs[b] += 1
            if len(sub) == 4 and all(d == 2 for d in degs.values()):
                total += val(quad)
    elif kind == "three-path":
        for quad in itertools.combinations(range(g.n), 4):
            sub = [(a, b) for a, b in itertools.combinations(quad, 2) if g.has_edge(a, b)]
            degs = {v: 0 for v in quad}
            for a, b in sub:
                degs[a] += 1
                degs[b] += 1
            if len(sub) == 3 and sorted(degs.values()) == [1, 1, 2, 2]:
                total += val(quad)
    else:
        raise ValueError(kind)
    return total


# Reference window estimators: the per-observation loop written out plainly,
# with the weights recomputed for every observation and no memo.  The
# estimators must reproduce these values bit for bit.

def reference_weights(provider, cfg, obs, scheme):
    seqs = equivalent_sequences(provider, obs)
    # A sequence of two states weighs a_{x0 x1} + r/N: ppw is uniform on windows of order 1.
    if scheme == "multiplicity" or scheme == "ppw" and OBSERVATION_ORDER[obs.occurrence.kind] == 1:
        u = 1.0 / len(seqs)
        return {s: u for s in seqs}
    if scheme == "ppw":
        try:
            probs = {s: sequence_prob(provider, cfg, s) for s in seqs}
        except UnobservedEntryError as exc:
            raise Es3CoverageError(
                f"ppw needs every equivalent sequence of {set(obs.occurrence.nodes)} "
                f"inside the seed sample: {exc}"
            ) from exc
        total = sum(probs.values())
        return {s: p / total for s, p in probs.items()}
    raise ConfigError(f"unknown weight scheme {scheme!r}")


def _reference_weight(provider, cfg, obs, scheme, ppw_fallback):
    try:
        weights = reference_weights(provider, cfg, obs, scheme)
    except Es3CoverageError:
        if not ppw_fallback:
            raise
        weights = reference_weights(provider, cfg, obs, "multiplicity")
    return weights[obs.sequence]


def reference_total_window(observations, provider, cfg, scheme="multiplicity", size=None,
                           ppw_fallback=False):
    if not observations:
        return 0.0, 0
    window = observations[0].sequence
    norm = 1.0 if size is None else 2.0 * size + cfg.r * provider.n
    pi = sequence_prob(provider, cfg, window) / norm
    theta = 0.0
    for obs in observations:
        if obs.sequence != window:
            raise ConfigError("estimate_total_window expects observations from one window")
        theta += _reference_weight(provider, cfg, obs, scheme, ppw_fallback) * obs.occurrence.value / pi
    return theta, 1


def reference_windows(trace, provider, kind, value_mode):
    q = OBSERVATION_ORDER[kind]
    n_windows = len(trace.states) - q
    if n_windows <= 0:
        raise NoObservationsError(f"trace of length {len(trace.states)} has no window of order {q}")
    grouped = [[] for _ in range(n_windows)]
    for obs in detect_observations(trace, provider, kind, value_mode):
        grouped[obs.t].append(obs)
    return grouped


def reference_total(trace, provider, cfg, kind, scheme="multiplicity", value_mode="product",
                    size=None, ppw_fallback=False):
    values, flags = [], []
    for obs_list in reference_windows(trace, provider, kind, value_mode):
        theta_t, ind = reference_total_window(obs_list, provider, cfg, scheme, size, ppw_fallback)
        values.append(theta_t)
        flags.append(ind)
    if sum(flags) == 0:
        raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
    return TotalEstimate(sum(values) / len(values), tuple(values), tuple(flags), kind, scheme)


def reference_ratio(trace, provider, cfg, kind, scheme="multiplicity", ppw_fallback=False):
    """Value total over count total: both accumulate one observation at a time."""
    num = den = 0.0
    informative = 0
    for obs_list in reference_windows(trace, provider, kind, "product"):
        if not obs_list:
            continue
        informative += 1
        pi = sequence_prob(provider, cfg, obs_list[0].sequence)
        for obs in obs_list:
            w = _reference_weight(provider, cfg, obs, scheme, ppw_fallback)
            num += w * obs.occurrence.value / pi
            den += w / pi
    if informative == 0:
        raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
    return num / den


# The detection and sequence rules as they were first written, one branch per
# kind, kept to check the table-driven rules of ``lagwalk.sampling`` against.

def reference_window_occurrences(provider, window: tuple[int, ...], kind: MotifKind) -> list[tuple]:
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
        # A fourth node h off y closes a cycle through both ends, or extends
        # the path at one end only (the z side first).
        nx, nz = provider.neighbors_of(x), provider.neighbors_of(z)
        if kind is MotifKind.FOUR_CYCLE:
            fourth = sorted((nx & nz) - {y})
        else:
            fourth = sorted(nz - nx) + sorted(nx - nz)
        return [(None, frozenset((x, y, z, h))) for h in fourth if not provider.has_edge(y, h)]
    raise ConfigError(f"unsupported motif kind {kind!r}")


def reference_equivalent_sequences(provider, obs) -> tuple[tuple[int, ...], ...]:
    """All windows that would reveal the occurrence under its observation rule.

    Raises :class:`ConfigError` when the node set does not form the kind.
    """
    occ = obs.occurrence
    # Counting windows tests only an edge's or triangle's size; detected ones need no check.
    if occ.kind in (MotifKind.EDGE, MotifKind.TRIANGLE) and not all(
            provider.has_edge(u, v) for u, v in itertools.combinations(occ.nodes, 2)):
        raise ConfigError(f"nodes {sorted(occ.nodes)} do not form a {occ.kind.value}")
    return _reference_equivalent_sequences(provider, occ.kind, occ.nodes, occ.center)


def _reference_equivalent_sequences(provider, kind: MotifKind, nodes, center: int | None):
    """The windows on which the observation rule of ``kind`` reveals the occurrence, sorted.

    Raises :class:`ConfigError` unless there are ``MULTIPLICITY[kind]`` of
    them, which is how a set of the wrong size or a 4-node set not of the kind shows.
    """
    nodes = sorted(nodes)
    if kind is MotifKind.NODE or kind is MotifKind.EDGE:
        seqs = tuple(zip(nodes))
    elif kind is MotifKind.TWO_STAR:
        seqs = ((center,),)
    elif kind is MotifKind.TRIANGLE:
        seqs = tuple(itertools.permutations(nodes, 2))
    elif kind is MotifKind.FOUR_CYCLE or kind is MotifKind.THREE_PATH:
        # Two successive moves (u, m, v) inside the node set, which the
        # fourth node completes.
        seqs = ()
        if len(nodes) == 4:
            seqs = tuple(sorted(
                (u, m, v) for m in nodes
                for u, v in itertools.permutations([j for j in nodes if provider.has_edge(m, j)], 2)))
    else:
        raise ConfigError(f"unsupported motif kind {kind!r}")
    if len(seqs) != MULTIPLICITY[kind]:
        raise ConfigError(f"nodes {nodes} do not form a {kind.value}")
    return seqs
