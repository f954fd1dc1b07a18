"""Shared test utilities: small-graph zoos and independent mini-oracles."""

from __future__ import annotations

import itertools
import random

import numpy as np

from lagwalk import (
    ConfigError,
    Es3CoverageError,
    EstimationError,
    Graph,
    NoObservationsError,
    TotalEstimate,
    UnobservedEntryError,
    sequence_prob,
)
from lagwalk.sampling import OBSERVATION_ORDER, detect_observations, equivalent_sequences


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


def random_graph(n: int, p: float, seed: int, n_isolated: int = 0, values=None) -> Graph:
    """Erdos-Renyi graph with optionally forced isolated nodes at the end."""
    rng = random.Random(seed)
    live = n - n_isolated
    edges = [(i, j) for i, j in itertools.combinations(range(live), 2) if rng.random() < p]
    return Graph(n, edges, values)


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
    if scheme == "multiplicity":
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
    pi = sequence_prob(provider, cfg, window, size=size)
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


def reference_ratio(trace, provider, cfg, kind, numerator_values="product",
                    denominator_values="ones", scheme="multiplicity", ppw_fallback=False):
    """Single-kind ratio: num and den accumulate one observation at a time."""
    mode_value = {"ones": lambda obs: 1.0, "product": lambda obs: obs.occurrence.value}
    detect_mode = "product" if "product" in (numerator_values, denominator_values) else "ones"
    num = den = 0.0
    informative = 0
    for obs_list in reference_windows(trace, provider, kind, detect_mode):
        if not obs_list:
            continue
        informative += 1
        pi = sequence_prob(provider, cfg, obs_list[0].sequence)
        for obs in obs_list:
            w = _reference_weight(provider, cfg, obs, scheme, ppw_fallback)
            num += w * mode_value[numerator_values](obs) / pi
            den += w * mode_value[denominator_values](obs) / pi
    if informative == 0:
        raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
    if den == 0.0:
        raise EstimationError("denominator estimate is zero")
    return num / den
