"""Lagged random walk transition law and its exact stationary analysis.

The walk moves on a simple undirected graph.  From current state h with
previous state i, it jumps to a uniformly random node with probability
r/(d_h + r); otherwise it moves to an adjacent node, backtracking to i with
weight w when i is adjacent.  Writing a_xy for the adjacency indicator and
d = d_h, the one-step law is

    p(j | h, i) = r/((d+r) N) + a_hj/(d+r)                          if d = 1
    p(j | h, i) = r/((d+r) N) + [j = i] w a_hj/(d+r)
                  + [j != i] (d - w a_ih)/(d+r) * a_hj/(d - a_ih)   if d > 1

With w = 1 the node process is Markov with stationary law proportional to
d_h + r.  For w < 1 the node process is non-Markovian, but the ordered pair
(X_{t-1}, X_t) is a Markov chain on N^2 states; its stationary vector puts
probability proportional to 1 + r/N on adjacent pairs and r/N on the rest,
which marginalises to (d_h + r)/(2R + rN) for every w.  With C = 2R + rN the
pair law factorises as

    pi_pair(i, h) = (a_ih + r/N)/C = pi(i) p(h | i, i),

a stationary node followed by one lag-free step.  So the equilibrium
probability of a run of two or more successive states is pi_pair(x_0, x_1)
times its in-run transitions p(x_{k+1} | x_k, x_{k-1}), exactly and for
every w (see :func:`sequence_prob`): the estimators' window probabilities
are exact at equilibrium, not an approximation, and read no degree but
those of the run's interior states.  This module steps the pair chain on
2R + N lumped states, in O(R + N) (see :class:`PairStateChain`), and solves
it there by power iteration (:func:`stationary_lumped`) to verify the closed
forms at any N; the explicit matrix is kept as a reference form.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    NonErgodicError,
    SequenceUnreachableError,
    StateSpaceError,
)
from .graph import Graph

# The method stationary_pair uses, as campaign output names it.
STATIONARY_SOLVER = "power"
ITERATION_TOL = 1e-12
DEFAULT_MAX_ITER = 200_000
# stationary_pair returns at most this many pair states: one float64 pair
# vector is then 32 MiB (N = 2048).  The lumped chain itself has no cap.
MAX_PAIR_STATES = 2**22
# The explicit reference matrix stores N^3 entries (N = 200).
MATRIX_MAX_STATES = 40_000

INIT_MODES = ("stationary", "uniform", "fixed")


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters: jump rate r, backtracking weight w, length and start mode.

    r = 0 is accepted for kernel evaluation but is non-ergodic in general;
    operations that need irreducibility reject it.
    """

    r: float
    w: float = 1.0
    walk_length: int = 1
    init: str = "stationary"
    init_node: int | None = None
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.r) or self.r < 0:
            raise ConfigError(f"jump rate r={self.r} must be finite and >= 0")
        if not 0.0 <= self.w <= 1.0:
            raise ConfigError(f"backtracking weight w={self.w} must be in [0, 1]")
        if self.walk_length < 0:
            raise ConfigError(f"walk length {self.walk_length} must be >= 0")
        if self.init not in INIT_MODES:
            raise ConfigError(f"init mode {self.init!r} not one of {INIT_MODES}")
        if self.init == "fixed" and self.init_node is None:
            raise ConfigError("init='fixed' needs init_node")

    def step_weights(self, d: int) -> tuple[float, float, float, float]:
        """The one-step law at a node of degree d, memoised: (jump, plain, after, back).

        A uniform jump has probability ``jump`` (jump / N per target).  A
        neighbour gets ``plain`` after a non-adjacent predecessor, ``after``
        after an adjacent one, and that predecessor gets ``back``.  At d <= 1
        every move weight is d/(d+r).  Needs d + r > 0.
        """
        weights = self._weights.get(d)
        if weights is None:
            r, w = self.r, self.w
            denom = d + r
            if d <= 1:
                weights = (r / denom,) + (d / denom,) * 3
            else:
                weights = (r / denom, d / (denom * d), (d - w) / (denom * (d - 1)), w / denom)
            self._weights[d] = weights
        return weights


def transition_prob(g, cfg: WalkConfig, prev: int, cur: int, nxt: int) -> float:
    """One-step probability p(nxt | cur, prev).

    ``g`` can be any graph-like object exposing ``n``, ``degree`` and
    ``has_edge`` (the full graph or an observed sample view).  ``prev`` need
    not be adjacent to ``cur``; a non-adjacent prev simply contributes no
    backtracking term.  Passing prev == cur gives the lag-free kernel.

    This is the reference form of the law, read off
    :meth:`WalkConfig.step_weights`: :attr:`PairStateChain.matrix` is filled
    from it, and the pair operator and the sampler of :func:`make_stepper`
    are checked against it.
    """
    d = g.degree(cur)
    if d == 0 and cfg.r == 0:
        raise NonErgodicError(f"node {cur} is a sink: degree 0 and r = 0")
    jump, plain, after, back = cfg.step_weights(d)
    jump /= g.n
    if d <= 1:
        return jump + plain if g.has_edge(cur, nxt) else jump
    adjacent_prev = g.has_edge(prev, cur)
    if nxt == prev:
        return jump + back if adjacent_prev else jump
    return jump + (after if adjacent_prev else plain) if g.has_edge(cur, nxt) else jump


def make_stepper(g: Graph, cfg: WalkConfig):
    """Sampler closure ``walk(prev, cur, steps, rng)``: the ``steps`` states drawn
    after ``cur``, each exactly from the one-step law given the two before it.

    Two-stage scheme per step: a jump-vs-move coin, then the within-move
    choice (backtrack coin plus uniform pick among the remaining
    neighbours).  The composition reproduces the transition row exactly.
    One call draws a whole walk in one loop, with the same coins in the same
    order as one call per step would draw them.

    A uniform pick below m is drawn as CPython's ``rng.randrange(m)`` draws
    it, so the streams are those of ``randrange``: ``m.bit_length()`` bits
    from ``rng.getrandbits`` until the value is below m.  The bit lengths of
    the degrees are one table per graph.
    """
    n = g.n
    n_bits = n.bit_length()
    r, w = cfg.r, cfg.w
    nbrs = g.neighbor_lists
    adj = g._adj
    degs = g.degrees
    deg_bits = g.derived("degree-bit-lengths", lambda: tuple(d.bit_length() for d in degs))

    def walk(prev: int, cur: int, steps: int, rng: random.Random) -> list[int]:
        coin, getrandbits = rng.random, rng.getrandbits
        states = []
        for _ in range(steps):
            d = degs[cur]
            if d == 0 or coin() * (d + r) < r:
                if r == 0:  # no coin lands below r = 0, so cur is a sink
                    raise NonErgodicError(f"node {cur} is a sink: degree 0 and r = 0")
                nxt = getrandbits(n_bits)
                while nxt >= n:
                    nxt = getrandbits(n_bits)
            elif d == 1:
                nxt = nbrs[cur][0]
            elif prev in adj[cur] and coin() * d < w:
                nxt = prev
            else:
                # A pick equal to prev is redrawn; a non-adjacent prev is never picked.
                cur_nbrs, bits = nbrs[cur], deg_bits[cur]
                while True:
                    k = getrandbits(bits)
                    while k >= d:
                        k = getrandbits(bits)
                    nxt = cur_nbrs[k]
                    if nxt != prev:
                        break
            states.append(nxt)
            prev, cur = cur, nxt
        return states

    return walk


class PairStateChain:
    """Markov chain on ordered pairs (X_{t-1}, X_t), stepped on 2R + N lumped states.

    Pairs (i, h) with i not adjacent to h add no backtracking term, so they
    share one future: the chain lumps exactly onto directed edges and "free"
    nodes.  State e < 2R is the edge ``src[e] -> dst[e]``: ``graph.edges[e]``
    for e < R, and e + R is its reverse.  State 2R + h holds the mass at h
    whose predecessor is not adjacent, such as the start pair (h, h).  A step
    is O(R + N) (see :meth:`step`); ``n_states`` counts the N^2 pairs.  It
    needs r > 0 for irreducibility.
    """

    def __init__(self, graph: Graph, cfg: WalkConfig):
        self.n_states = graph.n * graph.n
        if cfg.r <= 0:
            raise NonErgodicError("pair chain needs r > 0 for irreducibility")
        self.graph = graph
        self.cfg = cfg
        self.n_nodes = graph.n
        edges = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
        self.src, self.dst = np.concatenate((edges, edges[:, ::-1])).T.copy()
        weights = np.array([cfg.step_weights(d) for d in graph.degrees])
        jump, self._plain, self._after, back = weights.T.copy()
        self._jump = jump / graph.n
        self._back_gain = back - self._after

    def step(self, law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step of a lumped law: E on directed edges, then F on free nodes.

        With s_h = sum_i E(i -> h) and J_h = (s_h + F_h) jump_h / N (weights of
        :meth:`WalkConfig.step_weights`), E'(h -> j) = J_h + F_h plain_h + s_h after_h
        + E(j -> h) (back_h - after_h) and F'(j) = sum J - sum_{h in N(j)} J_h.
        Returns the new law and the jump mass J it was sent with.
        """
        edge_count = len(self.src)
        edge, free = law[:edge_count], law[edge_count:]
        arrived = np.bincount(self.dst, edge, self.n_nodes)
        jumps = (arrived + free) * self._jump
        leave = jumps + free * self._plain + arrived * self._after
        half = edge_count // 2  # edge e + R is the reverse of edge e
        reverse = np.concatenate((edge[half:], edge[:half]))
        nxt_edge = leave[self.src] + reverse * self._back_gain[self.src]
        nxt_free = jumps.sum() - np.bincount(self.dst, jumps[self.src], self.n_nodes)
        return np.concatenate((nxt_edge, nxt_free)), jumps

    @functools.cached_property
    def matrix(self):
        """Explicit N^2 x N^2 row-stochastic matrix in CSR form.

        A reference form for tests and diagnostics; no solver uses it.  Row
        (i, h) holds p(j | h, i) in column (h, j), taken from
        :func:`transition_prob`, so from the law the estimators use.  It
        stores N^3 entries, so it is built on first access and refused above
        ``MATRIX_MAX_STATES`` states.  It needs scipy, which only the ``test``
        extra installs.
        """
        if self.n_states > MATRIX_MAX_STATES:
            raise StateSpaceError(
                f"explicit pair matrix on {self.n_states} states exceeds cap {MATRIX_MAX_STATES}"
            )
        import scipy.sparse as sp

        n = self.n_nodes
        data = np.array([transition_prob(self.graph, self.cfg, i, h, j)
                         for i in range(n) for h in range(n) for j in range(n)])
        # Row (i, h) holds columns (h, 0), ..., (h, N - 1): every i repeats 0, ..., N^2 - 1.
        indices = np.tile(np.arange(self.n_states, dtype=np.int64), n)
        indptr = np.arange(self.n_states + 1, dtype=np.int64) * n
        return sp.csr_matrix((data, indices, indptr), shape=(self.n_states, self.n_states))

    def node_marginal(self, pair_dist: np.ndarray) -> np.ndarray:
        """Marginal of the current (second) coordinate."""
        return pair_dist.reshape(self.n_nodes, self.n_nodes).sum(axis=0)


def build_pair_chain(g: Graph, cfg: WalkConfig) -> PairStateChain:
    """Pair chain of the walk on ``g``, ready to step (see :class:`PairStateChain`)."""
    return PairStateChain(g, cfg)


def stationary_lumped(chain: PairStateChain,
                      max_iter: int = DEFAULT_MAX_ITER) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised stationary lumped law of the pair chain, and its jump mass J.

    Power iteration from the uniform pair law, until no entry of the N^2
    iterate moves by ``ITERATION_TOL``.  Row i of that iterate holds
    E(i -> h) on the neighbours h of i and J_i on every other h.
    """
    n, edge_count = chain.n_nodes, len(chain.src)
    law = np.full(edge_count + n, 1.0 / chain.n_states)
    law[edge_count:] *= n - np.asarray(chain.graph.degrees)
    jumps = np.full(n, 1.0 / chain.n_states)
    delta = np.inf
    for _ in range(max_iter):
        nxt, nxt_jumps = chain.step(law)
        delta = max(float(np.max(np.abs(nxt_jumps - jumps))),
                    float(np.max(np.abs(nxt - law)[:edge_count], initial=0.0)))
        law, jumps = nxt, nxt_jumps
        if delta < ITERATION_TOL:
            return law, jumps
    raise ConvergenceError(
        f"power iteration stalled: residual {delta:.3e} after {max_iter} iterations",
        residual=delta,
        iterations=max_iter,
    )


def stationary_pair(chain: PairStateChain, max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Stationary pair vector (length N^2, sums to 1): :func:`stationary_lumped`
    expanded, up to ``MAX_PAIR_STATES`` pairs."""
    if chain.n_states > MAX_PAIR_STATES:
        raise StateSpaceError(f"pair state space {chain.n_states} exceeds cap {MAX_PAIR_STATES}")
    law, jumps = stationary_lumped(chain, max_iter)
    n = chain.n_nodes
    pair = np.repeat(jumps, n)
    pair[chain.src * n + chain.dst] = law[:len(chain.src)]
    return pair / pair.sum()


def stationary_node(g: Graph, cfg: WalkConfig) -> np.ndarray:
    """Closed-form node stationary law (d_h + r) / (2R + rN)."""
    if cfg.r <= 0:
        raise NonErgodicError("closed-form stationary law needs r > 0")
    degs = np.asarray(g.degrees, dtype=float)
    return (degs + cfg.r) / (2 * g.edge_count + cfg.r * g.n)


def marginal_at_t(
    g: Graph,
    cfg: WalkConfig,
    init: np.ndarray,
    t: int,
    chain: PairStateChain | None = None,
) -> np.ndarray:
    """Exact law of X_t from an initial node distribution, via the pair chain.

    The time-0 pair state is (X_0, X_0), a free state, so the first step
    uses the lag-free kernel; the node mass of the lumped law after t steps
    is the law of X_t.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (g.n,):
        raise ConfigError(f"init distribution must have length {g.n}")
    if not np.all(np.isfinite(init)) or abs(init.sum() - 1.0) > 1e-9 or np.any(init < 0):
        raise ConfigError("init must be a probability distribution")
    if t < 0:
        raise ConfigError("t must be >= 0")
    if t == 0:
        return init.copy()
    if chain is None:
        chain = build_pair_chain(g, cfg)
    law = np.concatenate((np.zeros(len(chain.src)), init))
    for _ in range(t):
        law = chain.step(law)[0]
    return np.bincount(chain.dst, law[:-g.n], g.n) + law[-g.n:]


def sequence_prob(provider, cfg: WalkConfig, sequence) -> float:
    """Unnormalised equilibrium probability of a successive-state sequence.

    A single state (h,) weighs d_h + r.  A longer sequence starts from the
    stationary pair law, a_{x_0 x_1} + r/N (see the module docstring), and
    multiplies its in-sequence transitions p(x_{k+1} | x_k, x_{k-1}).  This is
    exact for every w, with no predecessor to integrate out.  Past one state
    it reads only the degrees of the interior states x_1 ... x_{q-1} and the
    adjacency around them, so an observed sample view suffices whenever the
    interior states lie in the seed sample (and, for a pair, one of its two
    states); the end states need not have been visited.

    The constant 2R + rN is left out: ratios cancel it, and the estimators
    divide a window's weight by it to get the normalised probability.
    """
    seq = tuple(sequence)
    if not seq:
        raise ConfigError("sequence must contain at least one state")
    if len(seq) == 1:
        return provider.degree(seq[0]) + cfg.r
    value = 1.0
    for k in range(1, len(seq)):
        if k == 1:
            p = (1.0 if provider.has_edge(seq[0], seq[1]) else 0.0) + cfg.r / provider.n
        else:
            p = transition_prob(provider, cfg, seq[k - 2], seq[k - 1], seq[k])
        if p == 0.0:
            raise SequenceUnreachableError(
                f"transition {seq[k - 1]} -> {seq[k]} has probability 0 (r = 0 and not adjacent)"
            )
        value *= p
    return value


def sample_initial_state(g: Graph, cfg: WalkConfig, rng: random.Random) -> int:
    """Draw X_0 according to the configured start mode."""
    if cfg.init == "stationary":
        # The cumulative stationary law is built once per (graph, r).
        cum = g.derived(("stationary-cumsum", cfg.r),
                        lambda: np.cumsum(stationary_node(g, cfg)).tolist())
        # min() guards the (rounding-only) case u == cum[-1]
        return min(bisect.bisect_right(cum, rng.random() * cum[-1]), g.n - 1)
    if cfg.init == "uniform":
        return rng.randrange(g.n)
    node = cfg.init_node
    assert node is not None
    if not 0 <= node < g.n:
        raise ConfigError(f"init_node {node} outside graph of order {g.n}")
    return node
