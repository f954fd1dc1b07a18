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
probability of a run of successive states is pi(x_0) p(x_1 | x_0, x_0)
times its in-run transitions, exactly and for every w (see
:func:`sequence_prob`): the estimators' window probabilities are exact at
equilibrium, not an approximation.  This module applies the pair chain
matrix-free, in O(N^2) per step, and solves it by power iteration so the
closed forms can be verified numerically; the explicit matrix is kept as a
reference form.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass

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
# The operator refuses larger pair chains: one float64 pair vector is then
# 32 MiB, and a power-iteration step keeps about four alive (N = 2048).
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


def transition_prob(g, cfg: WalkConfig, prev: int, cur: int, nxt: int) -> float:
    """One-step probability p(nxt | cur, prev).

    ``g`` can be any graph-like object exposing ``n``, ``degree`` and
    ``has_edge`` (the full graph or an observed sample view).  ``prev`` need
    not be adjacent to ``cur``; a non-adjacent prev simply contributes no
    backtracking term.  Passing prev == cur gives the lag-free kernel.

    This is the reference form of the law: :func:`transition_row`, and so
    :attr:`PairStateChain.matrix`, are read off it, and the pair operator
    and the sampler of :func:`make_stepper` are checked against it.
    """
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


def transition_row(g: Graph, cfg: WalkConfig, prev: int, cur: int) -> np.ndarray:
    """Full row of the one-step law from (prev, cur), read off :func:`transition_prob`."""
    return np.array([transition_prob(g, cfg, prev, cur, j) for j in range(g.n)])


def make_stepper(g: Graph, cfg: WalkConfig):
    """Sampler closure drawing the next state exactly from the one-step law.

    Two-stage scheme: a jump-vs-move coin, then the within-move choice
    (backtrack coin plus uniform pick among the remaining neighbours).  The
    composition reproduces the transition row exactly.
    """
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


class PairStateChain:
    """Markov chain on ordered pairs (X_{t-1}, X_t), states indexed i*N + h.

    The chain is applied matrix-free.  For a current node h of degree d, the
    successor law needs only three numbers of a pair distribution pi: the
    column mass m_h = sum_i pi(i, h), the mass s_h arriving from adjacent
    predecessors, and pi(j, h) for the backtracking move j = i.  One step
    is then O(N^2) with no stored transition matrix (see :meth:`step`).
    It needs r > 0 for irreducibility and at most ``MAX_PAIR_STATES`` states.
    """

    def __init__(self, graph: Graph, cfg: WalkConfig):
        self.n_states = graph.n * graph.n
        if cfg.r <= 0:
            raise NonErgodicError("pair chain needs r > 0 for irreducibility")
        if self.n_states > MAX_PAIR_STATES:
            raise StateSpaceError(f"pair state space {self.n_states} exceeds cap {MAX_PAIR_STATES}")
        self.graph = graph
        self.cfg = cfg
        self.n_nodes = graph.n
        n, r, w = graph.n, cfg.r, cfg.w
        degs = np.asarray(graph.degrees, dtype=float)
        self._adj = graph.adjacency_matrix().astype(float)
        self._jump = r / ((degs + r) * n)
        # Move coefficients per current node: the weight of a neighbour after
        # a non-adjacent predecessor, after an adjacent one (for the other
        # neighbours), and the extra weight of backtracking to that one.  At
        # degree 1 the predecessor does not matter.  An isolated node has no
        # moves, so its coefficients only need to be finite: degree 1 stands
        # in for 0, as 1/r overflows for subnormal r.
        d = np.maximum(degs, 1.0)
        denom = d + r
        self._plain = 1.0 / denom
        branching = d > 1
        self._after = np.where(branching, (d - w) / (denom * np.maximum(d - 1, 1)), self._plain)
        self._back_gain = np.where(branching, w / denom, self._plain) - self._after

    def step(self, pair_dist: np.ndarray) -> np.ndarray:
        """One step of a pair distribution: the vector pi P, without P.

        Q(h, j) = m_h r/((d+r)N) + a_hj [(m_h - s_h)/(d+r)
                  + s_h (d-w)/((d+r)(d-1)) + pi(j, h) (w/(d+r) - (d-w)/((d+r)(d-1)))]
        for d > 1; for d <= 1 the bracket is m_h/(d+r).
        """
        pair = pair_dist.reshape(self.n_nodes, self.n_nodes)
        mass = pair.sum(axis=0)
        adjacent = np.einsum("ih,ih->h", self._adj, pair)
        move = (mass - adjacent) * self._plain + adjacent * self._after
        nxt = np.multiply(pair.T, self._back_gain[:, None], order="C")
        nxt += move[:, None]
        nxt *= self._adj
        nxt += (self._jump * mass)[:, None]
        return nxt.ravel()

    @functools.cached_property
    def matrix(self):
        """Explicit N^2 x N^2 row-stochastic matrix in CSR form.

        A reference form for tests and diagnostics; no solver uses it.  Row
        (i, h) holds p(j | h, i) in column (h, j), taken from
        :func:`transition_row`, so from the law the estimators use.  It
        stores N^3 entries, so it is built on first access and refused above
        ``MATRIX_MAX_STATES`` states.
        """
        if self.n_states > MATRIX_MAX_STATES:
            raise StateSpaceError(
                f"explicit pair matrix on {self.n_states} states exceeds cap {MATRIX_MAX_STATES}"
            )
        import scipy.sparse as sp

        n = self.n_nodes
        data = np.empty((self.n_states, n))
        for i in range(n):
            for h in range(n):
                data[i * n + h] = transition_row(self.graph, self.cfg, i, h)
        h_of_row = np.arange(self.n_states, dtype=np.int64) % n
        indices = (h_of_row[:, None] * n + np.arange(n, dtype=np.int64)).ravel()
        indptr = np.arange(self.n_states + 1, dtype=np.int64) * n
        return sp.csr_matrix((data.ravel(), indices, indptr),
                             shape=(self.n_states, self.n_states))

    def node_marginal(self, pair_dist: np.ndarray) -> np.ndarray:
        """Marginal of the current (second) coordinate."""
        return pair_dist.reshape(self.n_nodes, self.n_nodes).sum(axis=0)


def build_pair_chain(g: Graph, cfg: WalkConfig) -> PairStateChain:
    """Pair chain of the walk on ``g``, ready to step (see :class:`PairStateChain`)."""
    return PairStateChain(g, cfg)


def stationary_pair(
    chain: PairStateChain,
    tol: float = ITERATION_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Unique stationary vector of the pair chain (length N^2, sums to 1).

    Power iteration from the uniform pair law, until the max-norm change
    between successive iterates falls below ``tol``.
    """
    pi = np.full(chain.n_states, 1.0 / chain.n_states)
    delta = np.inf
    for _ in range(max_iter):
        nxt = chain.step(pi)
        delta = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if delta < tol:
            return pi / pi.sum()
    raise ConvergenceError(
        f"power iteration stalled: residual {delta:.3e} after {max_iter} iterations",
        residual=delta,
        iterations=max_iter,
    )


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

    The time-0 pair state is (X_0, X_0), so the first step uses the lag-free
    kernel; marginalising the second coordinate after t steps gives the law
    of X_t.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (g.n,):
        raise ConfigError(f"init distribution must have length {g.n}")
    if abs(init.sum() - 1.0) > 1e-9 or np.any(init < 0):
        raise ConfigError("init must be a probability distribution")
    if t < 0:
        raise ConfigError("t must be >= 0")
    if t == 0:
        return init.copy()
    if chain is None:
        chain = build_pair_chain(g, cfg)
    pair = np.zeros(chain.n_states)
    pair[np.arange(g.n) * g.n + np.arange(g.n)] = init
    for _ in range(t):
        pair = chain.step(pair)
    return chain.node_marginal(pair)


def sequence_prob(provider, cfg: WalkConfig, sequence, size: float | None = None) -> float:
    """Probability of a successive-state sequence at equilibrium.

    The first factor is the stationary probability of the first state and
    the first transition uses the lag-free kernel; later transitions use the
    in-sequence predecessor.  This is exact for every w, with no predecessor
    to integrate out: the stationary pair law factorises as
    pi_pair(i, h) = pi(i) p(h | i, i) (see the module docstring).
    ``provider`` only needs degrees and adjacency for the sequence's nodes,
    so an observed sample view suffices whenever the sequence lies inside
    the seed sample.

    With ``size=None`` the result is unnormalised (the constant 2R + rN is
    dropped), which is enough for ratio estimation.
    """
    seq = tuple(sequence)
    if not seq:
        raise ConfigError("sequence must contain at least one state")
    r = cfg.r
    d0 = provider.degree(seq[0])
    value = d0 + r if size is None else (d0 + r) / (2.0 * size + r * provider.n)
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


def sample_initial_state(g: Graph, cfg: WalkConfig, rng: random.Random) -> int:
    """Draw X_0 according to the configured start mode."""
    if cfg.init == "stationary":
        weights = stationary_node(g, cfg)
        cum = np.cumsum(weights).tolist()
        # min() guards the (rounding-only) case u == cum[-1]
        return min(bisect.bisect_right(cum, rng.random() * cum[-1]), g.n - 1)
    if cfg.init == "uniform":
        return rng.randrange(g.n)
    node = cfg.init_node
    assert node is not None
    if not 0 <= node < g.n:
        raise ConfigError(f"init_node {node} outside graph of order {g.n}")
    return node
