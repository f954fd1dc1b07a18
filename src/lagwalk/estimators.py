"""Design-based estimators built on walks at equilibrium.

Graph size: with two independent walks, the degree-weighted collision count
m has expectation n_x n_y / (2R + rN), giving the capture-recapture (CR)
estimator; the degree-weighted mean degree targets 2R/N, giving a
generalised-ratio (GR) estimator; solving the two relations jointly gives a
combined (GR-CR) estimator that does not consume the known order N.

Motif totals: a window that reveals occurrences is inverse-weighted by its
stationary sequence probability and split across the occurrence's
equivalent sequences by incidence weights, giving a per-window unbiased
estimator; the total is the mean of the per-window estimates over every
window of the trace, a window that reveals nothing counting 0.  A ratio
parameter divides the value total by the count total, summed over the
windows that reveal something; it cancels the unknown normalisation
constant, so it needs no size estimate.

What the estimators read through a walk's audited sample view is kept on
the graph (:meth:`Graph.derived`), bounded by the graph, not by the walks,
and keyed only by what determines it: each node's terms d + r, 1/(d + r),
y/(d + r) and d/(d + r) per r; the occurrence keys the detection rule
reveals on a window, per kind; the unnormalised probabilities of ppw's
equivalent sequences per (r, w); and, wherever the weights are
window-local (every kind under multiplicity weights, and under ppw all
but edges and 4-cycles), one window table per (kind, scheme, r, w)
holding each window's unnormalised probability, product values and
weights.  The value mode keys none of them: it only decides how a reader
uses a table entry.  The audit runs once per trace: a kept entry is read
back only for a trace whose states the view's seed sample holds, which
covers every window read in it.  Elsewhere, and for edge and 4-cycle ppw,
whose weights depend on the whole trace, the audited reads run window by
window with the caller's value mode, so every value and error is the one
the view gives.  Float sums are left folds in a fixed order, never builtin
``sum``, which is compensated from Python 3.12 on.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    Es3CoverageError,
    EstimationError,
    NoCollisionsError,
    NoObservationsError,
)
from .graph import MotifKind, motif_value
from .kernel import WalkConfig, sequence_prob
from .sampling import (
    MULTIPLICITY,
    OBSERVATION_ORDER,
    WEIGHT_SCHEMES,
    MotifObservation,
    SampleGraph,
    WalkTrace,
    _ppw_weights,
    _window_occurrences,
)


@dataclass(frozen=True)
class CollisionStat:
    """Degree-weighted collision count between two traces."""

    m: float
    n_x: int
    n_y: int


@dataclass(frozen=True)
class SizeEstimate:
    method: str
    r_hat: float
    n_hat: float | None = None
    d_bar_w: float | None = None
    negative: bool = False


@dataclass(frozen=True)
class TotalEstimate:
    """Combined total, with the trace's window count and how many revealed anything."""

    theta_hat: float
    n_windows: int
    n_informative: int
    kind: MotifKind
    scheme: str


@dataclass(frozen=True)
class ReplicateSummary:
    count: int
    mean: float
    sd: float
    se: float


def _observes(provider):
    """``states -> bool``, true where the provider's seed sample holds every
    state; None for a provider that observes everything."""
    return provider.seed.issuperset if isinstance(provider, SampleGraph) else None


def _node_terms(provider, r: float, states):
    """``(d + r, 1/(d + r), y/(d + r), d/(d + r))`` of each state, or None.

    The terms are kept on the graph, once per r: at most N entries.  They
    are read back, or read once through the provider, only when the
    provider's seed sample holds every state, so none of those reads can be
    refused.  A state with d + r = 0 is never stored.  None means a state is
    unobserved or has d + r = 0: the caller then reads through the audited
    view as it always did, which raises where and as it should.
    """
    observed = _observes(provider)
    if observed is not None and not observed(states):
        return None
    memo = provider.derived(("node-terms", r), dict)
    try:
        return [memo[h] for h in states]
    except KeyError:
        pass
    for h in states:
        if h not in memo:
            d = provider.degree(h)
            pi = d + r
            if pi == 0:
                return None
            memo[h] = pi, 1.0 / pi, provider.value(h) / pi, d / pi
    return [memo[h] for h in states]


def count_collisions(trace_x: WalkTrace, trace_y: WalkTrace, provider, r: float) -> CollisionStat:
    """m = sum over matched index pairs of 1/(d_h + r), over every state of both traces.

    Degrees are needed only for matched states, which both walks have visited.
    """
    xs, ys = trace_x.states, trace_y.states
    cnt_x = Counter(xs)
    cnt_y = Counter(ys)
    matched = [h for h in cnt_x if h in cnt_y]
    terms = _node_terms(provider, r, matched)
    m = 0.0
    if terms is None:
        for h in matched:
            m += cnt_x[h] * cnt_y[h] / (provider.degree(h) + r)
    else:
        for h, (pi, _, _, _) in zip(matched, terms):
            m += cnt_x[h] * cnt_y[h] / pi
    return CollisionStat(m=m, n_x=len(xs), n_y=len(ys))


def estimate_size_cr(stat: CollisionStat, r: float, n_nodes: int) -> SizeEstimate:
    """Capture-recapture size estimate (n_x n_y / m - rN) / 2.

    Undefined at m = 0; a negative value is returned as-is with a flag so
    replicate summaries stay unbiased.
    """
    if stat.m <= 0:
        raise NoCollisionsError("no collisions: capture-recapture estimate undefined")
    r_hat = (stat.n_x * stat.n_y / stat.m - r * n_nodes) / 2.0
    return SizeEstimate("cr", r_hat, negative=r_hat < 0)


def weighted_mean_degree(traces: Sequence[WalkTrace], providers: Sequence, r: float) -> float:
    """Ratio of sums of d/(d+r) over 1/(d+r) across every state of the traces.

    ``providers`` holds one degree provider per trace, such as each walk's
    sample graph.
    """
    if not any(trace.states for trace in traces):
        raise ConfigError("weighted mean degree needs at least one state")
    num = 0.0
    den = 0.0
    for trace, provider in zip(traces, providers, strict=True):
        terms = _node_terms(provider, r, trace.states)
        if terms is None:
            for h in trace.states:
                d = provider.degree(h)
                num += d / (d + r)
                den += 1.0 / (d + r)
        else:
            for _, inv, _, d_w in terms:
                num += d_w
                den += inv
    return num / den


def estimate_size_gr(d_bar_w: float, n_nodes: int) -> SizeEstimate:
    """Generalised-ratio size estimate N * d_bar_w / 2."""
    return SizeEstimate("gr", n_nodes * d_bar_w / 2.0, d_bar_w=d_bar_w)


def estimate_size_grcr(stat: CollisionStat, d_bar_w: float, r: float) -> SizeEstimate:
    """Combined estimate solving the collision and mean-degree relations jointly.

    Returns both the size estimate and the implied order estimate; the known
    N is deliberately not consumed.
    """
    if stat.m <= 0:
        raise NoCollisionsError("no collisions: combined estimate undefined")
    if r + d_bar_w <= 0:
        raise EstimationError(f"r + d_bar_w = {r + d_bar_w} must be positive")
    n_hat = stat.n_x * stat.n_y / (stat.m * (r + d_bar_w))
    r_hat = stat.n_x * stat.n_y * d_bar_w / (2.0 * stat.m * (r + d_bar_w))
    return SizeEstimate("grcr", r_hat, n_hat=n_hat, d_bar_w=d_bar_w, negative=r_hat < 0)


# A window that reveals nothing: no probability, values or weights.
_NOTHING = (None, (), ())

# Kinds whose ppw weights read a state that no revealing window holds (an
# edge's other end, a 4-cycle's fourth node), so they depend on what the
# whole trace visited and fall back on multiplicity weights without it.
_TRACE_WIDE_PPW = frozenset({MotifKind.EDGE, MotifKind.FOUR_CYCLE})


def _weight_rule(provider, kind: MotifKind, scheme: str, ppw_fallback: bool, prob):
    """``(window, key) -> weight``: a revealed occurrence's incidence weight on the window.

    ``prob`` gives a sequence's unnormalised probability.  For the rule's
    life, ppw tables, or the coverage failures that replace them by
    multiplicity weights, are memoised by occurrence key.

    Past one state, a sequence weighs a_{x_0 x_1} + r/N times the steps out
    of its interior states (:func:`sequence_prob`).  A kind observed on
    windows of order q = 1 has no interior state: every equivalent sequence
    is an adjacent pair of weight 1 + r/N, so its ppw weights are its
    multiplicity weights, with no table and no coverage check.
    """
    uniform = 1.0 / MULTIPLICITY[kind]
    if scheme == "multiplicity" or scheme == "ppw" and OBSERVATION_ORDER[kind] == 1:
        return lambda window, key: uniform
    tables: dict = {}

    def ppw(window, key) -> float:
        # Every scheme but multiplicity lands here: an unknown one fails at the first key.
        if scheme != "ppw":
            raise ConfigError(f"unknown weight scheme {scheme!r}; expected one of {WEIGHT_SCHEMES}")
        try:
            table = tables[key]
        except KeyError:
            try:
                table = _ppw_weights(provider, kind, key[1], key[0], prob)
            except Es3CoverageError:
                if not ppw_fallback:
                    raise
                table = None
            tables[key] = table
        return uniform if table is None else table[window]

    return ppw


def _sequence_weights(provider, cfg: WalkConfig):
    """``sequence -> sequence_prob(provider, cfg, sequence)``, memoised.

    ppw weights ask it for the equivalent sequences of an occurrence, and a
    pass that the window tables do not cover (edge and 4-cycle ppw, or a
    trace the seed sample does not hold) for each revealing window too: all
    sequences of adjacent states.  A sequence that lies
    in the provider's seed sample is kept on the graph, once per (r, w): at
    most N for q = 0, 2R for q = 1 and sum d(d - 1) for q = 2.  Its weight
    then reads only observed degrees and adjacency, so it is handed back only
    to a provider whose seed sample holds it too.  Any other sequence, such
    as a ppw table's sequence whose end states the walk did not visit, is
    read through the audited view and kept for the pass only.
    """
    memo = provider.derived(("window-weights", cfg.r, cfg.w), dict)
    observed = _observes(provider)
    local: dict = {}

    def prob(seq) -> float:
        store = memo if observed is None or observed(seq) else local
        p = store.get(seq)
        if p is None:
            p = store[seq] = sequence_prob(provider, cfg, seq)
        return p

    return prob


def _reveal(provider, kind: MotifKind):
    """``window -> (window, keys)``: the occurrence keys the detection rule reveals on a window.

    A window with a jump or a repeated state in it reveals nothing, skips
    the rule and gives None.  The rule's answers on the others are memoised
    on the graph, once per kind: at most N windows for q = 0, 2R for q = 1
    and sum d(d - 1) for q = 2, and ``MULTIPLICITY[kind]`` keys per
    occurrence.  A stored answer is handed back only when every state of the
    window is in the provider's seed sample.  The rule reads only the rows
    of the window's states, all observable then, so on any other window it
    runs through the provider's audited reads, as it does on a miss.
    """
    memo = provider.derived(("reveals", kind), dict)
    observed = _observes(provider)

    def reveal(window):
        entry = memo.get(window)
        if entry is not None and (observed is None or observed(window)):
            return entry
        if not all(map(provider.has_edge, window, window[1:])) or len(set(window)) < len(window):
            return None  # only distinct, successively adjacent states reveal anything
        memo[window] = entry = window, _window_occurrences(provider, window, kind)
        return entry

    return reveal


def _trace_pass(trace: WalkTrace, provider, cfg: WalkConfig, kind: MotifKind, scheme: str,
                value_mode: str, ppw_fallback: bool):
    """``(prob, values, weights)`` of every window of the trace, in order.

    ``prob`` is the window's unnormalised probability, ``values`` the values
    of the occurrences it reveals and ``weights`` their incidence weights; a
    window that reveals nothing gives :data:`_NOTHING`.  One entry rule
    gives them: the detection memo's keys (:func:`_reveal`), each key's
    :func:`motif_value`, the window's :func:`sequence_prob` and the weights.

    Where the weights are window-local (multiplicity, and ppw but for edges
    and 4-cycles) and the provider's seed sample holds the whole trace,
    checked once, each window is one lookup in a table kept on the graph per
    (kind, scheme, r, w), w only for q = 2.  Its values are products of node
    values whatever the caller's value mode, which only decides how a reader
    uses them: a ``"ones"`` reader takes 1 for each.  A miss runs the rule
    once and stores the entry, unless a jump or a repeated state in the
    window makes it reveal nothing: at most N entries for q = 0, 2R for
    q = 1 and sum d(d - 1) for q = 2.  Every read the rule makes is
    observable on such a trace, so the entry is the one the audited reads
    give, and its ppw weights read the kept sequence probabilities
    (:func:`_sequence_weights`).  Elsewhere, and for a value mode other than
    those two, the rule reads every window through the audited view with the
    caller's value mode, one window at a time, so every value and error is
    the unmemoised one, in the same order.
    """
    q = OBSERVATION_ORDER[kind]
    states = trace.states
    if len(states) <= q:
        raise NoObservationsError(f"trace of length {len(states)} has no window of order {q}")
    windows = zip(*(states[k:] for k in range(q + 1)))
    observed = _observes(provider)
    window_local = scheme == "multiplicity" or scheme == "ppw" and kind not in _TRACE_WIDE_PPW
    reveal = _reveal(provider, kind)
    window_prob = _sequence_weights(provider, cfg)
    weight = _weight_rule(provider, kind, scheme, ppw_fallback, window_prob)
    table, mode = None, value_mode
    if (window_local and value_mode in ("ones", "product")
            and (observed is None or observed(states))):
        # A window of one or two states weighs the same for every w.
        table = provider.derived(("window-table", kind, scheme, cfg.r,
                                  cfg.w if q > 1 else None), dict)
        # The table keeps each window's probability, so the sequence memo need not.
        mode, window_prob = "product", functools.partial(sequence_prob, provider, cfg)

    def entry(window):
        revealed = reveal(window)
        if revealed is None:  # a jump window: not stored, nor detected
            return _NOTHING
        window, keys = revealed  # the detection memo's window, shared as the key
        found = _NOTHING
        if keys:
            values = [motif_value(provider, nodes, mode) for _, nodes in keys]
            found = window_prob(window), values, [weight(window, key) for key in keys]
        if table is not None:
            table[window] = found
        return found

    if table is None:
        return map(entry, windows)
    return [table.get(window) or entry(window) for window in windows]


def _norm(provider, cfg: WalkConfig, size: float | None) -> float:
    """2R + rN for a given size R, which turns an unnormalised probability into one; else 1."""
    return 1.0 if size is None else 2.0 * size + cfg.r * provider.n


def estimate_total_window(
    observations: Sequence[MotifObservation],
    provider,
    cfg: WalkConfig,
    scheme: str = "multiplicity",
    size: float | None = None,
    ppw_fallback: bool = False,
) -> tuple[float, int]:
    """Per-window estimate and an indicator that the window revealed anything.

    ``observations`` are the detections of a single window.  Each occurrence
    contributes its value, divided by the window's stationary sequence
    probability and multiplied by the window's incidence weight.  An empty
    window yields (0.0, 0); a zero estimate from an empty window is a valid
    (unbiased) value, the indicator is diagnostic.  With ``ppw_fallback``,
    occurrences whose equivalent sequences are not fully covered by the seed
    sample fall back to multiplicity weights instead of raising.
    """
    if not observations:
        return 0.0, 0
    window, kind = observations[0].sequence, observations[0].occurrence.kind
    prob = _sequence_weights(provider, cfg)
    pi = prob(window) / _norm(provider, cfg, size)
    weight = _weight_rule(provider, kind, scheme, ppw_fallback, prob)
    weights = []
    for obs in observations:  # checked in turn, so errors keep the order of the observations
        if obs.sequence != window:
            raise ConfigError("estimate_total_window expects observations from one window")
        if obs.occurrence.kind is not kind:
            raise ConfigError("estimate_total_window expects observations of one kind")
        weights.append(weight(window, (obs.occurrence.center, obs.occurrence.nodes)))
    theta = 0.0
    for obs, w in zip(observations, weights):
        theta += w * obs.occurrence.value / pi
    return theta, 1


def estimate_total(
    trace: WalkTrace,
    provider,
    cfg: WalkConfig,
    kind: MotifKind,
    scheme: str = "multiplicity",
    value_mode: str = "product",
    size: float | None = None,
    ppw_fallback: bool = False,
) -> TotalEstimate:
    """Combined motif-total estimate: mean of the per-window estimates.

    Every window where the estimator is computable enters the combination,
    revealing nothing contributing zero; each window estimate is
    unconditionally unbiased at equilibrium, so averaging over revealing
    windows only would inflate the total by the inverse revealing
    probability.  A trace whose windows reveal nothing at all raises
    :class:`NoObservationsError`.
    """
    norm = _norm(provider, cfg, size)
    ones = value_mode == "ones"  # the tables keep product values; a count takes 1 for each
    total = 0.0  # left folds: builtin sum is compensated from Python 3.12 on
    n_windows = n_informative = 0
    for prob, values, weights in _trace_pass(trace, provider, cfg, kind, scheme, value_mode,
                                             ppw_fallback):
        n_windows += 1
        if values:  # a window that reveals nothing adds 0.0, which leaves the fold as it is
            n_informative += 1
            pi = prob / norm
            theta = 0.0
            for value, w in zip(values, weights):
                theta += w * (1.0 if ones else value) / pi
            total += theta
    if n_informative == 0:
        raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
    return TotalEstimate(total / n_windows, n_windows, n_informative, kind, scheme)


def estimate_ratio(
    trace: WalkTrace,
    provider,
    cfg: WalkConfig,
    kind: MotifKind,
    scheme: str = "multiplicity",
    ppw_fallback: bool = False,
) -> float:
    """Value total over count total, both computed with unnormalised probabilities.

    The unknown constant 2R + rN cancels, so no size estimate is involved.
    Both totals share the same informative windows, which makes the
    node-motif case the classic ratio estimator of a population mean:
    sum y/(d + r) over sum 1/(d + r) along the walk.  Under multiplicity
    weights that case is summed straight off the trace, with the same float
    operations in the same order as the window pass (weight 1).
    """
    num = 0.0
    den = 0.0
    if kind is MotifKind.NODE and scheme == "multiplicity":
        if not trace.states:
            raise NoObservationsError("trace of length 0 has no window of order 0")
        terms = _node_terms(provider, cfg.r, trace.states)
        if terms is not None:
            for _, inv, y_w, _ in terms:
                num += y_w
                den += inv
            return num / den
        for h in trace.states:
            pi = provider.degree(h) + cfg.r
            num += provider.value(h) / pi
            den += 1.0 / pi
        return num / den
    informative = 0
    for pi, values, weights in _trace_pass(trace, provider, cfg, kind, scheme, "product",
                                           ppw_fallback):
        if not values:
            continue
        informative += 1
        for value, w in zip(values, weights):
            num += w * value / pi
            den += w / pi
    if informative == 0:
        raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
    return num / den


def replicate_summary(values: Sequence[float]) -> ReplicateSummary:
    """Count, mean, empirical SD (ddof=1) and standard error of the replicates.

    A NaN marks a failed replicate and is left out.  A statistic the other
    values do not define is NaN: the mean of none, the SD and SE of fewer than two.
    """
    vals = np.asarray(values, dtype=float)
    vals = vals[~np.isnan(vals)]
    mean = float(vals.mean()) if vals.size else np.nan
    sd = vals.std(ddof=1) if vals.size > 1 else np.nan
    return ReplicateSummary(vals.size, mean, float(sd), float(sd / np.sqrt(vals.size)))

