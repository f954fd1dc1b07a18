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
    """Combined total with per-window values and revealing indicators."""

    theta_hat: float
    window_values: tuple[float, ...]
    indicators: tuple[int, ...]
    kind: MotifKind
    scheme: str

    @property
    def n_windows(self) -> int:
        return len(self.window_values)

    @property
    def n_informative(self) -> int:
        return sum(self.indicators)


@dataclass(frozen=True)
class ReplicateSummary:
    count: int
    mean: float
    sd: float
    se: float


def count_collisions(trace_x: WalkTrace, trace_y: WalkTrace, provider, r: float) -> CollisionStat:
    """m = sum over matched index pairs of 1/(d_h + r), over every state of both traces.

    Degrees are needed only for matched states, which both walks have visited.
    """
    xs, ys = trace_x.states, trace_y.states
    cnt_x = Counter(xs)
    cnt_y = Counter(ys)
    m = 0.0
    for h, cx in cnt_x.items():
        cy = cnt_y.get(h)
        if cy:
            m += cx * cy / (provider.degree(h) + r)
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
        for h in trace.states:
            d = provider.degree(h)
            num += d / (d + r)
            den += 1.0 / (d + r)
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


def _window_pass(windows, provider, cfg: WalkConfig, kind: MotifKind, scheme: str,
                 ppw_fallback: bool, size: float | None = None):
    """``(pi, [(value, weight), ...])`` for each ``(window, keys, values)`` of ``windows``.

    ``keys`` are the occurrence keys the window reveals and ``values`` their
    values, in the same order; an empty window yields ``(None, [])``.  Given
    a ``size`` R, a window's probability is its unnormalised weight divided
    by 2R + rN; without one it stays unnormalised.  For the pass only,
    unnormalised sequence probabilities are memoised by sequence (shared by
    ppw weights and window probabilities), and ppw tables, or the coverage
    failures that replace them by multiplicity weights, by occurrence key.

    Past one state, a sequence weighs a_{x_0 x_1} + r/N times the steps out
    of its interior states (:func:`sequence_prob`).  A kind observed on
    windows of order q = 1 has no interior state: every equivalent sequence
    is an adjacent pair of weight 1 + r/N, so its ppw weights are its
    multiplicity weights, with no table and no coverage check.
    """
    prob = functools.cache(functools.partial(sequence_prob, provider, cfg))
    norm = 1.0 if size is None else 2.0 * size + cfg.r * provider.n
    uniform = 1.0 / MULTIPLICITY[kind]
    uniform_only = scheme == "multiplicity" or scheme == "ppw" and OBSERVATION_ORDER[kind] == 1
    tables: dict = {}

    def ppw(key, window) -> float:
        # Every scheme but multiplicity lands here: an unknown one fails after the first value.
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

    for window, keys, values in windows:
        if not keys:
            yield None, []
        elif uniform_only:
            yield prob(window) / norm, [(value, uniform) for value in values]
        else:
            yield prob(window) / norm, [(value, ppw(key, window)) for key, value in zip(keys, values)]


def _reveal(provider, kind: MotifKind, value_mode: str):
    """``window -> (window, keys, values)``: what the detection rule reveals on a window.

    A window with a jump in it reveals nothing and skips the rule.  The
    rule's answers on the others are memoised on the graph, once per kind and
    value mode: at most N windows for q = 0, 2R for q = 1 and sum d(d - 1)
    for q = 2, and ``MULTIPLICITY[kind]`` keys per occurrence.  A stored
    answer is handed back only when every state of the window is in the
    provider's seed sample.  The rule reads only the rows of the window's
    states and the values of those states and their neighbours, all
    observable then, so on any other window it runs through the provider's
    audited reads, as it does on a miss.
    """
    memo = provider.derived(("reveals", kind, value_mode), dict)
    observed = provider.seed.issuperset if isinstance(provider, SampleGraph) else None

    def reveal(window):
        entry = memo.get(window)
        if entry is not None and (observed is None or observed(window)):
            return entry
        if not all(map(provider.has_edge, window, window[1:])):
            return window, [], []
        keys = _window_occurrences(provider, window, kind)
        values = [motif_value(provider, nodes, value_mode) for _, nodes in keys]
        memo[window] = entry = window, keys, values
        return entry

    return reveal


def _trace_pass(trace: WalkTrace, provider, cfg: WalkConfig, kind: MotifKind, scheme: str,
                value_mode: str, ppw_fallback: bool, size=None):
    """:func:`_window_pass` over every window of the trace, each revealed by :func:`_reveal`."""
    q = OBSERVATION_ORDER[kind]
    states = trace.states
    if len(states) <= q:
        raise NoObservationsError(f"trace of length {len(states)} has no window of order {q}")
    windows = (states[t : t + q + 1] for t in range(len(states) - q))
    return _window_pass(map(_reveal(provider, kind, value_mode), windows),
                        provider, cfg, kind, scheme, ppw_fallback, size)


def _window_value(pi: float, pairs) -> float:
    theta = 0.0
    for value, w in pairs:
        theta += w * value / pi
    return theta


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
    window = observations[0].sequence

    def values():  # checked lazily, so errors keep the order of the observations
        for obs in observations:
            if obs.sequence != window:
                raise ConfigError("estimate_total_window expects observations from one window")
            yield obs.occurrence.value

    keys = [(obs.occurrence.center, obs.occurrence.nodes) for obs in observations]
    ((pi, pairs),) = _window_pass([(window, keys, values())], provider, cfg,
                                  observations[0].occurrence.kind, scheme, ppw_fallback, size)
    return _window_value(pi, pairs), 1


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
    values: list[float] = []
    flags: list[int] = []
    for pi, pairs in _trace_pass(trace, provider, cfg, kind, scheme, value_mode, ppw_fallback,
                                 size):
        values.append(0.0 if pi is None else _window_value(pi, pairs))
        flags.append(0 if pi is None else 1)
    if sum(flags) == 0:
        raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
    return TotalEstimate(sum(values) / len(values), tuple(values), tuple(flags), kind, scheme)


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
    operations in the same order as the window pass (weight 1, norm 1).
    """
    num = 0.0
    den = 0.0
    if kind is MotifKind.NODE and scheme == "multiplicity":
        if not trace.states:
            raise NoObservationsError("trace of length 0 has no window of order 0")
        for h in trace.states:
            pi = provider.degree(h) + cfg.r
            num += provider.value(h) / pi
            den += 1.0 / pi
        return num / den
    informative = 0
    for pi, pairs in _trace_pass(trace, provider, cfg, kind, scheme, "product", ppw_fallback):
        if pi is None:
            continue
        informative += 1
        for value, w in pairs:
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

