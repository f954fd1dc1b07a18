"""Design-based estimators built on walks at equilibrium.

Graph size: with two independent walks, the degree-weighted collision count
m has expectation n_x n_y / (2R + rN), giving the capture-recapture (CR)
estimator; the degree-weighted mean degree targets 2R/N, giving a
generalised-ratio (GR) estimator; solving the two relations jointly gives a
combined (GR-CR) estimator that does not consume the known order N.

Motif totals: a window that reveals occurrences is inverse-weighted by its
stationary sequence probability and split across the occurrence's
equivalent sequences by incidence weights, giving a per-window unbiased
estimator; windows are then combined as a ratio of sums over informative
windows.  Ratio parameters cancel the unknown normalisation constant, so
they need no size estimate.
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
from .graph import MotifKind
from .kernel import WalkConfig, sequence_prob
from .sampling import (
    MULTIPLICITY,
    OBSERVATION_ORDER,
    WEIGHT_SCHEMES,
    MotifObservation,
    WalkTrace,
    _ppw_weights,
    detect_observations,
)


@dataclass(frozen=True)
class CollisionStat:
    """Degree-weighted collision count between two extractions."""

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
    normalization: str

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


def _extract(trace: WalkTrace, indices: Sequence[int] | None) -> list[int]:
    if indices is None:
        return list(trace.states)
    states = trace.states
    out = []
    for t in indices:
        if not 0 <= t < len(states):
            raise ConfigError(f"extraction index {t} outside trace of length {len(states)}")
        out.append(states[t])
    return out


def count_collisions(
    trace_x: WalkTrace,
    trace_y: WalkTrace,
    provider,
    r: float,
    extraction: tuple[Sequence[int], Sequence[int]] | None = None,
) -> CollisionStat:
    """m = sum over matched index pairs of 1/(d_h + r).

    Extraction indices need not be consecutive; by default every state of
    both traces is used.  Degrees are needed only for matched states, which
    both walks have visited.
    """
    xs = _extract(trace_x, extraction[0] if extraction else None)
    ys = _extract(trace_y, extraction[1] if extraction else None)
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


def weighted_mean_degree(
    traces: Sequence[WalkTrace],
    provider,
    r: float,
    extraction: Sequence[Sequence[int] | None] | None = None,
) -> float:
    """Ratio of sums of d/(d+r) over 1/(d+r) across all extracted states."""
    num = 0.0
    den = 0.0
    count = 0
    for idx, trace in enumerate(traces):
        states = _extract(trace, extraction[idx] if extraction else None)
        for h in states:
            d = provider.degree(h)
            num += d / (d + r)
            den += 1.0 / (d + r)
        count += len(states)
    if count == 0:
        raise ConfigError("weighted mean degree needs at least one extracted state")
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


def _weight(provider, obs: MotifObservation, scheme: str, prob, ppw_fallback: bool) -> float:
    """Incidence weight of the observation's own window."""
    if scheme == "ppw":
        try:
            return _ppw_weights(provider, obs, prob)[obs.sequence]
        except Es3CoverageError:
            if not ppw_fallback:
                raise
    elif scheme != "multiplicity":
        raise ConfigError(f"unknown weight scheme {scheme!r}; expected one of {WEIGHT_SCHEMES}")
    return 1.0 / MULTIPLICITY[obs.occurrence.kind]


def _weighted(observations, provider, scheme: str, prob, ppw_fallback: bool):
    """(observation, incidence weight) pairs of one window, computed lazily."""
    window = observations[0].sequence
    for obs in observations:
        if obs.sequence != window:
            raise ConfigError("estimate_total_window expects observations from one window")
        yield obs, _weight(provider, obs, scheme, prob, ppw_fallback)


def _window_pass(observations_by_window, provider, cfg: WalkConfig, scheme: str,
                 ppw_fallback: bool, size: float | None = None, size_is_estimate: bool = False):
    """The window probability and weighted observations of every window.

    Yields ``(pi, pairs)`` per window, where ``pairs`` lazily gives each
    observation with its incidence weight; an empty window yields
    ``(None, ())``.  Window probabilities are normalised by ``size`` if one
    is given.  Sequence probabilities are memoised for the pass only, so a
    sequence shared by several windows or occurrences is evaluated once;
    ppw weights and unnormalised window probabilities share one memo.
    """
    prob = functools.cache(lambda seq: sequence_prob(provider, cfg, seq).value)
    # A normalised probability is not the memoised value divided by the
    # constant: sequence_prob divides before it multiplies, and the two
    # orders round differently.
    window_prob = prob if size is None else functools.cache(lambda seq: sequence_prob(
        provider, cfg, seq, size=size, size_is_estimate=size_is_estimate).value)
    for observations in observations_by_window:
        if not observations:
            yield None, ()
            continue
        pi = window_prob(observations[0].sequence)
        yield pi, _weighted(observations, provider, scheme, prob, ppw_fallback)


def _window_value(pi: float, pairs) -> float:
    theta = 0.0
    for obs, w in pairs:
        theta += w * obs.occurrence.value / pi
    return theta


def estimate_total_window(
    observations: Sequence[MotifObservation],
    provider,
    cfg: WalkConfig,
    scheme: str = "multiplicity",
    size: float | None = None,
    size_is_estimate: bool = False,
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
    ((pi, pairs),) = _window_pass([observations], provider, cfg, scheme, ppw_fallback,
                                  size, size_is_estimate)
    if pi is None:
        return 0.0, 0
    return _window_value(pi, pairs), 1


def _group_by_window(
    trace: WalkTrace,
    provider,
    kind: MotifKind,
    value_mode: str,
) -> list[list[MotifObservation]]:
    q = OBSERVATION_ORDER[kind]
    n_windows = len(trace.states) - q
    if n_windows <= 0:
        raise NoObservationsError(f"trace of length {len(trace.states)} has no window of order {q}")
    grouped: list[list[MotifObservation]] = [[] for _ in range(n_windows)]
    for obs in detect_observations(trace, provider, kind, value_mode):
        grouped[obs.t].append(obs)
    return grouped


def estimate_total(
    trace: WalkTrace,
    provider,
    cfg: WalkConfig,
    kind: MotifKind,
    scheme: str = "multiplicity",
    value_mode: str = "product",
    size: float | None = None,
    size_is_estimate: bool = False,
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
    grouped = _group_by_window(trace, provider, kind, value_mode)
    for pi, pairs in _window_pass(grouped, provider, cfg, scheme, ppw_fallback,
                                  size, size_is_estimate):
        values.append(0.0 if pi is None else _window_value(pi, pairs))
        flags.append(0 if pi is None else 1)
    if sum(flags) == 0:
        raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
    theta = sum(values) / len(values)
    if size is None:
        norm = "unnormalized"
    else:
        norm = "estimated" if size_is_estimate else "exact"
    return TotalEstimate(theta, tuple(values), tuple(flags), kind, scheme, norm)


def estimate_ratio(
    trace: WalkTrace,
    provider,
    cfg: WalkConfig,
    kind: MotifKind,
    numerator_values: str = "product",
    denominator_values: str = "ones",
    scheme: str = "multiplicity",
    denominator_kind: MotifKind | None = None,
    ppw_fallback: bool = False,
) -> float:
    """Ratio of two combined totals computed with unnormalised probabilities.

    The unknown constant 2R + rN cancels, so no size estimate is involved.
    With a single kind both totals share the same informative windows, which
    makes the node-motif case the classic ratio estimator of a population
    mean.  A different denominator kind must have the same window order; each
    total then uses its own informative-window set.
    """
    if denominator_kind is None or denominator_kind is kind:
        detect_mode = "product" if "product" in (numerator_values, denominator_values) else "ones"
        grouped = _group_by_window(trace, provider, kind, detect_mode)
        num = 0.0
        den = 0.0
        informative = 0
        for pi, pairs in _window_pass(grouped, provider, cfg, scheme, ppw_fallback):
            if pi is None:
                continue
            informative += 1
            for obs, w in pairs:
                num += w * _mode_value(obs, numerator_values) / pi
                den += w * _mode_value(obs, denominator_values) / pi
        if informative == 0:
            raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
        if den == 0.0:
            raise EstimationError("denominator estimate is zero")
        return num / den
    if OBSERVATION_ORDER[denominator_kind] != OBSERVATION_ORDER[kind]:
        raise ConfigError(
            f"ratio of {kind.value} to {denominator_kind.value} mixes window orders"
        )
    num_est = estimate_total(trace, provider, cfg, kind, scheme, numerator_values,
                             ppw_fallback=ppw_fallback)
    den_est = estimate_total(trace, provider, cfg, denominator_kind, scheme, denominator_values,
                             ppw_fallback=ppw_fallback)
    if den_est.theta_hat == 0.0:
        raise EstimationError("denominator estimate is zero")
    return num_est.theta_hat / den_est.theta_hat


def _mode_value(obs: MotifObservation, mode: str) -> float:
    if mode == "ones":
        return 1.0
    if mode == "product":
        return obs.occurrence.value
    raise ConfigError(f"unknown value mode {mode!r}")


def replicate_summary(values: Sequence[float]) -> ReplicateSummary:
    """Mean, empirical SD (ddof=1) and standard error over replicates."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        raise ConfigError("replicate summary needs at least 2 values for the SD")
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1))
    return ReplicateSummary(int(vals.size), mean, sd, sd / float(np.sqrt(vals.size)))

