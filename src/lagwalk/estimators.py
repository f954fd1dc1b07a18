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
from .graph import MotifKind, motif_value
from .kernel import WalkConfig, sequence_prob
from .sampling import (
    MULTIPLICITY,
    OBSERVATION_ORDER,
    WEIGHT_SCHEMES,
    MotifObservation,
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


def _window_pass(windows, value_of, provider, cfg: WalkConfig, kind: MotifKind, scheme: str,
                 ppw_fallback: bool, size: float | None = None):
    """``(pi, [(value, weight), ...])`` for each ``(window, occurrence keys)`` of ``windows``.

    ``value_of`` maps a key to the occurrence's value; an empty window yields
    ``(None, [])``.  Window probabilities are normalised by ``size`` if one
    is given.  For the pass only, sequence probabilities are memoised by
    sequence (shared by ppw weights and unnormalised window probabilities),
    and ppw tables, or the coverage failures that replace them by
    multiplicity weights, by occurrence key.
    """
    prob = functools.cache(functools.partial(sequence_prob, provider, cfg))
    # A normalised probability is not the memoised value divided by the
    # constant: sequence_prob divides before it multiplies, and the two
    # orders round differently.
    window_prob = prob if size is None else functools.cache(
        functools.partial(sequence_prob, provider, cfg, size=size))
    uniform = 1.0 / MULTIPLICITY[kind]
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

    for window, keys in windows:
        if not keys:
            yield None, []
        elif scheme == "multiplicity":
            yield window_prob(window), [(value_of(key), uniform) for key in keys]
        else:
            yield window_prob(window), [(value_of(key), ppw(key, window)) for key in keys]


def _trace_pass(trace: WalkTrace, provider, cfg: WalkConfig, kind: MotifKind, scheme: str,
                value_mode: str, ppw_fallback: bool, size=None):
    """:func:`_window_pass` over every window of the trace."""
    q = OBSERVATION_ORDER[kind]
    states = trace.states
    if len(states) <= q:
        raise NoObservationsError(f"trace of length {len(states)} has no window of order {q}")
    windows = ((window, _window_occurrences(provider, window, kind))
               for window in (states[t : t + q + 1] for t in range(len(states) - q)))
    return _window_pass(windows, lambda key: motif_value(provider, key[1], value_mode),
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
    values = {}

    def keys():  # checked lazily, so errors keep the order of the observations
        for obs in observations:
            if obs.sequence != window:
                raise ConfigError("estimate_total_window expects observations from one window")
            occ = obs.occurrence
            values[occ.center, occ.nodes] = occ.value
            yield occ.center, occ.nodes

    ((pi, pairs),) = _window_pass([(window, keys())], values.__getitem__, provider, cfg,
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
    numerator_values: str = "product",
    denominator_values: str = "ones",
    scheme: str = "multiplicity",
    ppw_fallback: bool = False,
) -> float:
    """Ratio of two combined totals computed with unnormalised probabilities.

    The unknown constant 2R + rN cancels, so no size estimate is involved.
    Both totals share the same informative windows, which makes the
    node-motif case the classic ratio estimator of a population mean.
    """
    num_product, den_product = numerator_values == "product", denominator_values == "product"
    detect_mode = "product" if num_product or den_product else "ones"
    num = 0.0
    den = 0.0
    informative = 0
    for pi, pairs in _trace_pass(trace, provider, cfg, kind, scheme, detect_mode, ppw_fallback):
        if pi is None:
            continue
        if not informative:
            for mode in (numerator_values, denominator_values):
                motif_value(provider, (), mode)  # an empty product: checks the mode only
        informative += 1
        for value, w in pairs:
            num += w * (value if num_product else 1.0) / pi
            den += w * (value if den_product else 1.0) / pi
    if informative == 0:
        raise NoObservationsError(f"no window of the trace revealed any {kind.value}")
    if den == 0.0:
        raise EstimationError("denominator estimate is zero")
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

