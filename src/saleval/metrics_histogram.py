"""Histogram-domain metrics over map values at sampled points.

The shuffled histogram metrics compare the distribution of map values at
the true fixations against the distribution at cross-image negative
points: signed shuffled symmetric KLD (SSKLD), shuffled Jensen-Shannon
distance (SJSD), and shuffled Earth Mover's Distance (SEMD) built on a
mass-mismatch-penalized EMD with a saturated bin-index ground distance.

Every histogram here has B >= 2 equal-width bins over [0, 1], the last
one right-closed, so its bin count alone fixes its binning. Trials are
an array axis: the checked gather the trial metrics share
(metrics_fixation._trial_samples) gives a candidate map's (n,) values at
the n fixations and its (trials, n) values at the shuffled draws, one
negative per fixation. A single bincount bins them into (trials, bins)
masses, normalized by n, and SKLD and JSD reduce along the last axis;
jsd is the one-row case of the JSD kernel. SEMD still solves one exact
transport problem per trial (flow.py: a cheapest-first plan made optimal
by negative-cycle canceling). A generic-LP oracle cross-checks the
transport solver on small instances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .flow import min_cost_transport
from .maps import FixationSet
from .metrics_fixation import MetricScore, _row_counts, _snss_rows, _trial_samples
from .shuffle import ShuffleBank, TrialPlan, shuffled_draws

__all__ = [
    "SIGN_MODES",
    "GroundDistanceSpec",
    "ValueHistogram",
    "emd_brute_oracle",
    "emd_hat",
    "ground_distance_matrix",
    "jsd",
    "semd",
    "sjsd",
    "sskld",
]

# where SSKLD attaches the SNSS sign: to each trial, or once to the trial means
SIGN_MODES = ("per-trial", "aggregate")


@dataclass(frozen=True)
class ValueHistogram:
    """Binned distribution of sampled values over B equal-width bins of [0, 1].

    mass holds the per-bin frequencies divided by `normalizer` (the sample
    count the histogram is normalized against), so it sums to 1 when every
    sample both landed in range and counted toward the normalizer.
    """

    mass: np.ndarray
    normalizer: int

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.ndim != 1 or mass.size < 2:
            raise ValueError("mass must be 1-D with B >= 2 bins")
        values = mass.tolist()
        # min misses a nan that is not first, but the sum catches it, and any inf
        if not (min(values) >= 0 and math.isfinite(sum(values))):
            raise ValueError("bin masses must be finite and >= 0")
        if self.normalizer < 1:
            raise ValueError("normalizer must be >= 1")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def bins(self) -> int:
        return self.mass.size


@dataclass(frozen=True)
class GroundDistanceSpec:
    """Saturated absolute bin-index distance: d(i, j) = min(|i - j|, saturation)."""

    saturation: int = 5

    def __post_init__(self):
        if self.saturation < 1:
            raise ValueError("saturation must be >= 1")


@functools.lru_cache(maxsize=64)
def ground_distance_matrix(bins: int, d: GroundDistanceSpec) -> np.ndarray:
    """(bins, bins) unit costs d(i, j), built once per (bins, spec) and read-only."""
    idx = np.arange(bins)
    dist = np.minimum(np.abs(idx[:, None] - idx[None, :]), d.saturation).astype(np.float64)
    dist.setflags(write=False)
    return dist


def _value_masses(vals: np.ndarray, bins: int) -> np.ndarray:
    """Per-row bin counts of values in [0, 1] divided by the row length n.

    Uniform bins, the last one right-closed: (..., n) values give
    (..., bins) masses.
    """
    idx = np.minimum((vals * bins).astype(np.int64), bins - 1)
    return _row_counts(idx, bins) / vals.shape[-1]


def _check_same_binning(a: ValueHistogram, b: ValueHistogram) -> None:
    if a.bins != b.bins:
        raise ValueError("histograms must share the same binning")


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, not {epsilon!r}")


def _skld_rows(p: np.ndarray, q: np.ndarray, epsilon: float) -> np.ndarray:
    """Symmetric KLD between mass rows, natural log.

    epsilon is added to every bin of both rows, so empty bins neither
    divide by zero nor take log(0).
    """
    p = p + epsilon
    q = q + epsilon
    return 0.5 * np.sum((p - q) * np.log(p / q), axis=-1)


def _jsd_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Base-2 JSD between mass rows, each renormalized to sum 1; 0 * log 0 = 0."""
    pm, qm = np.broadcast_arrays(p / p.sum(axis=-1, keepdims=True), q / q.sum(axis=-1, keepdims=True))
    mid = 0.5 * (pm + qm)

    def _kld2(a: np.ndarray) -> np.ndarray:
        ratio = np.divide(a, mid, out=np.ones_like(a), where=a > 0)
        return np.sum(a * np.log2(ratio), axis=-1)

    return 0.5 * (_kld2(pm) + _kld2(qm))


def jsd(p: ValueHistogram, q: ValueHistogram) -> float:
    """Jensen-Shannon divergence with base-2 logs, bounded to [0, 1].

    Masses are renormalized to sum 1 internally; empty bins contribute
    nothing (the 0 * log 0 = 0 convention).
    """
    _check_same_binning(p, q)
    if p.mass.sum() == 0 or q.mass.sum() == 0:
        raise ValueError("histograms must have positive total mass")
    return float(_jsd_rows(p.mass, q.mass))


def emd_hat(h_source: ValueHistogram, h_sink: ValueHistogram, d: GroundDistanceSpec) -> float:
    """Earth Mover's Distance valid for unnormalized histograms.

    Minimum-cost transport of min(total masses) under the saturated
    bin-index ground distance, plus |total mass difference| * saturation
    as the mismatch penalty. The transport is solved exactly (flow.py).
    """
    _check_same_binning(h_source, h_sink)
    a = h_source.mass
    b = h_sink.mass
    # the saturated distance is a metric, so the in-place overlap ships at
    # zero cost in some optimal plan; solve only the residual
    overlap = np.minimum(a, b)
    sol = min_cost_transport(a - overlap, b - overlap, ground_distance_matrix(a.size, d))
    return sol.cost + abs(a.sum() - b.sum()) * d.saturation


def emd_brute_oracle(h1: ValueHistogram, h2: ValueHistogram, d: GroundDistanceSpec) -> float:
    """Independent exact reference for emd_hat via a generic LP formulation.

    Limited to small instances (<= 8 bins); intended for cross-validation,
    not production scoring.
    """
    from scipy.optimize import linprog

    _check_same_binning(h1, h2)
    bins = h1.bins
    if bins > 8:
        raise ValueError("oracle limited to 8 bins")
    a = h1.mass
    b = h2.mass
    c = ground_distance_matrix(bins, d).ravel()
    # f[i, j] flattened row-major; rows: sum_j f_ij <= a_i, cols: sum_i f_ij <= b_j
    row = np.zeros((bins, bins * bins))
    col = np.zeros((bins, bins * bins))
    for i in range(bins):
        row[i, i * bins : (i + 1) * bins] = 1.0
        col[i, i::bins] = 1.0
    total = min(a.sum(), b.sum())
    res = linprog(
        c,
        A_ub=np.vstack([row, col]),
        b_ub=np.concatenate([a, b]),
        A_eq=np.ones((1, bins * bins)),
        b_eq=[total],
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun) + abs(a.sum() - b.sum()) * d.saturation


def _shuffled_samples(s, fix: FixationSet, bank: ShuffleBank, plan: TrialPlan, metric_id: str):
    """The checked (n,) fixation values, (T, n) shuffled values and (mean, std) of a normalized map.

    Every shuffled histogram metric refuses a constant map, as SNSS does.
    """
    draw = functools.partial(shuffled_draws, bank, fix, metric_id, plan)
    return _trial_samples(s, fix, metric_id, draw, normalized=True, standardized=True)


def sskld(
    s,
    fix: FixationSet,
    bank: ShuffleBank,
    plan: TrialPlan,
    bins: int = 16,
    epsilon: float = 1e-12,
    sign_mode: str = "per-trial",
) -> MetricScore:
    """Signed shuffled symmetric KLD between fixated and negative values.

    The separation between the two value histograms is scored by symmetric
    KLD and signed by SNSS, so a map that puts its mass on the *wrong*
    pixels (e.g. an inverted map) goes negative instead of scoring as well
    as the original. sign_mode picks where the sign attaches: per trial
    (default) or once from the trial-mean SNSS.
    """
    if sign_mode not in SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {SIGN_MODES}")
    _check_epsilon(epsilon)
    pos, neg, (mu, sd) = _shuffled_samples(s, fix, bank, plan, "sskld")
    snss_vals = _snss_rows(pos, neg, mu, sd)
    skld_vals = _skld_rows(_value_masses(pos, bins), _value_masses(neg, bins), epsilon)
    if sign_mode == "per-trial":
        value = float(np.mean(np.sign(snss_vals) * skld_vals))
    else:
        value = float(np.sign(snss_vals.mean()) * skld_vals.mean())
    return MetricScore(value, "sskld", plan.num_trials)


def sjsd(s, fix: FixationSet, bank: ShuffleBank, plan: TrialPlan, bins: int = 16) -> MetricScore:
    """Shuffled Jensen-Shannon distance, a bounded [0, 1] score.

    sqrt(JSD) is a true distance (it satisfies the triangle inequality),
    which SKLD-style scores are not; higher is better. The score is the
    trial mean.
    """
    pos, neg, _ = _shuffled_samples(s, fix, bank, plan, "sjsd")
    vals = np.sqrt(_jsd_rows(_value_masses(pos, bins), _value_masses(neg, bins)))
    return MetricScore(float(vals.mean()), "sjsd", plan.num_trials)


def semd(
    s,
    fix: FixationSet,
    bank: ShuffleBank,
    plan: TrialPlan,
    bins: int = 16,
    d: GroundDistanceSpec = GroundDistanceSpec(),
) -> MetricScore:
    """Shuffled EMD: how far apart the fixated and negative value histograms sit.

    Unlike map-vs-map EMD (lower is better, and center-biased), this
    shuffled form rewards separation, so higher is better and center bias
    cancels through the negatives. The score is the trial mean of one
    emd_hat per trial.
    """
    pos, neg, _ = _shuffled_samples(s, fix, bank, plan, "semd")
    n = len(fix)
    h_pos = ValueHistogram(_value_masses(pos, bins), n)
    vals = np.array([emd_hat(h_pos, ValueHistogram(row, n), d) for row in _value_masses(neg, bins)])
    return MetricScore(float(vals.mean()), "semd", plan.num_trials)
