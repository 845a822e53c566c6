"""Histogram-domain metrics over map values at sampled points.

The shuffled histogram metrics compare the distribution of map values at
the true fixations against the distribution at cross-image negative
points: signed shuffled symmetric KLD (SSKLD), shuffled Jensen-Shannon
distance (SJSD), and shuffled Earth Mover's Distance (SEMD) built on a
mass-mismatch-penalized EMD with a saturated bin-index ground distance.

Every histogram here is a plain 1-D array of masses over B >= 2
equal-width bins of [0, 1], the last one right-closed, so its bin count
alone fixes its binning. Trials are an array axis: the checked gather
the trial metrics share (metrics_fixation._trial_samples) gives a
candidate map's (n,) values at the n fixations and its (trials, n)
values at the shuffled draws, one negative per fixation. A single
bincount bins them into (trials, bins) masses, normalized by n, and SKLD
and JSD reduce along the last axis; jsd is the one-row case of the JSD
kernel. SEMD still calls emd_hat once per trial, and each call solves
one exact transport problem under the ground distance
min(|i - j|, saturation) (flow.py: a 1-D dynamic program, exact because
that distance is a path metric with a hub). A generic-LP oracle
cross-checks it on small instances.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .flow import min_cost_transport
from .maps import FixationSet, _integer, _positive
from .metrics_fixation import MetricScore, _row_counts, _snss_rows, _trial_samples
from .shuffle import ShuffleBank, TrialPlan, shuffled_draws

__all__ = [
    "SIGN_MODES",
    "emd_brute_oracle",
    "emd_hat",
    "jsd",
    "semd",
    "sjsd",
    "sskld",
]

# where SSKLD attaches the SNSS sign: to each trial, or once to the trial means
SIGN_MODES = ("per-trial", "aggregate")


def _check_sign_mode(sign_mode: str) -> None:
    if sign_mode not in SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {SIGN_MODES}")


def _value_masses(vals: np.ndarray, bins: int) -> np.ndarray:
    """Per-row bin counts of values in [0, 1] divided by the row length n.

    Uniform bins, the last one right-closed: (..., n) values give
    (..., bins) masses.
    """
    idx = np.minimum((vals * bins).astype(np.int64), bins - 1)
    return _row_counts(idx, bins) / vals.shape[-1]


def _masses(p, q) -> tuple[np.ndarray, np.ndarray, list[float], list[float]]:
    """p and q as float64 bin masses of one binning: 1-D, B >= 2 bins, finite and >= 0.

    Returned as arrays and as the lists of Python floats that the check reads.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    lists = []
    for mass in (p, q):
        if mass.ndim != 1 or mass.size < 2:
            raise ValueError("masses must be 1-D with B >= 2 bins")
        values = mass.tolist()
        # min misses a nan that is not first, but the sum catches it, and any inf
        if not (min(values) >= 0 and math.isfinite(sum(values))):
            raise ValueError("bin masses must be finite and >= 0")
        lists.append(values)
    if p.size != q.size:
        raise ValueError("histograms must share the same binning")
    return p, q, *lists


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


def jsd(p, q) -> float:
    """Jensen-Shannon divergence with base-2 logs, bounded to [0, 1].

    p and q are the bin masses of one binning. They are renormalized to
    sum 1 internally; empty bins contribute nothing (the 0 * log 0 = 0
    convention).
    """
    p, q, _, _ = _masses(p, q)
    if p.sum() == 0 or q.sum() == 0:
        raise ValueError("histograms must have positive total mass")
    return float(_jsd_rows(p, q))


def emd_hat(a, b, saturation: int = 5) -> float:
    """Earth Mover's Distance valid for unnormalized histograms.

    a and b are the bin masses of one binning, and saturation an integer
    >= 1. Minimum-cost transport of min(total masses) under the ground
    distance min(|i - j|, saturation), plus |total mass difference| *
    saturation as the mismatch penalty. The transport is solved exactly
    by flow.py's dynamic program, which reads the masses as lists of
    Python floats.
    """
    # checked here: the solver checks neither the masses nor the saturation
    _, _, la, lb = _masses(a, b)
    saturation = _integer("saturation", saturation, 1)
    # summed in bin order, so zero bins padded at either end change no bit
    return min_cost_transport(la, lb, saturation) + abs(sum(la) - sum(lb)) * saturation


def _ground_distance(bins: int, saturation: int) -> np.ndarray:
    """(bins, bins) unit costs min(|i - j|, saturation)."""
    idx = np.arange(bins)
    return np.minimum(np.abs(idx[:, None] - idx[None, :]), saturation).astype(np.float64)


def emd_brute_oracle(a, b, saturation: int = 5) -> float:
    """Independent exact reference for emd_hat via a generic LP formulation.

    Limited to small instances (<= 8 bins); intended for cross-validation,
    not production scoring.
    """
    from scipy.optimize import linprog

    a, b, _, _ = _masses(a, b)
    saturation = _integer("saturation", saturation, 1)
    bins = a.size
    if bins > 8:
        raise ValueError("oracle limited to 8 bins")
    c = _ground_distance(bins, saturation).ravel()
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
    return float(res.fun) + abs(a.sum() - b.sum()) * saturation


def _shuffled_samples(s, fix: FixationSet, bank: ShuffleBank, plan: TrialPlan, metric_id: str, bins: int):
    """The checked (n,) fixation values, (T, n) shuffled values and (mean, std) of a normalized map.

    bins, the histograms' bin count, is checked first: an integer >= 2.
    Every shuffled histogram metric refuses a constant map, as SNSS does.
    """
    _integer("bins", bins, 2)
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
    _check_sign_mode(sign_mode)
    epsilon = _positive("epsilon", epsilon)
    pos, neg, (mu, sd) = _shuffled_samples(s, fix, bank, plan, "sskld", bins)
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
    pos, neg, _ = _shuffled_samples(s, fix, bank, plan, "sjsd", bins)
    vals = np.sqrt(_jsd_rows(_value_masses(pos, bins), _value_masses(neg, bins)))
    return MetricScore(float(vals.mean()), "sjsd", plan.num_trials)


def semd(
    s,
    fix: FixationSet,
    bank: ShuffleBank,
    plan: TrialPlan,
    bins: int = 16,
    saturation: int = 5,
) -> MetricScore:
    """Shuffled EMD: how far apart the fixated and negative value histograms sit.

    Unlike map-vs-map EMD (lower is better, and center-biased), this
    shuffled form rewards separation, so higher is better and center bias
    cancels through the negatives. The score is the trial mean of one
    emd_hat per trial, under the ground distance min(|i - j|, saturation).
    """
    saturation = _integer("saturation", saturation, 1)  # before the map can be found degenerate
    pos, neg, _ = _shuffled_samples(s, fix, bank, plan, "semd", bins)
    p = _value_masses(pos, bins)
    vals = np.array([emd_hat(p, q, saturation) for q in _value_masses(neg, bins)])
    return MetricScore(float(vals.mean()), "semd", plan.num_trials)
