"""Metrics driven by fixation points or a ground-truth density map.

Covers the classic map-vs-map scores (CC, SIM), the point-based scores
(NSS and its shuffled form SNSS), and the ROC family (AUC over uniform
negatives, AUC over a binarized density map, shuffled AUC), plus an exact
pair-counting AUC oracle used to validate the threshold-grid integrator.
The trial metrics score all trials of a candidate map at once: one
gather from the (trials, n, 2) tensor of an (image, metric)'s negative
draws (shuffle.shuffled_draws, shuffle.uniform_draws) gives a (trials, n)
array of map values; roc_from_samples is the one-row case of the same
threshold-grid kernel. Each metric prepares its maps (maps.prepare), so
a map's statistics and the density map's derived data are computed once
per map, whichever metric asks first.

SIM and AUC-S both count a map's values against fixed edges, so both read
one ascending sort of it, kept with the map: SIM's histogram is the gaps
between the bin edges' positions in that sort, AUC-S's salient counts are
the thresholds' positions in it. CC computes np.corrcoef's steps itself,
from the maps' kept means, so neither map is copied and centred twice.
All three give the same bits as np.histogram and np.corrcoef.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .maps import FixationSet, PreparedMap, prepare, values_at
from .shuffle import ShuffleBank, TrialPlan, shuffled_draws, uniform_draws

__all__ = [
    "MetricScore",
    "RocCurve",
    "auc_f",
    "auc_of_curve",
    "auc_pair_oracle",
    "auc_s",
    "cc",
    "nss",
    "nss_at_points",
    "roc_from_samples",
    "sauc",
    "sim",
    "snss",
    "snss_trials",
]


@dataclass(frozen=True)
class MetricScore:
    """A metric value plus how it was obtained."""

    value: float
    metric_id: str
    trials_used: int = 1


@dataclass(frozen=True)
class RocCurve:
    """TPR/FPR at descending thresholds over [0, 1]."""

    thresholds: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray


def _check_shapes(s: PreparedMap, g: PreparedMap) -> None:
    if s.shape != g.shape:
        raise ValueError(f"map dimensions differ: {s.shape} vs {g.shape}")


def _check_frame(s: PreparedMap, fix: FixationSet) -> None:
    w, h = fix.frame
    if s.shape != (h, w):
        raise ValueError(f"map shape {s.shape} does not match fixation frame {w}x{h}")


def _check_in_frame(s: PreparedMap, points) -> np.ndarray:
    """The (x, y) points as an array, refused if one lies outside the map."""
    pts = np.asarray(points)
    h, w = s.shape
    if pts.size and (pts.min() < 0 or (pts[:, 0] >= w).any() or (pts[:, 1] >= h).any()):
        raise ValueError(f"points outside the {w}x{h} map")
    return pts


def _mean_std(s: PreparedMap, metric_id: str) -> tuple[float, float]:
    # constancy checked on the value range: std() of a constant array can
    # come out as ~1e-17 instead of 0
    if s.peak == s.floor:
        raise DegenerateInputError(f"zero-variance map in {metric_id}")
    return s.mean, s.std


def cc(s, g) -> float:
    """Pearson correlation between a predicted map and a density map.

    Invariant under positive affine transforms of either map. Raises
    DegenerateInputError when either map has zero variance; callers report
    a missing score rather than a fake 0. The arithmetic is np.corrcoef's,
    step by step (centre both maps on their means in one (2, N) buffer,
    X @ X.T, scale by 1 / (N - 1), divide by the diagonal's square roots on
    both axes), with the kept means in place of its row means, which are
    the same sums; the result is bit-identical.
    """
    s = prepare(s)
    g = prepare(g)
    _check_shapes(s, g)
    mu_s, _ = _mean_std(s, "cc")
    mu_g, _ = _mean_std(g, "cc")
    x = np.empty((2, s.size))
    np.subtract(s.values.ravel(), mu_s, out=x[0])
    np.subtract(g.values.ravel(), mu_g, out=x[1])
    c = np.dot(x, x.T)
    c *= np.true_divide(1, s.size - 1)
    sd = np.sqrt(np.diag(c))
    c /= sd[:, None]
    c /= sd[None, :]
    return float(np.clip(c[0, 1], -1.0, 1.0))


def sim(s, g, bins: int = 256) -> float:
    """Histogram intersection between the two maps' intensity histograms.

    Both maps are binned over [0, 1] and the histograms mass-normalized, so
    the score lies in [0, 1] with 1 for identical histograms; values above
    1 fall in no bin. s is binned from its kept ascending sort, which
    AUC-S reads too. g's histogram is kept with g (its sort is not), so
    scoring many maps against one prepared density map bins it once.
    """
    s = prepare(s)
    g = prepare(g)
    _check_shapes(s, g)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    hg = g.derived(("sim", bins), lambda m: _sim_masses(np.sort(m.values, axis=None), bins))
    return float(np.minimum(_sim_masses(_ascending(s), bins), hg).sum())


def _ascending(m: PreparedMap) -> np.ndarray:
    """m's values sorted ascending, read-only and kept with m."""

    def compute(p: PreparedMap) -> np.ndarray:
        a = np.sort(p.values, axis=None)
        a.setflags(write=False)
        return a

    return m.derived("ascending", compute)


def _sim_masses(ascending: np.ndarray, bins: int) -> np.ndarray:
    """The histogram over [0, 1] of ascending values, divided by their count.

    Exactly np.histogram's counts: bin i holds edges[i] <= v < edges[i + 1]
    and the last bin also holds v == 1, so each count is the gap between
    two edges' positions in the sorted values.
    """
    at = np.searchsorted(ascending, np.linspace(0.0, 1.0, bins + 1), side="left")
    at[-1] = np.searchsorted(ascending, 1.0, side="right")
    return np.diff(at) / ascending.size


def nss_at_points(s, points) -> float:
    """Mean standardized map value at the given (x, y) points, all inside the map."""
    s = prepare(s)
    pts = _check_in_frame(s, points)
    mu, sd = _mean_std(s, "nss")
    return float((values_at(s.values, pts).mean() - mu) / sd)


def nss(s, fix: FixationSet) -> float:
    """Normalized scanpath saliency: standardized map values at fixations."""
    s = prepare(s)
    _check_frame(s, fix)
    return nss_at_points(s, fix.points)


def _trial_values(s: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """(T, n) map values at a (T, n, 2) tensor of (x, y) points, one row per trial."""
    return s.take(draws[..., 1] * s.shape[1] + draws[..., 0])


def _snss_rows(pos_vals: np.ndarray, neg_vals: np.ndarray, mu: float, sd: float) -> np.ndarray:
    """NSS at the positive values minus NSS along each row of negative values."""
    return (pos_vals.mean() - mu) / sd - (neg_vals.mean(axis=-1) - mu) / sd


def snss_trials(s, fix: FixationSet, bank: ShuffleBank, plan: TrialPlan) -> np.ndarray:
    """Per-trial NSS(fixations) - NSS(shuffled negatives)."""
    s = prepare(s)
    _check_frame(s, fix)
    mu, sd = _mean_std(s, "snss")
    neg = _trial_values(s.values, shuffled_draws(bank, fix, "snss", plan))
    return _snss_rows(values_at(s.values, fix.points), neg, mu, sd)


def snss(s, fix: FixationSet, bank: ShuffleBank, plan: TrialPlan) -> MetricScore:
    """Shuffled NSS: NSS at fixations minus NSS at cross-image negatives.

    Negatives are drawn from the pooled fixations of the other images, one
    sample per trial; the score is the trial mean. Positive means the map
    separates this image's fixations from the dataset-wide fixation
    distribution, so center bias alone scores near 0.
    """
    vals = snss_trials(s, fix, bank, plan)
    return MetricScore(float(vals.mean()), "snss", plan.num_trials)


def _row_counts(idx: np.ndarray, k: int) -> np.ndarray:
    """Per-row counts of the integers 0..k-1: one bincount over row * k + idx."""
    rows = idx.reshape(-1, idx.shape[-1])
    r = rows.shape[0]
    counts = np.bincount((rows + k * np.arange(r)[:, None]).ravel(), minlength=r * k)
    return counts.reshape(idx.shape[:-1] + (k,))


def _rates(vals: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Share of each row's values that are >= each threshold of a descending grid.

    One searchsorted of every value into the grid gives the first threshold
    it reaches; counts per row and a cumulative sum along the grid give how
    many values reach each threshold. (..., n) values give (..., levels).
    """
    levels = thresholds.size
    n = vals.shape[-1]
    first = levels - np.searchsorted(thresholds[::-1], vals, side="right")
    count = np.cumsum(_row_counts(first, levels + 1)[..., :levels], axis=-1)
    return 1.0 - (n - count) / n


def roc_from_samples(pos_values, neg_values, levels: int = 256) -> RocCurve:
    """ROC over a descending threshold grid on [0, 1].

    A sample counts as salient when its value is >= the threshold; the
    convention applies to positives and negatives alike, so ties contribute
    symmetrically and all-equal inputs land on the chance diagonal.
    """
    pos = np.asarray(pos_values, dtype=np.float64)
    neg = np.asarray(neg_values, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative value")
    if min(pos.min(), neg.min()) < 0 or max(pos.max(), neg.max()) > 1:
        raise ValueError("sample values must lie in [0, 1]")
    if levels < 2:
        raise ValueError("levels must be >= 2")
    thresholds = np.linspace(1.0, 0.0, levels)
    tpr = _rates(pos.ravel(), thresholds)
    fpr = _rates(neg.ravel(), thresholds)
    return RocCurve(thresholds=thresholds, tpr=tpr, fpr=fpr)


def _auc_rows(tpr: np.ndarray, fpr: np.ndarray) -> np.ndarray:
    """Trapezoidal area under each ROC row, anchored at (0,0) and (1,1)."""
    tpr, fpr = np.broadcast_arrays(tpr, fpr)
    edge = np.zeros(tpr.shape[:-1] + (1,))
    y = np.concatenate((edge, tpr, edge + 1.0), axis=-1)
    x = np.concatenate((edge, fpr, edge + 1.0), axis=-1)
    return np.trapezoid(y, x, axis=-1)


def auc_of_curve(curve: RocCurve) -> float:
    """Trapezoidal area under an ROC curve, anchored at (0,0) and (1,1)."""
    return float(_auc_rows(curve.tpr, curve.fpr))


def auc_pair_oracle(pos_values, neg_values) -> float:
    """Exact AUC by exhaustive pair counting: P(pos > neg) + P(pos = neg)/2."""
    pos = np.asarray(pos_values, dtype=np.float64).ravel()
    neg = np.asarray(neg_values, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative value")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def _trial_mean_auc(s, fix: FixationSet, plan: TrialPlan, metric_id, draw) -> MetricScore:
    # draw() gives the (T, n, 2) negatives once the map is checked; only their source differs
    s = prepare(s)
    _check_frame(s, fix)
    if s.peak > 1.0:
        raise ValueError(f"{metric_id} expects a normalized map")
    thresholds = np.linspace(1.0, 0.0, 256)
    tpr = _rates(values_at(s.values, fix.points), thresholds)
    fpr = _rates(_trial_values(s.values, draw()), thresholds)
    return MetricScore(float(_auc_rows(tpr, fpr).mean()), metric_id, plan.num_trials)


def auc_f(s, fix: FixationSet, plan: TrialPlan) -> MetricScore:
    """AUC with uniform-random non-fixated negatives, averaged over trials.

    One negative per fixation, resampled each trial. A constant map gives
    exactly 0.5 by the tie convention; that is a valid score, not an error.
    """
    return _trial_mean_auc(s, fix, plan, "auc_f", lambda: uniform_draws(fix, "auc_f", plan))


def sauc(s, fix: FixationSet, bank: ShuffleBank, plan: TrialPlan) -> MetricScore:
    """Shuffled AUC: negatives drawn from other images' fixations.

    Because the negatives inherit the dataset's spatial bias, a centered
    blob scores near chance instead of profiting from center bias.
    """
    return _trial_mean_auc(s, fix, plan, "sauc", lambda: shuffled_draws(bank, fix, "sauc", plan))


def auc_s(s, g, levels: int = 256) -> float:
    """AUC against the density map binarized at half its standard deviation.

    The density map g is thresholded once at T = 0.5 * std(g); the
    prediction is swept over the threshold grid and the ROC integrated by
    trapezoid. Raises DegenerateInputError when the binarization has no
    positives or no negatives, and ValueError for fewer than 2 levels. The
    flat indices of g's positives are kept with g, so scoring many maps
    against one prepared density map thresholds it once. The salient
    counts are the thresholds' positions in two ascending sorts: s's kept
    sort (shared with SIM) and a sort of s at g's positives.
    """
    s = prepare(s)
    g = prepare(g)
    _check_shapes(s, g)
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if g.peak == 0:
        raise DegenerateInputError("all-zero ground truth in auc_s")
    positives = g.derived("auc_s", _positives)
    n_pos = positives.size
    if n_pos == 0:
        raise DegenerateInputError("no ground-truth pixel above threshold in auc_s")
    if n_pos == g.size:
        raise DegenerateInputError("ground-truth binarization has no negatives in auc_s")
    if s.peak > 1.0:
        raise ValueError("auc_s expects a normalized map")
    thresholds = np.linspace(1.0, 0.0, levels)
    inside = np.sort(np.take(s.values, positives))
    everything = _ascending(s)
    n_hit = n_pos - np.searchsorted(inside, thresholds, side="left")
    n_sal = s.size - np.searchsorted(everything, thresholds, side="left")
    tpr = n_hit / n_pos
    fpr = (n_sal - n_hit) / (s.size - n_pos)
    return auc_of_curve(RocCurve(thresholds=thresholds, tpr=tpr, fpr=fpr))


def _positives(g: PreparedMap) -> np.ndarray:
    """auc_s's positives: the flat indices where g is at or above half its standard deviation."""
    idx = np.flatnonzero(g.values >= 0.5 * g.std)
    idx.setflags(write=False)
    return idx
