"""Metrics driven by fixation points or a ground-truth density map.

Covers the classic map-vs-map scores (CC, SIM), the point-based scores
(NSS and its shuffled form SNSS), and the ROC family (AUC over uniform
negatives, AUC over a binarized density map, shuffled AUC), plus an exact
pair-counting AUC oracle that gates the grid-AUC kernel. Six metrics are
Monte Carlo means over seeded trials: sauc, snss and auc_f here, sskld,
sjsd and semd in metrics_histogram. Each scores all trials of a candidate
map at once through one checked gather, _trial_samples: it checks the map,
then gathers the (n,) values at the n fixations and the (trials, n) values
at the (trials, n, 2) tensor of an (image, metric)'s negative draws
(shuffle.shuffled_draws, shuffle.uniform_draws), one negative per fixation.
A row kernel turns those into one value per trial, and the score is their
mean. Each metric prepares its maps (maps.prepare), so a map's statistics
and the density map's derived data are computed once per map, whichever
metric asks first.

The three ROC metrics share one exact kernel. On a threshold grid with the
>= rule, the area under the ROC is pair counting in which values that reach
the same thresholds tie: each value is bucketed by how many thresholds it
reaches, and the area is an int64 sum over the buckets' positive and
negative counts, divided once. sauc and auc_f bucket their values from an
index guess into the grid (_grid_buckets); auc_s reads its bucket counts
from two sorts.

SIM and AUC-S both count a map's values against fixed edges, so both read
one ascending sort of it, kept with the map: SIM's histogram is the gaps
between the bin edges' positions in that sort, AUC-S's bucket counts the
gaps between the thresholds' positions in it. SIM gives the same bits as
np.histogram. CC keeps only the density map's centred sum of squares (a
float) with it, so a prepared density map holds no full-size array for CC;
each candidate's two dot products are taken over cache-sized row blocks of
both maps, each block centred as it is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .maps import FixationSet, PreparedMap, _integer, prepare, values_at
from .shuffle import ShuffleBank, TrialPlan, shuffled_draws, uniform_draws

__all__ = [
    "MetricScore",
    "auc_f",
    "auc_pair_oracle",
    "auc_s",
    "cc",
    "nss",
    "sauc",
    "sim",
    "snss",
]


@dataclass(frozen=True)
class MetricScore:
    """A metric value plus how it was obtained."""

    value: float
    metric_id: str
    trials_used: int = 1


def _check_shapes(s: PreparedMap, g: PreparedMap) -> None:
    if s.shape != g.shape:
        raise ValueError(f"map dimensions differ: {s.shape} vs {g.shape}")


def _check_frame(s: PreparedMap, fix: FixationSet) -> None:
    w, h = fix.frame
    if s.shape != (h, w):
        raise ValueError(f"map shape {s.shape} does not match fixation frame {w}x{h}")


# the smallest normal float64: a square below it has lost digits to underflow
_TINY = float(np.finfo(np.float64).tiny)


def _check_square(square: float, what: str, metric_id: str) -> None:
    """Refuse a variance-like square outside float64's normal range."""
    if square < _TINY:
        raise DegenerateInputError(f"{what} underflows float64 in {metric_id}")
    if not math.isfinite(square):
        raise DegenerateInputError(f"{what} overflows float64 in {metric_id}")


def _mean_std(s: PreparedMap, metric_id: str) -> tuple[float, float]:
    # constancy checked on the value range: std() of a constant array can
    # come out as ~1e-17 instead of 0
    if s.peak == s.floor:
        raise DegenerateInputError(f"zero-variance map in {metric_id}")
    sd = s.std
    _check_square(sd * sd, "map variance", metric_id)
    return s.mean, sd


def cc(s, g) -> float:
    """Pearson correlation between a predicted map and a density map.

    Invariant under positive affine transforms of either map. Raises
    DegenerateInputError when either map is constant or its variance
    leaves float64's normal range, or when the squared denominator does;
    callers report a missing score rather than a fake value. The score is
    sc.gc / sqrt(sc.sc * gg), clipped to [-1, 1], where sc and gc are the
    maps less their kept means. Only gg, g's centred sum of squares, is
    kept with g, so scoring many maps against one prepared density map
    sums it once; sc.sc and sc.gc are taken in one pass over row blocks
    (_centred_dots), so no full-size centred copy of either map is made.
    """
    s = prepare(s)
    g = prepare(g)
    _check_shapes(s, g)
    _mean_std(s, "cc")
    _mean_std(g, "cc")
    gg = g.derived("cc", lambda m: _centred_dots(m, m)[0])
    ss, sg = _centred_dots(s, g)
    denom_sq = ss * gg
    _check_square(denom_sq, "denominator", "cc")
    return min(max(sg / math.sqrt(denom_sq), -1.0), 1.0)


# values per row block of _centred_dots: 32 rows of a 768-wide map, so a
# centred block of each map (192 kB each) stays in cache between the two
# dot products. On 768x512 maps (2-core x86-64 host, numpy 2.4.6), cc took
# 0.59 ms with 32-row blocks, 0.73 / 0.66 / 0.81 ms with 16 / 64 / 128 rows,
# and 0.68 ms centring both maps whole.
_BLOCK_VALUES = 32 * 768


def _centred_dots(a: PreparedMap, b: PreparedMap) -> tuple[float, float]:
    """(ac.ac, ac.bc) for a and b less their kept means, ac and bc centred a row block at a time.

    Each row's dot product is one BLAS dot (np.vecdot), and the row values
    are summed pairwise at the end, so the blocks give the bits the whole
    centred maps would. On 768x512 density maps and their candidates, one
    np.dot over the raveled maps strayed up to 1.8e-13 from the exact
    value, and its rounding changed with the BLAS thread count; row by row
    it stayed within 1.1e-16 and gave the same bits at one and two threads.
    """
    rows, cols = a.shape
    aa = np.empty(rows)
    ab = np.empty(rows)
    step = max(1, _BLOCK_VALUES // cols)
    for lo in range(0, rows, step):
        block = slice(lo, lo + step)
        ac = a.values[block] - a.mean
        bc = ac if b is a else b.values[block] - b.mean
        np.vecdot(ac, ac, out=aa[block])
        np.vecdot(ac, bc, out=ab[block])
    return float(aa.sum()), float(ab.sum())


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
    bins = _integer("bins", bins, 2)
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


def nss(s, fix: FixationSet) -> float:
    """Normalized scanpath saliency: the mean standardized map value at the fixations."""
    s = prepare(s)
    _check_frame(s, fix)
    mu, sd = _mean_std(s, "nss")
    return float((values_at(s.values, fix.points).mean() - mu) / sd)


def _trial_samples(s, fix: FixationSet, metric_id: str, draw, normalized: bool, standardized: bool):
    """A trial metric's checked inputs: (fixation values, negative values, stats).

    Prepares the map and checks it against the fixations' frame. When
    normalized, a peak above 1 raises ValueError; when standardized, a
    constant map or one whose variance leaves float64's normal range
    raises DegenerateInputError, and stats is the map's (mean, std), else
    None. Only after every check does it call draw() for the (T, n, 2)
    negative points, so a refused map derives no trial seeds.
    Returns the (n,) values at the fixations and the (T, n) values at the
    negatives, one row per trial.
    """
    s = prepare(s)
    _check_frame(s, fix)
    if normalized and s.peak > 1.0:
        raise ValueError(f"{metric_id} expects a normalized map")
    stats = _mean_std(s, metric_id) if standardized else None
    draws = draw()
    neg = s.values.take(draws[..., 1] * s.shape[1] + draws[..., 0])
    return values_at(s.values, fix.points), neg, stats


def _snss_rows(pos_vals: np.ndarray, neg_vals: np.ndarray, mu: float, sd: float) -> np.ndarray:
    """NSS at the positive values minus NSS along each row of negative values."""
    return (pos_vals.mean() - mu) / sd - (neg_vals.mean(axis=-1) - mu) / sd


def snss(s, fix: FixationSet, bank: ShuffleBank, plan: TrialPlan) -> MetricScore:
    """Shuffled NSS: NSS at fixations minus NSS at cross-image negatives.

    Negatives are drawn from the pooled fixations of the other images, one
    per fixation in each trial; the score is the trial mean. Positive means
    the map separates this image's fixations from the dataset-wide fixation
    distribution, so center bias alone scores near 0. The map need not be
    normalized.
    """
    draw = functools.partial(shuffled_draws, bank, fix, "snss", plan)
    pos, neg, (mu, sd) = _trial_samples(s, fix, "snss", draw, normalized=False, standardized=True)
    return MetricScore(float(_snss_rows(pos, neg, mu, sd).mean()), "snss", plan.num_trials)


def _row_counts(idx: np.ndarray, k: int) -> np.ndarray:
    """Per-row counts of the integers 0..k-1: one bincount over row * k + idx."""
    rows = idx.reshape(-1, idx.shape[-1])
    r = rows.shape[0]
    counts = np.bincount((rows + k * np.arange(r)[:, None]).ravel(), minlength=r * k)
    return counts.reshape(idx.shape[:-1] + (k,))


# the ascending 256-level threshold grid the ROC metrics bucket values
# into: the descending np.linspace(1, 0, 256) reversed, not rebuilt, since
# np.linspace(0, 1, 256) differs from it by an ulp at 88 levels, which would
# move values between buckets. _GRID_NEXT[k] is the level after _GRID[k],
# and +inf after the last.
_GRID = np.linspace(1.0, 0.0, 256)[::-1].copy()
_GRID.setflags(write=False)
_GRID_NEXT = np.append(_GRID[1:], np.inf)


def _grid_buckets(vals: np.ndarray) -> np.ndarray:
    """np.searchsorted(_GRID, vals, side="right") for values in [0, 1], without a search.

    _GRID[k] is k / 255 to within rounding, so for k = floor(255 * v) the
    levels below k are at or below v and those above k + 1 are above it;
    two comparisons count levels k and k + 1.
    """
    k = (vals * (_GRID.size - 1)).astype(np.intp)
    return k + (_GRID.take(k) <= vals) + (_GRID_NEXT.take(k) <= vals)


def _grid_auc(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Exact area under each row's grid ROC, from per-bucket counts.

    pos and neg hold integer counts of positives and negatives per bucket,
    buckets in ascending value order, one row per ROC (they broadcast). On
    a threshold grid with the >= rule, values that reach the same thresholds
    fall in one bucket and tie, so the area under the grid ROC, its points
    joined by straight lines, is pair counting over buckets:
    sum_b neg_b * (2 * pos_above_b + pos_b) / (2 * P * N), with pos_above_b
    the positives in higher buckets. The sums are int64 and exact, and the
    one division rounds once.
    """
    p = pos.sum(axis=-1)
    n = neg.sum(axis=-1)
    above = p[..., None] - np.cumsum(pos, axis=-1)
    wins = (neg * (2 * above + pos)).sum(axis=-1)
    return wins / (2 * p * n)


def _sample_auc_rows(pos_vals: np.ndarray, neg_vals: np.ndarray) -> np.ndarray:
    """Grid AUC of the (n,) positive values against each row of (..., m) negative values.

    A value's bucket is how many thresholds of _GRID it reaches
    (_grid_buckets), then per-row counts.
    """
    k = _GRID.size + 1
    pos = _row_counts(_grid_buckets(pos_vals), k)
    neg = _row_counts(_grid_buckets(neg_vals), k)
    return _grid_auc(pos, neg)


def auc_pair_oracle(pos_values, neg_values) -> float:
    """Exact AUC by exhaustive pair counting: P(pos > neg) + P(pos = neg)/2."""
    pos = np.asarray(pos_values, dtype=np.float64).ravel()
    neg = np.asarray(neg_values, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative value")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def auc_f(s, fix: FixationSet, plan: TrialPlan) -> MetricScore:
    """AUC with uniform-random non-fixated negatives, averaged over trials.

    One negative per fixation, resampled each trial. Each trial's area is
    the exact grid AUC (_grid_auc) of the fixation values against that
    trial's negatives, all trials bucketed at once. A constant map gives
    exactly 0.5 by the tie convention; that is a valid score, not an error.
    """
    draw = functools.partial(uniform_draws, fix, "auc_f", plan)
    pos, neg, _ = _trial_samples(s, fix, "auc_f", draw, normalized=True, standardized=False)
    return MetricScore(float(_sample_auc_rows(pos, neg).mean()), "auc_f", plan.num_trials)


def sauc(s, fix: FixationSet, bank: ShuffleBank, plan: TrialPlan) -> MetricScore:
    """Shuffled AUC: negatives drawn from other images' fixations.

    Because the negatives inherit the dataset's spatial bias, a centered
    blob scores near chance instead of profiting from center bias. Each
    trial's area is the exact grid AUC (_grid_auc) of the fixation values
    against that trial's negatives, and the score is the trial mean.
    """
    draw = functools.partial(shuffled_draws, bank, fix, "sauc", plan)
    pos, neg, _ = _trial_samples(s, fix, "sauc", draw, normalized=True, standardized=False)
    return MetricScore(float(_sample_auc_rows(pos, neg).mean()), "sauc", plan.num_trials)


def auc_s(s, g) -> float:
    """AUC against the density map binarized at half its standard deviation.

    The density map g is thresholded once at T = 0.5 * std(g); the
    prediction is swept over the threshold grid and the area under the ROC
    is the exact grid AUC (_grid_auc). Raises DegenerateInputError when the
    binarization has no positives or no negatives. The flat indices of g's positives are kept with g, so
    scoring many maps against one prepared density map thresholds it once.
    The bucket counts are the differences between the thresholds' positions
    in two ascending sorts: s's kept sort (shared with SIM) and a sort of s
    at g's positives. Bucketing every pixel through the grid instead
    measured slower than the two sorts on 768x512 maps.
    """
    s = prepare(s)
    g = prepare(g)
    _check_shapes(s, g)
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
    # values below each threshold, inside g's positives and over the whole map
    below_hit = np.searchsorted(np.sort(np.take(s.values, positives)), _GRID, side="left")
    below_all = np.searchsorted(_ascending(s), _GRID, side="left")
    pos = np.diff(below_hit, prepend=0, append=n_pos)
    neg = np.diff(below_all - below_hit, prepend=0, append=s.size - n_pos)
    return float(_grid_auc(pos, neg))


def _positives(g: PreparedMap) -> np.ndarray:
    """auc_s's positives: the flat indices where g is at or above half its standard deviation."""
    idx = np.flatnonzero(g.values >= 0.5 * g.std)
    idx.setflags(write=False)
    return idx
