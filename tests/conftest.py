import functools

import numpy as np
import pytest

from saleval.maps import FixationSet
from saleval.metrics_fixation import _sample_auc_rows, _snss_rows, _trial_samples
from saleval.metrics_histogram import _jsd_rows, _skld_rows, _value_masses, emd_hat
from saleval.shuffle import build_shuffle_bank, shuffled_draws, uniform_draws


@pytest.fixture
def tie_case():
    """A map whose values sit exactly on the ROC grid, on bin edges and at 1.0.

    Values come from k/255, the 256-level threshold grid itself, the edges
    k/16 (which include every k/8) and 1.0, so every threshold and bin
    boundary tie the batched kernels must break is hit. Returns the map,
    the fixations of image "a" and a three-image shuffle bank.
    """
    rng = np.random.default_rng(21)
    frame = (32, 24)
    ties = np.concatenate(
        (np.arange(256) / 255, np.linspace(1.0, 0.0, 256), np.arange(17) / 16, [1.0])
    )
    s = rng.choice(ties, size=(frame[1], frame[0]))
    sets = [
        FixationSet(name, np.column_stack((rng.integers(0, 32, k), rng.integers(0, 24, k))), frame)
        for name, k in (("a", 15), ("b", 9), ("c", 12))
    ]
    fix = sets[0]
    s[fix.points[:4, 1], fix.points[:4, 0]] = 1.0
    return s, fix, build_shuffle_bank(sets, frame)


@pytest.fixture
def sized_tie_case(tie_case):
    """tie_case with image a's fixations redrawn as `count` points; None keeps its 15.

    The trial metrics draw one negative per fixation, so this is how a test
    varies the number of negatives per trial. Returns a function of count.
    """

    def resize(count):
        s, fix, bank = tie_case
        if count is None:
            return tie_case
        rng = np.random.default_rng(count)
        w, h = fix.frame
        pts = np.column_stack((rng.integers(0, w, count), rng.integers(0, h, count)))
        fix = FixationSet("a", pts, fix.frame)
        s = s.copy()
        s[pts[:4, 1], pts[:4, 0]] = 1.0
        others = [FixationSet(i, bank.entries[i], fix.frame) for i in sorted(bank.entries) if i != "a"]
        return s, fix, build_shuffle_bank([fix, *others], fix.frame)

    return resize


@pytest.fixture
def trial_rows():
    """_trial_rows: a seeded metric's per-trial values through its private kernels."""
    return _trial_rows


def _trial_rows(metric_id, s, fix, bank, plan, bins=16, epsilon=1e-12, saturation=5):
    """(T,) per-trial values of a seeded metric: its checked gather, then its row kernel.

    The metric's score is the mean of these rows (SSKLD's under the default
    per-trial sign mode).
    """
    if metric_id == "auc_f":
        draw = functools.partial(uniform_draws, fix, metric_id, plan)
    else:
        draw = functools.partial(shuffled_draws, bank, fix, metric_id, plan)
    is_auc = metric_id in ("sauc", "auc_f")
    pos, neg, stats = _trial_samples(
        s, fix, metric_id, draw, normalized=metric_id != "snss", standardized=not is_auc
    )
    if is_auc:
        return _sample_auc_rows(pos, neg)
    if metric_id == "snss":
        return _snss_rows(pos, neg, *stats)
    p, q = _value_masses(pos, bins), _value_masses(neg, bins)
    if metric_id == "sskld":
        return np.sign(_snss_rows(pos, neg, *stats)) * _skld_rows(p, q, epsilon)
    if metric_id == "sjsd":
        return np.sqrt(_jsd_rows(p, q))
    return np.array([emd_hat(p, row, saturation) for row in q])
