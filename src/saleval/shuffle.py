"""Seeded negative-point sampling for the shuffled metrics.

Every sampling call is a pure function of its inputs plus a 64-bit seed;
the generator is numpy's PCG64. Per-trial seeds derive from a stable hash
over (master_seed, image_id, metric_id, trial_index), so any run can be
replayed bit-for-bit from the recorded plan. A draw is a plain (n, 2)
int64 array of (x, y) points; the trial generators yield one per trial,
in trial order. Because a draw depends only on its seed and its source
(the pool size, or the frame and the fixated pixels) and n, it is
memoized: scoring the same image again under another model or blur
level reuses it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .maps import FixationSet

__all__ = [
    "RNG_ALGORITHM",
    "SEED_DERIVATION",
    "ShuffleBank",
    "TrialPlan",
    "build_shuffle_bank",
    "derive_trial_seed",
    "pooled_fixations",
    "sample_shuffled_nonfixated",
    "sample_uniform_nonfixated",
    "shuffled_negative_trials",
    "uniform_negative_trials",
]

RNG_ALGORITHM = "numpy-PCG64"
SEED_DERIVATION = "blake2b64('saleval-trial-v1|<master_seed>|<image_id>|<metric_id>|<trial>')"


def derive_trial_seed(master_seed: int, image_id: str, metric_id: str, trial_index: int) -> int:
    """Stable 64-bit trial seed; the derivation is part of the report contract."""
    key = f"saleval-trial-v1|{master_seed}|{image_id}|{metric_id}|{trial_index}"
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# Draws depend only on their seed, source and n, not on the model or the blur
# level being scored, so one image's draws are made once and reused. The
# protocol scores one blur candidate with every metric before it blurs the
# next, so the working set is one candidate's draws: trials x each shuffled
# metric for the shuffled cache (5 x 100 at the default 100 trials) and
# trials for auc_f's uniform cache. The trial generators grow both caches to
# _DRAWS_PER_TRIAL entries per trial of their plan (one more than the five
# shuffled metrics need), so that working set fits at any trial count; a
# cache never shrinks, and one that grows starts empty.
# Batches run image by image, so an image's draws stay cached while its pairs
# are scored.
_DRAWS_PER_TRIAL = 6


def _fit_draw_caches(trials: int) -> None:
    """Grow both draw caches to hold one candidate's draws at this trial count."""
    global _shuffled_indices, _uniform_points
    size = _DRAWS_PER_TRIAL * trials
    if size > _shuffled_indices.cache_info().maxsize:
        _shuffled_indices = functools.lru_cache(maxsize=size)(_shuffled_indices.__wrapped__)
        _uniform_points = functools.lru_cache(maxsize=size)(_uniform_points.__wrapped__)


@functools.lru_cache(maxsize=_DRAWS_PER_TRIAL * 100)  # the default plan's trials
def _shuffled_indices(seed: int, pool_size: int, n: int) -> np.ndarray:
    """n i.i.d. pool indices from the seed's PCG64 stream, read-only."""
    idx = _rng(seed).integers(0, pool_size, size=n)
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True)
class TrialPlan:
    """How many negative-sampling trials to run and from which master seed.

    samples_per_trial = None means "match the test image's fixation count",
    the convention all the shuffled metrics default to.
    """

    num_trials: int = 100
    samples_per_trial: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        if self.samples_per_trial is not None and self.samples_per_trial < 1:
            raise ValueError("samples_per_trial must be >= 1")

    def n_for(self, fixations: FixationSet) -> int:
        return self.samples_per_trial if self.samples_per_trial is not None else len(fixations)

    def digest(self) -> str:
        key = (
            f"plan-v1|{self.master_seed}|{self.num_trials}|{self.samples_per_trial}"
            f"|{RNG_ALGORITHM}|{SEED_DERIVATION}"
        )
        return hashlib.blake2b(key.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class ShuffleBank:
    """Pooled fixations of a whole dataset, all in one coordinate frame.

    entries maps image_id to that image's fixations rescaled into `frame`.
    The bank is the negative-sample source for the shuffled metrics, so it
    must hold at least two images (excluding the image under test has to
    leave something to draw from).
    """

    entries: dict[str, np.ndarray]
    frame: tuple[int, int]

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError("shuffle bank needs fixations from at least 2 images")
        w, h = self.frame
        for image_id, pts in self.entries.items():
            if pts.shape[0] == 0:
                raise ValueError(f"{image_id}: empty fixation list in bank")
            if pts.min() < 0 or (pts[:, 0] >= w).any() or (pts[:, 1] >= h).any():
                raise ValueError(f"{image_id}: bank fixation outside {w}x{h} frame")


def build_shuffle_bank(dataset: Sequence[FixationSet], frame: tuple[int, int]) -> ShuffleBank:
    """Pool the fixations of every image, rescaled into a common frame.

    Cross-frame coordinates map proportionally: x' = floor(x * W' / W).
    """
    if len(dataset) < 2:
        raise ValueError("shuffle bank needs at least 2 fixation sets")
    bw, bh = frame
    entries: dict[str, np.ndarray] = {}
    for fs in dataset:
        if fs.image_id in entries:
            raise ValueError(f"duplicate image_id in dataset: {fs.image_id}")
        w, h = fs.frame
        pts = fs.points
        if (w, h) != (bw, bh):
            pts = np.column_stack(((pts[:, 0] * bw) // w, (pts[:, 1] * bh) // h))
        pts = np.array(pts, dtype=np.int64)
        pts.setflags(write=False)
        entries[fs.image_id] = pts
    return ShuffleBank(entries=entries, frame=(bw, bh))


def pooled_fixations(bank: ShuffleBank, exclude: str) -> np.ndarray:
    """All bank fixations except the excluded image's, multiplicity kept."""
    pools = [bank.entries[i] for i in sorted(bank.entries) if i != exclude]
    if not pools:
        raise ValueError(f"excluding {exclude!r} empties the shuffle bank")
    return np.concatenate(pools, axis=0)


def sample_uniform_nonfixated(fixations: FixationSet, n: int, seed: int) -> np.ndarray:
    """n distinct pixels drawn uniformly from the non-fixated pixels, read-only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w, h = fixations.frame
    return _uniform_points(seed, w, h, fixations.points.tobytes(), n)


@functools.lru_cache(maxsize=_DRAWS_PER_TRIAL * 100)
def _uniform_points(seed: int, w: int, h: int, fixated_xy: bytes, n: int) -> np.ndarray:
    """n distinct non-fixated pixels as read-only (n, 2) points.

    fixated_xy is the bytes of the (N, 2) int64 fixation array, which makes
    the fixated pixels part of the cache key.
    """
    total = w * h
    pts = np.frombuffer(fixated_xy, dtype=np.int64).reshape(-1, 2)
    fixated = np.unique(pts[:, 1] * w + pts[:, 0])
    eligible = total - fixated.size
    if n > eligible:
        raise ValueError(f"requested {n} non-fixated pixels but only {eligible} exist")
    rng = _rng(seed)
    if eligible <= 4 * n:
        flat = np.setdiff1d(np.arange(total, dtype=np.int64), fixated)
        chosen = rng.permutation(flat)[:n]
    else:
        # first n distinct non-fixated indices from an i.i.d. uniform stream
        seen = np.zeros(total, dtype=bool)
        seen[fixated] = True
        picked: list[np.ndarray] = []
        have = 0
        while have < n:
            draw = rng.integers(0, total, size=2 * (n - have) + 8)
            draw = draw[~seen[draw]]
            _, first = np.unique(draw, return_index=True)
            draw = draw[np.sort(first)][: n - have]
            seen[draw] = True
            picked.append(draw)
            have += draw.size
        chosen = np.concatenate(picked)
    points = np.column_stack((chosen % w, chosen // w))
    points.setflags(write=False)
    return points


def sample_shuffled_nonfixated(bank: ShuffleBank, exclude: str, n: int, seed: int) -> np.ndarray:
    """n points drawn i.i.d. from the pooled fixations of all other images."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pool = pooled_fixations(bank, exclude)
    return pool[_shuffled_indices(seed, pool.shape[0], n)]


def uniform_negative_trials(
    fixations: FixationSet, metric_id: str, plan: TrialPlan
) -> Iterator[np.ndarray]:
    """One uniform (n, 2) draw per trial of the plan, in trial order."""
    n = plan.n_for(fixations)
    _fit_draw_caches(plan.num_trials)
    for trial in range(plan.num_trials):
        seed = derive_trial_seed(plan.master_seed, fixations.image_id, metric_id, trial)
        yield sample_uniform_nonfixated(fixations, n, seed)


def shuffled_negative_trials(
    bank: ShuffleBank, fixations: FixationSet, metric_id: str, plan: TrialPlan
) -> Iterator[np.ndarray]:
    """One shuffled (n, 2) draw per trial, in trial order, from a bank in the fixations' frame."""
    if tuple(bank.frame) != tuple(fixations.frame):
        raise ValueError(f"shuffle bank frame {bank.frame} is not the fixations' {fixations.frame}")
    n = plan.n_for(fixations)
    # pool once; draws stay identical to per-call sample_shuffled_nonfixated
    pool = pooled_fixations(bank, fixations.image_id)
    _fit_draw_caches(plan.num_trials)
    for trial in range(plan.num_trials):
        seed = derive_trial_seed(plan.master_seed, fixations.image_id, metric_id, trial)
        yield pool[_shuffled_indices(seed, pool.shape[0], n)]
