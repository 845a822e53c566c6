"""Seeded negative-point sampling for the shuffled metrics.

Every draw is a pure function of its inputs plus a 64-bit seed per trial;
the generator is numpy's PCG64. Per-trial seeds derive from a stable hash
over (master_seed, image_id, metric_id, trial_index), so any run can be
replayed bit-for-bit from the recorded plan. Every trial draws one
negative per fixation of the image under test, as the standard shuffled
metrics do. The metrics read all trials of one (image, metric) at once,
as a read-only (trials, n, 2) int64 tensor of (x, y) points with n the
fixation count (shuffled_draws, uniform_draws). Row t is drawn with
trial t's seed alone:

- shuffled: the pool is the bank's points of every other image, in
  image-id order; row t holds the pool points at the n indices
  Generator(PCG64(seed)).integers(0, pool size, n);
- uniform: n distinct pixels of the frame that no fixation hits (see
  _nonfixated_points).

A tensor depends only on the plan's seeds, its source (the pool size, or
the frame and the fixated pixels) and n, not on the model or the blur
level being scored, so each one is drawn once and reused while that
image's pairs are scored.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .maps import FixationSet, _frame, _integer

__all__ = [
    "RNG_ALGORITHM",
    "SEED_DERIVATION",
    "ShuffleBank",
    "TrialPlan",
    "build_shuffle_bank",
    "derive_trial_seed",
    "shuffled_draws",
    "shuffled_negative_trials",
    "uniform_draws",
    "uniform_negative_trials",
]

RNG_ALGORITHM = "numpy-PCG64"
SEED_DERIVATION = "blake2b64('saleval-trial-v1|<master_seed>|<image_id>|<metric_id>|<trial>')"


# A trial seed is derived each time a metric scores a candidate, once per trial,
# and the protocol scores every (model, blur level) candidate of an image with
# the same seeds, so the cache holds one image's seeds for every seeded metric
# at up to 682 trials.
@functools.lru_cache(maxsize=4096, typed=True)
def derive_trial_seed(master_seed: int, image_id: str, metric_id: str, trial_index: int) -> int:
    """Stable 64-bit trial seed; the derivation is part of the report contract."""
    key = f"saleval-trial-v1|{master_seed}|{image_id}|{metric_id}|{trial_index}"
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class TrialPlan:
    """How many negative-sampling trials to run and from which master seed.

    Each trial draws as many negatives as the image under test has
    fixations.
    """

    num_trials: int = 100
    master_seed: int = 0

    def __post_init__(self):
        # numpy integers are stored as int, so they give the same digest and seeds
        object.__setattr__(self, "num_trials", _integer("num_trials", self.num_trials, 1))
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed))

    def digest(self) -> str:
        # the literal None is where an optional per-trial sample count sat in
        # plan-v1; it stays so that every recorded seed_digest still matches
        key = (
            f"plan-v1|{self.master_seed}|{self.num_trials}|None"
            f"|{RNG_ALGORITHM}|{SEED_DERIVATION}"
        )
        return hashlib.blake2b(key.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class ShuffleBank:
    """Pooled fixations of a whole dataset, all in one coordinate frame.

    entries maps image_id to that image's fixations rescaled into `frame`.
    The bank is the negative-sample source for the shuffled metrics, so it
    must hold at least two images (excluding the image under test has to
    leave something to draw from), none of them without fixations. The
    bank joins every entry's points once, in image-id order, and keeps
    each image's (start, count) in that array, so an image's pool is the
    joined points with its own span left out.
    """

    entries: dict[str, np.ndarray]
    frame: tuple[int, int]
    _points: np.ndarray = field(init=False, repr=False, compare=False)
    _spans: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError("shuffle bank needs fixations from at least 2 images")
        w, h = _frame("shuffle bank frame", self.frame)
        for image_id, pts in self.entries.items():
            if pts.shape[0] == 0:
                raise ValueError(f"{image_id}: empty fixation list in bank")
            if pts.min() < 0 or (pts[:, 0] >= w).any() or (pts[:, 1] >= h).any():
                raise ValueError(f"{image_id}: bank fixation outside {w}x{h} frame")
        ids = sorted(self.entries)
        points = np.concatenate([self.entries[i] for i in ids], axis=0)
        points.setflags(write=False)
        counts = [len(self.entries[i]) for i in ids]
        starts = itertools.accumulate(counts, initial=0)
        object.__setattr__(self, "frame", (w, h))
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_spans", dict(zip(ids, zip(starts, counts))))


def build_shuffle_bank(dataset: Sequence[FixationSet], frame: tuple[int, int]) -> ShuffleBank:
    """Pool the fixations of every image, rescaled into a common frame.

    Cross-frame coordinates map proportionally: x' = floor(x * W' / W).
    """
    bw, bh = frame = _frame("shuffle bank frame", frame)
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
    return ShuffleBank(entries=entries, frame=frame)


def _nonfixated_points(seeds, w: int, h: int, fixated_xy: np.ndarray, n: int) -> np.ndarray:
    """One draw of n distinct non-fixated pixels per seed, as read-only (len(seeds), n, 2) points."""
    total = w * h
    # the sorted distinct fixated pixels, as np.unique gives them without importing numpy.ma
    fixated = np.sort(fixated_xy[:, 1] * w + fixated_xy[:, 0])
    fixated = fixated[np.diff(fixated, prepend=-1) != 0]
    eligible = total - fixated.size
    if n > eligible:
        raise ValueError(f"requested {n} non-fixated pixels but only {eligible} exist")
    chosen = np.empty((len(seeds), n), dtype=np.int64)
    if eligible <= 4 * n:
        keep = np.ones(total, dtype=bool)
        keep[fixated] = False
        flat = np.flatnonzero(keep)
        for row, seed in zip(chosen, seeds):
            row[:] = _rng(seed).permutation(flat)[:n]
    else:
        # first n distinct non-fixated indices from an i.i.d. uniform stream;
        # seen goes back to just the fixated pixels after each row
        seen = np.zeros(total, dtype=bool)
        seen[fixated] = True
        for row, seed in zip(chosen, seeds):
            rng = _rng(seed)
            have = 0
            while have < n:
                draw = rng.integers(0, total, size=2 * (n - have) + 8)
                draw = draw[~seen[draw]]
                _, first = np.unique(draw, return_index=True)
                draw = draw[np.sort(first)][: n - have]
                seen[draw] = True
                row[have : have + draw.size] = draw
                have += draw.size
            seen[row] = False
    points = np.stack((chosen % w, chosen // w), axis=-1)
    points.setflags(write=False)
    return points


def _trial_seeds(fixations: FixationSet, metric_id: str, plan: TrialPlan) -> tuple[int, ...]:
    """The plan's seed for each trial of one (image, metric), in trial order."""
    derive = derive_trial_seed
    image_id = fixations.image_id
    return tuple([derive(plan.master_seed, image_id, metric_id, t) for t in range(plan.num_trials)])


# The protocol scores an image's candidates one by one, each with every metric,
# so the working set is one image's tensors: one per seeded metric (the five
# shuffled metrics and auc_f). Batches run image by image.
_TENSORS_PER_IMAGE = 6


@functools.lru_cache(maxsize=_TENSORS_PER_IMAGE)
def _pool_index_tensor(seeds: tuple[int, ...], pool_size: int, n: int) -> np.ndarray:
    """Each seed's n i.i.d. pool indices from its PCG64 stream, as read-only (T, n)."""
    idx = np.empty((len(seeds), n), dtype=np.int64)
    for row, seed in zip(idx, seeds):
        row[:] = _rng(seed).integers(0, pool_size, size=n)
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=_TENSORS_PER_IMAGE)
def _uniform_tensor(seeds: tuple[int, ...], w: int, h: int, fixated_xy: bytes, n: int) -> np.ndarray:
    """The (T, n, 2) uniform draws of the seeds, read-only.

    fixated_xy is the bytes of the (N, 2) int64 fixation array, which makes
    the fixated pixels part of the cache key.
    """
    pts = np.frombuffer(fixated_xy, dtype=np.int64).reshape(-1, 2)
    return _nonfixated_points(seeds, w, h, pts, n)


def uniform_draws(fixations: FixationSet, metric_id: str, plan: TrialPlan) -> np.ndarray:
    """Every trial's uniform draw as one read-only (T, n, 2) array; row t is trial t's."""
    w, h = fixations.frame
    seeds = _trial_seeds(fixations, metric_id, plan)
    return _uniform_tensor(seeds, w, h, fixations.points.tobytes(), len(fixations))


def shuffled_draws(
    bank: ShuffleBank, fixations: FixationSet, metric_id: str, plan: TrialPlan
) -> np.ndarray:
    """Every trial's shuffled draw as one read-only (T, n, 2) array; row t is trial t's.

    The bank must be in the fixations' frame. The pool is every bank point
    outside the image's (start, count) span, so pool index j reads bank
    point j + (j >= start) * count; an image not in the bank has count 0
    and draws from the whole bank.
    """
    if bank.frame != fixations.frame:
        raise ValueError(f"shuffle bank frame {bank.frame} is not the fixations' {fixations.frame}")
    start, count = bank._spans.get(fixations.image_id, (0, 0))
    seeds = _trial_seeds(fixations, metric_id, plan)
    idx = _pool_index_tensor(seeds, len(bank._points) - count, len(fixations))
    points = bank._points.take(idx + (idx >= start) * count, axis=0)
    points.setflags(write=False)
    return points


def uniform_negative_trials(
    fixations: FixationSet, metric_id: str, plan: TrialPlan
) -> Iterator[np.ndarray]:
    """One uniform (n, 2) draw per trial of the plan, in trial order."""
    yield from uniform_draws(fixations, metric_id, plan)


def shuffled_negative_trials(
    bank: ShuffleBank, fixations: FixationSet, metric_id: str, plan: TrialPlan
) -> Iterator[np.ndarray]:
    """One shuffled (n, 2) draw per trial, in trial order, from a bank in the fixations' frame."""
    yield from shuffled_draws(bank, fixations, metric_id, plan)
