"""The evaluation protocol: resize, blur-search, score, one record per metric.

Each model map is resized to the image's native size, peak-normalized,
then swept over a set of blur widths; every metric independently keeps
its best blur level, since blurring helps some metrics and hurts others.
Degenerate inputs turn into missing scores, never into fabricated values
and never into batch aborts. A batch works one image at a time: the
image's density map is built and prepared once (maps.prepare), serves
every model of that image, and is freed before the next image starts, so
one density map per process is alive at a time. The blur search works
one candidate at a time: it blurs a candidate, prepares it once, scores
it with every metric, then drops it. So the metrics share each
candidate's statistics and its one ascending sort, and only one blurred
candidate is alive at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..errors import DegenerateInputError
from ..maps import (
    FixationSet,
    _convolve1d,
    _frozen,
    check_blur_sigma,
    density_from_fixations,
    gaussian_blur,
    normalize_map,
    prepare,
    resize_map,
)
from ..metrics_fixation import auc_f, auc_s, cc, nss, sauc, sim, snss
from ..metrics_histogram import _check_epsilon, _check_sign_mode, semd, sjsd, sskld
from ..shuffle import ShuffleBank, TrialPlan, _integer, build_shuffle_bank
from .dataset import DatasetManifest, ImageEntry

__all__ = [
    "ALL_METRICS",
    "SHUFFLED_METRICS",
    "EvalConfig",
    "EvaluationRecord",
    "evaluate_batch",
    "evaluate_pair",
    "optimal_blur_search",
]


class _Metric(NamedTuple):
    needs_g: bool  # scored against the ground-truth density map
    score: Callable  # (map, fix, g, bank, plan, config) -> float


# Entries look each kernel up by this module's global name at call time, never
# store the function, so a kernel rebound on this module (by a tracer) still runs.
_METRICS = {
    "sauc": _Metric(False, lambda m, fix, g, bank, plan, c: sauc(m, fix, bank, plan).value),
    "snss": _Metric(False, lambda m, fix, g, bank, plan, c: snss(m, fix, bank, plan).value),
    "sskld": _Metric(
        False,
        lambda m, fix, g, bank, plan, c: sskld(
            m, fix, bank, plan, c.bins, c.epsilon, c.sign_mode
        ).value,
    ),
    "sjsd": _Metric(False, lambda m, fix, g, bank, plan, c: sjsd(m, fix, bank, plan, c.bins).value),
    "semd": _Metric(
        False,
        lambda m, fix, g, bank, plan, c: semd(m, fix, bank, plan, c.bins, c.emd_saturation).value,
    ),
    "cc": _Metric(True, lambda m, fix, g, bank, plan, c: cc(m, g)),
    "sim": _Metric(True, lambda m, fix, g, bank, plan, c: sim(m, g)),
    "nss": _Metric(False, lambda m, fix, g, bank, plan, c: nss(m, fix)),
    "auc_f": _Metric(False, lambda m, fix, g, bank, plan, c: auc_f(m, fix, plan).value),
    "auc_s": _Metric(True, lambda m, fix, g, bank, plan, c: auc_s(m, g)),
}
SHUFFLED_METRICS = ("sauc", "snss", "sskld", "sjsd", "semd")
ALL_METRICS = tuple(_METRICS)


def _blur_levels(sweep) -> list[float]:
    """The sweep's distinct sigmas as Python floats, ascending; the smallest must be exactly 0."""
    levels = sorted(set(map(float, sweep)))
    if not levels or levels[0] != 0 or not all(map(math.isfinite, levels)):
        raise ValueError(
            f"blur sweep must be non-empty, contain 0 and be finite and >= 0: {tuple(sweep)}"
        )
    try:
        check_blur_sigma(levels[-1])
    except ValueError as exc:
        raise ValueError(f"blur sweep {tuple(sweep)}: {exc}") from None
    return levels


@dataclass(frozen=True)
class EvalConfig:
    """Knobs of the evaluation protocol; echoed verbatim into every report.

    The blur sweep must be non-empty, contain 0 (so "no blur" is always a
    candidate) and hold no negative or non-finite sigma, nor one whose
    kernel would pass maps.MAX_BLUR_RADIUS. trials, emd_saturation (both
    >= 1) and bins (>= 2) must be integers, and epsilon finite and > 0. A
    config that breaks these rules, names an unknown metric or an unknown
    sign mode is refused when built.
    """

    trials: int = 100
    bins: int = 16
    epsilon: float = 1e-12
    emd_saturation: int = 5
    blur_sweep: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0)
    metrics: tuple[str, ...] = SHUFFLED_METRICS
    sign_mode: str = "per-trial"

    def __post_init__(self):
        for name, least in (("trials", 1), ("bins", 2), ("emd_saturation", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        _check_epsilon(self.epsilon)
        for m in self.metrics:
            if m not in ALL_METRICS:
                raise ValueError(f"unknown metric: {m}")
        _check_sign_mode(self.sign_mode)
        _blur_levels(self.blur_sweep)


@dataclass(frozen=True)
class EvaluationRecord:
    """One (model, image, metric) score with its provenance tags."""

    model_id: str
    image_id: str
    metric_id: str
    score: float | None
    blur_sigma: float | None
    distortion_type: str
    distortion_level: str
    complexity: str
    trial_plan_digest: str


def _best_per_scorer(candidates, scorers) -> list[tuple[float | None, float | None]]:
    """The best (sigma, score) of each scorer over (sigma, candidate) pairs.

    Candidates come in ascending sigma, so the strict > keeps the smallest
    on ties; a DegenerateInputError skips only that (candidate, scorer),
    and a scorer degenerate on every candidate gets (None, None). Every
    scorer scores a candidate before the next one is taken, so a lazy
    iterable of candidates keeps one alive at a time.
    """
    best = [(None, None)] * len(scorers)
    for sigma, cand in candidates:
        for i, scorer in enumerate(scorers):
            try:
                score = scorer(cand)
            except DegenerateInputError:
                continue
            if best[i][1] is None or score > best[i][1]:
                best[i] = (sigma, score)
        del cand  # freed before the next candidate is blurred
    return best


def optimal_blur_search(s, scorer, sweep) -> tuple[float | None, float | None]:
    """Best (sigma, score) over the blur sweep; smallest sigma wins ties.

    The sweep must include 0 so "no blur" is always a candidate. A scorer
    that is degenerate at every blur level yields (None, None): a missing
    score, not an error. The scorer gets each blurred candidate as a
    plain array.
    """
    levels = _blur_levels(sweep)
    s = prepare(s)
    [best] = _best_per_scorer(((sigma, gaussian_blur(s, sigma)) for sigma in levels), [scorer])
    return best


def evaluate_pair(
    s_raw,
    image: ImageEntry,
    fix: FixationSet,
    g,
    bank: ShuffleBank,
    plan: TrialPlan,
    config: EvalConfig,
    model_id: str = "model",
) -> list[EvaluationRecord]:
    """Score one model map against one image, one record per metric.

    The raw map is resized to the image dimensions and normalized, then
    blurred at each sigma of the sweep in ascending order. Each candidate
    is prepared once, scored with every metric of the config and dropped
    before the next is blurred, so one candidate is alive at a time; each
    metric keeps its own best (see ``optimal_blur_search`` for the rule).
    Metrics needing the density map (cc, sim, auc_s) require g; the
    shuffled metrics ignore it. g may be a prepared map, so that what the
    metrics derive from it serves every model of the image. The plan must
    run the config's number of trials.
    """
    if plan.num_trials != config.trials:
        raise ValueError(f"plan runs {plan.num_trials} trials, config says {config.trials}")
    needed = [m for m in config.metrics if _METRICS[m].needs_g]
    if needed and g is None:
        raise ValueError(f"metrics {sorted(needed)} need the density map g")
    if g is not None:
        g = prepare(g)
    # a normalized map and its blurs are valid by construction: checked once, by resize_map
    s0 = _frozen(normalize_map(resize_map(s_raw, image.width, image.height)))
    candidates = (
        (sigma, _frozen(gaussian_blur(s0, sigma)))
        for sigma in _blur_levels(config.blur_sweep)
    )
    scorers = [
        lambda m, score=_METRICS[metric].score: score(m, fix, g, bank, plan, config)
        for metric in config.metrics
    ]
    digest = plan.digest()
    return [
        EvaluationRecord(
            model_id=model_id,
            image_id=image.image_id,
            metric_id=metric,
            score=best_score,
            blur_sigma=best_sigma,
            distortion_type=image.distortion_type,
            distortion_level=image.distortion_level,
            complexity=image.complexity,
            trial_plan_digest=digest,
        )
        for metric, (best_sigma, best_score) in zip(
            config.metrics, _best_per_scorer(candidates, scorers)
        )
    ]


def _bank_for_frame(manifest: DatasetManifest, frame: tuple[int, int]) -> ShuffleBank:
    return build_shuffle_bank([manifest.fixations[im.image_id] for im in manifest.images], frame)


def _evaluate_image(unit) -> list[EvaluationRecord]:
    """Every model's records on one image: the batch's unit of work.

    The unit is (image, fixations, frame bank, fwhm_px, plan, config,
    ((model_id, map path), ...)). The density map is built here, and only
    if a metric needs it, so it and what the metrics derive from it are
    freed when the unit returns, before the next image starts.
    """
    image, fix, bank, fwhm_px, plan, config, models = unit
    from ..io import read_pgm

    g = None
    if any(_METRICS[m].needs_g for m in config.metrics):
        g = _frozen(density_from_fixations(fix, fwhm_px))
    return [
        rec
        for model_id, map_path in models
        for rec in evaluate_pair(
            read_pgm(map_path), image, fix, g, bank, plan, config, model_id=model_id
        )
    ]


def evaluate_batch(
    manifest: DatasetManifest, config: EvalConfig, plan: TrialPlan, jobs: int = 1
) -> list[EvaluationRecord]:
    """Run the full protocol over every (model, image) pair of a manifest.

    One image is one work unit: it builds the image's density map (if a
    metric needs it) and scores every model's map against it, so one
    density map per process is alive at a time, whatever the number of
    images. Units are pure, so at ``jobs`` > 1 they fan out to
    min(jobs, images) worker processes; the parent builds no density map.
    Results are sorted afterwards and do not depend on execution order.
    At ``jobs=1`` each large-map blur also runs on the CPUs this process
    may use (see ``maps.gaussian_blur``). Needs at least 2 images (the
    shuffled metrics' negative source).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    if len(manifest.images) < 2:
        raise ValueError("evaluation needs at least 2 images")
    banks: dict[tuple[int, int], ShuffleBank] = {}
    units = []
    for image in manifest.images:
        frame = (image.width, image.height)
        if frame not in banks:
            banks[frame] = _bank_for_frame(manifest, frame)
        fix = manifest.fixations[image.image_id]
        models = tuple((m.model_id, manifest.root / m.maps[image.image_id]) for m in manifest.models)
        units.append((image, fix, banks[frame], manifest.fwhm_px, plan, config, models))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so only a pooled batch loads it

        _convolve1d()  # import scipy before the workers fork, so that they share it
        with ProcessPoolExecutor(max_workers=min(jobs, len(units))) as pool:
            chunks = list(pool.map(_evaluate_image, units))
    else:
        chunks = [_evaluate_image(u) for u in units]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.model_id, r.image_id, r.metric_id))
    return records
