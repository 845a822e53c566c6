"""The evaluation protocol: resize, blur-search, score, one record per metric.

Each model map is resized to the image's native size, peak-normalized,
then swept over a set of blur widths; every metric independently keeps
its best blur level, since blurring helps some metrics and hurts others.
Degenerate inputs turn into missing scores, never into fabricated values
and never into batch aborts.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..errors import DegenerateInputError
from ..maps import FixationSet, density_from_fixations, gaussian_blur, normalize_map, resize_map
from ..metrics_fixation import auc_f, auc_s, cc, nss, sauc, sim, snss
from ..metrics_histogram import GroundDistanceSpec, semd, sjsd, sskld
from ..shuffle import ShuffleBank, TrialPlan, build_shuffle_bank
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
        lambda m, fix, g, bank, plan, c: semd(
            m, fix, bank, plan, c.bins, GroundDistanceSpec(saturation=c.emd_saturation)
        ).value,
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
    """The sweep's distinct sigmas, ascending; the smallest must be exactly 0."""
    levels = sorted(set(sweep))
    if not levels or levels[0] != 0 or not all(map(math.isfinite, levels)):
        raise ValueError(
            f"blur sweep must be non-empty, contain 0 and be finite and >= 0: {tuple(sweep)}"
        )
    return levels


@dataclass(frozen=True)
class EvalConfig:
    """Knobs of the evaluation protocol; echoed verbatim into every report.

    The blur sweep must be non-empty, contain 0 (so "no blur" is always a
    candidate) and hold no negative or non-finite sigma; a config that
    breaks this rule, names an unknown metric or an unknown sign mode is
    refused when built.
    """

    trials: int = 100
    bins: int = 16
    epsilon: float = 1e-12
    emd_saturation: int = 5
    blur_sweep: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0)
    metrics: tuple[str, ...] = SHUFFLED_METRICS
    sign_mode: str = "per-trial"

    def __post_init__(self):
        for m in self.metrics:
            if m not in ALL_METRICS:
                raise ValueError(f"unknown metric: {m}")
        if self.sign_mode not in ("per-trial", "aggregate"):
            raise ValueError("sign_mode must be 'per-trial' or 'aggregate'")
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


def _best_candidate(candidates, scorer) -> tuple[float | None, float | None]:
    # candidates come in ascending sigma, so the strict > keeps the smallest on ties
    best_sigma, best_score = None, None
    for sigma, cand in candidates:
        try:
            score = scorer(cand)
        except DegenerateInputError:
            continue
        if best_score is None or score > best_score:
            best_sigma, best_score = sigma, score
    return best_sigma, best_score


def optimal_blur_search(s, scorer, sweep) -> tuple[float | None, float | None]:
    """Best (sigma, score) over the blur sweep; smallest sigma wins ties.

    The sweep must include 0 so "no blur" is always a candidate. A scorer
    that is degenerate at every blur level yields (None, None): a missing
    score, not an error.
    """
    levels = _blur_levels(sweep)
    return _best_candidate(((sigma, gaussian_blur(s, sigma)) for sigma in levels), scorer)


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

    The raw map is resized to the image dimensions and normalized; each
    metric then blur-searches independently over candidates blurred once
    and shared by all metrics. Metrics needing the density map (cc, sim,
    auc_s) require g; the shuffled metrics ignore it. The plan must run
    the config's number of trials.
    """
    if plan.num_trials != config.trials:
        raise ValueError(f"plan runs {plan.num_trials} trials, config says {config.trials}")
    needed = [m for m in config.metrics if _METRICS[m].needs_g]
    if needed and g is None:
        raise ValueError(f"metrics {sorted(needed)} need the density map g")
    s0 = normalize_map(resize_map(s_raw, image.width, image.height))
    candidates = [(sigma, gaussian_blur(s0, sigma)) for sigma in _blur_levels(config.blur_sweep)]
    digest = plan.digest()
    records = []
    for metric in config.metrics:
        score = _METRICS[metric].score
        best_sigma, best_score = _best_candidate(
            candidates, lambda m: score(m, fix, g, bank, plan, config)
        )
        records.append(
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
        )
    return records


def _bank_for_frame(manifest: DatasetManifest, frame: tuple[int, int]) -> ShuffleBank:
    return build_shuffle_bank([manifest.fixations[im.image_id] for im in manifest.images], frame)


def _evaluate_unit(args):
    model_id, image, map_path, fix, g, bank, plan, config = args
    from ..io import read_pgm

    s_raw = read_pgm(map_path)
    return evaluate_pair(s_raw, image, fix, g, bank, plan, config, model_id=model_id)


def evaluate_batch(
    manifest: DatasetManifest, config: EvalConfig, plan: TrialPlan, jobs: int = 1
) -> list[EvaluationRecord]:
    """Run the full protocol over every (model, image) pair of a manifest.

    Work units are pure, so they may fan out to ``jobs`` worker processes
    (at least 1); results are sorted afterwards and do not depend on
    execution order. At ``jobs=1`` each large-map blur also runs on the
    CPUs this process may use (see ``maps.gaussian_blur``). Needs at least
    2 images (the shuffled metrics' negative source).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    if len(manifest.images) < 2:
        raise ValueError("evaluation needs at least 2 images")
    banks: dict[tuple[int, int], ShuffleBank] = {}
    need_g = any(_METRICS[m].needs_g for m in config.metrics)
    units = []
    for image in manifest.images:
        frame = (image.width, image.height)
        if frame not in banks:
            banks[frame] = _bank_for_frame(manifest, frame)
        fix = manifest.fixations[image.image_id]
        g = density_from_fixations(fix, manifest.fwhm_px) if need_g else None
        for model in manifest.models:
            units.append(
                (
                    model.model_id,
                    image,
                    manifest.root / model.maps[image.image_id],
                    fix,
                    g,
                    banks[frame],
                    plan,
                    config,
                )
            )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_evaluate_unit, units))
    else:
        chunks = [_evaluate_unit(u) for u in units]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.model_id, r.image_id, r.metric_id))
    return records
