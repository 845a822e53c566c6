"""Correctness gate and the closed forms of the work counters.

A pair (dataset, model, image) fails when one of its records is missing,
when a record is not one of the expected ones, when a score or blur sigma
differs from the baseline records, when scoring it again with the
public per-metric functions at the recorded blur sigma gives another
score, or when one of the paper's orderings fails on its dataset. A missing score (a degenerate input) is not a failure; it is
counted by metric.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from pathlib import Path

from workloads import TRIAL_METRICS, Spec

TOLERANCE = 1e-12
# (metric, model expected above, model expected below), per dataset
ORDERINGS = (
    ("sauc", "gt_copy", "center_gauss"),
    ("sskld", "gt_copy", "inverted_gt"),
    ("cc", "gt_copy", "center_gauss"),
    ("cc", "gt_copy", "inverted_gt"),
)


def pair_of(key: tuple) -> tuple:
    return key[:3]


def expected_keys(spec: Spec) -> set[tuple]:
    return {
        (f"dataset{d}", model, f"img{i:03d}", metric)
        for d in range(len(spec.fixation_models))
        for model in spec.models
        for i in range(spec.images)
        for metric in spec.metrics
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOLERANCE


def check_records(spec: Spec, records: dict, baseline: dict | None) -> set[tuple]:
    """Pairs whose records are missing, unexpected or differ from the baseline."""
    expected = expected_keys(spec)
    failed = {pair_of(k) for k in expected - records.keys()}
    failed |= {pair_of(k) for k in records.keys() - expected}
    if baseline is not None:
        for key in expected & records.keys():
            score, sigma = records[key]
            ref_score, ref_sigma = baseline.get(key, (None, None))
            if key not in baseline or not _close(score, ref_score) or sigma != ref_sigma:
                failed.add(pair_of(key))
    return failed


def missing_by_metric(records: dict) -> dict[str, int]:
    counts = Counter(key[3] for key, (score, _) in records.items() if score is None)
    return dict(sorted(counts.items()))


def check_orderings(spec: Spec, records: dict) -> dict[str, list[str]]:
    """The paper's orderings on mean scores, wherever the workload has the metric.

    Maps each dataset with a broken ordering to what broke.
    """
    problems: dict[str, list[str]] = {}
    for d in range(len(spec.fixation_models)):
        dataset = f"dataset{d}"
        for metric, above, below in ORDERINGS:
            if metric not in spec.metrics or above not in spec.models or below not in spec.models:
                continue
            means = {}
            for model in (above, below):
                scores = [
                    s for (ds, mo, _, me), (s, _) in records.items()
                    if (ds, mo, me) == (dataset, model, metric) and s is not None
                ]
                means[model] = sum(scores) / len(scores) if scores else None
            if None in means.values() or not means[above] > means[below]:
                problems.setdefault(dataset, []).append(f"{dataset}: {metric} mean of {above} {means[above]} not above {below} {means[below]}")
    return problems


def _scorers():
    from saleval import auc_f, auc_s, cc, nss, sauc, semd, sim, sjsd, snss, sskld

    return {
        "sauc": lambda m, fix, g, bank, plan: sauc(m, fix, bank, plan).value,
        "snss": lambda m, fix, g, bank, plan: snss(m, fix, bank, plan).value,
        "sskld": lambda m, fix, g, bank, plan: sskld(m, fix, bank, plan).value,
        "sjsd": lambda m, fix, g, bank, plan: sjsd(m, fix, bank, plan).value,
        "semd": lambda m, fix, g, bank, plan: semd(m, fix, bank, plan).value,
        "cc": lambda m, fix, g, bank, plan: cc(m, g),
        "sim": lambda m, fix, g, bank, plan: sim(m, g),
        "nss": lambda m, fix, g, bank, plan: nss(m, fix),
        "auc_f": lambda m, fix, g, bank, plan: auc_f(m, fix, plan).value,
        "auc_s": lambda m, fix, g, bank, plan: auc_s(m, g),
    }


def rescore_sample(
    spec: Spec, manifests: list[Path], seed: int, records: dict, per_dataset: int
) -> tuple[set[tuple], list[str]]:
    """Score a seeded sample of pairs directly and compare with the batch.

    Every metric is recomputed at its recorded blur sigma from the raw map
    file, with each metric function's default settings, which are the
    protocol's defaults.
    """
    from saleval import (
        TrialPlan,
        build_shuffle_bank,
        density_from_fixations,
        gaussian_blur,
        load_manifest,
        normalize_map,
        read_pgm,
        resize_map,
    )

    scorers = _scorers()
    plan = TrialPlan(num_trials=spec.trials, master_seed=seed)
    rng = random.Random(seed)
    failed, problems = set(), []
    for d, manifest_path in enumerate(manifests):
        ds = load_manifest(manifest_path)
        dataset = f"dataset{d}"
        pairs = sorted({pair_of(k) for k in records if k[0] == dataset})
        for pair in rng.sample(pairs, min(per_dataset, len(pairs))):
            _, model, image_id = pair
            image = next(im for im in ds.images if im.image_id == image_id)
            frame = (image.width, image.height)
            fix = ds.fixations[image_id]
            bank = build_shuffle_bank([ds.fixations[im.image_id] for im in ds.images], frame)
            g = density_from_fixations(fix, ds.fwhm_px)
            s0 = normalize_map(resize_map(read_pgm(ds.map_path(model, image_id)), *frame))
            for metric in spec.metrics:
                score, sigma = records.get(pair + (metric,), (None, None))
                if score is None:
                    continue
                again = scorers[metric](gaussian_blur(s0, sigma), fix, g, bank, plan)
                if not _close(score, again):
                    failed.add(pair)
                    problems.append(f"{'/'.join(pair)} {metric}: batch {score!r}, direct {again!r}")
    return failed, problems


def read_reference(path: Path) -> dict | None:
    if not path.is_file():
        return None
    out = {}
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            score = float(row["score"]) if row["score"] else None
            sigma = float(row["blur_sigma"]) if row["blur_sigma"] else None
            out[(row["dataset"], row["model"], row["image"], row["metric"])] = (score, sigma)
    return out


def write_reference(path: Path, records: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["dataset", "model", "image", "metric", "score", "blur_sigma"])
        for key in sorted(records):
            score, sigma = records[key]
            writer.writerow([*key, "" if score is None else repr(score), "" if sigma is None else repr(sigma)])


def closed_forms(spec: Spec) -> dict[str, int]:
    """Exact work counts of one traced iteration of the current protocol."""
    pairs = spec.pairs
    levels = len(set(spec.sweep))
    trial_metrics = [m for m in spec.metrics if m in TRIAL_METRICS]
    solves = pairs * levels * spec.trials if "semd" in spec.metrics else 0
    return {
        "shuffle.seed_derivations": pairs * len(trial_metrics) * levels * spec.trials,
        "shuffle.distinct_seeds": spec.images * len(trial_metrics) * spec.trials,
        "maps.blur_calls": pairs * levels,
        "metrics_histogram.emd_solves": solves,
        "flow.transport_calls": solves,
        "harness.protocol.candidates": pairs * len(spec.metrics) * levels,
        "io.read_pgm_calls": pairs,
    }


# the wrapped function each counter depends on, for reporting a removed layer
COUNTER_SOURCES = {
    "shuffle.seed_derivations": "saleval.shuffle.derive_trial_seed",
    "shuffle.distinct_seeds": "saleval.shuffle.derive_trial_seed",
    "maps.blur_calls": "saleval.maps.gaussian_blur",
    "metrics_histogram.emd_solves": "saleval.metrics_histogram.emd_hat",
    "flow.transport_calls": "saleval.flow.min_cost_transport",
    "io.read_pgm_calls": "saleval.io.read_pgm",
}


def check_counters(spec: Spec, layers: dict, absent: list[str]) -> dict[str, dict]:
    """Observed against closed-form counts; a removed layer reads 'absent'."""
    out = {}
    for name, expected in closed_forms(spec).items():
        if COUNTER_SOURCES.get(name) in absent:
            out[name] = {"expected": expected, "observed": None, "status": "absent"}
            continue
        observed = layers[name]
        out[name] = {
            "expected": expected,
            "observed": observed,
            "status": "ok" if observed == expected else "mismatch",
        }
    return out
