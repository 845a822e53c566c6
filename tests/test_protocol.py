import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from saleval import maps
from saleval.harness import (
    EvalConfig,
    evaluate_batch,
    evaluate_pair,
    load_manifest,
    optimal_blur_search,
    synth_dataset,
)
from saleval.maps import FixationSet, density_from_fixations, gaussian_blur, normalize_map
from saleval.metrics_fixation import nss
from saleval.shuffle import TrialPlan, build_shuffle_bank


def test_blur_search_constant_scorer_picks_zero():
    best_sigma, best_score = optimal_blur_search(np.ones((8, 8)) * 0.5, lambda m: 1.0, (0, 2, 4))
    assert best_sigma == 0
    assert best_score == 1.0


def test_blur_search_recovers_generating_sigma():
    # ground truth is a blurred impulse; NSS peaks when the candidate is
    # blurred with the same sigma
    rng = np.random.default_rng(0)
    s = np.zeros((48, 48))
    s[rng.integers(12, 36, 6), rng.integers(12, 36, 6)] = 1.0
    target = normalize_map(gaussian_blur(s, 4.0))
    yx = np.argwhere(target > 0.4)
    fix = FixationSet("a", np.column_stack([yx[:, 1], yx[:, 0]]), (48, 48))
    best_sigma, _ = optimal_blur_search(s, lambda m: nss(m, fix), (0, 1, 2, 4, 8, 16))
    assert best_sigma in (2, 4, 8)


def test_blur_search_single_zero_sweep():
    rng = np.random.default_rng(1)
    s = rng.random((8, 8))
    fix = FixationSet("a", [[2, 2]], (8, 8))
    best_sigma, best_score = optimal_blur_search(s, lambda m: nss(m, fix), (0,))
    assert best_sigma == 0
    assert best_score == pytest.approx(nss(s, fix))


def test_blur_search_all_degenerate_is_missing():
    best_sigma, best_score = optimal_blur_search(
        np.full((8, 8), 0.5), lambda m: nss(m, FixationSet("a", [[1, 1]], (8, 8))), (0, 2)
    )
    assert best_sigma is None and best_score is None


def test_blur_search_validates_sweep():
    with pytest.raises(ValueError):
        optimal_blur_search(np.ones((4, 4)), lambda m: 0.0, ())
    with pytest.raises(ValueError):
        optimal_blur_search(np.ones((4, 4)), lambda m: 0.0, (1, 2))


def _tiny_setup(tmp_path, **kw):
    path = synth_dataset(tmp_path / "ds", num_images=4, frame=(48, 36), seed=11,
                         fixations_per_image=15, **kw)
    manifest = load_manifest(path)
    bank = build_shuffle_bank(list(manifest.fixations.values()), (48, 36))
    return manifest, bank


def test_evaluate_pair_self_consistency(tmp_path):
    manifest, bank = _tiny_setup(tmp_path)
    image = manifest.images[0]
    fix = manifest.fixations[image.image_id]
    g = density_from_fixations(fix, manifest.fwhm_px)
    plan = TrialPlan(num_trials=15, master_seed=1)
    config = EvalConfig(trials=15, blur_sweep=(0.0, 2.0), metrics=("sauc", "snss", "sjsd"))
    records = evaluate_pair(g, image, fix, g, bank, plan, config, model_id="self")
    by_metric = {r.metric_id: r for r in records}
    assert by_metric["sauc"].score > 0.5
    assert by_metric["snss"].score > 0
    assert by_metric["sjsd"].score > 0
    assert all(r.trial_plan_digest == plan.digest() for r in records)


def test_evaluate_pair_constant_map_contract(tmp_path):
    manifest, bank = _tiny_setup(tmp_path)
    image = manifest.images[0]
    fix = manifest.fixations[image.image_id]
    g = density_from_fixations(fix, manifest.fwhm_px)
    plan = TrialPlan(num_trials=5, master_seed=2)
    config = EvalConfig(trials=5, blur_sweep=(0.0,), metrics=("sauc", "auc_f", "cc", "nss"))
    const = np.full((36, 48), 0.5)
    records = evaluate_pair(const, image, fix, g, bank, plan, config, model_id="flat")
    by_metric = {r.metric_id: r for r in records}
    assert by_metric["sauc"].score == 0.5
    assert by_metric["auc_f"].score == 0.5
    assert by_metric["cc"].score is None
    assert by_metric["nss"].score is None


def test_evaluate_pair_resizes_model_output(tmp_path):
    # low-resolution model map against the full-size frame
    manifest, bank = _tiny_setup(tmp_path)
    image = manifest.images[0]
    fix = manifest.fixations[image.image_id]
    plan = TrialPlan(num_trials=5, master_seed=3)
    config = EvalConfig(trials=5, blur_sweep=(0.0, 2.0), metrics=("sauc",))
    small = np.random.default_rng(4).random((6, 8))
    records = evaluate_pair(small, image, fix, None, bank, plan, config, model_id="tiny")
    assert len(records) == 1
    assert records[0].score is not None


def test_evaluate_pair_needs_g_for_density_metrics(tmp_path):
    manifest, bank = _tiny_setup(tmp_path)
    image = manifest.images[0]
    fix = manifest.fixations[image.image_id]
    plan = TrialPlan(num_trials=3, master_seed=4)
    config = EvalConfig(trials=3, blur_sweep=(0.0,), metrics=("cc",))
    with pytest.raises(ValueError, match="density map"):
        evaluate_pair(np.ones((4, 4)), image, fix, None, bank, plan, config)


def test_evaluate_batch_order_independent(tmp_path):
    manifest, _ = _tiny_setup(tmp_path)
    plan = TrialPlan(num_trials=8, master_seed=5)
    config = EvalConfig(trials=8, blur_sweep=(0.0, 2.0), metrics=("sauc", "snss"))
    serial = evaluate_batch(manifest, config, plan, jobs=1)
    parallel = evaluate_batch(manifest, config, plan, jobs=2)
    assert serial == parallel
    assert len(serial) == len(manifest.images) * len(manifest.models) * 2


def test_evaluate_batch_mixed_frames(tmp_path):
    # images of different dimensions in one manifest: the negative bank is
    # rebuilt per frame with proportional coordinate rescaling
    import json

    from saleval.io import write_pgm

    path = synth_dataset(tmp_path / "ds", num_images=3, frame=(48, 36), seed=12,
                         fixations_per_image=10, models=("gt_copy",))
    raw = json.loads(path.read_text())
    small = raw["images"][0]
    small["width"], small["height"] = 32, 24
    fix_path = tmp_path / "ds" / small["fixation_file"]
    lines = fix_path.read_text().splitlines()[1:]
    shrunk = ["32,24"] + [
        f"{int(x) * 32 // 48},{int(y) * 24 // 36}"
        for x, y in (ln.split(",") for ln in lines)
    ]
    fix_path.write_text("\n".join(shrunk) + "\n")
    rng = np.random.default_rng(0)
    write_pgm(tmp_path / "ds" / raw["models"][0]["maps"][small["image_id"]], rng.random((24, 32)))
    path.write_text(json.dumps(raw))

    manifest = load_manifest(path)
    plan = TrialPlan(num_trials=5, master_seed=6)
    config = EvalConfig(trials=5, blur_sweep=(0.0,), metrics=("snss", "sauc"))
    records = evaluate_batch(manifest, config, plan)
    assert len(records) == 3 * 2
    assert all(r.score is not None for r in records)


def test_config_validates_metrics():
    with pytest.raises(ValueError):
        EvalConfig(metrics=("sauc", "mystery"))
    with pytest.raises(ValueError):
        EvalConfig(sign_mode="sometimes")
    # the blur-sweep rule is enforced when the config is built, not mid-batch
    for sweep in ((), (1.0, 2.0), (-1.0, 0.0), (0.0, float("inf")), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="blur sweep"):
            EvalConfig(blur_sweep=sweep)


def test_plan_must_run_the_configured_trials(tmp_path):
    manifest, bank = _tiny_setup(tmp_path)
    image = manifest.images[0]
    fix = manifest.fixations[image.image_id]
    plan = TrialPlan(num_trials=7, master_seed=1)
    config = EvalConfig(trials=100, blur_sweep=(0.0,), metrics=("sauc",))
    with pytest.raises(ValueError, match="trials"):
        evaluate_pair(np.ones((36, 48)), image, fix, None, bank, plan, config)
    with pytest.raises(ValueError, match="trials"):
        evaluate_batch(manifest, config, plan)


def test_evaluate_batch_refuses_jobs_below_one(tmp_path):
    manifest, _ = _tiny_setup(tmp_path)
    plan = TrialPlan(num_trials=3, master_seed=5)
    config = EvalConfig(trials=3, blur_sweep=(0.0,), metrics=("sauc",))
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            evaluate_batch(manifest, config, plan, jobs=jobs)


def test_pool_after_banded_blurs_matches_serial(tmp_path):
    # a frame at the banding floor: the parent runs threaded blurs (synth and
    # the jobs=1 batch) before the jobs=2 pool forks its workers; a child
    # process bounds the run, so a worker stuck on a lock fails the test
    width, height = 384, maps._BAND_MIN_PIXELS // 384
    script = textwrap.dedent(
        f"""
        from saleval.harness import EvalConfig, evaluate_batch, load_manifest, synth_dataset
        from saleval.shuffle import TrialPlan

        path = synth_dataset({str(tmp_path / "ds")!r}, num_images=3, frame=({width}, {height}),
                             seed=4, fixations_per_image=10, models=("gt_copy", "center_gauss"))
        manifest = load_manifest(path)
        plan = TrialPlan(num_trials=4, master_seed=9)
        config = EvalConfig(trials=4, blur_sweep=(0.0, 8.0), metrics=("sauc", "cc", "nss"))
        serial = evaluate_batch(manifest, config, plan, jobs=1)
        pooled = evaluate_batch(manifest, config, plan, jobs=2)
        assert serial == pooled, "pooled records differ"
        assert len(serial) == 3 * 2 * 3
        print("same")
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "same"
