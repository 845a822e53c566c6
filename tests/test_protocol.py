import concurrent.futures
import dataclasses
import inspect
import math
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from saleval import auc_f, auc_s, cc, emd_hat, maps, sauc, semd, shuffle, sim, sjsd, snss, sskld
from saleval.cli import build_parser
from saleval.errors import DegenerateInputError
from saleval.harness import (
    ALL_METRICS,
    BASELINE_MODELS,
    SHUFFLED_METRICS,
    EvalConfig,
    emit_report,
    evaluate_batch,
    evaluate_pair,
    load_manifest,
    read_records,
    synth_dataset,
)
from saleval.harness import protocol
from saleval.harness.dataset import ImageEntry
from saleval.io import read_pgm
from saleval.maps import (
    FixationSet,
    density_from_fixations,
    gaussian_blur,
    normalize_map,
    resize_map,
)
from saleval.metrics_fixation import nss
from saleval.shuffle import TrialPlan, build_shuffle_bank


def _blur_search(s, fix, sweep):
    """(blur_sigma, score) that evaluate_pair records for NSS on the map s over a sweep."""
    h, w = s.shape
    image = ImageEntry(image_id=fix.image_id, width=w, height=h, fixation_file="unused")
    config = EvalConfig(trials=1, blur_sweep=sweep, metrics=("nss",))
    [record] = evaluate_pair(s, image, fix, None, None, TrialPlan(1, 0), config)
    return record.blur_sigma, record.score


def test_blur_search_constant_scorer_picks_zero(monkeypatch):
    # a tie at every level keeps the smallest sigma
    monkeypatch.setattr(protocol, "nss", lambda m, fix: 1.0)
    fix = FixationSet("a", [[2, 2]], (8, 8))
    assert _blur_search(np.ones((8, 8)) * 0.5, fix, (0, 2, 4)) == (0.0, 1.0)


def test_blur_search_recovers_generating_sigma():
    # ground truth is a blurred impulse; NSS peaks when the candidate is
    # blurred with the same sigma
    rng = np.random.default_rng(0)
    s = np.zeros((48, 48))
    s[rng.integers(12, 36, 6), rng.integers(12, 36, 6)] = 1.0
    target = normalize_map(gaussian_blur(s, 4.0))
    yx = np.argwhere(target > 0.4)
    fix = FixationSet("a", np.column_stack([yx[:, 1], yx[:, 0]]), (48, 48))
    best_sigma, _ = _blur_search(s, fix, (0, 1, 2, 4, 8, 16))
    assert best_sigma in (2, 4, 8)


def test_blur_search_single_zero_sweep():
    rng = np.random.default_rng(1)
    s = rng.random((8, 8))
    fix = FixationSet("a", [[2, 2]], (8, 8))
    best_sigma, best_score = _blur_search(s, fix, (0,))
    assert best_sigma == 0
    assert best_score == pytest.approx(nss(s, fix))


def test_blur_search_all_degenerate_is_missing():
    fix = FixationSet("a", [[1, 1]], (8, 8))
    assert _blur_search(np.full((8, 8), 0.5), fix, (0, 2)) == (None, None)


def test_blur_search_validates_sweep():
    # evaluate_pair searches its config's sweep, and the config refuses a bad one
    for sweep in ((), (1, 2)):
        with pytest.raises(ValueError, match="blur sweep"):
            EvalConfig(blur_sweep=sweep)


def test_kernel_defaults_are_the_protocol_defaults():
    # the per-metric functions, called with their defaults, score as the protocol does
    config = EvalConfig()

    def defaults(kernel):
        params = inspect.signature(kernel).parameters.values()
        return {p.name: p.default for p in params if p.default is not p.empty}

    assert defaults(sskld) == {"bins": config.bins, "epsilon": config.epsilon, "sign_mode": config.sign_mode}
    assert defaults(sjsd) == {"bins": config.bins}
    assert defaults(semd) == {"bins": config.bins, "saturation": config.emd_saturation}
    assert defaults(emd_hat) == {"saturation": config.emd_saturation}


def test_every_config_field_is_an_evaluate_flag_with_its_default():
    # `saleval evaluate` builds its EvalConfig from the flags whose dest is a field name
    args = build_parser().parse_args(["evaluate", "--manifest", "unused"])
    config = EvalConfig()
    for field in dataclasses.fields(EvalConfig):
        assert getattr(args, field.name) == getattr(config, field.name), field.name


def test_config_stores_the_sweep_the_search_runs():
    config = EvalConfig(blur_sweep=(2, 0, 1, 1))
    assert config == EvalConfig(blur_sweep=(0.0, 1.0, 2.0))
    assert config.blur_sweep == (0.0, 1.0, 2.0)
    for sweep in (config.blur_sweep, EvalConfig(blur_sweep=np.array([1.0, 0.0])).blur_sweep):
        assert all(type(s) is float for s in sweep)


def test_config_stores_a_negative_zero_level_as_zero():
    for sweep in ((1, -0.0, 0), (-0.0, 1), (0, -0.0, 1)):
        levels = EvalConfig(blur_sweep=sweep).blur_sweep
        assert levels == (0.0, 1.0)
        assert math.copysign(1.0, levels[0]) == 1.0


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
    for sweep in ((), (1.0, 2.0), (-1.0, 0.0), (0.0, float("inf")), (0.0, float("nan")),
                  (0.0, 1e9)):
        with pytest.raises(ValueError, match="blur sweep"):
            EvalConfig(blur_sweep=sweep)


def test_config_refuses_no_metric_or_a_repeated_one():
    # a repeated metric wrote two identical rows per pair; no metric ran a batch for no records
    for metrics in ((), ("cc", "cc", "nss")):
        with pytest.raises(ValueError, match="each once"):
            EvalConfig(metrics=metrics)
    assert EvalConfig(metrics=["cc", "nss"]).metrics == ("cc", "nss")


def test_config_refuses_bad_numeric_knobs():
    bad = [
        ("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", float("nan")), ("epsilon", float("inf")),
        ("epsilon", True),
        ("bins", 1), ("bins", 2.5), ("bins", True), ("bins", 16.0),
        ("emd_saturation", 0), ("emd_saturation", 1.5), ("emd_saturation", False),
        ("trials", 0), ("trials", 2.5), ("trials", True),
        # a str is not a sequence of names or sigmas, and a level must be a real number
        ("epsilon", "1e-3"), ("epsilon", None),
        ("blur_sweep", 0), ("blur_sweep", None), ("blur_sweep", "0,1"), ("blur_sweep", (0, None)),
        ("blur_sweep", (0, True)),
        ("metrics", 5), ("metrics", None), ("metrics", "cc"),
    ]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            EvalConfig(**{field: value})
    # numpy numbers are kept as int and float, so the config echoes into JSON unchanged
    config = EvalConfig(
        trials=np.int64(7), bins=np.int32(2), emd_saturation=np.uint8(1), epsilon=np.float32(0.5)
    )
    assert config == EvalConfig(trials=7, bins=2, emd_saturation=1, epsilon=0.5)
    assert all(type(v) is int for v in (config.trials, config.bins, config.emd_saturation))
    assert type(config.epsilon) is float


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


def test_evaluate_batch_refuses_a_jobs_that_is_not_an_int(tmp_path):
    # 1.5 failed inside the process pool, and True ran as one job
    manifest, _ = _tiny_setup(tmp_path)
    plan = TrialPlan(num_trials=3, master_seed=5)
    config = EvalConfig(trials=3, blur_sweep=(0.0,), metrics=("sauc",))
    for jobs in (1.5, True):
        with pytest.raises(ValueError, match="jobs must be an integer"):
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


def _scored_on_raw_arrays(metric, fix, g, bank, plan):
    """The public metric function on plain arrays, as a blur-search scorer."""
    return {
        "sauc": lambda m: sauc(m, fix, bank, plan).value,
        "snss": lambda m: snss(m, fix, bank, plan).value,
        "sskld": lambda m: sskld(m, fix, bank, plan).value,
        "sjsd": lambda m: sjsd(m, fix, bank, plan).value,
        "semd": lambda m: semd(m, fix, bank, plan).value,
        "cc": lambda m: cc(m, g),
        "sim": lambda m: sim(m, g),
        "nss": lambda m: nss(m, fix),
        "auc_f": lambda m: auc_f(m, fix, plan).value,
        "auc_s": lambda m: auc_s(m, g),
    }[metric]


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_batch_on_prepared_maps_equals_each_metric_on_raw_arrays(tmp_path, jobs):
    # the protocol prepares g once per image and each candidate once; the
    # public functions, handed fresh plain arrays, must give the same bits
    manifest, _ = _tiny_setup(tmp_path)
    plan = TrialPlan(num_trials=6, master_seed=12)
    config = EvalConfig(trials=6, blur_sweep=(0.0, 1.0, 3.0), metrics=ALL_METRICS)
    records = evaluate_batch(manifest, config, plan, jobs=jobs)
    assert len(records) == len(manifest.images) * len(manifest.models) * len(ALL_METRICS)
    bank = build_shuffle_bank(list(manifest.fixations.values()), (48, 36))
    for r in records:
        image = next(im for im in manifest.images if im.image_id == r.image_id)
        fix = manifest.fixations[r.image_id]
        g = density_from_fixations(fix, manifest.fwhm_px)
        s0 = normalize_map(resize_map(read_pgm(manifest.map_path(r.model_id, r.image_id)),
                                      image.width, image.height))
        scorer = _scored_on_raw_arrays(r.metric_id, fix, g, bank, plan)
        best = (None, None)  # first best over the ascending sweep
        for sigma in sorted(config.blur_sweep):
            try:
                score = scorer(gaussian_blur(s0, sigma))
            except DegenerateInputError:
                continue
            if best[1] is None or score > best[1]:
                best = (sigma, score)
        assert (r.blur_sigma, r.score) == best, r


def test_numpy_sigmas_report_like_python_floats(tmp_path):
    manifest, _ = _tiny_setup(tmp_path)
    plan = TrialPlan(num_trials=4, master_seed=6)
    written = []
    for name, sweep in (("numpy", tuple(np.linspace(0, 2, 3))), ("plain", (0.0, 1.0, 2.0))):
        config = EvalConfig(trials=4, blur_sweep=sweep, metrics=("snss", "cc"))
        records = evaluate_batch(manifest, config, plan)
        assert all(type(r.blur_sigma) is float for r in records if r.blur_sigma is not None)
        paths = emit_report(records, [], {}, tmp_path / name)
        assert read_records(paths["records"]) == records
        written.append(paths["records"].read_bytes())
    assert written[0] == written[1]


def test_evaluate_pair_keeps_one_blurred_candidate_alive(tmp_path, monkeypatch):
    manifest, bank = _tiny_setup(tmp_path)
    image = manifest.images[0]
    fix = manifest.fixations[image.image_id]
    g = density_from_fixations(fix, manifest.fwhm_px)
    plan = TrialPlan(num_trials=3, master_seed=2)
    config = EvalConfig(trials=3, metrics=ALL_METRICS)
    blur = protocol.gaussian_blur
    live = []  # one flag per blurred candidate, cleared when it is freed
    alive_at_blur = []

    def counted_blur(m, sigma):
        alive_at_blur.append(sum(live))
        out = blur(m, sigma)
        live.append(True)
        weakref.finalize(out, live.__setitem__, len(live) - 1, False)
        return out

    monkeypatch.setattr(protocol, "gaussian_blur", counted_blur)
    s_raw = read_pgm(manifest.map_path(manifest.models[0].model_id, image.image_id))
    records = evaluate_pair(s_raw, image, fix, g, bank, plan, config)
    assert alive_at_blur == [0] * len(config.blur_sweep)
    assert sum(live) == 0
    assert all(r.score is not None for r in records)


DENSITY_METRICS = ("cc", "sim", "auc_s")


def test_evaluate_batch_keeps_one_density_map_alive(tmp_path, monkeypatch):
    # an image's density map, with what cc, sim and auc_s keep of it, is
    # freed before the next image's is built
    manifest, _ = _tiny_setup(tmp_path)
    plan = TrialPlan(num_trials=3, master_seed=2)
    config = EvalConfig(trials=3, blur_sweep=(0.0, 2.0), metrics=DENSITY_METRICS)
    density = protocol.density_from_fixations
    live = []  # one flag per density map, cleared when it is freed
    alive_at_build = []

    def counted_density(fix, fwhm_px):
        alive_at_build.append(sum(live))
        out = density(fix, fwhm_px)
        live.append(True)
        weakref.finalize(out, live.__setitem__, len(live) - 1, False)
        return out

    monkeypatch.setattr(protocol, "density_from_fixations", counted_density)
    records = evaluate_batch(manifest, config, plan, jobs=1)
    assert alive_at_build == [0] * len(manifest.images)
    assert sum(live) == 0
    assert all(r.score is not None for r in records)


def test_pooled_batch_builds_no_density_map_in_the_parent(tmp_path, monkeypatch):
    manifest, _ = _tiny_setup(tmp_path)
    plan = TrialPlan(num_trials=4, master_seed=8)
    config = EvalConfig(trials=4, blur_sweep=(0.0, 2.0), metrics=DENSITY_METRICS + ("sauc",))
    serial = evaluate_batch(manifest, config, plan, jobs=1)
    density = protocol.density_from_fixations
    built_here = []  # a forked worker appends to its own copy

    def counted_density(fix, fwhm_px):
        built_here.append(fix.image_id)
        return density(fix, fwhm_px)

    monkeypatch.setattr(protocol, "density_from_fixations", counted_density)
    assert evaluate_batch(manifest, config, plan, jobs=2) == serial
    assert built_here == []


def test_pool_has_at_most_one_worker_per_image(tmp_path, monkeypatch):
    path = synth_dataset(tmp_path / "ds", num_images=3, frame=(32, 24), seed=4,
                         fixations_per_image=8, models=("gt_copy",))
    manifest = load_manifest(path)
    sizes = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            if max_workers > len(manifest.images):  # refused before any process starts
                raise RuntimeError(f"{max_workers} workers for {len(manifest.images)} images")
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    plan = TrialPlan(num_trials=3, master_seed=1)
    config = EvalConfig(trials=3, blur_sweep=(0.0,), metrics=("snss",))
    records = evaluate_batch(manifest, config, plan, jobs=8)
    assert sizes == [3]
    assert len(records) == 3


def _generators_per_batch(monkeypatch, manifest, config) -> list:
    """The seed of every generator shuffle builds while evaluate_batch runs, from cold caches."""
    constructions = []
    real_rng = shuffle._rng
    monkeypatch.setattr(shuffle, "_rng", lambda seed: constructions.append(seed) or real_rng(seed))
    shuffle._pool_index_tensor.cache_clear()
    shuffle._uniform_tensor.cache_clear()
    evaluate_batch(manifest, config, TrialPlan(num_trials=config.trials, master_seed=0))
    return constructions


SEEDED_METRICS = SHUFFLED_METRICS + ("auc_f",)


def test_each_shuffled_draw_is_made_once_per_distinct_seed(tmp_path, monkeypatch):
    # the shuffled-protocol workload's size: 2 images at 256x192 with 40
    # fixations, 5 models, the 5 shuffled metrics plus auc_f, 8 blur levels,
    # 100 trials; each (image, metric) tensor is drawn once, so every other
    # candidate and model reuses it
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(256, 192), seed=3,
                         fixations_per_image=40, models=BASELINE_MODELS)
    manifest = load_manifest(path)
    config = EvalConfig(metrics=SEEDED_METRICS)
    constructions = _generators_per_batch(monkeypatch, manifest, config)
    assert len(constructions) == len(manifest.images) * len(SEEDED_METRICS) * config.trials
    assert len(set(constructions)) == len(constructions)


def test_the_draw_cache_holds_one_candidates_draws_above_the_default_trials(tmp_path, monkeypatch):
    # at 200 trials each of the 2 x 2 x 2 candidates needs 6 x 200 draws; a
    # cache that held fewer than one image's tensors would remake them
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(64, 48), seed=5,
                         fixations_per_image=10, models=BASELINE_MODELS[:2])
    manifest = load_manifest(path)
    config = EvalConfig(trials=200, blur_sweep=(0.0, 2.0), metrics=SEEDED_METRICS)
    constructions = _generators_per_batch(monkeypatch, manifest, config)
    assert len(constructions) == len(manifest.images) * len(SEEDED_METRICS) * config.trials
    assert len(set(constructions)) == len(constructions)
