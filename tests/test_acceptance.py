"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is fixed here; nothing is
calibrated at runtime.
"""

import time

import numpy as np
import pytest

from saleval.cli import main as cli_main
from saleval.harness import EvalConfig, evaluate_pair, kendalls_w, normalized_std_table
from saleval.harness.dataset import ImageEntry
from saleval.harness.protocol import EvaluationRecord
from saleval.maps import (
    FixationSet,
    centered_gaussian_baseline,
    density_from_fixations,
    invert_map,
    normalize_map,
)
from saleval.metrics_fixation import (
    _sample_auc_rows,
    auc_f,
    auc_pair_oracle,
    cc,
    nss,
    sauc,
    snss,
)
from saleval.metrics_histogram import (
    emd_brute_oracle,
    emd_hat,
    jsd,
    semd,
    sjsd,
    sskld,
)
from saleval.shuffle import TrialPlan, build_shuffle_bank


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def _center_biased_sets(seed=20240601, n_img=50, n_fix=40, frame=(128, 96)):
    rng = np.random.default_rng(seed)
    w, h = frame
    sets = []
    for i in range(n_img):
        pts = np.empty((0, 2), dtype=np.int64)
        while pts.shape[0] < n_fix:
            cand = np.column_stack(
                [
                    np.round(rng.normal((w - 1) / 2, 0.18 * w, 2 * n_fix)),
                    np.round(rng.normal((h - 1) / 2, 0.18 * h, 2 * n_fix)),
                ]
            ).astype(np.int64)
            ok = (cand[:, 0] >= 0) & (cand[:, 0] < w) & (cand[:, 1] >= 0) & (cand[:, 1] < h)
            pts = np.concatenate([pts, cand[ok]])[:n_fix]
        sets.append(FixationSet(f"img{i}", pts, frame))
    return sets


@pytest.fixture(scope="module")
def center_biased():
    sets = _center_biased_sets()
    bank = build_shuffle_bank(sets, (128, 96))
    return sets, bank


def test_criterion_1_auc_oracle_equivalence():
    rng = np.random.default_rng(101)
    makers = [
        lambda n: (rng.beta(2, 1, n), rng.beta(1, 2, n)),
        lambda n: (rng.random(n), rng.random(n)),
        lambda n: (rng.random(n) ** 0.5, rng.random(n) ** 2),
        lambda n: (
            np.clip(rng.normal(0.6, 0.2, n), 0, 1),
            np.clip(rng.normal(0.4, 0.2, n), 0, 1),
        ),
    ]
    t0 = time.perf_counter()
    worst_small = worst_large = 0.0
    for k in range(1000):
        n = int(rng.integers(8, 257))
        pos, neg = makers[k % len(makers)](n)
        diff = abs(_sample_auc_rows(pos, neg[None])[0] - auc_pair_oracle(pos, neg))
        if n >= 64:
            worst_large = max(worst_large, diff)
        else:
            worst_small = max(worst_small, diff)
    elapsed = time.perf_counter() - t0
    ok = worst_large <= 0.01 and worst_small <= 0.05 and elapsed < 10.0
    _criterion(
        1,
        "AUC grid vs pair-counting oracle on 1000 random sample sets",
        ok,
        f"worst>=64: {worst_large:.4f}, worst<64: {worst_small:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_emd_oracle_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        bins = int(rng.integers(2, 9))
        a = rng.random(bins) * rng.integers(1, 6)
        b = rng.random(bins) * rng.integers(1, 6)
        sat = int(rng.integers(1, 9))
        worst = max(worst, abs(emd_hat(a, b, sat) - emd_brute_oracle(a, b, sat)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _criterion(
        2,
        "EMD exact DP vs LP oracle on 1000 unnormalized pairs",
        ok,
        f"worst: {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_center_bias_neutralization(center_biased):
    sets, bank = center_biased
    blob = centered_gaussian_baseline(128, 96, 0.25)
    plan = TrialPlan(num_trials=100, master_seed=7)
    sauc_mean = float(np.mean([sauc(blob, fs, bank, plan).value for fs in sets]))
    snss_mean = float(np.mean([snss(blob, fs, bank, plan).value for fs in sets]))
    aucf_mean = float(np.mean([auc_f(blob, fs, plan).value for fs in sets]))
    ok = 0.45 <= sauc_mean <= 0.55 and abs(snss_mean) <= 0.1 and aucf_mean > 0.60
    _criterion(
        3,
        "centered blob: SAUC in [0.45,0.55], |SNSS| <= 0.1, AUC-F > 0.60",
        ok,
        f"SAUC {sauc_mean:.4f}, SNSS {snss_mean:.4f}, AUC-F {aucf_mean:.4f}",
    )


def test_criterion_4_inversion_penalty(center_biased, trial_rows):
    sets, bank = center_biased
    plan = TrialPlan(num_trials=100, master_seed=7)
    ok = True
    for fs in sets:
        g = density_from_fixations(fs, 8.0)
        pos_trials = trial_rows("sskld", g, fs, bank, plan)
        neg_trials = trial_rows("sskld", invert_map(g), fs, bank, plan)
        signed_pos = float(pos_trials.mean())
        signed_neg = float(neg_trials.mean())
        # the per-trial rows are the ones the metric averages
        ok &= sskld(g, fs, bank, plan).value == signed_pos
        ok &= sskld(invert_map(g), fs, bank, plan).value == signed_neg
        unsigned_pos = float(np.abs(pos_trials).mean())
        unsigned_neg = float(np.abs(neg_trials).mean())
        ok &= signed_pos > 0 and signed_neg < 0
        # magnitudes must equal the unsigned shuffled KLD exactly
        ok &= abs(signed_pos) == unsigned_pos and abs(signed_neg) == unsigned_neg
        if not ok:
            break
    _criterion(
        4,
        "SSKLD(gt) > 0 and SSKLD(inverted) < 0 per image, |SSKLD| == SKLD exactly",
        ok,
    )


def _sparse_fixation_sets(seed=31, n_img=40, frame=(160, 120)):
    """Sparse images: one tight 7-point core plus 4 singleton fixations."""
    rng = np.random.default_rng(seed)
    w, h = frame
    sets = []
    for i in range(n_img):
        while True:
            cx, cy = rng.uniform(15, w - 15), rng.uniform(12, h - 12)
            if np.hypot(cx - (w - 1) / 2, cy - (h - 1) / 2) > 0.2 * min(w, h):
                break
        core = np.column_stack(
            [
                np.clip(np.round(rng.normal(cx, 1.0, 7)), 0, w - 1),
                np.clip(np.round(rng.normal(cy, 1.0, 7)), 0, h - 1),
            ]
        ).astype(int)
        singles: list[tuple[int, int]] = []
        while len(singles) < 4:
            x, y = rng.uniform(8, w - 8), rng.uniform(6, h - 6)
            if np.hypot(x - cx, y - cy) > 22 and all(
                np.hypot(x - a, y - b) > 12 for a, b in singles
            ):
                singles.append((int(round(x)), int(round(y))))
        sets.append(FixationSet(f"s{i}", np.concatenate([core, np.array(singles)]), frame))
    return sets


@pytest.fixture(scope="module")
def sparse_offcenter():
    sets = _sparse_fixation_sets()
    bank = build_shuffle_bank(sets, (160, 120))
    return sets, bank


def test_criterion_5_false_positive_penalty(sparse_offcenter):
    sets, bank = sparse_offcenter
    plan = TrialPlan(num_trials=100, master_seed=5)
    rng = np.random.default_rng(31 + 1000)
    n = len(sets)
    wins_snss = wins_sjsd = sauc_misrank = 0
    for fs in sets:
        a = density_from_fixations(fs, 6.0)
        b = normalize_map(a + rng.uniform(0.0, 0.3, a.shape))
        wins_snss += snss(a, fs, bank, plan).value > snss(b, fs, bank, plan).value
        wins_sjsd += sjsd(a, fs, bank, plan).value > sjsd(b, fs, bank, plan).value
        sauc_misrank += sauc(b, fs, bank, plan).value >= sauc(a, fs, bank, plan).value
    # the SAUC misranking rate is recorded, not required
    print(f"    [recorded] SAUC ranks the noisier map at least as high on {sauc_misrank}/{n} images")
    ok = wins_snss >= 0.9 * n and wins_sjsd >= 0.9 * n
    _criterion(
        5,
        "SNSS and SJSD prefer the clean map on >= 90% of sparse images",
        ok,
        f"SNSS {wins_snss}/{n}, SJSD {wins_sjsd}/{n}",
    )


def test_criterion_6_semd_center_bias_fix(sparse_offcenter):
    sets, bank = sparse_offcenter
    plan = TrialPlan(num_trials=100, master_seed=6)
    blob = centered_gaussian_baseline(160, 120, 0.25)
    gt_scores = []
    blob_scores = []
    for fs in sets:
        g = density_from_fixations(fs, 6.0)
        gt_scores.append(semd(g, fs, bank, plan).value)
        blob_scores.append(semd(blob, fs, bank, plan).value)
    gt_mean = float(np.mean(gt_scores))
    blob_mean = float(np.mean(blob_scores))
    ok = gt_mean > blob_mean
    _criterion(
        6,
        "SEMD stratum mean: ground truth above centered blob on off-center data",
        ok,
        f"gt {gt_mean:.4f} vs blob {blob_mean:.4f}",
    )


def test_criterion_7_metric_definition_invariants():
    rng = np.random.default_rng(700)
    frame = (48, 36)
    sets = [
        FixationSet(
            f"v{i}",
            np.column_stack([rng.integers(0, 48, 15), rng.integers(0, 36, 15)]),
            frame,
        )
        for i in range(4)
    ]
    bank = build_shuffle_bank(sets, frame)
    plan = TrialPlan(num_trials=20, master_seed=8)
    s = rng.random((36, 48))
    g = normalize_map(rng.random((36, 48)))
    fix = sets[0]
    a, b = 2.5, 0.4
    affine_ok = (
        abs(cc(a * s + b, g) - cc(s, g)) < 1e-9
        and abs(nss(a * s + b, fix) - nss(s, fix)) < 1e-9
        and abs(snss(a * s + b, fix, bank, plan).value - snss(s, fix, bank, plan).value) < 1e-9
    )

    jsd_ok = True
    for _ in range(200):
        p = rng.random(8)
        q = rng.random(8)
        v = jsd(p, q)
        jsd_ok &= 0.0 <= v <= 1.0 and jsd(p, p) == 0.0

    triangle_violations = 0
    for _ in range(10_000):
        hists = [rng.random(5) + 1e-12 for _ in range(3)]
        dab = np.sqrt(jsd(hists[0], hists[1]))
        dbc = np.sqrt(jsd(hists[1], hists[2]))
        dac = np.sqrt(jsd(hists[0], hists[2]))
        triangle_violations += dac > dab + dbc + 1e-12

    const = np.full((36, 48), 0.5)
    const_ok = (
        sauc(const, fix, bank, plan).value == 0.5 and auc_f(const, fix, plan).value == 0.5
    )

    ok = affine_ok and jsd_ok and triangle_violations == 0 and const_ok
    _criterion(
        7,
        "affine invariance, JSD bounds, sqrt-JSD triangle inequality, constant-map AUC = 0.5",
        ok,
        f"triangle violations {triangle_violations}/10000",
    )


def test_criterion_8_protocol_determinism(tmp_path):
    assert (
        cli_main(
            [
                "synth", "--out", str(tmp_path / "ds"), "--images", "4", "--width", "48",
                "--height", "36", "--fixations", "12", "--seed", "21",
            ]
        )
        == 0
    )
    args = [
        "evaluate", "--manifest", str(tmp_path / "ds" / "manifest.json"),
        "--trials", "10", "--blur-sweep", "0,2", "--seed", "33",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    ok = all(
        (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        for name in ("records.csv", "summary.json", "rankings.csv")
    )
    _criterion(8, "two identical runs produce byte-identical CSV and JSON reports", ok)


def test_criterion_9_harness_statistics():
    identical = [{"a": 1, "b": 2, "c": 3}] * 3
    reversed_pair = [{"a": 1, "b": 2, "c": 3}, {"a": 3, "b": 2, "c": 1}]
    w_ok = kendalls_w(identical) == pytest.approx(1.0) and kendalls_w(reversed_pair) == 0.0

    def records(scale):
        out = []
        for model, base in (("m1", 1.0), ("m2", 2.0)):
            for k, dtype in enumerate(("blur", "jpeg", "noise")):
                for level, bump in (("low", 0.0), ("high", 0.3)):
                    out.append(
                        EvaluationRecord(
                            model_id=model,
                            image_id=f"{dtype}{level}",
                            metric_id="semd",
                            score=scale * (base + 0.4 * k + bump),
                            blur_sigma=0.0,
                            distortion_type=dtype,
                            distortion_level=level,
                            complexity="unspecified",
                            trial_plan_digest="d",
                        )
                    )
        return out

    base_rows = normalized_std_table(records(1.0), axis="levels")
    scaled_rows = normalized_std_table(records(10.0), axis="levels")
    std_ok = all(
        abs(b["avg_std"] - s["avg_std"]) <= 1e-12 for b, s in zip(base_rows, scaled_rows)
    )
    ok = w_ok and std_ok
    _criterion(9, "Kendall W hand cases and scale-invariant normalized-std table", ok)


def test_criterion_10_throughput(tmp_path):
    # single full-resolution evaluation, one worker
    rng = np.random.default_rng(1000)
    frame = (768, 512)
    sets = [
        FixationSet(
            f"i{k}",
            np.column_stack([rng.integers(0, 768, 100), rng.integers(0, 512, 100)]),
            frame,
        )
        for k in range(10)
    ]
    bank = build_shuffle_bank(sets, frame)
    image = ImageEntry(image_id="i0", width=768, height=512, fixation_file="unused")
    plan = TrialPlan(num_trials=100, master_seed=0)
    config = EvalConfig(trials=100)
    t0 = time.perf_counter()
    records = evaluate_pair(
        rng.random((64, 48)), image, sets[0], None, bank, plan, config, model_id="m"
    )
    single = time.perf_counter() - t0
    assert len(records) == 5

    # 54-image, 5-model synthetic batch with 4 workers
    from saleval.harness import evaluate_batch, load_manifest, synth_dataset

    path = synth_dataset(
        tmp_path / "batch",
        num_images=54,
        frame=(256, 192),
        seed=5,
        fixations_per_image=40,
        models=("gt_copy", "center_gauss", "inverted_gt", "gt_noisy", "gt_blurred"),
        stratify="distortions",
    )
    manifest = load_manifest(path)
    t0 = time.perf_counter()
    batch_records = evaluate_batch(manifest, config, TrialPlan(num_trials=100, master_seed=3), jobs=4)
    batch = time.perf_counter() - t0
    assert len(batch_records) == 54 * 5 * 5

    ok = single < 5.0 and batch < 300.0
    _criterion(
        10,
        "768x512 eval < 5 s single worker; 54x5 batch < 5 min with 4 workers",
        ok,
        f"single {single:.2f}s, batch {batch:.1f}s",
    )
