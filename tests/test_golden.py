"""Golden records: a small full-protocol run pinned to 1e-12.

Two runs of the same code agreeing byte for byte cannot catch a change
that shifts scores; this fixture can. The run uses non-default settings
(bins, epsilon, EMD saturation, sign mode) so that a metric kernel that
silently falls back to its own default is caught too.

Regenerate the fixture (only when a score change is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import shutil
import tempfile
from pathlib import Path

from saleval.harness import (
    ALL_METRICS,
    BASELINE_MODELS,
    EvalConfig,
    emit_report,
    evaluate_batch,
    load_manifest,
    read_records,
    synth_dataset,
)
from saleval.shuffle import TrialPlan

GOLDEN = Path(__file__).parent / "data" / "golden_records.csv"
TRIALS = 10


def _golden_run(work: Path):
    path = synth_dataset(work / "ds", num_images=4, frame=(64, 48), seed=7,
                         fixations_per_image=20, models=BASELINE_MODELS,
                         stratify="distortions")
    config = EvalConfig(trials=TRIALS, bins=8, epsilon=1e-9, emd_saturation=3,
                        blur_sweep=(0.0, 2.0), metrics=ALL_METRICS, sign_mode="aggregate")
    return evaluate_batch(load_manifest(path), config, TrialPlan(num_trials=TRIALS, master_seed=3))


def _key(r):
    return (r.model_id, r.image_id, r.metric_id)


def test_records_match_golden_fixture(tmp_path):
    got = _golden_run(tmp_path)
    want = read_records(GOLDEN)
    assert [_key(r) for r in got] == [_key(r) for r in want]
    assert len(got) == 4 * len(BASELINE_MODELS) * len(ALL_METRICS)
    for g, w in zip(got, want):
        where = _key(g)
        assert (g.score is None) == (w.score is None), where
        if g.score is not None:
            assert math.isclose(g.score, w.score, rel_tol=0, abs_tol=1e-12), (where, g.score, w.score)
        assert g.blur_sigma == w.blur_sigma, where
        assert (g.distortion_type, g.distortion_level, g.complexity, g.trial_plan_digest) == (
            w.distortion_type, w.distortion_level, w.complexity, w.trial_plan_digest
        ), where


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = _golden_run(Path(tmp))
        paths = emit_report(records, [], [], Path(tmp) / "report")
        GOLDEN.parent.mkdir(exist_ok=True)
        shutil.copyfile(paths["records"], GOLDEN)
    print(f"wrote {GOLDEN} ({len(records)} records)")
