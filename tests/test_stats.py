import numpy as np
import pytest

from saleval.harness import (
    EvaluationRecord,
    aggregate_scores,
    build_rankings,
    kendalls_w,
    normalized_std_table,
    rank_by_score,
)
from saleval.harness.stats import spread_tables


def _rec(model, image, metric, score, dtype="blur", dlevel="low", complexity="unspecified"):
    return EvaluationRecord(
        model_id=model,
        image_id=image,
        metric_id=metric,
        score=score,
        blur_sigma=0.0,
        distortion_type=dtype,
        distortion_level=dlevel,
        complexity=complexity,
        trial_plan_digest="d",
    )


def test_aggregate_single_record():
    rows = aggregate_scores([_rec("m", "i", "sauc", 0.7)])
    assert rows == [
        {
            "model": "m",
            "metric": "sauc",
            "distortion_type": "blur",
            "distortion_level": "low",
            "mean_score": 0.7,
            "n_scores": 1,
            "n_missing": 0,
        }
    ]


def test_aggregate_zero_variance_stratum():
    recs = [_rec("m", f"i{k}", "sauc", 0.6) for k in range(5)]
    rows = aggregate_scores(recs)
    assert rows[0]["mean_score"] == 0.6
    assert rows[0]["n_scores"] == 5


def test_aggregate_counts_missing():
    recs = [_rec("m", "a", "cc", 0.5), _rec("m", "b", "cc", None)]
    rows = aggregate_scores(recs)
    assert rows[0]["n_scores"] == 1
    assert rows[0]["n_missing"] == 1


def test_aggregate_all_missing_stratum_warns_and_omits():
    recs = [_rec("m", "a", "cc", None)]
    with pytest.warns(UserWarning, match="no scores"):
        rows = aggregate_scores(recs)
    assert rows == []


def test_aggregate_monotone_with_level():
    # constructed dataset: score decays with distortion level
    level_scores = {"low": 0.9, "medium": 0.7, "high": 0.5}
    recs = [
        _rec("m", f"{lvl}{k}", "sauc", score + 0.01 * k, dlevel=lvl)
        for lvl, score in level_scores.items()
        for k in range(4)
    ]
    rows = aggregate_scores(recs)
    means = {r["distortion_level"]: r["mean_score"] for r in rows}
    assert means["low"] > means["medium"] > means["high"]


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(0)
    recs = [
        _rec(f"m{k % 3}", f"i{k}", "sauc", float(rng.random()), dlevel=("low", "high")[k % 2])
        for k in range(24)
    ]
    rows1 = aggregate_scores(recs)
    rows2 = aggregate_scores(list(reversed(recs)))
    assert rows1 == rows2


def test_aggregate_group_by_dataset_and_complexity():
    recs = [_rec("m", "a", "sauc", 0.5, complexity="easy"), _rec("m", "b", "sauc", 0.7, complexity="hard")]
    rows = aggregate_scores(recs, group_by="dataset")
    assert len(rows) == 1 and rows[0]["mean_score"] == pytest.approx(0.6)
    rows = aggregate_scores(recs, group_by="complexity")
    assert len(rows) == 2
    with pytest.raises(ValueError):
        aggregate_scores(recs, group_by="zodiac")
    with pytest.raises(ValueError):
        aggregate_scores([])


def test_build_rankings_orders_and_flags_ties():
    recs = [
        _rec("alpha", "a", "sauc", 0.6),
        _rec("beta", "a", "sauc", 0.8),
        _rec("gamma", "a", "sauc", 0.8),
    ]
    rows = build_rankings(aggregate_scores(recs))
    ordered = [(r["rank"], r["model"], r["tied"]) for r in rows]
    assert ordered == [(1, "beta", True), (2, "gamma", True), (3, "alpha", False)]


def test_build_rankings_missing_model_sinks():
    # beta scores in the low stratum only; in the high stratum it must
    # still be ranked, at the bottom with no mean
    recs = [
        _rec("alpha", "a", "sauc", 0.6, dlevel="low"),
        _rec("beta", "a", "sauc", 0.9, dlevel="low"),
        _rec("alpha", "b", "sauc", 0.6, dlevel="high"),
        _rec("beta", "b", "sauc", None, dlevel="high"),
    ]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = build_rankings(aggregate_scores(recs))
    high = [(r["rank"], r["model"], r["mean_score"]) for r in rows if r["distortion_level"] == "high"]
    low = [(r["rank"], r["model"]) for r in rows if r["distortion_level"] == "low"]
    assert high == [(1, "alpha", 0.6), (2, "beta", None)]
    assert low == [(1, "beta"), (2, "alpha")]


def test_kendalls_w_identical_rankings():
    r = {"a": 1, "b": 2, "c": 3}
    assert kendalls_w([r, r, r]) == pytest.approx(1.0)


def test_kendalls_w_reversed_pair_is_zero():
    # hand-derived: rank sums all equal -> S = 0 -> W = 0
    fwd = {"a": 1, "b": 2, "c": 3}
    rev = {"a": 3, "b": 2, "c": 1}
    assert kendalls_w([fwd, rev]) == 0.0


def test_kendalls_w_hand_computed_intermediate():
    r1 = {"a": 1, "b": 2, "c": 3}
    r2 = {"a": 2, "b": 1, "c": 3}
    # rank sums 3, 3, 6; mean 4 -> S = 1 + 1 + 4 = 6; denom = 4 * 24 = 96
    assert kendalls_w([r1, r2]) == pytest.approx(12 * 6 / 96)


def test_kendalls_w_with_ties_stays_bounded():
    r1 = {"a": 1.5, "b": 1.5, "c": 3}
    r2 = {"a": 1, "b": 2, "c": 3}
    w = kendalls_w([r1, r2])
    assert 0 <= w <= 1


def test_kendalls_w_relabel_invariant():
    rng = np.random.default_rng(1)
    names = [f"m{k}" for k in range(6)]
    rankings = []
    for _ in range(4):
        perm = rng.permutation(6) + 1
        rankings.append(dict(zip(names, perm.tolist())))
    w1 = kendalls_w(rankings)
    relabel = {n: f"model_{n}" for n in names}
    w2 = kendalls_w([{relabel[n]: r for n, r in rk.items()} for rk in rankings])
    assert w1 == pytest.approx(w2)


def test_kendalls_w_validates():
    with pytest.raises(ValueError):
        kendalls_w([{"a": 1, "b": 2}])
    with pytest.raises(ValueError):
        kendalls_w([{"a": 1, "b": 2}, {"a": 1}])
    with pytest.raises(ValueError):
        kendalls_w([{"a": 1}, {"a": 1}])


def test_rank_by_score_ties_share_average():
    ranks = rank_by_score({"a": 0.9, "b": 0.9, "c": 0.1})
    assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}


def test_rank_by_score_matches_rankdata_average():
    from scipy.stats import rankdata

    rng = np.random.default_rng(4)
    for trial in range(500):
        n = int(rng.integers(1, 25))
        # few distinct values make long tied runs; -0.0 ties with 0.0
        values = rng.integers(-3, 4, n) / 4.0 if trial % 2 else rng.random(n)
        scores = {f"m{i:02d}": float(v) for i, v in enumerate(values)}
        if trial % 5 == 0:
            scores["m00"] = -0.0
        models = sorted(scores)
        want = rankdata([-scores[m] for m in models], method="average").tolist()
        assert rank_by_score(scores) == dict(zip(models, want))
    nan_ranks = rank_by_score({"a": 1.0, "b": float("nan"), "c": 0.5})
    assert all(np.isnan(r) for r in nan_ranks.values())
    assert np.isnan(rankdata([-1.0, np.nan, -0.5], method="average")).all()


def _std_records(scale=1.0):
    # 2 models x 3 types x 2 levels, metric "semd" scaled on request
    vals = {
        ("m1", "blur"): 1.0,
        ("m1", "jpeg"): 2.0,
        ("m1", "noise"): 3.0,
        ("m2", "blur"): 2.0,
        ("m2", "jpeg"): 2.5,
        ("m2", "noise"): 4.0,
    }
    recs = []
    for (model, dtype), v in vals.items():
        for level, bump in (("low", 0.0), ("high", 0.5)):
            recs.append(_rec(model, f"{dtype}{level}", "semd", scale * (v + bump),
                             dtype=dtype, dlevel=level))
    return recs


def test_normalized_std_scale_invariant():
    base = normalized_std_table(_std_records(1.0), axis="levels")
    scaled = normalized_std_table(_std_records(10.0), axis="levels")
    for b, s in zip(base, scaled):
        assert b["avg_std"] == pytest.approx(s["avg_std"], abs=1e-12)


def test_normalized_std_constant_metric_is_zero():
    recs = [
        _rec("m", f"{dtype}", "sauc", 0.5, dtype=dtype, dlevel="low")
        for dtype in ("blur", "jpeg", "noise")
    ]
    rows = normalized_std_table(recs, axis="levels")
    assert rows[0]["avg_std"] == 0.0


def test_normalized_std_types_axis():
    rows = normalized_std_table(_std_records(), axis="types")
    assert {r["distortion_type"] for r in rows} == {"blur", "jpeg", "noise"}


def test_normalized_std_requires_two_strata():
    recs = [_rec("m", "a", "sauc", 0.5, dtype="blur"), _rec("m", "b", "sauc", 0.6, dtype="blur")]
    with pytest.raises(ValueError):
        normalized_std_table(recs, axis="levels")
    with pytest.raises(ValueError):
        normalized_std_table(recs, axis="diagonal")


def test_spread_tables_are_normalized_std_tables_of_the_given_rows():
    recs = _std_records()
    agg = aggregate_scores(recs, group_by="distortion")
    assert spread_tables(agg) == {axis: normalized_std_table(recs, axis) for axis in ("levels", "types")}
    # one distortion type: no spread across types, so only the types table remains
    blur = [r for r in recs if r.distortion_type == "blur"]
    assert spread_tables(aggregate_scores(blur, group_by="distortion")) == {
        "types": normalized_std_table(blur, "types")
    }
    with pytest.raises(ValueError, match="fewer than 2 strata on the distortion_type axis"):
        normalized_std_table(blur, "levels")
