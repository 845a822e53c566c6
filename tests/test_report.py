import json

import numpy as np
import pytest

from saleval.harness import (
    EvaluationRecord,
    aggregate_scores,
    build_rankings,
    emit_report,
    read_records,
)
from saleval.harness.report import RECORD_FIELDS, write_rows


def _records():
    recs = []
    for model in ("m1", "m2"):
        for image in ("a", "b"):
            for metric, score in (("sauc", 0.625), ("snss", 1.25), ("cc", None)):
                recs.append(
                    EvaluationRecord(
                        model_id=model,
                        image_id=image,
                        metric_id=metric,
                        score=None if score is None else score + (0.01 if image == "b" else 0.0),
                        blur_sigma=2.0 if score is not None else None,
                        distortion_type="blur",
                        distortion_level="low",
                        complexity="unspecified",
                        trial_plan_digest="deadbeef",
                    )
                )
    return recs


def test_emit_report_files_and_header(tmp_path):
    recs = _records()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tables = aggregate_scores(recs)
    paths = emit_report(recs, build_rankings(tables), tables, tmp_path / "out", {"trials": 100})
    header = (tmp_path / "out" / "records.csv").read_text().splitlines()[0]
    assert header == ",".join(RECORD_FIELDS)
    summary = json.loads(paths["summary"].read_text())
    assert summary["config"]["trials"] == 100
    assert summary["n_missing"] == 4
    assert summary["missing_by_metric"] == {"cc": 4}
    assert paths["rankings"].is_file()


def test_emit_report_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], [], [], tmp_path / "out", {})


def test_emit_report_deterministic_bytes(tmp_path):
    recs = _records()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tables = aggregate_scores(recs)
    rankings = build_rankings(tables)
    emit_report(recs, rankings, tables, tmp_path / "o1", {"seed": 7})
    emit_report(list(reversed(recs)), rankings, tables, tmp_path / "o2", {"seed": 7})
    for name in ("records.csv", "summary.json", "rankings.csv"):
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


def test_records_round_trip_and_reaggregation(tmp_path):
    recs = _records()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tables = aggregate_scores(recs)
        paths = emit_report(recs, [], tables, tmp_path / "out", {})
        parsed = read_records(paths["records"])
        assert sorted(parsed, key=lambda r: (r.model_id, r.image_id, r.metric_id)) == sorted(
            recs, key=lambda r: (r.model_id, r.image_id, r.metric_id)
        )
        assert aggregate_scores(parsed) == tables


def test_read_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,what\n1,2\n")
    with pytest.raises(ValueError):
        read_records(path)


def test_write_rows_formats_values_and_refuses_numpy_floats(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, [{"b": 0.1, "a": "x", "c": True}, {"a": "y", "b": None, "d": 3}])
    assert path.read_text().splitlines() == ["a,b,c,d", "x,0.1,True,", "y,,,3"]
    # repr(np.float64(0.1)) is "np.float64(0.1)" under numpy 2
    with pytest.raises(TypeError):
        write_rows(path, [{"a": np.float64(0.1)}])
