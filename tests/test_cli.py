import dataclasses
import inspect
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from saleval import cli, maps
from saleval.cli import main
from saleval.harness import EvalConfig, EvaluationRecord, emit_report, read_records, stats, synth_dataset
from saleval.io import write_pgm


@pytest.fixture()
def dataset(tmp_path):
    code = main(
        [
            "synth",
            "--out",
            str(tmp_path / "ds"),
            "--images",
            "4",
            "--width",
            "48",
            "--height",
            "36",
            "--fixations",
            "12",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    return tmp_path / "ds"


def _evaluate(dataset, out, extra=()):
    return main(
        [
            "evaluate",
            "--manifest",
            str(dataset / "manifest.json"),
            "--out",
            str(out),
            "--trials",
            "8",
            "--blur-sweep",
            "0,2",
            *extra,
        ]
    )


def test_synth_evaluate_round_trip_deterministic(dataset, tmp_path):
    assert _evaluate(dataset, tmp_path / "o1") == 0
    assert _evaluate(dataset, tmp_path / "o2") == 0
    for name in ("records.csv", "summary.json", "rankings.csv"):
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


def test_summary_echoes_defaults(dataset, tmp_path):
    code = main(
        [
            "evaluate",
            "--manifest",
            str(dataset / "manifest.json"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    config = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert config["trials"] == 100
    assert config["bins"] == 16
    assert config["epsilon"] == 1e-12
    assert config["emd_saturation"] == 5
    assert config["blur_sweep"] == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0]
    assert config["master_seed"] == 0
    assert config["rng"] == "numpy-PCG64"
    replay = {"manifest", "master_seed", "pixels_per_degree", "rng", "seed_derivation",
              "trial_plan_digest"}
    assert set(config) == {f.name for f in dataclasses.fields(EvalConfig)} | replay


def test_evaluate_with_all_metrics_and_jobs(dataset, tmp_path):
    code = _evaluate(dataset, tmp_path / "out", extra=("--metrics", "all", "--jobs", "2"))
    assert code == 0
    records = read_records(tmp_path / "out" / "records.csv")
    assert {r.metric_id for r in records} == {
        "sauc", "snss", "sskld", "sjsd", "semd", "cc", "sim", "nss", "auc_f", "auc_s",
    }


def test_aggregate_command(dataset, tmp_path):
    _evaluate(dataset, tmp_path / "out")
    code = main(
        [
            "aggregate",
            "--records",
            str(tmp_path / "out" / "records.csv"),
            "--out",
            str(tmp_path / "agg"),
        ]
    )
    assert code == 0
    assert (tmp_path / "agg" / "aggregate_distortion.csv").is_file()


def test_aggregate_writes_each_spread_table_that_has_two_strata(tmp_path):
    # one distortion type at three levels: the levels table has a single type
    # to spread across and is skipped, while the types table is still written
    ds = tmp_path / "ds"
    assert main(["synth", "--out", str(ds), "--images", "9", "--width", "32", "--height", "24",
                 "--fixations", "8", "--seed", "2", "--stratify", "complexity"]) == 0
    assert _evaluate(ds, tmp_path / "out", extra=("--metrics", "sauc,cc")) == 0
    records = tmp_path / "out" / "records.csv"
    assert {r.distortion_type for r in read_records(records)} == {"blur"}
    assert main(["aggregate", "--records", str(records), "--out", str(tmp_path / "agg")]) == 0
    assert not (tmp_path / "agg" / "normalized_std_levels.csv").exists()
    types = (tmp_path / "agg" / "normalized_std_types.csv").read_text().splitlines()
    assert types[0] == "avg_std,distortion_type,metric,n_models"
    assert [line.split(",")[1:3] for line in types[1:]] == [["blur", "cc"], ["blur", "sauc"]]


def test_aggregate_aggregates_once_and_warns_once_per_empty_stratum(tmp_path, monkeypatch):
    # 2 types x 2 levels, so both spread tables are written; one stratum has no score
    cells = {("blur", "low"): 0.6, ("blur", "high"): 0.5, ("jpeg", "low"): 0.7, ("jpeg", "high"): 0.4}
    records = [
        EvaluationRecord(model, f"{dtype}{level}", "sauc", score + bias, 0.0, dtype, level,
                         "unspecified", "d")
        for model, bias in (("m1", 0.0), ("m2", 0.1))
        for (dtype, level), score in cells.items()
    ]
    records[-1] = dataclasses.replace(records[-1], score=None)  # m2 at jpeg/high
    emit_report(records, [], None, tmp_path / "in")
    calls = []
    real = stats.aggregate_scores

    def counted(*args, **kwargs):
        calls.append(kwargs.get("group_by"))
        return real(*args, **kwargs)

    monkeypatch.setattr(stats, "aggregate_scores", counted)
    monkeypatch.setattr(cli, "aggregate_scores", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["aggregate", "--records", str(tmp_path / "in" / "records.csv"),
                     "--out", str(tmp_path / "agg")])
    assert code == 0
    assert calls == ["distortion"]
    assert [str(w.message) for w in caught if "no scores" in str(w.message)] == [
        "stratum ('m2', 'sauc', 'jpeg', 'high') has no scores; omitted"
    ]
    for axis in ("levels", "types"):
        assert (tmp_path / "agg" / f"normalized_std_{axis}.csv").is_file()


def test_rank_command_concordant_datasets(dataset, tmp_path):
    # same generator, different seeds: model quality ordering is stable so
    # the concordance lands at 1
    main(
        [
            "synth", "--out", str(tmp_path / "ds2"), "--images", "4", "--width", "48",
            "--height", "36", "--fixations", "12", "--seed", "9",
        ]
    )
    _evaluate(dataset, tmp_path / "o1")
    _evaluate(tmp_path / "ds2", tmp_path / "o2")
    code = main(
        [
            "rank",
            "--records",
            str(tmp_path / "o1" / "records.csv"),
            str(tmp_path / "o2" / "records.csv"),
            "--out",
            str(tmp_path / "rk"),
        ]
    )
    assert code == 0
    text = (tmp_path / "rk" / "kendall.csv").read_text().splitlines()
    assert text[0].startswith("kendalls_w")
    values = [float(line.split(",")[0]) for line in text[1:]]
    assert all(v == 1.0 for v in values)


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "[PASS] AUC threshold grid vs pair-counting oracle",
        "[PASS] AUC grid kernel vs pair-counting oracle on grid levels",
        "[PASS] EMD exact DP vs LP oracle",
        "[PASS] JSD vs definition unrolled",
    ]


def test_synth_flag_defaults_are_the_synth_dataset_defaults(tmp_path, monkeypatch):
    # what `saleval synth` passes when no flag is given, against the signature's defaults
    passed = {}
    monkeypatch.setattr(cli, "synth_dataset", lambda out, **kw: passed.update(kw) or out)
    assert main(["synth", "--out", str(tmp_path / "ds")]) == 0
    params = inspect.signature(synth_dataset).parameters.values()
    assert passed == {p.name: p.default for p in params if p.default is not p.empty}


@pytest.mark.parametrize("flag", [["--width", "0"], ["--height", "0"]])
def test_synth_of_an_empty_frame_is_user_error_and_writes_nothing(tmp_path, monkeypatch, capsys, flag):
    # the fixation draw never ends on an empty frame; fail fast if it is reached
    monkeypatch.setattr(
        "saleval.harness.dataset._center_biased_points", lambda *a: pytest.fail("draw started")
    )
    assert main(["synth", "--out", str(tmp_path / "ds"), "--images", "2", *flag]) == 1
    assert "at least 1x1" in capsys.readouterr().err
    assert not (tmp_path / "ds" / "manifest.json").exists()


def test_synth_with_no_fixations_is_user_error_and_writes_nothing(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "f0"), "--fixations", "0", "--images", "2"]) == 1
    assert "fixations_per_image must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "f0").exists()


@pytest.mark.parametrize("ppd", ["0", "-3", "nan", "inf"])
def test_synth_bad_ppd_is_user_error_naming_pixels_per_degree(tmp_path, capsys, ppd):
    assert main(["synth", "--out", str(tmp_path / "ds"), "--images", "2", "--ppd", ppd]) == 1
    assert "pixels_per_degree" in capsys.readouterr().err
    assert not (tmp_path / "ds" / "manifest.json").exists()


def test_missing_manifest_is_user_error(tmp_path):
    code = main(["evaluate", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1


def test_unknown_flag_is_user_error(capsys):
    assert main(["evaluate", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--blur-sweep", "0,inf"], "blur sweep"),
        (["--blur-sweep", "0,nan"], "blur sweep"),
        (["--jobs", "0"], "jobs"),
        (["--jobs", "-3"], "jobs"),
    ],
)
def test_bad_blur_sweep_or_jobs_is_user_error(dataset, tmp_path, capsys, extra, message):
    assert _evaluate(dataset, tmp_path / "out", extra) == 1
    err = capsys.readouterr().err
    assert "saleval: error:" in err and message in err


def test_blur_sweep_too_wide_to_build_is_user_error_and_writes_no_records(
    dataset, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(maps, "_gaussian_kernel", lambda sigma: pytest.fail("kernel built"))
    assert _evaluate(dataset, tmp_path / "out", ["--blur-sweep", "0,1e9"]) == 1
    assert "blur sweep" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan"])
def test_bad_epsilon_is_user_error_and_writes_no_records(dataset, tmp_path, capsys, epsilon):
    assert _evaluate(dataset, tmp_path / "out", ["--epsilon", epsilon]) == 1
    assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


def test_bad_pixels_per_degree_is_user_error_and_writes_no_records(dataset, tmp_path, capsys):
    manifest = dataset / "manifest.json"
    raw = json.loads(manifest.read_text())
    raw["pixels_per_degree"] = float("inf")
    manifest.write_text(json.dumps(raw))
    assert _evaluate(dataset, tmp_path / "out", ["--metrics", "cc"]) == 1
    assert "pixels_per_degree" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize("token", [b"x", b"-1", b"99999999999"])
def test_bad_ascii_map_pixel_is_user_error_naming_the_file(dataset, tmp_path, capsys, token):
    map_path = dataset / "maps" / "gt_copy" / "img000.pgm"
    map_path.write_bytes(b"P2\n48 36\n255\n" + b"0 " * (48 * 36 - 1) + token + b"\n")
    assert _evaluate(dataset, tmp_path / "out", ["--metrics", "cc"]) == 1
    err = capsys.readouterr().err
    assert "saleval: error:" in err and "img000.pgm" in err
    assert not (tmp_path / "out" / "records.csv").exists()


def test_bad_map_header_is_user_error_naming_the_file(dataset, tmp_path, capsys):
    map_path = dataset / "maps" / "gt_copy" / "img000.pgm"
    map_path.write_bytes(b"P5\nabc 2\n255\n")
    assert _evaluate(dataset, tmp_path / "out", ["--metrics", "cc"]) == 1
    err = capsys.readouterr().err
    assert "saleval: error:" in err and "img000.pgm: non-integer PGM header value" in err
    assert not (tmp_path / "out" / "records.csv").exists()


def _top_level_array(raw, dataset):
    return [raw]


def _model_entry_string(raw, dataset):
    raw["models"][0] = "gt_copy"
    return raw


def _map_path_int(raw, dataset):
    raw["models"][0]["maps"]["img000"] = 7
    return raw


def _float_width(raw, dataset):
    # a model map of another size sends the float width into resize_map
    raw["images"][0]["width"] = 48.0
    write_pgm(dataset / "maps" / "gt_copy" / "img000.pgm", np.zeros((9, 12)))
    return raw


@pytest.mark.parametrize(
    "malform, message",
    [
        (_top_level_array, "top level must be a JSON object"),
        (_model_entry_string, "malformed model entry 'gt_copy'"),
        (_map_path_int, "map for image 'img000' is not a path: 7"),
        (_float_width, "img000: width must be int, not 48.0"),
    ],
    ids=["top-level-array", "model-entry-string", "map-path-int", "float-width"],
)
def test_malformed_manifest_is_user_error_and_writes_no_records(dataset, tmp_path, capsys, malform, message):
    manifest = dataset / "manifest.json"
    manifest.write_text(json.dumps(malform(json.loads(manifest.read_text()), dataset)))
    assert _evaluate(dataset, tmp_path / "out", ["--metrics", "cc"]) == 1
    err = capsys.readouterr().err
    assert "saleval: error:" in err and message in err
    assert not (tmp_path / "out" / "records.csv").exists()


def test_repeated_metric_is_user_error_before_any_file_is_read(dataset, tmp_path, capsys, monkeypatch):
    # a repeated metric wrote two identical cc rows per pair
    monkeypatch.setattr(cli, "load_manifest", lambda path: pytest.fail("manifest read"))
    assert _evaluate(dataset, tmp_path / "out", ["--metrics", "cc,cc,nss"]) == 1
    err = capsys.readouterr().err
    assert "saleval: error:" in err and "each once" in err
    assert not (tmp_path / "out").exists()


def test_unsorted_repeated_blur_sweep_runs_and_echoes_the_sorted_levels(dataset, tmp_path):
    for name, sweep in (("raw", "2,0,1,1"), ("sorted", "0,1,2")):
        assert _evaluate(dataset, tmp_path / name, ["--blur-sweep", sweep]) == 0
    raw, ordered = (tmp_path / "raw", tmp_path / "sorted")
    assert (raw / "records.csv").read_bytes() == (ordered / "records.csv").read_bytes()
    echo = json.loads((raw / "summary.json").read_text())["config"]
    assert echo["blur_sweep"] == [0.0, 1.0, 2.0]


def test_negative_zero_blur_level_writes_the_bytes_of_zero(dataset, tmp_path):
    assert _evaluate(dataset, tmp_path / "neg", ["--blur-sweep=-0,1"]) == 0
    assert _evaluate(dataset, tmp_path / "pos", ["--blur-sweep", "0,1"]) == 0
    for name in ("records.csv", "summary.json", "rankings.csv"):
        assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "pos" / name).read_bytes()


def test_unknown_metric_is_user_error():
    assert main(["evaluate", "--manifest", "x", "--out", "y", "--metrics", "vibes"]) == 1


def test_out_dir_from_environment(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("SALEVAL_OUT", str(tmp_path / "envout"))
    code = main(
        [
            "evaluate", "--manifest", str(dataset / "manifest.json"),
            "--trials", "4", "--blur-sweep", "0",
        ]
    )
    assert code == 0
    assert (tmp_path / "envout" / "records.csv").is_file()


def test_no_out_dir_is_user_error(dataset, monkeypatch):
    monkeypatch.delenv("SALEVAL_OUT", raising=False)
    code = main(["evaluate", "--manifest", str(dataset / "manifest.json")])
    assert code == 1


def test_strict_flag_promotes_missing(tmp_path):
    # inverted-gt maps stay non-degenerate, so force missing scores with a
    # dataset whose gt_copy maps evaluate fine but cc needs variance; use a
    # constant-map model by rewriting one map file
    main(
        [
            "synth", "--out", str(tmp_path / "ds"), "--images", "2", "--width", "32",
            "--height", "24", "--fixations", "8", "--seed", "2",
        ]
    )
    import numpy as np

    from saleval.io import write_pgm

    for img in ("img000", "img001"):
        write_pgm(tmp_path / "ds" / "maps" / "gt_copy" / f"{img}.pgm", np.full((24, 32), 0.5))
    args = [
        "evaluate", "--manifest", str(tmp_path / "ds" / "manifest.json"),
        "--out", str(tmp_path / "out"), "--trials", "4", "--blur-sweep", "0",
        "--metrics", "snss,sauc",
    ]
    for extra, code in (([], 0), (["--strict"], 1)):  # permissive by default
        with pytest.warns(UserWarning, match="has no scores"):
            assert main(args + extra) == code


def test_manifest_aggregate_and_rank_never_load_scipy(dataset, tmp_path):
    # scipy is loaded by the blur and the oracles only; reading records,
    # aggregating and ranking must not pay its import
    assert _evaluate(dataset, tmp_path / "out") == 0
    records = str(tmp_path / "out" / "records.csv")
    script = textwrap.dedent(
        f"""
        import sys
        import saleval
        from saleval.cli import main
        saleval.load_manifest({str(dataset / "manifest.json")!r})
        assert main(["aggregate", "--records", {records!r}, "--out", {str(tmp_path / "agg")!r}]) == 0
        assert main(["rank", "--records", {records!r}, {records!r}, "--out", {str(tmp_path / "rk")!r}]) == 0
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "rk" / "kendall.csv").is_file()
