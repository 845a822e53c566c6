import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from saleval.cli import main
from saleval.harness import EvalConfig, read_records


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


def test_validate_command():
    assert main(["validate"]) == 0


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
    assert main(args) == 0  # permissive by default
    assert main(args + ["--strict"]) == 1


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
