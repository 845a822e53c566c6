"""Tests of the benchmark itself, on the smoke size of every workload.

Each smoke run goes through the whole benchmark as a subprocess: input
synthesis, the correctness gate against the stored smoke reference (seed
0), the counter checks against their closed forms, and the result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import speed
from workloads import SPECS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    cmd = [
        sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
        "--size", "smoke", "--seconds", "0.5", "--seed", str(seed), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def details_of(workload: str, trace: int, seed: int = 0) -> dict:
    tag = f"{workload}-smoke-seed{seed}-trace{trace}"
    return json.loads((ROOT / ".bench_work" / "results" / f"{tag}.json").read_text())["details"]


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_traced_smoke_run_is_correct_and_counts_match_closed_forms(workload):
    proc = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    details = details_of(workload, 1)
    assert details["reference_checked"]
    checks = details["counter_checks"]
    assert checks and all(c["status"] == "ok" for c in checks.values()), checks
    assert details["absent_layers"] == []


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("shuffled-protocol", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_flags_wrong_missing_and_extra_records():
    spec = SPECS["shuffled-protocol"]["smoke"]
    keys = sorted(gate.expected_keys(spec))
    reference = {key: (0.5, 2.0) for key in keys}
    assert gate.check_records(spec, dict(reference), reference) == set()

    records = dict(reference)
    records[keys[0]] = (0.5 + 1e-9, 2.0)  # score off by more than the tolerance
    records[keys[1]] = (0.5, 0.0)  # another blur sigma
    del records[keys[-1]]  # missing record
    records[("dataset0", "ghost", "img000", "sauc")] = (0.1, 0.0)  # unexpected model
    failed = gate.check_records(spec, records, reference)
    assert failed == {
        gate.pair_of(keys[0]), gate.pair_of(keys[1]), gate.pair_of(keys[-1]),
        ("dataset0", "ghost", "img000"),
    }

    within = dict(reference)
    within[keys[0]] = (0.5 + 1e-13, 2.0)
    assert gate.check_records(spec, within, reference) == set()


def test_missing_scores_are_counted_not_failed():
    spec = SPECS["hires-baseline"]["smoke"]
    records = {key: (0.5, 0.0) for key in gate.expected_keys(spec)}
    key = sorted(records)[0]
    records[key] = (None, None)
    assert gate.check_records(spec, records, None) == set()
    assert gate.missing_by_metric(records) == {key[3]: 1}


def test_orderings_detect_an_inverted_winner():
    spec = SPECS["cli-pipeline"]["smoke"]
    good = {"gt_copy": 0.9, "center_gauss": 0.5, "inverted_gt": -0.4}
    records = {key: (good[key[1]], 0.0) for key in gate.expected_keys(spec)}
    assert gate.check_orderings(spec, records) == {}
    for key in records:
        if key[0] == "dataset1" and key[1] == "inverted_gt" and key[3] == "sskld":
            records[key] = (1.0, 0.0)
    problems = gate.check_orderings(spec, records)
    assert list(problems) == ["dataset1"]
    assert len(problems["dataset1"]) == 1 and "sskld" in problems["dataset1"][0]


def test_counter_checks_flag_a_mismatch_and_an_absent_layer():
    spec = SPECS["shuffled-protocol"]["smoke"]
    expected = gate.closed_forms(spec)
    assert all(c["status"] == "ok" for c in gate.check_counters(spec, dict(expected), []).values())
    layers = dict(expected)
    layers["maps.blur_calls"] += 1  # a call site the wrapper did not see
    checks = gate.check_counters(spec, layers, [gate.COUNTER_SOURCES["flow.transport_calls"]])
    assert checks["maps.blur_calls"]["status"] == "mismatch"
    assert checks["flow.transport_calls"]["status"] == "absent"


def test_times_are_rescaled_by_the_kernel_readings_around_them():
    ref = speed.REFERENCE_S
    assert speed.at_reference(2.0, ref, ref) == pytest.approx(2.0)
    # the kernel ran at half speed, so the part did too
    assert speed.at_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
