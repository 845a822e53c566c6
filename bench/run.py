"""saleval benchmark: one command, every workload, end-to-end and per-layer metrics.

usage: python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                            [--size full|smoke] [--write-reference]

Workloads (sizes in workloads.SPECS):
  shuffled-protocol  evaluate_batch at jobs=1 on 256x192 images, 5 baseline models,
                     the 5 shuffled metrics, 100 trials, the 8-level blur sweep
  hires-baseline     evaluate_batch at jobs=1 on 768x512 images, model maps stored at
                     quarter resolution, the 5 baseline metrics
  cli-pipeline       `saleval evaluate --metrics all --jobs nproc` on two half-size
                     datasets, then `aggregate` on each and `rank` across both

Inputs are synthesized from --seed. A run makes at least two untraced
iterations of the workload, and more while another one fits in --seconds.
With --trace 0 it reports the end-to-end metrics, with throughput, wall
time and set-up time rescaled to a reference host speed (speed.py), and
prints the raw times and untraced pair latencies beside them; with
--trace 1 it alternates untraced and traced iterations and reports
per-layer self times and work counters, checked against their closed
forms. Every
iteration's records go through the correctness gate (gate.py). The last
line of standard output is the result as one JSON object; the whole
result, with the environment fingerprint, is also written to
.bench_work/results/. Exits 2 when the checkout has no saleval sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# none of these imports numpy at import time, so the thread pins set in main() hold
import gate
import speed
from tracer import CALL_LAYERS, METRIC_SPANS, SELF_TIME_LAYERS, LatencyProbe, Tracer, summarize
from workloads import BENCH_DIR, SPECS, make_inputs, run_cli, run_library, subprocess_env

# one BLAS/OpenMP thread per process, here and in every child
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 0
SETUP_PROBES = {"full": 5, "smoke": 1}
RESCORED_PAIRS = 1  # per dataset
# untraced iterations per run at least; a floor keeps the count, and with it
# the tail percentile, from changing when the machine runs slower
MIN_ITERATIONS = 2
# per-pair seconds of each shuffled metric in the baseline profile of ROADMAP.md
BASELINE_PROFILE_S = {"sauc": 0.14, "snss": 0.08, "sskld": 0.12, "sjsd": 0.14, "semd": 0.37}

SETUP_PROBE = (
    "import sys, time\n"
    "import saleval\n"
    "saleval.load_manifest(sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "print(repr(t), repr(speed.kernel_seconds()))\n"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def measure_setup(manifest: Path, probes: int) -> list[tuple[float, float, float]]:
    """Seconds from spawning a fresh interpreter until load_manifest returns.

    Each probe is (seconds, reading, reading), reading being the child's
    speed.kernel_seconds() right after load_manifest, so that
    speed.at_reference(*probe) rescales it.
    perf_counter reads the system-wide monotonic clock, so the child's
    reading minus the parent's is the span across both processes.
    """
    env = subprocess_env(ROOT)
    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(manifest), str(BENCH_DIR)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        end, reading = (float(x) for x in proc.stdout.split()[-2:])
        out.append((end - t0, reading, reading))
    return out


def time_boxed(step, seconds: float, at_least: int) -> list:
    """Run step at_least times, then again while another one would end before the deadline."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if len(results) >= at_least and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest sample with at least 10 above it.

    Never below the median: with fewer than 21 samples it is the (upper)
    median, whatever lies beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * (k + 1) / n, n


# -- one run ----------------------------------------------------------------


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.spec = SPECS[args.workload][args.size]
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.manifests: list[Path] = []
        self.reference: dict | None = None
        self.baseline: dict | None = None
        self.last_records: dict = {}
        self.last_failed: set = set()
        self.problems: list[str] = []
        self.missing: dict[str, int] = {}

    def iteration(self, mode: str, jobs: int = 1):
        """One workload iteration: "plain", "latency" or "traced"."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        trace = None
        if self.spec.cli:
            trace_dir = None
            if mode == "traced":
                trace_dir = self.work / "traces"
                shutil.rmtree(trace_dir, ignore_errors=True)
                trace_dir.mkdir()
            it = run_cli(self.spec, self.manifests, self.args.seed, out, ROOT, jobs, trace_dir)
            if trace_dir is not None:
                trace = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("trace*.json"))]
        elif mode == "latency":
            with LatencyProbe(speed_reading=speed.kernel_seconds) as probe:
                it = run_library(self.spec, self.manifests[0], self.args.seed, out)
            it.split_evaluate(probe.samples, probe.spent_s)
        elif mode == "traced":
            tracer = Tracer()
            with tracer:
                it = run_library(self.spec, self.manifests[0], self.args.seed, out)
            trace = [tracer.as_dict()]
        else:
            it = run_library(self.spec, self.manifests[0], self.args.seed, out)
        self.gate(it)
        return it, trace

    def gate(self, it) -> None:
        """Completeness plus agreement with the reference or the first iteration."""
        if self.baseline is None:
            self.baseline = self.reference if self.reference is not None else dict(it.records)
            self.missing = gate.missing_by_metric(it.records)
        self.attempted += it.pairs
        bad = gate.check_records(self.spec, it.records, self.baseline)
        self.failed += len(bad)
        self.problems += [f"records differ or incomplete: {'/'.join(p)}" for p in sorted(bad)[:5]]
        self.last_records, self.last_failed = it.records, bad

    def final_checks(self) -> None:
        """Orderings and direct rescoring, once per run on the last records."""
        broken = gate.check_orderings(self.spec, self.last_records)
        # a broken ordering fails every pair of its dataset
        bad = {p for p in map(gate.pair_of, self.last_records) if p[0] in broken}
        self.problems += [problem for problems in broken.values() for problem in problems]
        rescored, problems = gate.rescore_sample(
            self.spec, self.manifests, self.args.seed, self.last_records, RESCORED_PAIRS
        )
        self.failed += len((bad | rescored) - self.last_failed)  # a pair counts once per iteration
        self.problems += problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def at_reference(it) -> tuple[float, float]:
    """(evaluation, wall) seconds of an iteration, each step rescaled by speed.at_reference."""
    ref = {name: speed.at_reference(*step) for name, step in it.steps.items()}
    return sum(s for name, s in ref.items() if name.startswith("evaluate")), sum(ref.values())


def end_to_end(run: Run, iters, setup: list[tuple]) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, plus raw times and pair latencies as details.

    Throughput, wall time and set-up time are taken at the reference host
    speed (speed.py): on a shared host the raw figures spread across runs
    by more than any allowed bound. The raw medians are printed beside them.
    Pair latency is not a bounded metric: inside cli-pipeline's two
    concurrent pool workers it spreads more across runs than any allowed
    bound. The traced runs report it per layer.
    """
    latencies = [t for it in iters for t in it.latencies.values()]
    if not latencies:
        raise RuntimeError("no evaluate_pair latencies were recorded")
    value, pct, n = tail(latencies)
    ref = [at_reference(it) for it in iters]
    metrics = {
        "pairs_per_ref_s": (statistics.median(run.spec.pairs / e for e, _ in ref), "1/s"),
        "wall_ref_s": (statistics.median(w for _, w in ref), "s"),
        "setup_s": (statistics.median(speed.at_reference(*probe) for probe in setup), "s"),
        "peak_rss_mb": (max(it.peak_rss_mb for it in iters), "MB"),
    }
    details = {
        "iterations": len(iters),
        "pairs_per_s": statistics.median(it.pairs / it.eval_s for it in iters),
        "wall_s": statistics.median(it.wall_s for it in iters),
        "host_speed": statistics.median(w / it.wall_s for (_, w), it in zip(ref, iters)),
        "pair_ms_p50": 1000.0 * statistics.median(latencies),
        "pair_ms_tail": 1000.0 * value,
        "pair_ms_tail_percentile": pct,
        "pair_latency_samples": n,
        "setup_s_raw": statistics.median(s for s, _, _ in setup),
        "setup_s_samples": [s for s, _, _ in setup],
        "wall_s_samples": [it.wall_s for it in iters],
        "wall_ref_s_samples": [w for _, w in ref],
        "pool_util": statistics.median(it.cpu_s / (nproc() * it.eval_s) for it in iters),
    }
    return metrics, details


def layer_metrics(summ: dict, traced, plain, pooled) -> dict:
    """Per-layer metrics of one traced iteration, with its untraced twin."""
    self_s, calls, counts = summ["self_s"], summ["calls"], summ["counts"]
    m = {f"{layer}_s": (self_s.get(layer, 0.0), "s") for layer in SELF_TIME_LAYERS}
    m.update({f"{layer}_calls": (calls.get(layer, 0), "count") for layer in CALL_LAYERS})
    derivations = counts.get("shuffle.seed_derivations", 0)
    m.update(
        {
            "metrics_histogram.emd_solves": (calls.get("metrics_histogram.emd", 0), "count"),
            "shuffle.seed_derivations": (derivations, "count"),
            "shuffle.distinct_seeds": (summ["distinct_seeds"], "count"),
            "shuffle.seed_reuse": (summ["distinct_seeds"] / derivations if derivations else 0.0, "ratio"),
            "maps.blur_mpix": (counts.get("maps.blur_pixels", 0) / 1e6, "Mpix"),
            "harness.protocol.pairs": (summ["pairs"], "count"),
            "harness.protocol.pair_ms_p50": (1000.0 * statistics.median(summ["pair_s"] or [0.0]), "ms"),
            "harness.protocol.pair_ms_tail": (1000.0 * tail(summ["pair_s"] or [0.0])[0], "ms"),
            "harness.protocol.pair_self_s": (self_s.get("harness.protocol.pair", 0.0), "s"),
            "harness.protocol.batch_self_s": (self_s.get("harness.protocol.batch", 0.0), "s"),
            "harness.protocol.candidates": (sum(calls.get(n, 0) for n in METRIC_SPANS), "count"),
            "harness.protocol.pool_util": (pooled.cpu_s / (nproc() * pooled.eval_s), "ratio"),
            "harness.report.bytes": (counts.get("harness.report.bytes", 0), "B"),
            "cli.evaluate_s": (pooled.sub_s("evaluate"), "s"),
            "cli.aggregate_s": (pooled.sub_s("aggregate"), "s"),
            "cli.rank_s": (pooled.sub_s("rank"), "s"),
            "trace.wall_s": (traced.wall_s, "s"),
            "trace.overhead_s": (traced.wall_s - plain.wall_s, "s"),
        }
    )
    return m


def traced_run(run: Run) -> tuple[dict, dict, list]:
    """Alternate untraced and traced iterations; per-layer metrics from the traced ones.

    The CLI cycle adds an untraced iteration at jobs=nproc, the source of
    pool utilisation and the subcommand times; the traced one runs at jobs=1.
    """
    def cycle():
        pooled = run.iteration("plain", jobs=nproc())[0] if run.spec.cli else None
        plain, _ = run.iteration("plain")
        traced, trace = run.iteration("traced")
        summ = summarize(trace)
        return summ, layer_metrics(summ, traced, plain, pooled or plain), trace

    cycles = time_boxed(cycle, run.args.seconds, at_least=1)
    # counts repeat exactly from cycle to cycle; times take the median
    metrics = {
        name: (value if unit in ("count", "B") else statistics.median(c[1][name][0] for c in cycles), unit)
        for name, (value, unit) in cycles[0][1].items()
    }
    summ = cycles[0][0]
    layers = {name: value for name, (value, _) in cycles[0][1].items()}
    checks = [gate.check_counters(run.spec, {n: v for n, (v, _) in c[1].items()}, c[0]["absent"]) for c in cycles]
    run.problems += [
        f"counter {name}: observed {v['observed']}, closed form {v['expected']}"
        for c in checks for name, v in c.items() if v["status"] == "mismatch"
    ]
    details = {
        "cycles": len(cycles),
        "absent_layers": summ["absent"],
        "counter_checks": checks[0],
        "per_pair_ms": per_metric_ms(summ, layers["harness.protocol.pairs"]),
        "shares_of_traced_wall": shares(summ, layers["trace.wall_s"]),
    }
    return metrics, details, cycles[-1][2]


def per_metric_ms(summ: dict, pairs: int) -> dict:
    out = {}
    for name in METRIC_SPANS:
        metric = name.split(".", 1)[1]
        if summ["calls"].get(name) and pairs:
            out[metric] = {
                "inclusive_ms": 1000.0 * summ["total_s"][name] / pairs,
                "self_ms": 1000.0 * summ["self_s"][name] / pairs,
                "roadmap_baseline_ms": (
                    1000.0 * BASELINE_PROFILE_S[metric] if metric in BASELINE_PROFILE_S else None
                ),
            }
    return out


def shares(summ: dict, wall: float) -> dict:
    top = sorted(summ["self_s"].items(), key=lambda kv: -kv[1])
    return {
        "largest_self_time_layer": top[0][0] if top else None,
        "flow.transport+shuffle.draw": (
            summ["self_s"].get("flow.transport", 0.0) + summ["self_s"].get("shuffle.draw", 0.0)
        ) / wall,
        "top": {name: s / wall for name, s in top[:8]},
    }


# -- environment and output -------------------------------------------------


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            # a checkout that is no repository must not report an enclosing one
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SPECS) + ["all"])
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument(
        "--write-reference", action="store_true",
        help=f"run one iteration at seed {REFERENCE_SEED} and store its records as the reference",
    )
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    common = [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
    ] + (["--write-reference"] if args.write_reference else [])
    for workload in sorted(SPECS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, *common],
            stdout=subprocess.PIPE, text=True,
        )
        print(f"== {workload}\n{proc.stdout}", end="", flush=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        if "metrics" not in result:  # --write-reference prints no result
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "saleval" / "__init__.py").is_file():
        print(f"bench: no saleval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    ref_path = REFERENCE_DIR / f"{args.workload}-{args.size}.csv"
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        run.manifests = make_inputs(run.spec, args.seed, work / "inputs")
        if args.write_reference:
            if args.seed != REFERENCE_SEED:
                print(f"bench: references are taken at seed {REFERENCE_SEED}", file=sys.stderr)
                return 2
            it, _ = run.iteration("plain", jobs=nproc())
            gate.write_reference(ref_path, it.records)
            print(f"wrote {ref_path} ({len(it.records)} records)")
            return 0
        run.reference = gate.read_reference(ref_path) if args.seed == REFERENCE_SEED else None
        spans = None
        if args.trace:
            metrics, details, spans = traced_run(run)
        else:
            setup = measure_setup(run.manifests[0], SETUP_PROBES[args.size])
            mode = "plain" if run.spec.cli else "latency"
            iters = time_boxed(
                lambda: run.iteration(mode, jobs=nproc())[0], args.seconds, MIN_ITERATIONS
            )
            metrics, details = end_to_end(run, iters, setup)
        run.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details.update(
        {
            "reference_checked": run.reference is not None,
            "missing_by_metric": run.missing,
            "failed_share": run.failed / run.attempted,
            "problems": list(dict.fromkeys(run.problems))[:20],
        }
    )
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = fingerprint(args)
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(
        json.dumps({"environment": env, "details": details, **result}, indent=2) + "\n"
    )
    if spans is not None:
        # one document per traced process of the last traced iteration
        (results_dir / f"{tag}-spans.json").write_text(json.dumps(spans))
    print_report(env, details, metrics)
    print(json.dumps(result))
    return 0 if run.correct else 1


def print_report(env: dict, details: dict, metrics: dict) -> None:
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    for key in (
        "pairs_per_s", "wall_s", "setup_s_raw", "host_speed", "pair_ms_p50", "pair_ms_tail", "pair_ms_tail_percentile", "pair_latency_samples",
        "iterations", "cycles", "pool_util",
    ):
        if key in details:
            print(f"  {key:40s} {details[key]:>14.6g}")
    for name, check in details.get("counter_checks", {}).items():
        print(f"  counter {name:32s} {check['status']:>8s} observed {check['observed']} expected {check['expected']}")
    if details.get("per_pair_ms"):
        print("  per metric, ms per pair (inclusive / self / ROADMAP.md baseline):")
        for metric, v in details["per_pair_ms"].items():
            ref = "-" if v["roadmap_baseline_ms"] is None else f"{v['roadmap_baseline_ms']:.0f}"
            print(f"    {metric:8s} {v['inclusive_ms']:9.1f} {v['self_ms']:9.1f} {ref:>6s}")
    if "shares_of_traced_wall" in details:
        print("  shares of traced wall " + json.dumps(details["shares_of_traced_wall"]))
    print(f"  failed_share {details['failed_share']:.6g}  missing scores by metric {details['missing_by_metric']}")
    for problem in details["problems"]:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
