"""The benchmark's workloads: their sizes, inputs and one iteration of each.

A library workload loads a manifest, runs evaluate_batch at jobs=1,
aggregates, ranks and writes the report, all in this process. The
cli-pipeline workload runs `saleval evaluate`, `aggregate` and `rank` as
subprocesses through cli_entry.py and reads their outputs back.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import kernel_seconds

BENCH_DIR = Path(__file__).resolve().parent
CLI_ENTRY = BENCH_DIR / "cli_entry.py"

BASELINE_MODELS = ("gt_copy", "center_gauss", "inverted_gt", "gt_noisy", "gt_blurred")
SHUFFLED = ("sauc", "snss", "sskld", "sjsd", "semd")
BASELINE = ("cc", "sim", "nss", "auc_f", "auc_s")
TRIAL_METRICS = SHUFFLED + ("auc_f",)  # the metrics that derive per-trial seeds
DEFAULT_SWEEP = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0)
SMOKE_SWEEP = (0.0, 2.0)


@dataclass(frozen=True)
class Spec:
    """Inputs and protocol settings of one workload at one size."""

    images: int
    frame: tuple[int, int]
    fixations: int
    models: tuple[str, ...]
    metrics: tuple[str, ...]
    trials: int = 100
    sweep: tuple[float, ...] = DEFAULT_SWEEP
    map_divisor: int = 1  # model maps are stored at frame / map_divisor
    fixation_models: tuple[str, ...] = ("center-biased",)
    cli: bool = False

    @property
    def pairs(self) -> int:
        return len(self.fixation_models) * self.images * len(self.models)


_CLI_MODELS = ("gt_copy", "center_gauss", "inverted_gt")
_BOTH = ("center-biased", "off-center-blobs")

SPECS = {
    "shuffled-protocol": {
        "full": Spec(2, (256, 192), 40, BASELINE_MODELS, SHUFFLED),
        "smoke": Spec(2, (64, 48), 10, BASELINE_MODELS, SHUFFLED, trials=4, sweep=SMOKE_SWEEP),
    },
    "hires-baseline": {
        "full": Spec(2, (768, 512), 100, BASELINE_MODELS, BASELINE, map_divisor=4),
        "smoke": Spec(
            2, (128, 96), 10, BASELINE_MODELS, BASELINE, trials=4, sweep=SMOKE_SWEEP, map_divisor=4
        ),
    },
    "cli-pipeline": {
        "full": Spec(2, (128, 96), 40, _CLI_MODELS, SHUFFLED + BASELINE, fixation_models=_BOTH, cli=True),
        "smoke": Spec(
            2, (64, 48), 10, _CLI_MODELS, SHUFFLED + BASELINE, trials=4, sweep=SMOKE_SWEEP,
            fixation_models=_BOTH, cli=True,
        ),
    },
}


def make_inputs(spec: Spec, seed: int, work: Path) -> list[Path]:
    """Synthesize one dataset per fixation model; return the manifest paths."""
    from saleval import synth_dataset
    from saleval.io import read_pgm, write_pgm
    from saleval.maps import resize_map

    manifests = []
    for i, fixation_model in enumerate(spec.fixation_models):
        out = work / f"dataset{i}"
        path = synth_dataset(
            out,
            num_images=spec.images,
            frame=spec.frame,
            fixation_model=fixation_model,
            seed=seed,
            fixations_per_image=spec.fixations,
            models=spec.models,
            stratify="distortions",
        )
        if spec.map_divisor > 1:
            # model outputs usually come at a lower resolution than the image
            w, h = (d // spec.map_divisor for d in spec.frame)
            for model in spec.models:
                for pgm in sorted((out / "maps" / model).glob("*.pgm")):
                    write_pgm(pgm, resize_map(read_pgm(pgm), w, h))
        manifests.append(path)
    return manifests


@dataclass
class Iteration:
    """What one run of a workload produced and how long it took."""

    records: dict[tuple, tuple]  # (dataset, model, image, metric) -> (score, blur_sigma)
    wall_s: float
    eval_s: float
    cpu_s: float  # CPU seconds spent evaluating, pool workers included
    peak_rss_mb: float
    pairs: int
    # name -> (wall seconds, speed.kernel_seconds() right before, right after) of
    # the timed steps, which add up to wall_s; the "evaluate*" ones make up eval_s
    steps: dict[str, tuple[float, float, float]] = dataclasses.field(default_factory=dict)
    latencies: dict[str, float] = dataclasses.field(default_factory=dict)  # pair label -> seconds

    def sub_s(self, subcommand: str) -> float:
        return sum(s for name, (s, _, _) in self.steps.items() if name.startswith(subcommand))

    def split_evaluate(self, samples: list[tuple[str, float, float]], probe_s: float) -> None:
        """Cut the evaluate step into its pairs and the rest of the batch.

        samples are (pair label, seconds, kernel reading right before) in
        call order; probe_s is the time the probe spent on its readings,
        which is taken out of every total.
        """
        seconds, before, after = self.steps["evaluate"]
        self.steps["evaluate"] = (seconds - probe_s - sum(s for _, s, _ in samples), before, after)
        afters = [reading for _, _, reading in samples[1:]] + [after]
        for (label, s, reading), next_reading in zip(samples, afters):
            self.steps[f"evaluate pair {label}"] = (s, reading, next_reading)
        self.latencies = {label: s for label, s, _ in samples}
        self.wall_s -= probe_s
        self.eval_s -= probe_s
        self.cpu_s -= probe_s


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_library(spec: Spec, manifest: Path, seed: int, out: Path) -> Iteration:
    """Load, evaluate at jobs=1, aggregate, rank and write the report in-process.

    The saleval functions are looked up at call time, so the tracer's
    wrappers are the ones called while it is installed.
    """
    import saleval

    k0 = kernel_seconds()
    t0 = time.perf_counter()
    ds = saleval.load_manifest(manifest)
    config = saleval.EvalConfig(trials=spec.trials, blur_sweep=spec.sweep, metrics=spec.metrics)
    plan = saleval.TrialPlan(num_trials=spec.trials, master_seed=seed)
    t1 = time.perf_counter()
    k1 = kernel_seconds()
    c1 = _cpu_self()
    t2 = time.perf_counter()
    recs = saleval.evaluate_batch(ds, config, plan, jobs=1)
    t3 = time.perf_counter()
    c2 = _cpu_self()
    k2 = kernel_seconds()
    t4 = time.perf_counter()
    tables = saleval.aggregate_scores(recs, group_by="distortion")
    rankings = saleval.build_rankings(tables)
    echo = dataclasses.asdict(config) | {"trial_plan_digest": plan.digest()}
    saleval.emit_report(recs, rankings, tables, out, echo)
    t5 = time.perf_counter()
    k3 = kernel_seconds()
    records = {
        ("dataset0", r.model_id, r.image_id, r.metric_id): (r.score, r.blur_sigma) for r in recs
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Iteration(
        records=records,
        wall_s=(t1 - t0) + (t3 - t2) + (t5 - t4),
        eval_s=t3 - t2,
        cpu_s=c2 - c1,
        peak_rss_mb=rss,
        pairs=spec.pairs,
        steps={"load": (t1 - t0, k0, k1), "evaluate": (t3 - t2, k1, k2), "report": (t5 - t4, k2, k3)},
    )


def subprocess_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(cmd: list[str], env: dict, log: Path) -> tuple[float, float, float]:
    """Run cmd to completion; wall seconds, CPU seconds and peak RSS (MB) of its tree.

    wait4 reports the child's usage together with that of the children it
    waited for, so pool workers are included.
    """
    with open(log, "ab") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=sink, stderr=sink, env=env)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {proc.returncode}:\n{tail}")
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def read_records_csv(path: Path, dataset: str) -> dict[tuple, tuple]:
    """Parse a records.csv independently of saleval's own reader."""
    out = {}
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            score = float(row["score"]) if row["score"] else None
            sigma = float(row["blur_sigma"]) if row["blur_sigma"] else None
            out[(dataset, row["model"], row["image"], row["metric"])] = (score, sigma)
    return out


def run_cli(
    spec: Spec,
    manifests: list[Path],
    seed: int,
    out: Path,
    root: Path,
    jobs: int,
    trace_dir: Path | None = None,
) -> Iteration:
    """evaluate each dataset, aggregate each, then rank across all of them."""
    env = subprocess_env(root)
    log = out / "cli.log"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    reports = []
    for i, manifest in enumerate(manifests):
        report = out / f"report{i}"
        reports.append(report)
        steps.append(
            (
                f"evaluate{i}",
                [
                    "evaluate", "--manifest", str(manifest), "--out", str(report),
                    "--metrics", ",".join(spec.metrics), "--jobs", str(jobs),
                    "--seed", str(seed), "--trials", str(spec.trials),
                    "--blur-sweep", ",".join(repr(s) for s in spec.sweep),
                ],
            )
        )
    for i, report in enumerate(reports):
        steps.append(
            (f"aggregate{i}", ["aggregate", "--records", str(report / "records.csv"), "--out", str(out / f"tables{i}")])
        )
    steps.append(
        ("rank", ["rank", "--records", *(str(r / "records.csv") for r in reports), "--out", str(out / "ranks")])
    )

    step_s = {}
    cpu = rss = 0.0
    for n, (step, argv) in enumerate(steps):
        evaluate = step.startswith("evaluate")
        opts = ["--latency-file", str(out / f"latency-{step}.txt")] if evaluate else []
        if trace_dir is not None:
            opts = ["--trace-out", str(trace_dir / f"trace{n}.json")]
        # the subcommand reads the host speed itself, in the process doing the work
        speed_file = out / f"speed-{step}.txt"
        cmd = [sys.executable, str(CLI_ENTRY), *opts, "--speed-file", str(speed_file), "--", *argv]
        wall, cpu_s, rss_mb = _spawn(cmd, env, log)
        before, after, spent = (float(x) for x in speed_file.read_text().split())
        step_s[step] = (wall - spent, before, after)
        rss = max(rss, rss_mb)
        if evaluate:
            cpu += cpu_s

    records = {}
    latencies = {}
    for i, report in enumerate(reports):
        records.update(read_records_csv(report / "records.csv", f"dataset{i}"))
        lat_path = out / f"latency-evaluate{i}.txt"
        if lat_path.exists():
            for line in lat_path.read_text().splitlines():
                label, seconds = line.split()
                latencies[f"dataset{i}:{label}"] = float(seconds)
    return Iteration(
        records=records,
        wall_s=sum(s for s, _, _ in step_s.values()),
        eval_s=sum(s for step, (s, _, _) in step_s.items() if step.startswith("evaluate")),
        cpu_s=cpu,
        peak_rss_mb=rss,
        pairs=spec.pairs,
        steps=step_s,
        latencies=latencies,
    )
