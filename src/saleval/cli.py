"""The saleval command line.

Subcommands: evaluate (full protocol over a manifest), aggregate
(re-derive tables from a record CSV), rank (rankings plus concordance
across record sets), synth (generate a synthetic dataset), validate (run
the built-in oracle suites). Exit codes: 0 success, 1 user error, 2
internal error. The SALEVAL_OUT environment variable supplies a default
output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ManifestError
from .harness import (
    ALL_METRICS,
    EvalConfig,
    aggregate_scores,
    build_rankings,
    emit_report,
    evaluate_batch,
    kendalls_w,
    load_manifest,
    rank_by_score,
    read_records,
    synth_dataset,
)
from .harness.dataset import STRATIFY_MODES
from .harness.report import write_rows
from .harness.stats import GROUP_KEYS, spread_tables
from .metrics_histogram import SIGN_MODES
from .shuffle import RNG_ALGORITHM, SEED_DERIVATION, TrialPlan

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # user errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sigma_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad blur sweep: {text!r}") from None


def _metric_list(text: str) -> tuple[str, ...]:
    if text == "all":
        return ALL_METRICS
    metrics = tuple(t.strip() for t in text.split(","))
    for m in metrics:
        if m not in ALL_METRICS:
            raise argparse.ArgumentTypeError(f"unknown metric {m!r}; choose from {ALL_METRICS}")
    return metrics


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("SALEVAL_OUT")
    if env:
        return Path(env)
    raise SystemExit(_user_error("no output directory: pass --out or set SALEVAL_OUT"))


def _user_error(message: str) -> int:
    print(f"saleval: error: {message}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saleval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="run the full evaluation protocol over a manifest")
    ev.add_argument("--manifest", required=True, help="dataset manifest JSON")
    ev.add_argument("--out", help="output directory (default: $SALEVAL_OUT)")
    config = EvalConfig()  # the one source of the protocol defaults
    for flag, kind, default, text in (
        ("--seed", int, TrialPlan().master_seed, "master seed"),
        ("--trials", int, config.trials, "shuffle trials per metric"),
        ("--bins", int, config.bins, "value-histogram bins"),
        ("--epsilon", float, config.epsilon, "KLD epsilon"),
        ("--emd-saturation", int, config.emd_saturation, "EMD ground-distance cap"),
    ):
        ev.add_argument(flag, type=kind, default=default, help=f"{text} (default {default})")
    sweep = ",".join(f"{s:g}" for s in config.blur_sweep)
    ev.add_argument(
        "--blur-sweep",
        type=_sigma_list,
        default=config.blur_sweep,
        help=f"comma-separated blur sigmas (default {sweep})",
    )
    ev.add_argument(
        "--metrics",
        type=_metric_list,
        default=config.metrics,
        help="comma-separated metric subset, or 'all' (default: the shuffled five)",
    )
    ev.add_argument("--sign-mode", choices=SIGN_MODES, default=config.sign_mode)
    ev.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes, >= 1 (default 1), at most one per image; each "
        "process holds one image's density map at a time; at 1, large maps are blurred "
        "on all the CPUs the process may use",
    )
    ev.add_argument("--strict", action="store_true", help="missing scores fail the run")

    ag = sub.add_parser("aggregate", help="re-derive aggregate tables from a record CSV")
    ag.add_argument("--records", required=True, help="records.csv from a previous run")
    ag.add_argument("--out", help="output directory (default: $SALEVAL_OUT)")
    ag.add_argument("--group-by", choices=sorted(GROUP_KEYS), default="distortion")

    rk = sub.add_parser("rank", help="rank models and measure concordance across record sets")
    rk.add_argument("--records", required=True, nargs="+", help="one or more records.csv files")
    rk.add_argument("--out", help="output directory (default: $SALEVAL_OUT)")

    sy = sub.add_parser("synth", help="generate a synthetic validation dataset")
    sy.add_argument("--out", help="output directory (default: $SALEVAL_OUT)")
    sy.add_argument("--images", type=int, default=20)
    sy.add_argument("--width", type=int, default=256)
    sy.add_argument("--height", type=int, default=192)
    sy.add_argument(
        "--fixation-model", choices=("center-biased", "off-center-blobs"), default="center-biased"
    )
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--fixations", type=int, default=40, help="fixations per image (default 40)")
    sy.add_argument("--ppd", type=float, default=8.0, help="pixels per degree (default 8)")
    sy.add_argument(
        "--models",
        default="gt_copy,center_gauss",
        help="comma-separated baseline model maps to emit",
    )
    sy.add_argument("--stratify", choices=STRATIFY_MODES, default="none")

    sub.add_parser("validate", help="run the built-in oracle suites")
    return parser


def _cmd_evaluate(args) -> int:
    out = _out_dir(args)
    manifest = load_manifest(args.manifest)
    config = EvalConfig(
        trials=args.trials,
        bins=args.bins,
        epsilon=args.epsilon,
        emd_saturation=args.emd_saturation,
        blur_sweep=args.blur_sweep,
        metrics=args.metrics,
        sign_mode=args.sign_mode,
    )
    plan = TrialPlan(num_trials=args.trials, master_seed=args.seed)
    records = evaluate_batch(manifest, config, plan, jobs=args.jobs)
    tables = aggregate_scores(records, group_by="distortion")
    rankings = build_rankings(tables)
    config_echo = {
        **dataclasses.asdict(config),
        "manifest": str(args.manifest),
        "master_seed": args.seed,
        "pixels_per_degree": manifest.pixels_per_degree,
        "rng": RNG_ALGORITHM,
        "seed_derivation": SEED_DERIVATION,
        "trial_plan_digest": plan.digest(),
    }
    paths = emit_report(records, rankings, tables, out, config_echo)
    n_missing = sum(1 for r in records if r.score is None)
    print(f"wrote {paths['records']} ({len(records)} records, {n_missing} missing)")
    if args.strict and n_missing:
        return _user_error(f"{n_missing} missing scores under --strict")
    return 0


def _cmd_aggregate(args) -> int:
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    records = read_records(args.records)
    rows = aggregate_scores(records, group_by=args.group_by)
    path = out / f"aggregate_{args.group_by}.csv"
    write_rows(path, rows)
    if args.group_by == "distortion":
        # the tables reuse these rows, which normalized_std_table would aggregate again
        for axis, table in spread_tables(rows).items():
            write_rows(out / f"normalized_std_{axis}.csv", table)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_rank(args) -> int:
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    dataset_rows = [aggregate_scores(read_records(p), group_by="dataset") for p in args.records]
    per_dataset: list[dict[str, dict[str, float]]] = []
    for rows in dataset_rows:
        by_metric: dict[str, dict[str, float]] = {}
        for row in rows:
            by_metric.setdefault(row["metric"], {})[row["model"]] = row["mean_score"]
        per_dataset.append(by_metric)
    metrics = sorted(set.intersection(*(set(d) for d in per_dataset)))
    if not metrics:
        return _user_error("record sets share no metrics")
    kendall_rows = []
    for metric in metrics:
        rankings = [rank_by_score(d[metric]) for d in per_dataset]
        models = set(rankings[0])
        if any(set(r) != models for r in rankings):
            return _user_error(f"record sets rank different models for metric {metric!r}")
        row = {"metric": metric, "n_models": len(models), "n_datasets": len(rankings)}
        row["kendalls_w"] = kendalls_w(rankings) if len(rankings) >= 2 else None
        kendall_rows.append(row)
    write_rows(out / "kendall.csv", kendall_rows)
    for i, rows in enumerate(dataset_rows):
        write_rows(out / f"rankings_{i}.csv", build_rankings(rows, keys=()))
    print(f"wrote {out / 'kendall.csv'} ({len(kendall_rows)} metrics)")
    return 0


def _cmd_synth(args) -> int:
    out = _out_dir(args)
    models = tuple(t.strip() for t in args.models.split(",") if t.strip())
    path = synth_dataset(
        out,
        num_images=args.images,
        frame=(args.width, args.height),
        fixation_model=args.fixation_model,
        seed=args.seed,
        fixations_per_image=args.fixations,
        pixels_per_degree=args.ppd,
        models=models,
        stratify=args.stratify,
    )
    print(f"wrote {path}")
    return 0


def _cmd_validate(_args) -> int:
    from .metrics_fixation import _sample_auc_rows, auc_pair_oracle
    from .metrics_histogram import emd_brute_oracle, emd_hat, jsd

    rng = np.random.default_rng(20240501)
    ok = True

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 257))
        pos = rng.beta(2, 1, n)
        neg = rng.beta(1, 2, n)
        diff = abs(_sample_auc_rows(pos, neg[None])[0] - auc_pair_oracle(pos, neg))
        tol = 0.01 if n >= 64 else 0.05
        worst = max(worst, diff - tol)
    ok &= worst <= 0
    print(f"[{'PASS' if worst <= 0 else 'FAIL'}] AUC threshold grid vs pair-counting oracle")

    # the kernel sauc, auc_f and auc_s score with, on values at the grid's
    # own levels, where grid ties are the values' ties and both are exact
    levels = np.linspace(1.0, 0.0, 256)
    grid_rng = np.random.default_rng(20240502)
    worst = 0.0
    for _ in range(200):
        pos = levels[np.rint(grid_rng.beta(2, 1, int(grid_rng.integers(1, 129))) * 255).astype(int)]
        shape = (int(grid_rng.integers(1, 9)), int(grid_rng.integers(1, 129)))
        neg = levels[np.rint(grid_rng.beta(1, 2, shape) * 255).astype(int)]
        rows = _sample_auc_rows(pos, neg)
        worst = max(worst, *(abs(r - auc_pair_oracle(pos, n)) for r, n in zip(rows, neg)))
    ok &= worst <= 1e-15
    print(f"[{'PASS' if worst <= 1e-15 else 'FAIL'}] AUC grid kernel vs pair-counting oracle on grid levels")

    worst = 0.0
    for _ in range(200):
        bins = int(rng.integers(2, 9))
        a = rng.random(bins) * rng.integers(1, 5)
        b = rng.random(bins) * rng.integers(1, 5)
        sat = int(rng.integers(1, 8))
        worst = max(worst, abs(emd_hat(a, b, sat) - emd_brute_oracle(a, b, sat)))
    ok &= worst <= 1e-9
    print(f"[{'PASS' if worst <= 1e-9 else 'FAIL'}] EMD min-cost flow vs LP oracle")

    from scipy.stats import entropy

    worst = 0.0
    for _ in range(200):
        p = rng.random(8)
        q = rng.random(8)
        got = jsd(p, q)
        pn, qn = p / p.sum(), q / q.sum()
        m = 0.5 * (pn + qn)
        ref = 0.5 * (entropy(pn, m, base=2) + entropy(qn, m, base=2))
        worst = max(worst, abs(got - ref))
    ok &= worst <= 1e-12
    print(f"[{'PASS' if worst <= 1e-12 else 'FAIL'}] JSD vs definition unrolled")

    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "evaluate": _cmd_evaluate,
        "aggregate": _cmd_aggregate,
        "rank": _cmd_rank,
        "synth": _cmd_synth,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ManifestError, FileNotFoundError, ValueError) as exc:
        return _user_error(str(exc))
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"saleval: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
