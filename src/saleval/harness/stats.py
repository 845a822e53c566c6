"""Aggregation and cross-dataset consistency statistics.

Scores aggregate to stratum means per (model, metric), with images
weighted equally and missing scores counted but never imputed. Rankings
derive from those means; the tie-corrected Kendall coefficient of
concordance measures how consistently different datasets (or metrics)
rank the same models.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from typing import Mapping, Sequence

import numpy as np

from .protocol import EvaluationRecord

__all__ = [
    "GROUP_KEYS",
    "STD_AXES",
    "aggregate_scores",
    "build_rankings",
    "kendalls_w",
    "normalized_std_table",
    "rank_by_score",
    "spread_tables",
]

GROUP_KEYS = {
    "distortion": ("distortion_type", "distortion_level"),
    "complexity": ("complexity", "distortion_level"),
    "dataset": (),
}

# normalized_std_table's axes: (the key its rows are labelled by, the key it
# takes the spread across); a table needs 2 strata of the second
STD_AXES = {
    "levels": ("distortion_level", "distortion_type"),
    "types": ("distortion_type", "distortion_level"),
}


def aggregate_scores(records: Sequence[EvaluationRecord], group_by: str = "distortion"):
    """Mean score per (model, metric, stratum), with missing-score counts.

    group_by picks the stratum keys: "distortion" for (type, level),
    "complexity" for (complexity, level), "dataset" for one global
    stratum. Rows where every score is missing are omitted with a warning.
    Returns a list of row dicts sorted deterministically.
    """
    if not records:
        raise ValueError("records must be non-empty")
    if group_by not in GROUP_KEYS:
        raise ValueError(f"group_by must be one of {sorted(GROUP_KEYS)}")
    keys = GROUP_KEYS[group_by]
    groups: dict[tuple, list[float | None]] = defaultdict(list)
    for rec in records:
        stratum = tuple(getattr(rec, k) for k in keys)
        groups[(rec.model_id, rec.metric_id) + stratum].append(rec.score)
    rows = []
    for group, scores in sorted(groups.items()):
        present = [s for s in scores if s is not None]
        if not present:
            warnings.warn(f"stratum {group} has no scores; omitted", stacklevel=2)
            continue
        row = {"model": group[0], "metric": group[1]}
        row.update(zip(keys, group[2:]))
        # canonical summation order keeps the mean permutation-invariant
        row["mean_score"] = float(np.mean(np.sort(present)))
        row["n_scores"] = len(present)
        row["n_missing"] = len(scores) - len(present)
        rows.append(row)
    return rows


def build_rankings(agg_rows, keys: tuple[str, ...] = ("distortion_type", "distortion_level")):
    """Order models by mean score within each (metric, stratum).

    Every model present anywhere gets ranked in every stratum; models with
    no score in a stratum sink to the bottom. Ties on the mean score break
    lexicographically by model id and carry a tie flag.
    """
    models = sorted({row["model"] for row in agg_rows})
    table: dict[tuple, dict[str, dict]] = defaultdict(dict)
    for row in agg_rows:
        stratum = tuple(row.get(k, "") for k in keys)
        table[(row["metric"],) + stratum][row["model"]] = row
    out = []
    for group in sorted(table):
        rows = table[group]
        scored = sorted(
            models,
            key=lambda m: (-rows[m]["mean_score"] if m in rows else np.inf, m),
        )
        values = [rows[m]["mean_score"] if m in rows else None for m in scored]
        for rank, (model, value) in enumerate(zip(scored, values), start=1):
            tied = values.count(value) > 1 if value is not None else False
            entry = {"metric": group[0]}
            entry.update(zip(keys, group[1:]))
            entry.update(
                {"rank": rank, "model": model, "mean_score": value, "tied": tied}
            )
            out.append(entry)
    return out


def rank_by_score(scores: Mapping[str, float]) -> dict[str, float]:
    """Ranks from scores, 1 = best; ties share their average rank.

    A tied run spanning 1-based sorted positions first..last gets rank
    (first + last) / 2, the mean of the run and exact in floating point. A
    NaN score makes every rank NaN, as a NaN propagates through ranking.
    """
    models = sorted(scores)
    keys = [-float(scores[m]) for m in models]
    if any(math.isnan(k) for k in keys):
        return dict.fromkeys(models, math.nan)
    first: dict[float, int] = {}
    last: dict[float, int] = {}
    for position, key in enumerate(sorted(keys), start=1):
        first.setdefault(key, position)
        last[key] = position
    return {m: (first[k] + last[k]) / 2 for m, k in zip(models, keys)}


def kendalls_w(rankings: Sequence[Mapping[str, float]]) -> float:
    """Tie-corrected Kendall coefficient of concordance across rankings.

    Each ranking maps the same n >= 2 models to ranks (ties allowed as
    shared average ranks); m >= 2 rankings. 1 means identical orderings, 0
    means no agreement at all.
    """
    if len(rankings) < 2:
        raise ValueError("need at least 2 rankings")
    models = sorted(rankings[0])
    n = len(models)
    if n < 2:
        raise ValueError("need at least 2 models")
    for r in rankings:
        if sorted(r) != models:
            raise ValueError("all rankings must cover the same models")
    m = len(rankings)
    totals = np.array([sum(r[model] for r in rankings) for model in models], dtype=float)
    s = float(((totals - totals.mean()) ** 2).sum())
    tie_term = 0.0
    for r in rankings:
        _, counts = np.unique(np.array([r[model] for model in models]), return_counts=True)
        tie_term += float((counts**3 - counts).sum())
    denom = m * m * (n**3 - n) - m * tie_term
    if denom == 0:
        raise ValueError("all ranks tied in every ranking; concordance undefined")
    return 12.0 * s / denom


def normalized_std_table(records: Sequence[EvaluationRecord], axis: str = "levels"):
    """Spread of each metric across one distortion axis, scale-normalized.

    axis = "levels": one row per distortion level; per model the stratum
    means across distortion types are divided by the metric's maximum over
    those types (pooled across models), their standard deviation taken,
    then averaged across models. axis = "types" swaps the roles. Low
    numbers mean the metric is stable against that kind of variation.
    """
    if axis not in STD_AXES:
        raise ValueError("axis must be 'levels' or 'types'")
    table = _std_table(aggregate_scores(records, group_by="distortion"), axis)
    if table is None:
        raise ValueError(f"records span fewer than 2 strata on the {STD_AXES[axis][1]} axis")
    return table


def spread_tables(agg) -> dict:
    """normalized_std_table on each axis with 2 strata, from its aggregate rows.

    agg is aggregate_scores(records, "distortion"); an axis whose spread
    would be taken across fewer than 2 strata is left out.
    """
    tables = {axis: _std_table(agg, axis) for axis in STD_AXES}
    return {axis: table for axis, table in tables.items() if table is not None}


def _std_table(agg, axis: str):
    """normalized_std_table from its aggregate rows; None below 2 strata."""
    row_key, col_key = STD_AXES[axis]
    if len({row[col_key] for row in agg}) < 2:
        return None
    axis_values = sorted({row[row_key] for row in agg})
    out = []
    for axis_value in axis_values:
        rows = [r for r in agg if r[row_key] == axis_value]
        metrics = sorted({r["metric"] for r in rows})
        for metric in metrics:
            cells = [r for r in rows if r["metric"] == metric]
            per_model: dict[str, list[float]] = defaultdict(list)
            for r in cells:
                per_model[r["model"]].append(r["mean_score"])
            pooled = [v for vals in per_model.values() for v in vals]
            peak = max(pooled)
            if peak <= 0:
                peak = max((abs(v) for v in pooled), default=0.0) or 1.0
            stds = [np.std(np.asarray(vals) / peak) for vals in per_model.values() if len(vals) >= 2]
            if not stds:
                continue
            out.append(
                {
                    row_key: axis_value,
                    "metric": metric,
                    "avg_std": float(np.mean(stds)),
                    "n_models": len(stds),
                }
            )
    return out
