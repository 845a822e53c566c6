"""Report files: per-record CSV, JSON summary, ranking and other row-dict CSVs.

Everything written here is deterministic: records are sorted before
writing, floats use Python's shortest round-trip repr, and the JSON is
key-sorted. Re-running with the same inputs and seed reproduces the
output byte for byte, and re-parsing the CSV reproduces the records.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

from .protocol import EvaluationRecord

__all__ = ["RECORD_FIELDS", "emit_report", "read_records", "write_rows"]

# (EvaluationRecord attribute, records.csv column), in column order
_RECORD_COLUMNS = (
    ("model_id", "model"),
    ("image_id", "image"),
    ("metric_id", "metric"),
    ("score", "score"),
    ("blur_sigma", "blur_sigma"),
    ("distortion_type", "distortion_type"),
    ("distortion_level", "distortion_level"),
    ("complexity", "complexity"),
    ("trial_plan_digest", "seed_digest"),
)
RECORD_FIELDS = tuple(column for _, column in _RECORD_COLUMNS)
# the columns read back as floats, blank for a missing value
_FLOAT_COLUMNS = ("score", "blur_sigma")


def _fmt(value) -> str:
    # under numpy 2 the repr of an np.float64 is "np.float64(x)", not a number
    if isinstance(value, float) and type(value) is not float:
        raise TypeError(f"report value {value!r} is a {type(value).__name__}, not a float")
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def write_rows(path, rows) -> None:
    """Write row dicts as CSV: the sorted union of their keys, blank where missing."""
    fields = sorted({k for row in rows for k in row})
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row.get(k)) for k in fields])


def emit_report(
    records: Sequence[EvaluationRecord],
    rankings,
    tables,
    out_dir,
    config_echo: dict | None = None,
) -> dict[str, Path]:
    """Write records.csv, summary.json and rankings.csv into out_dir.

    config_echo lands verbatim under "config" in the summary so a report
    is always replayable; aggregate tables ride along under "tables".
    Refuses an empty record list.
    """
    if not records:
        raise ValueError("refusing to write a report for zero records")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out_dir / "records.csv",
        "summary": out_dir / "summary.json",
        "rankings": out_dir / "rankings.csv",
    }

    ordered = sorted(records, key=lambda r: (r.model_id, r.image_id, r.metric_id))
    with open(paths["records"], "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(RECORD_FIELDS)
        for r in ordered:
            writer.writerow([_fmt(getattr(r, attr)) for attr, _ in _RECORD_COLUMNS])

    missing: dict[str, int] = {}
    for r in ordered:
        if r.score is None:
            missing[r.metric_id] = missing.get(r.metric_id, 0) + 1
    summary = {
        "config": config_echo or {},
        "n_records": len(ordered),
        "n_missing": sum(missing.values()),
        "missing_by_metric": missing,
        "models": sorted({r.model_id for r in ordered}),
        "metrics": sorted({r.metric_id for r in ordered}),
        "n_images": len({r.image_id for r in ordered}),
        "tables": tables,
    }
    with open(paths["summary"], "w", encoding="utf-8", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")

    write_rows(paths["rankings"], rankings)
    return paths


def read_records(path) -> list[EvaluationRecord]:
    """Parse a records.csv back into evaluation records (round-trip exact)."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != RECORD_FIELDS:
            raise ValueError(f"{path}: unexpected record CSV header")
        for row in reader:
            for column in _FLOAT_COLUMNS:
                row[column] = float(row[column]) if row[column] else None
            out.append(EvaluationRecord(**{attr: row[column] for attr, column in _RECORD_COLUMNS}))
    return out
