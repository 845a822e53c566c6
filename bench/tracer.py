"""Spans and counters taken from outside saleval by wrapping its functions.

A wrapper replaces a target function in every loaded saleval module that
binds it, which is the name its callers look up at call time; calls made
inside the defining module are only seen for targets marked `internal`.
Spans live in memory as [name, start, end, parent, pair, child_time]
lists and are written out when the run ends. A function that a later
version of saleval no longer has is reported as an absent layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name, kind, patch the defining module too)
SPAN_TARGETS = (
    ("saleval.io", "read_pgm", "io.read_pgm", "call", True),
    ("saleval.harness.dataset", "load_manifest", "harness.dataset.load_manifest", "call", False),
    ("saleval.maps", "resize_map", "maps.resize", "call", False),
    ("saleval.maps", "gaussian_blur", "maps.blur", "call", False),
    ("saleval.maps", "density_from_fixations", "maps.density", "call", False),
    ("saleval.shuffle", "shuffled_negative_trials", "shuffle.draw", "generator", False),
    ("saleval.shuffle", "uniform_negative_trials", "shuffle.uniform_draw", "generator", False),
    ("saleval.metrics_fixation", "sauc", "metrics_fixation.sauc", "call", False),
    ("saleval.metrics_fixation", "snss", "metrics_fixation.snss", "call", False),
    ("saleval.metrics_fixation", "auc_f", "metrics_fixation.auc_f", "call", False),
    ("saleval.metrics_fixation", "cc", "metrics_fixation.cc", "call", False),
    ("saleval.metrics_fixation", "sim", "metrics_fixation.sim", "call", False),
    ("saleval.metrics_fixation", "nss", "metrics_fixation.nss", "call", False),
    ("saleval.metrics_fixation", "auc_s", "metrics_fixation.auc_s", "call", False),
    ("saleval.metrics_histogram", "sskld", "metrics_histogram.sskld", "call", False),
    ("saleval.metrics_histogram", "sjsd", "metrics_histogram.sjsd", "call", False),
    ("saleval.metrics_histogram", "semd", "metrics_histogram.semd", "call", False),
    ("saleval.metrics_histogram", "emd_hat", "metrics_histogram.emd", "call", True),
    ("saleval.flow", "min_cost_transport", "flow.transport", "call", False),
    ("saleval.harness.protocol", "evaluate_batch", "harness.protocol.batch", "call", False),
    ("saleval.harness.protocol", "evaluate_pair", "harness.protocol.pair", "pair", True),
    ("saleval.harness.stats", "aggregate_scores", "harness.stats.aggregate", "call", True),
    ("saleval.harness.stats", "build_rankings", "harness.stats.rankings", "call", False),
    ("saleval.harness.stats", "kendalls_w", "harness.stats.kendall", "call", False),
    ("saleval.harness.report", "emit_report", "harness.report.emit", "report", False),
    ("saleval.harness.report", "read_records", "harness.report.read", "call", False),
)
METRIC_SPANS = tuple(
    name for _, _, name, _, _ in SPAN_TARGETS
    if name.startswith("metrics_") and name != "metrics_histogram.emd"
)
SEED_TARGET = ("saleval.shuffle", "derive_trial_seed")

# self-time layers reported as <span>_s, and call counts reported as <span>_calls
SELF_TIME_LAYERS = (
    "flow.transport",
    "metrics_histogram.emd",
    "shuffle.draw",
    "shuffle.uniform_draw",
    "maps.blur",
    "maps.resize",
    "maps.density",
    *METRIC_SPANS,
    "io.read_pgm",
    "harness.dataset.load_manifest",
    "harness.stats.aggregate",
    "harness.stats.rankings",
    "harness.stats.kendall",
    "harness.report.emit",
    "harness.report.read",
)
CALL_LAYERS = ("flow.transport", "maps.blur", "io.read_pgm")


def _saleval_modules():
    return [m for name, m in list(sys.modules.items()) if name == "saleval" or name.startswith("saleval.")]


class Patcher:
    """Swaps functions in saleval's module namespaces and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, module: str, attr: str, make_wrapper, internal: bool = False) -> None:
        try:
            home = importlib.import_module(module)
            orig = getattr(home, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = functools.wraps(orig)(make_wrapper(orig))
        for mod in _saleval_modules():
            if mod is home and not internal:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def restore(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()


def pair_label(args, kwargs) -> str:
    """"model/image" from evaluate_pair's arguments, "?" where one is not found."""
    image = args[1] if len(args) > 1 else kwargs.get("image")
    model = kwargs.get("model_id", args[7] if len(args) > 7 else "?")
    return f"{model}/{getattr(image, 'image_id', '?')}"


class LatencyProbe:
    """Times each evaluate_pair call and nothing else (the untraced runs).

    Samples are (pair label, seconds, reading), where reading is what
    `speed_reading` returned right before the call, and spent_s is the
    time the readings took. With a sink, "label seconds" lines are
    written instead.
    """

    def __init__(self, sink_fd: int | None = None, speed_reading=None):
        self.samples: list[tuple[str, float, float | None]] = []
        self.spent_s = 0.0
        self._fd = sink_fd
        self._reading = speed_reading
        self._patcher = Patcher()

    def _wrap(self, orig):
        def wrapper(*args, **kwargs):
            reading = None
            if self._reading is not None:
                t = time.perf_counter()
                reading = self._reading()
                self.spent_s += time.perf_counter() - t
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            dt = time.perf_counter() - t0
            label = pair_label(args, kwargs)
            if self._fd is None:
                self.samples.append((label, dt, reading))
            else:
                # O_APPEND writes of one short line are atomic, so pool workers can share the fd
                os.write(self._fd, f"{label} {dt!r}\n".encode())
            return out

        return wrapper

    def __enter__(self):
        self._patcher.wrap("saleval.harness.protocol", "evaluate_pair", self._wrap, internal=True)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()


class Tracer:
    """Records spans and work counters while installed (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []
        self.pairs: list[str] = []
        self.counts: Counter = Counter()
        self.seeds: set[int] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._pair = -1
        self._patcher = Patcher()

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._pair, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    # -- wrapper factories ------------------------------------------------
    def _call(self, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                if name == "maps.blur":
                    m = args[0] if args else kwargs["m"]
                    self.counts["maps.blur_pixels"] += getattr(m, "size", 0)
                idx = self._open(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._close(idx)

            return wrapper

        return make

    def _generator(self, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                inner = orig(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return wrapper

        return make

    def _pair_span(self, name):
        def make(orig):
            def wrapper(*args, **kwargs):
                outer = self._pair
                self._pair = len(self.pairs)
                self.pairs.append(pair_label(args, kwargs))
                idx = self._open(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._close(idx)
                    self._pair = outer

            return wrapper

        return make

    def _report(self, name):
        call = self._call(name)

        def make(orig):
            inner = call(orig)

            def wrapper(*args, **kwargs):
                paths = inner(*args, **kwargs)
                self.counts["harness.report.bytes"] += sum(os.path.getsize(p) for p in paths.values())
                return paths

            return wrapper

        return make

    def _seed(self, orig):
        def wrapper(*args, **kwargs):
            seed = orig(*args, **kwargs)
            self.counts["shuffle.seed_derivations"] += 1
            self.seeds.add(seed)
            return seed

        return wrapper

    def __enter__(self):
        kinds = {
            "call": self._call,
            "generator": self._generator,
            "pair": self._pair_span,
            "report": self._report,
        }
        for module, attr, name, kind, internal in SPAN_TARGETS:
            self._patcher.wrap(module, attr, kinds[kind](name), internal)
        self._patcher.wrap(*SEED_TARGET, self._seed, internal=True)
        self.absent = list(self._patcher.absent)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    # -- results ------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "pair", "child_time"],
            "spans": self.spans,
            "pairs": self.pairs,
            "counts": dict(self.counts),
            "seeds": sorted(self.seeds),
            "absent": self.absent,
        }

    def dump(self, path) -> None:
        """Write spans, pair ids and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.as_dict(), f)


def summarize(traces) -> dict:
    """Self time and counts per layer over one or more traced processes.

    Each trace is a dict as written by Tracer.dump. Self time is a span's
    duration minus the duration of its direct child spans.
    """
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    seeds: set[int] = set()
    absent: set[str] = set()
    pairs = 0
    pair_s = []
    for tr in traces:
        for name, start, end, _parent, _pair, child in tr["spans"]:
            self_s[name] += (end - start) - child
            if name == "harness.protocol.pair":
                pair_s.append(end - start)
            total_s[name] += end - start
            calls[name] += 1
        counts.update(tr["counts"])
        seeds.update(tr["seeds"])
        absent.update(tr["absent"])
        pairs += len(tr["pairs"])
    return {
        "self_s": dict(self_s),
        "total_s": dict(total_s),
        "calls": dict(calls),
        "counts": dict(counts),
        "distinct_seeds": len(seeds),
        "absent": sorted(absent),
        "pairs": pairs,
        "pair_s": pair_s,
    }
