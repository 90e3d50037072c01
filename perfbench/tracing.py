"""Spans around the calls into each pidf module's public functions.

The tracer replaces public functions with timing wrappers in every module
namespace that holds them, from the benchmark's side; no code under
``src/`` changes and no output changes. Spans stay in memory as
``[name, parent, start, end, attrs]`` rows and are written out when the run
ends. Per-layer metrics are aggregated from the spans, per job.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import pidf
from pidf import estimators as est_mod
from pidf import pidf as pidf_mod

EXACT_WIDTHS = range(2, 14)
KSG_WIDTHS = range(2, 8)

# (module, public function, span name)
TRACED = (
    ("pidf.pidf", "run_pidf", "pidf.run_pidf"),
    ("pidf.pidf", "significantly_positive", "pidf.significance"),
    ("pidf.pidf", "is_redundant", "pidf.significance"),
    ("pidf.estimators", "estimate_mi", "estimators.estimate_mi"),
    ("pidf.estimators", "ksg_mi", "estimators.ksg_mi"),
    ("pidf.selection", "select_features", "selection.select_features"),
    ("pidf.report", "render_json", "report.render_json"),
    ("pidf.report", "dataset_fingerprint", "report.dataset_fingerprint"),
    ("pidf.report", "read_csv", "report.read_csv"),
    ("pidf.oracle", "oracle_pidf", "oracle.oracle_pidf"),
    ("pidf.oracle", "check_theorems", "oracle.check_theorems"),
    ("pidf.datasets", "generate", "datasets.generate"),
    ("pidf.cli", "main", "cli.main"),
)


def _width(group) -> int:
    if isinstance(group, pidf.types._TargetMarker):
        return 1
    return len(group) if isinstance(group, pidf.FeatureSubset) else len(set(group))


def _describe(span_name: str, args, kwargs):
    if span_name == "estimators.estimate_mi":
        data, left, right, cfg = args
        return [cfg.kind_name, _width(left) + _width(right)]
    if span_name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        return [argv[0] if argv else None]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cache_lookups = 0
        self.cache_misses = 0
        self.mi_calls = 0

    def _call(self, span_name: str, fn, args, kwargs):
        """Run ``fn`` inside a span named ``span_name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        if span_name == "estimators.estimate_mi":
            self.mi_calls += 1
        spans.append([span_name, stack[-1] if stack else -1, time.perf_counter(), 0.0,
                      _describe(span_name, args, kwargs)])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][3] = time.perf_counter()

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(span_name, fn, args, kwargs)

        return wrapper

    def _timed_tree(self, tree_cls):
        """cKDTree stand-in: builds the real tree inside the span of its
        first query, so the span covers build plus query."""
        tracer = self

        class TimedTree:
            def __init__(self, *args, **kwargs):
                self._args, self._kwargs, self._tree = args, kwargs, None

            def _real(self):
                if self._tree is None:
                    self._tree = tree_cls(*self._args, **self._kwargs)
                return self._tree

            def query(self, *args, **kwargs):
                return tracer._call("estimators.knn_query",
                                    lambda: self._real().query(*args, **kwargs), (), {})

            def query_ball_point(self, *args, **kwargs):
                return tracer._call("estimators.ball_count",
                                    lambda: self._real().query_ball_point(*args, **kwargs),
                                    (), {})

        return TimedTree

    def _counted_cache(self, mi):
        tracer = self

        @functools.wraps(mi)
        def counted(cache, left, right):
            tracer.cache_lookups += 1
            before = tracer.mi_calls
            try:
                return mi(cache, left, right)
            finally:
                tracer.cache_misses += tracer.mi_calls > before

        return counted

    @contextmanager
    def installed(self, extra_modules=()):
        """Swap the wrappers in for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pidf" or name.startswith("pidf.")]
        modules.extend(extra_modules)
        undo = []
        for mod_name, attr, span_name in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, name, value))
                        setattr(mod, name, wrapper)
        undo.append((est_mod, "cKDTree", est_mod.cKDTree))
        est_mod.cKDTree = self._timed_tree(est_mod.cKDTree)
        undo.append((pidf_mod.MiCache, "mi", pidf_mod.MiCache.mi))
        pidf_mod.MiCache.mi = self._counted_cache(pidf_mod.MiCache.mi)
        try:
            yield self
        finally:
            for mod, name, value in reversed(undo):
                setattr(mod, name, value)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(meta, counters={
            "cache_lookups": self.cache_lookups, "cache_misses": self.cache_misses,
        }, spans=self.spans)
        path.write_text(json.dumps(payload), encoding="utf-8")

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-job totals of every metric in LAYER_METRICS, plus the cache
        hit ratio."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        for idx, (name, parent, start, end, attrs) in enumerate(spans):
            dur = end - start
            if name == "estimators.estimate_mi":
                kind, width = attrs
                total[f"estimators.{kind}.mi_s"] += dur
                total[f"estimators.{kind}.mi_calls"] += 1
                total[f"estimators.{kind}.w{width}.mi_s"] += dur
                if kind == "ksg":
                    total["estimators.ksg_prep_s"] += dur - child_time[idx]
            elif name == "pidf.run_pidf":
                total["pidf.run_pidf_s"] += dur
                total["pidf.self_s"] += dur - child_time[idx]
            elif name == "pidf.significance":
                if parent >= 0 and spans[parent][0] == "pidf.run_pidf":
                    total["pidf.significance_s"] += dur
                    total["pidf.significance_calls"] += 1
            elif name == "cli.main":
                total[f"cli.main.{attrs[0]}_s"] += dur
            else:
                total[_METRIC_OF_SPAN[name]] += dur
        total["pidf.cache_lookups"] = self.cache_lookups
        total["pidf.cache_misses"] = self.cache_misses
        out = {name: total[name] / jobs for name in LAYER_METRICS}
        lookups = self.cache_lookups
        out["pidf.cache_hit_ratio"] = 1.0 - self.cache_misses / lookups if lookups else 0.0
        return out


_METRIC_OF_SPAN = {
    "estimators.ksg_mi": "estimators.ksg_mi_s",
    "estimators.knn_query": "estimators.knn_query_s",
    "estimators.ball_count": "estimators.ball_count_s",
    "selection.select_features": "selection.select_s",
    "report.render_json": "report.render_json_s",
    "report.dataset_fingerprint": "report.fingerprint_s",
    "report.read_csv": "report.read_csv_s",
    "oracle.oracle_pidf": "oracle.oracle_pidf_s",
    "oracle.check_theorems": "oracle.check_theorems_s",
    "datasets.generate": "datasets.generate_s",
}

# Per-job metrics aggregated from spans and counters, in report order.
LAYER_METRICS = (
    "pidf.run_pidf_s", "pidf.self_s", "pidf.cache_lookups", "pidf.cache_misses",
    "pidf.significance_calls", "pidf.significance_s",
    *(f"estimators.{kind}.{metric}"
      for kind, widths in (("exact", EXACT_WIDTHS), ("ksg", KSG_WIDTHS))
      for metric in ("mi_calls", "mi_s", *(f"w{k}.mi_s" for k in widths))),
    "estimators.ksg_prep_s",
    *_METRIC_OF_SPAN.values(),
    "cli.main.analyze_s", "cli.main.bench_s", "cli.main.verify_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def import_times(samples: list[str]) -> dict[str, float]:
    """Median cumulative import seconds from ``python -X importtime`` logs."""
    wanted = {"pidf": "cli.import_s", "scipy.stats": "cli.import.scipy_stats_s",
              "scipy.spatial": "cli.import.scipy_spatial_s"}
    seen = defaultdict(list)
    for log in samples:
        found = dict.fromkeys(wanted.values(), 0.0)
        for line in log.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                found[wanted[parts[2].strip()]] = int(parts[1]) / 1e6
        for metric, value in found.items():
            seen[metric].append(value)
    return {metric: statistics.median(values) for metric, values in seen.items()}
