"""The benchmark's workloads: seeded inputs, one job per input, and checks.

A workload is a fixed list of inputs built from the run's seed. One round
runs one job per input, in order; a run repeats whole rounds, so every run
attempts the same operations in the same proportions.

``plugin-wide`` and ``knn-gauss`` run in-process analyses: ``run_pidf``,
``select_features`` and ``render_json``. Each job is two operations, the
decomposition and the selection, checked apart. ``cli-bundled`` runs fresh
``python -m pidf`` processes; each is one operation.
"""

from __future__ import annotations

import io
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import pidf
from pidf import (
    TARGET,
    ColumnKind,
    Dataset,
    FeatureSubset,
    default_config,
    estimate_mi,
    render_json,
    run_pidf,
    select_features,
)
from pidf import cli, datasets

import checks
from checks import Problem

# plugin-wide: binary columns [a, b, c, copy of a, copy of c, noise...] with
# target (a XOR b) + 2c.
PLUGIN_ROWS = 20_000
PLUGIN_FEATURES = 12
PLUGIN_INPUTS = 2
PLUGIN_TRUTH = checks.SelectionTruth(
    required=frozenset({1}),
    copy_groups=(frozenset({0, 3}), frozenset({2, 4})),
    dropped=frozenset(),
    noise=frozenset(range(5, PLUGIN_FEATURES)),
)

# knn-gauss: Gaussian columns [f0, f1, f0 + noisy copy, noise...] with
# target f0 + f1 + noise.
KNN_ROWS = 5_000
KNN_FEATURES = 6
KNN_INPUTS = 3
KNN_TARGET_NOISE = 0.5
KNN_COPY_NOISE = 0.3
KNN_TRUTH = checks.SelectionTruth(
    required=frozenset({0, 1}),
    copy_groups=(),
    dropped=frozenset({2}),
    noise=frozenset(range(3, KNN_FEATURES)),
)

# cli-bundled: the discrete bundled datasets; `wt` and `ubr` are left out
# because their selection misses the ground truth on about one seed in ten.
CLI_DATASETS = ("rvq", "svq", "msq", "terc1", "terc2", "sg", "pairsum")
CLI_ROWS = 1_000

def _rng(seed: int, workload: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, (workload << 32) | index]))


def plugin_dataset(seed: int, index: int, n: int = PLUGIN_ROWS) -> Dataset:
    rng = _rng(seed, 1, index)
    bits = rng.integers(0, 2, size=(n, 3 + PLUGIN_FEATURES - 5))
    a, b, c = bits[:, 0], bits[:, 1], bits[:, 2]
    features = np.column_stack([a, b, c, a, c, bits[:, 3:]]).astype(np.float64)
    target = ((a ^ b) + 2 * c).astype(np.float64)
    bern = ColumnKind.discrete(2)
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(PLUGIN_FEATURES)),
        features=features,
        target=target,
        kinds=(bern,) * PLUGIN_FEATURES,
        target_kind=ColumnKind.discrete(4),
        seed=seed,
        source=f"plugin-wide:{index}",
    )


def knn_dataset(seed: int, index: int, n: int = KNN_ROWS) -> Dataset:
    rng = _rng(seed, 2, index)
    draws = rng.standard_normal(size=(n, 4 + KNN_FEATURES - 3))
    f0, f1 = draws[:, 0], draws[:, 1]
    target = f0 + f1 + KNN_TARGET_NOISE * draws[:, 2]
    copy = f0 + KNN_COPY_NOISE * draws[:, 3]
    features = np.column_stack([f0, f1, copy, draws[:, 4:]])
    cont = ColumnKind.continuous()
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(KNN_FEATURES)),
        features=features,
        target=target,
        kinds=(cont,) * KNN_FEATURES,
        target_kind=cont,
        seed=seed,
        source=f"knn-gauss:{index}",
    )


def knn_analytic_mi() -> tuple[float, ...]:
    var_y = 2.0 + KNN_TARGET_NOISE**2
    direct = checks.gaussian_mi(1.0 / var_y)
    copy = checks.gaussian_mi(1.0 / (var_y * (1.0 + KNN_COPY_NOISE**2)))
    return (direct, direct, copy) + (0.0,) * (KNN_FEATURES - 3)


def knn_reference(data: Dataset) -> checks.KnnReference:
    cfg = default_config(data)
    full = FeatureSubset.full(data.n_features)
    all_mi = estimate_mi(data, TARGET, full, cfg).estimates
    unique = []
    for i in range(data.n_features):
        rest = estimate_mi(data, TARGET, full - FeatureSubset.of(i), cfg).estimates
        unique.append(tuple(a - b for a, b in zip(all_mi, rest)))
    return checks.KnnReference(knn_analytic_mi(), tuple(unique))


@dataclass
class Tally:
    """Operations attempted and failed, and whether any failure is new."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[Problem]) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if any(not p.known for p in problems):
            self.correct = False
        for p in problems:
            note = f"{label}: {'known fault: ' if p.known else ''}{p.text}"
            if note not in self.notes:
                self.notes.append(note)


@dataclass
class Job:
    """One timed unit of work and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object, Tally], None]


def analysis_job(label: str, data: Dataset, check_decomposition, truth) -> Job:
    def run():
        report = run_pidf(data)
        selection = select_features(report)
        return report, selection, render_json(report, selection)

    def check(output, tally: Tally) -> None:
        report, selection, text = output
        tally.record(f"{label} decomposition",
                     check_decomposition(report)
                     + checks.check_rendered(text, report, selection.selected))
        tally.record(f"{label} selection",
                     checks.check_selection(selection.selected, truth))

    return Job(label, run, check)


class Workload:
    """Inputs of one workload for one seed, and the jobs that use them."""

    name: str

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build(self) -> None:
        """Build the inputs; this is the part of set-up that scales with them."""
        raise NotImplementedError

    def jobs(self) -> list[Job]:
        """The round, with every reference value already computed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Trigger lazy imports and first-call costs on a tiny input."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PluginWide(Workload):
    name = "plugin-wide"

    def build(self) -> None:
        self.inputs = [plugin_dataset(self.seed, i) for i in range(PLUGIN_INPUTS)]

    def jobs(self) -> list[Job]:
        out = []
        for data in self.inputs:
            ref = checks.PluginReference.of(data.features, data.target)
            out.append(analysis_job(
                data.source, data,
                lambda report, ref=ref: checks.check_plugin_decomposition(report, ref),
                PLUGIN_TRUTH,
            ))
        return out

    def warm_up(self) -> None:
        run_pidf(plugin_dataset(self.seed, 0, n=500))


class KnnGauss(Workload):
    name = "knn-gauss"

    def build(self) -> None:
        self.inputs = [knn_dataset(self.seed, i) for i in range(KNN_INPUTS)]

    def jobs(self) -> list[Job]:
        out = []
        for data in self.inputs:
            ref = knn_reference(data)
            out.append(analysis_job(
                data.source, data,
                lambda report, ref=ref: checks.check_knn_decomposition(report, ref),
                KNN_TRUTH,
            ))
        return out

    def warm_up(self) -> None:
        run_pidf(knn_dataset(self.seed, 0, n=300))


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: this one's, with the checkout's
    sources first on the import path (run.py has pinned BLAS threads)."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliResult:
    code: int
    stdout: str


class CliBundled(Workload):
    """Fresh `python -m pidf` processes: analyze on each CSV, bench, verify.

    With ``in_process`` set, the same command lines go through
    ``pidf.cli.main`` in this process instead, so a tracer can see inside.
    """

    name = "cli-bundled"
    in_process = False

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.root = Path(__file__).resolve().parent.parent
        self.child_peak_kb = 0

    def build(self) -> None:
        self.csvs = {}
        for dataset_id in CLI_DATASETS:
            data = datasets.generate(
                datasets.GeneratorSpec(dataset=dataset_id, n_samples=CLI_ROWS, seed=self.seed)
            )
            path = self.workdir / f"{dataset_id}.csv"
            pidf.write_csv(data, path)
            self.csvs[dataset_id] = path

    def command(self, label: str, argv: list[str]) -> CliResult:
        if self.in_process:
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return CliResult(code, buf.getvalue())
        out_path = self.workdir / f"{label}.stdout"
        with open(out_path, "wb") as out, open(self.workdir / f"{label}.stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "pidf", *argv], stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, env=child_env(self.root), cwd=self.workdir,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out_path.read_text(encoding="utf-8"))

    def jobs(self) -> list[Job]:
        out = []
        for dataset_id, path in self.csvs.items():
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            truth = [f"f{j}" for j in datasets.GROUND_TRUTH[dataset_id]]
            report_path = self.workdir / f"{dataset_id}.json"
            out.append(self._analyze_job(dataset_id, path, report_path, table, truth))
        bench_ids = datasets.BENCHMARK_IDS
        out.append(Job(
            "bench", lambda: self.command("bench", ["bench"]),
            lambda r, tally: tally.record("bench", checks.check_bench(r.code, r.stdout, bench_ids)),
        ))
        out.append(Job(
            "verify", lambda: self.command("verify", ["verify"]),
            lambda r, tally: tally.record("verify", checks.check_verify(r.code, r.stdout)),
        ))
        return out

    def _analyze_job(self, dataset_id, path, report_path, table, truth) -> Job:
        label = f"analyze-{dataset_id}"

        def run():
            if report_path.exists():
                report_path.unlink()
            return self.command(label, ["analyze", "--input", str(path), "--out", str(report_path)])

        def check(result: CliResult, tally: Tally) -> None:
            text = report_path.read_text(encoding="utf-8") if result.code == 0 else ""
            tally.record(label, checks.check_analyze(result.code, text, table, truth))

        return Job(label, run, check)

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return super().peak_rss_mb()
        return self.child_peak_kb / 1024.0


WORKLOAD_CLASSES = {cls.name: cls for cls in (PluginWide, KnnGauss, CliBundled)}


@dataclass
class RunResult:
    job_seconds: list[float]
    rounds: int


def measure(jobs: list[Job], seconds: float, tally: Tally) -> RunResult:
    """Closed loop: whole rounds of the job list until ``seconds`` of job time.

    Only the jobs are timed; each job's output is checked after its timer
    stops.
    """
    times: list[float] = []
    rounds = 0
    while rounds == 0 or sum(times) < seconds:
        for job in jobs:
            start = time.perf_counter()
            output = job.run()
            times.append(time.perf_counter() - start)
            job.check(output, tally)
        rounds += 1
    return RunResult(times, rounds)
