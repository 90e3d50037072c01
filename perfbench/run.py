#!/usr/bin/env python3
"""Benchmark of pidf: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload plugin-wide|knn-gauss|cli-bundled \\
      --seed N --seconds S --trace 0|1

One closed-loop process runs the workload's jobs one at a time for about S
seconds of job time (whole rounds). The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The program is imported from ``src/`` of the checkout; the
run fails if it is not there. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and its children: the benchmark runs one
# job at a time, and pinning narrows the spread of import times.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("plugin-wide", "knn-gauss", "cli-bundled")
# Fresh interpreters timed per run for setup_s (median reported).
SETUP_SAMPLES = 5
# `python -X importtime` samples per traced run (median reported).
IMPORT_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: build the inputs in a fresh interpreter and exit (timed by
    # the parent for setup_s).
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def time_setup(args: argparse.Namespace, workdir: Path, env: dict) -> float:
    """Median wall time from spawning a fresh interpreter to inputs built."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = workdir / f"setup-{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        shutil.rmtree(probe_dir)
    return statistics.median(samples)


def import_time_logs(env: dict) -> list[str]:
    logs = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pidf"],
                              check=True, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True)
        logs.append(proc.stderr)
    return logs


def run(args: argparse.Namespace, workdir: Path) -> dict:
    import workloads

    env = workloads.child_env(ROOT)
    setup_s = time_setup(args, workdir, env) if not args.trace else None
    import_logs = import_time_logs(env) if args.trace else None

    workload = workloads.WORKLOAD_CLASSES[args.workload](args.seed, workdir)
    workload.build()
    jobs = workload.jobs()
    workload.warm_up()
    tally = workloads.Tally()

    if not args.trace:
        result = workloads.measure(jobs, args.seconds, tally)
        times = result.job_seconds
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (len(times) / sum(times), "1/s"),
            "job_s_p50": (statistics.median(times), "s"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MiB"),
        }
    else:
        import tracing

        workload.in_process = True
        tracer = tracing.Tracer()
        with tracer.installed(extra_modules=[workloads]):
            result = workloads.measure(jobs, args.seconds, tally)
        times = result.job_seconds
        tracer.write(
            ROOT / "perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "jobs": len(times)},
        )
        layers = tracer.layer_metrics(len(times))
        layers.update(tracing.import_times(import_logs))
        layers["trace.jobs_per_s"] = len(times) / sum(times)
        metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}

    print(f"{args.workload} seed={args.seed}: {result.rounds} round(s), "
          f"{len(result.job_seconds)} jobs, {sum(result.job_seconds):.2f} s of job time",
          file=sys.stderr)
    for note in tally.notes:
        print(note, file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pidf" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'pidf'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        import workloads

        workloads.WORKLOAD_CLASSES[args.workload](args.seed, Path(args.setup_probe)).build()
        return 0
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        import pidf

        if Path(pidf.__file__).resolve().parent != (SRC / "pidf").resolve():
            print(f"error: pidf imported from {pidf.__file__}, not {SRC}", file=sys.stderr)
            return 2
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
