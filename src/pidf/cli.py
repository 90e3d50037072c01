"""Command-line interface.

Subcommands:
  gen      draw a synthetic dataset and write it as CSV
  analyze  run the decomposition + selection on a CSV or generated dataset
  bench    run the benchmark suite across seeds and report confusion counts
  verify   cross-check the estimator pipeline against the exact oracle

Exit codes: 0 success, 1 a verify/bench check failed, 2 bad configuration,
3 dataset or file problems, 4 estimator failure (or a bench worker process
that died), 5 exhaustive-search cap or oracle-unsupported input.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from . import datasets, oracle, report as report_mod
from .estimators import KINDS, EstimatorConfig, ExactDiscrete, estimate_mi, usable_cpus
from .pidf import DEFAULT_ALPHA, DEFAULT_EPS_ZERO, default_config, run_pidf
from .selection import confusion_counts, select_features
from .types import (
    BITS,
    NATS,
    ConfigError,
    Dataset,
    DatasetError,
    EstimatorError,
    FeatureSubset,
    OracleUnsupportedError,
    SubsetCapError,
    TARGET,
)

ESTIMATOR_NAMES = ("auto", *KINDS)


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports errors as ConfigError (exit code 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return integer


def _choice(options: tuple[str, ...]):
    def convert(text: str) -> str:
        if text not in options:
            raise argparse.ArgumentTypeError(
                f"expected one of {', '.join(options)}, got {text!r}"
            )
        return text

    return convert


def _dataset_ids(text: str) -> tuple[str, ...]:
    """A comma-separated list of one or more known dataset ids."""
    ids = tuple(part.strip() for part in text.split(",") if part.strip())
    if not ids:
        raise argparse.ArgumentTypeError(
            f"expected at least one dataset id, got {text!r}"
        )
    for dataset_id in ids:
        if dataset_id not in datasets.DATASET_IDS:
            raise argparse.ArgumentTypeError(f"unknown dataset id {dataset_id!r}")
    return ids


def _use_config_file(command: argparse.ArgumentParser, path: str) -> None:
    """Make the key=value entries of a settings file ('#' starts a comment
    line) the subcommand's defaults, each converted by the converter of its
    flag, so that explicit flags still win."""
    flags = {
        action.dest: action
        for action in command._actions
        if action.dest not in ("help", "config")
    }
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    unknown = set(entries) - set(flags)
    if unknown:
        raise ConfigError(
            f"config file keys not valid for this command: {sorted(unknown)}"
        )
    defaults = {}
    for key, value in entries.items():
        try:
            defaults[key] = (flags[key].type or str)(value)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ConfigError(f"config file key {key}: {err}") from err
    command.set_defaults(**defaults)


def _estimator_config(
    args: argparse.Namespace, data: Dataset, seed: int
) -> EstimatorConfig:
    if args.estimator == "auto":
        return default_config(data, args.reps, seed)
    kind = KINDS[args.estimator]()
    return EstimatorConfig(kind=kind, repetitions=args.reps, base_seed=seed)


def _generate(args: argparse.Namespace, dataset_id: str, seed: int) -> Dataset:
    spec = datasets.GeneratorSpec(
        dataset=dataset_id, n_samples=args.n, seed=seed, terc_rule=args.terc_rule
    )
    return datasets.generate(spec)


def _load_dataset(args: argparse.Namespace) -> Dataset:
    if (args.input is None) == (args.dataset is None):
        raise ConfigError("provide exactly one of --input CSV or --dataset id")
    if args.input is not None:
        return report_mod.read_csv(args.input, target=args.target)
    return _generate(args, args.dataset, args.seed)


def _subset_label(subset: FeatureSubset, names: tuple[str, ...]) -> str:
    return "{" + ",".join(names[j] for j in subset) + "}"


def cmd_gen(args: argparse.Namespace) -> int:
    if args.dataset is None:
        raise ConfigError("gen requires --dataset")
    data = _generate(args, args.dataset, args.seed)
    if args.out is None:
        report_mod.write_csv(data, sys.stdout)
    else:
        report_mod.write_csv(data, args.out)
        print(
            f"wrote {data.n_samples} rows x {data.n_features} features "
            f"to {args.out}",
            file=sys.stderr,
        )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    data = _load_dataset(args)
    if args.dup is not None:
        data = datasets.duplicate_feature(data, args.dup)
    cfg = _estimator_config(args, data, args.seed)
    result = run_pidf(data, cfg, alpha=args.alpha, eps_zero=args.eps_zero)
    selection = select_features(result)
    fingerprint = report_mod.dataset_fingerprint(data)
    text = report_mod.render_json(result, selection, args.units, fingerprint)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.svg is not None:
        svg = report_mod.render_svg(result, selection, args.units)
        Path(args.svg).write_text(svg, encoding="utf-8")
    return 0


def _bench_seed(
    args: argparse.Namespace, task: tuple[str, int]
) -> tuple[str, bool, tuple]:
    """Analyze one (dataset, seed) of bench: its line, whether the selection
    matched the ground truth, and the confusion counts a match has."""
    dataset_id, seed = task
    truth = datasets.GROUND_TRUTH[dataset_id]
    data = _generate(args, dataset_id, seed)
    cfg = _estimator_config(args, data, seed)
    result = run_pidf(data, cfg, alpha=args.alpha, eps_zero=args.eps_zero)
    selection = select_features(result)
    confusion = confusion_counts(selection, truth)
    expected = (len(truth), 0, data.n_features - len(truth), 0)
    matched = confusion.as_tuple == expected
    picked = _subset_label(selection.selected, data.feature_names)
    line = (
        f"{dataset_id} seed={seed} selected={picked} "
        f"confusion={confusion.as_tuple} {'ok' if matched else 'MISS'}"
    )
    return line, matched, expected


@contextmanager
def _task_map(calls: int):
    """Yield a map for that many independent calls: a pool's map over one
    forked worker process per usable CPU, or the builtin map where only one
    would work or fork is missing. Either gives the results in call order.

    Forked workers start with this process's imports instead of importing
    pidf and numpy again, as spawned ones would. The pool forks them on the
    first call, so it must come before this process starts any thread. A
    worker that dies ends the map with an EstimatorError.
    """
    workers = min(usable_cpus(), calls)
    if workers < 2 or not hasattr(os, "fork"):
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    except BrokenProcessPool as err:
        raise EstimatorError(f"a bench worker process died: {err}") from err
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_bench(args: argparse.Namespace) -> int:
    for dataset_id in args.datasets:
        # The terc ground truth is the all_equal rule's: under pair, f0 is noise.
        if args.terc_rule == "pair" and dataset_id in ("terc1", "terc2"):
            raise ConfigError(
                f"dataset {dataset_id!r} has no ground truth under --terc-rule pair"
            )
    tasks = [(dataset_id, seed) for dataset_id in args.datasets
             for seed in range(args.seeds)]
    all_ok = True
    with _task_map(len(tasks)) as task_map:
        outcomes = task_map(partial(_bench_seed, args), tasks)
        for dataset_id in args.datasets:
            matches = 0
            for _ in range(args.seeds):
                line, matched, expected = next(outcomes)
                print(line)
                matches += matched
            print(f"{dataset_id}: {matches}/{args.seeds} seeds matched {expected}")
            all_ok = all_ok and matches == args.seeds
    return 0 if all_ok else 1


def _verify_mi_agreement(data: Dataset, cfg: EstimatorConfig) -> float:
    """Max |estimator - oracle| over singleton/pair/full MI queries."""
    worst = 0.0
    groups = [(FeatureSubset.of(i), TARGET) for i in range(data.n_features)]
    groups.append((FeatureSubset.full(data.n_features), TARGET))
    for i in range(data.n_features):
        for j in range(i + 1, data.n_features):
            groups.append((FeatureSubset.of(i), FeatureSubset.of(j)))
    for left, right in groups:
        est = estimate_mi(data, left, right, cfg).mean
        exact = oracle.oracle_mi(data, left, right)
        worst = max(worst, abs(est - exact))
    return worst


def cmd_verify(args: argparse.Namespace) -> int:
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{label}: {'ok' if ok else 'FAIL'}")
        failures += not ok

    for dataset_id in args.datasets:
        data = datasets.population_table(dataset_id, args.terc_rule)
        cfg = EstimatorConfig(kind=ExactDiscrete(), repetitions=1, base_seed=0)
        worst = _verify_mi_agreement(data, cfg)
        check(f"{dataset_id}: MI estimator vs oracle, max delta {worst:.2e}",
              worst <= oracle.TOLERANCE)
        result = run_pidf(data, cfg)
        exhaustive = oracle.oracle_pidf(data)
        for res, ref in zip(result.results, exhaustive.features):
            excess = res.fws_value - ref.fws
            check(
                f"{dataset_id} {res.name}: greedy synergy <= exhaustive "
                f"(excess {excess:.2e})",
                excess <= oracle.TOLERANCE,
            )
            sets = ", ".join(
                _subset_label(subset, data.feature_names) for subset in ref.maximizers
            )
            print(f"{dataset_id} {res.name} max-synergy sets: {sets}")
        theorems = oracle.check_theorems(data)
        check(
            f"{dataset_id}: net-contribution identity residual "
            f"{theorems.max_identity_residual:.2e}",
            theorems.max_identity_residual <= oracle.TOLERANCE,
        )
        if oracle.assumption_holds(data):
            check(
                f"{dataset_id}: candidate-effect bound violations "
                f"{theorems.bound_violations} of {theorems.n_theta_checked}",
                theorems.bound_violations == 0,
            )
        else:
            print(
                f"{dataset_id}: candidate-effect bounds not applicable "
                "(features carry synergy about each other)"
            )
    if failures:
        print(f"verify: {failures} check(s) failed")
        return 1
    print("verify: all checks passed")
    return 0


def _add_shared_flags(parser: argparse.ArgumentParser, rows: bool = True) -> None:
    if rows:
        parser.add_argument("--n", type=_int_at_least(1), default=1000,
                            help="rows to draw when generating (default %(default)s)")
    parser.add_argument("--terc-rule", dest="terc_rule",
                        type=_choice(datasets.TERC_RULES), default="all_equal",
                        help="target rule of the terc datasets (default %(default)s)")
    parser.add_argument("--config", help="key=value settings file")


def _add_estimation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--estimator",
        type=_choice(ESTIMATOR_NAMES),
        default="auto",
        help="MI estimator (default %(default)s: exact for discrete data, ksg otherwise)",
    )
    parser.add_argument(
        "--reps", type=_int_at_least(1), default=5,
        help="estimator repetitions per quantity (default %(default)s)",
    )
    parser.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="significance level for redundancy decisions (default %(default)s)",
    )
    parser.add_argument(
        "--eps-zero", dest="eps_zero", type=float, default=DEFAULT_EPS_ZERO,
        help=(
            "smallest deterministic estimate treated as nonzero, in nats "
            "(default %(default)s)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pidf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset as CSV")
    gen.add_argument("--dataset", type=_choice(datasets.DATASET_IDS))
    gen.add_argument("--seed", type=int, default=0, help="generation seed")
    gen.add_argument("--out", help="output CSV path (default stdout)")
    _add_shared_flags(gen)
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser(
        "analyze", help="decompose per-feature information and select features"
    )
    analyze.add_argument("--input", help="input CSV path")
    analyze.add_argument("--dataset", type=_choice(datasets.DATASET_IDS),
                         help="generate this dataset instead of reading --input")
    analyze.add_argument("--seed", type=int, default=0,
                         help="seed for generation and estimator repetitions")
    analyze.add_argument("--target", default="target",
                         help="target column name in the CSV (default %(default)s)")
    _add_estimation_flags(analyze)
    analyze.add_argument("--units", type=_choice((NATS, BITS)), default=NATS)
    analyze.add_argument("--out", help="report JSON path (default stdout)")
    analyze.add_argument("--svg", help="also write an SVG chart here")
    analyze.add_argument("--dup", type=_int_at_least(0),
                         help="duplicate this feature index before analysis")
    _add_shared_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    bench = sub.add_parser(
        "bench", help="run benchmark datasets across seeds, report confusions"
    )
    bench.add_argument("--datasets", type=_dataset_ids,
                       default=",".join(datasets.BENCHMARK_IDS),
                       help="comma-separated dataset ids (default %(default)s)")
    bench.add_argument("--seeds", type=_int_at_least(1), default=10,
                       help="number of seeds to run (default %(default)s)")
    _add_estimation_flags(bench)
    _add_shared_flags(bench)
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser(
        "verify", help="cross-check estimators and the pass against the exact oracle"
    )
    verify.add_argument("--datasets", type=_dataset_ids,
                        default=",".join(datasets.POPULATION_IDS),
                        help="comma-separated discrete dataset ids (default %(default)s)")
    _add_shared_flags(verify, rows=False)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            commands = next(a for a in parser._actions if a.dest == "command").choices
            _use_config_file(commands[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DatasetError as err:
        print(f"dataset error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3
    except EstimatorError as err:
        print(f"estimator error: {err}", file=sys.stderr)
        return 4
    except (SubsetCapError, OracleUnsupportedError) as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
