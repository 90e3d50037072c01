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
import logging
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from . import datasets, oracle, report as report_mod
from .estimators import (
    Binned,
    EstimatorConfig,
    ExactDiscrete,
    Ksg,
    Mine,
    MineConfig,
    estimate_mi,
    usable_cpus,
)
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
    require_probability,
)

ESTIMATOR_NAMES = ("auto", "exact", "binned", "ksg", "mine")

DEFAULT_REPETITIONS = 5
DEFAULT_BENCH_SEEDS = 10
DEFAULT_N_SAMPLES = 1000


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports errors as ConfigError (exit code 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def _choice(options: tuple[str, ...]):
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return text

    return convert


_CONFIG_CONVERTERS = {
    "dataset": _choice(datasets.DATASET_IDS),
    "input": str,
    "target": str,
    "estimator": _choice(ESTIMATOR_NAMES),
    "reps": _positive_int,
    "alpha": float,
    "eps_zero": float,
    "units": _choice((NATS, BITS)),
    "seed": int,
    "n": _positive_int,
    "terc_rule": _choice(datasets.TERC_RULES),
    "seeds": _positive_int,
    "datasets": str,
    "out": str,
    "svg": str,
    "dup": _nonneg_int,
}


def _read_config_file(path: str) -> dict[str, str]:
    """Parse a key=value settings file; '#' starts a comment line."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve option values: explicit flag > config file entry > default."""
    file_entries: dict[str, str] = {}
    if getattr(args, "config", None):
        file_entries = _read_config_file(args.config)
        unknown = set(file_entries) - set(defaults)
        if unknown:
            raise ConfigError(
                f"config file keys not valid for this command: {sorted(unknown)}"
            )
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_entries:
            try:
                resolved[key] = _CONFIG_CONVERTERS[key](file_entries[key])
            except ValueError as err:
                raise ConfigError(f"config file key {key}: {err}") from err
        else:
            resolved[key] = default
    return resolved


def _estimator_config(
    name: str, data: Dataset, repetitions: int, base_seed: int
) -> EstimatorConfig:
    if name == "auto":
        return default_config(data, repetitions, base_seed)
    kinds = {
        "exact": ExactDiscrete,
        "binned": Binned,
        "ksg": Ksg,
        "mine": lambda: Mine(MineConfig()),
    }
    if name not in kinds:
        raise ConfigError(
            f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}"
        )
    return EstimatorConfig(
        kind=kinds[name](), repetitions=repetitions, base_seed=base_seed
    )


def _load_dataset(resolved: dict) -> Dataset:
    has_input = resolved.get("input") is not None
    has_generated = resolved.get("dataset") is not None
    if has_input == has_generated:
        raise ConfigError("provide exactly one of --input CSV or --dataset id")
    if has_input:
        return report_mod.read_csv(resolved["input"], target=resolved["target"])
    spec = datasets.GeneratorSpec(
        dataset=resolved["dataset"],
        n_samples=resolved["n"],
        seed=resolved["seed"],
        terc_rule=resolved["terc_rule"],
    )
    return datasets.generate(spec)


def _subset_label(subset: FeatureSubset, names: tuple[str, ...]) -> str:
    return "{" + ",".join(names[j] for j in subset) + "}"


def cmd_gen(args: argparse.Namespace) -> int:
    resolved = _merge_config(
        args,
        {
            "dataset": None,
            "n": DEFAULT_N_SAMPLES,
            "seed": 0,
            "terc_rule": "all_equal",
            "out": None,
        },
    )
    if resolved["dataset"] is None:
        raise ConfigError("gen requires --dataset")
    spec = datasets.GeneratorSpec(
        dataset=resolved["dataset"],
        n_samples=resolved["n"],
        seed=resolved["seed"],
        terc_rule=resolved["terc_rule"],
    )
    data = datasets.generate(spec)
    if resolved["out"] is None:
        report_mod.write_csv(data, sys.stdout)
    else:
        report_mod.write_csv(data, resolved["out"])
        print(
            f"wrote {data.n_samples} rows x {data.n_features} features "
            f"to {resolved['out']}",
            file=sys.stderr,
        )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    resolved = _merge_config(
        args,
        {
            "input": None,
            "dataset": None,
            "n": DEFAULT_N_SAMPLES,
            "seed": 0,
            "terc_rule": "all_equal",
            "target": "target",
            "estimator": "auto",
            "reps": DEFAULT_REPETITIONS,
            "alpha": DEFAULT_ALPHA,
            "eps_zero": DEFAULT_EPS_ZERO,
            "units": NATS,
            "out": None,
            "svg": None,
            "dup": None,
        },
    )
    require_probability(resolved["alpha"], "alpha")
    data = _load_dataset(resolved)
    if resolved["dup"] is not None:
        data = datasets.duplicate_feature(data, resolved["dup"])
    cfg = _estimator_config(
        resolved["estimator"], data, resolved["reps"], resolved["seed"]
    )
    result = run_pidf(
        data, cfg, alpha=resolved["alpha"], eps_zero=resolved["eps_zero"]
    )
    selection = select_features(result)
    fingerprint = report_mod.dataset_fingerprint(data)
    text = report_mod.render_json(result, selection, resolved["units"], fingerprint)
    if resolved["out"] is None:
        sys.stdout.write(text)
    else:
        Path(resolved["out"]).write_text(text, encoding="utf-8")
    if resolved["svg"] is not None:
        svg = report_mod.render_svg(result, selection, resolved["units"])
        Path(resolved["svg"]).write_text(svg, encoding="utf-8")
    return 0


def _bench_seed(resolved: dict, task: tuple[str, int]) -> tuple[str, bool, tuple]:
    """Analyze one (dataset, seed) of bench: its line, whether the selection
    matched the ground truth, and the confusion counts a match has."""
    dataset_id, seed = task
    truth = datasets.GROUND_TRUTH[dataset_id]
    spec = datasets.GeneratorSpec(
        dataset=dataset_id,
        n_samples=resolved["n"],
        seed=seed,
        terc_rule=resolved["terc_rule"],
    )
    data = datasets.generate(spec)
    cfg = _estimator_config(resolved["estimator"], data, resolved["reps"], seed)
    result = run_pidf(data, cfg, alpha=resolved["alpha"], eps_zero=resolved["eps_zero"])
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
    resolved = _merge_config(
        args,
        {
            "datasets": ",".join(datasets.BENCHMARK_IDS),
            "seeds": DEFAULT_BENCH_SEEDS,
            "n": DEFAULT_N_SAMPLES,
            "terc_rule": "all_equal",
            "estimator": "auto",
            "reps": DEFAULT_REPETITIONS,
            "alpha": DEFAULT_ALPHA,
            "eps_zero": DEFAULT_EPS_ZERO,
        },
    )
    require_probability(resolved["alpha"], "alpha")
    ids = tuple(part.strip() for part in resolved["datasets"].split(",") if part.strip())
    for dataset_id in ids:
        if dataset_id not in datasets.DATASET_IDS:
            raise ConfigError(f"unknown dataset id {dataset_id!r}")
        if dataset_id not in datasets.GROUND_TRUTH:
            raise ConfigError(f"dataset {dataset_id!r} has no ground truth")
    seeds = resolved["seeds"]
    tasks = [(dataset_id, seed) for dataset_id in ids for seed in range(seeds)]
    all_ok = True
    with _task_map(len(tasks)) as task_map:
        outcomes = task_map(partial(_bench_seed, resolved), tasks)
        for dataset_id in ids:
            matches = 0
            for _ in range(seeds):
                line, matched, expected = next(outcomes)
                print(line)
                matches += matched
            print(f"{dataset_id}: {matches}/{seeds} seeds matched {expected}")
            all_ok = all_ok and matches == seeds
    return 0 if all_ok else 1


_VERIFY_IDS = ("rvq", "svq", "msq", "terc1", "terc2", "sg", "pairsum")


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
    resolved = _merge_config(
        args,
        {"datasets": ",".join(_VERIFY_IDS), "terc_rule": "all_equal"},
    )
    ids = tuple(part.strip() for part in resolved["datasets"].split(",") if part.strip())
    tol = 1e-9
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{label}: {'ok' if ok else 'FAIL'}")
        failures += not ok

    for dataset_id in ids:
        data = datasets.population_table(dataset_id, resolved["terc_rule"])
        cfg = EstimatorConfig(kind=ExactDiscrete(), repetitions=1, base_seed=0)
        worst = _verify_mi_agreement(data, cfg)
        check(f"{dataset_id}: MI estimator vs oracle, max delta {worst:.2e}", worst <= tol)
        result = run_pidf(data, cfg)
        exhaustive = oracle.oracle_pidf(data)
        for res, ref in zip(result.results, exhaustive.features):
            excess = res.fws_value - ref.fws
            check(
                f"{dataset_id} {res.name}: greedy synergy <= exhaustive "
                f"(excess {excess:.2e})",
                excess <= tol,
            )
            sets = ", ".join(
                _subset_label(subset, data.feature_names) for subset in ref.maximizers
            )
            print(f"{dataset_id} {res.name} max-synergy sets: {sets}")
        theorems = oracle.check_theorems(data)
        check(
            f"{dataset_id}: net-contribution identity residual "
            f"{theorems.max_identity_residual:.2e}",
            theorems.max_identity_residual <= tol,
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


def _add_common_estimation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--estimator",
        type=_choice(ESTIMATOR_NAMES),
        default=None,
        help="MI estimator (default auto: exact for discrete data, ksg otherwise)",
    )
    parser.add_argument(
        "--reps", type=_positive_int, default=None,
        help=f"estimator repetitions per quantity (default {DEFAULT_REPETITIONS})",
    )
    parser.add_argument(
        "--alpha", type=float, default=None,
        help=f"significance level for redundancy decisions (default {DEFAULT_ALPHA})",
    )
    parser.add_argument(
        "--eps-zero", dest="eps_zero", type=float, default=None,
        help=(
            "smallest deterministic estimate treated as nonzero, in nats "
            f"(default {DEFAULT_EPS_ZERO})"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pidf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset as CSV")
    gen.add_argument("--dataset", type=_choice(datasets.DATASET_IDS), default=None)
    gen.add_argument("--n", type=_positive_int, default=None, help="rows to draw")
    gen.add_argument("--seed", type=int, default=None, help="generation seed")
    gen.add_argument("--terc-rule", dest="terc_rule",
                     type=_choice(datasets.TERC_RULES), default=None)
    gen.add_argument("--out", default=None, help="output CSV path (default stdout)")
    gen.add_argument("--config", default=None, help="key=value settings file")
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser(
        "analyze", help="decompose per-feature information and select features"
    )
    analyze.add_argument("--input", default=None, help="input CSV path")
    analyze.add_argument("--dataset", type=_choice(datasets.DATASET_IDS), default=None,
                         help="generate this dataset instead of reading --input")
    analyze.add_argument("--n", type=_positive_int, default=None,
                         help="rows to draw when generating")
    analyze.add_argument("--seed", type=int, default=None,
                         help="seed for generation and estimator repetitions")
    analyze.add_argument("--terc-rule", dest="terc_rule",
                         type=_choice(datasets.TERC_RULES), default=None)
    analyze.add_argument("--target", default=None,
                         help="target column name in the CSV (default 'target')")
    _add_common_estimation_flags(analyze)
    analyze.add_argument("--units", type=_choice((NATS, BITS)), default=None)
    analyze.add_argument("--out", default=None, help="report JSON path (default stdout)")
    analyze.add_argument("--svg", default=None, help="also write an SVG chart here")
    analyze.add_argument("--dup", type=_nonneg_int, default=None,
                         help="duplicate this feature index before analysis")
    analyze.add_argument("--config", default=None, help="key=value settings file")
    analyze.set_defaults(func=cmd_analyze)

    bench = sub.add_parser(
        "bench", help="run benchmark datasets across seeds, report confusions"
    )
    bench.add_argument("--datasets", default=None,
                       help="comma-separated dataset ids (default: all benchmarks)")
    bench.add_argument("--seeds", type=_positive_int, default=None,
                       help=f"number of seeds to run (default {DEFAULT_BENCH_SEEDS})")
    bench.add_argument("--n", type=_positive_int, default=None)
    bench.add_argument("--terc-rule", dest="terc_rule",
                       type=_choice(datasets.TERC_RULES), default=None)
    _add_common_estimation_flags(bench)
    bench.add_argument("--config", default=None, help="key=value settings file")
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser(
        "verify", help="cross-check estimators and the pass against the exact oracle"
    )
    verify.add_argument("--datasets", default=None,
                        help="comma-separated discrete dataset ids")
    verify.add_argument("--terc-rule", dest="terc_rule",
                        type=_choice(datasets.TERC_RULES), default=None)
    verify.add_argument("--config", default=None, help="key=value settings file")
    verify.set_defaults(func=cmd_verify)
    return parser


_log = logging.getLogger("pidf")


def _setup_logging() -> None:
    """PIDF_LOG sets verbosity (debug/info/warning/error); default warning."""
    level = os.environ.get("PIDF_LOG", "warning").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=getattr(logging, level), stream=sys.stderr,
                        format="%(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        _log.debug("dispatch %s", args.command)
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
