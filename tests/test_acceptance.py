"""End-to-end acceptance checks.

Each criterion runs at its stated tolerance and emits exactly one PASS/FAIL
line on the real stdout (bypassing capture) so the verdicts are visible in
any test log. A failing criterion also fails its test with the details.
"""

import math
import sys
import time

import numpy as np
import pytest

from pidf import (
    Dataset,
    EstimatorConfig,
    ExactDiscrete,
    ExactOracle,
    FeatureSubset,
    GeneratorSpec,
    Ksg,
    Mine,
    MineConfig,
    TARGET,
    brute_force_fws,
    confusion_counts,
    datasets,
    dataset_fingerprint,
    duplicate_feature,
    estimate_mi,
    generate,
    oracle,
    population_table,
    render_json,
    run_pidf,
    select_features,
)

from instances import net_identity_residual, random_population_instance
from pidf.types import philox

LN2 = math.log(2.0)
KSG_DRAWS = 10


def _emit(capsys, num: int, label: str, failures: list, elapsed: float | None = None) -> None:
    verdict = "PASS" if not failures else "FAIL"
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    line = f"criterion {num} ({label}): {verdict}{suffix}"
    if failures:
        line += " — " + "; ".join(str(f) for f in failures[:4])
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


def test_criterion_1_golden_reference_decomposition(capsys):
    failures = []
    start = time.perf_counter()

    pop = population_table("rvq")
    report = run_pidf(pop)
    golden = {
        # name: (mi, fws, fwr_total)
        "f0": (LN2, 0.0, 0.0),
        "f1": (LN2, 0.0, LN2),
        "f2": (LN2, 0.0, LN2),
    }
    for res in report.results:
        want_mi, want_fws, want_fwr = golden[res.name]
        for label, got, want in (
            ("mi", res.mi.mean, want_mi),
            ("fws", res.fws.mean, want_fws),
            ("fwr", res.fwr_total, want_fwr),
        ):
            if abs(got - want) > 1e-6:
                failures.append(
                    f"population {res.name} {label}={got:.8f}, want {want:.8f}"
                )
    pop_selection = select_features(report)
    if pop_selection.selected != FeatureSubset.of(0, 1):
        failures.append(f"population selection {set(pop_selection.selected)}")

    for seed in range(10):
        data = generate(GeneratorSpec(dataset="rvq", n_samples=1000, seed=seed))
        emp = run_pidf(data, EstimatorConfig(kind=ExactDiscrete(), base_seed=seed))
        for res in emp.results:
            want_mi, want_fws, want_fwr = golden[res.name]
            for label, got, want in (
                ("mi", res.mi.mean, want_mi),
                ("fws", res.fws.mean, want_fws),
                ("fwr", res.fwr_total, want_fwr),
            ):
                if abs(got - want) > 0.02:
                    failures.append(
                        f"seed {seed} {res.name} {label}={got:.4f}, want {want:.4f}"
                    )
        sel = select_features(emp)
        if sel.selected != FeatureSubset.of(0, 1):
            failures.append(f"seed {seed} selection {set(sel.selected)}")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _emit(capsys, 1, "golden reference decomposition", failures, elapsed)
    assert not failures, failures


EXPECTED_CONFUSIONS = {
    "rvq": (2, 0, 1, 0),
    "svq": (2, 0, 0, 0),
    "msq": (1, 0, 2, 0),
    "wt": (2, 0, 1, 0),
    "terc1": (3, 0, 3, 0),
    "terc2": (3, 0, 3, 0),
    "ubr": (1, 0, 3, 0),
    "sg": (3, 0, 0, 0),
}


def test_criterion_2_benchmark_confusions(capsys):
    failures = []
    start = time.perf_counter()
    for dataset_id, expected in EXPECTED_CONFUSIONS.items():
        truth = datasets.GROUND_TRUTH[dataset_id]
        matches = 0
        for seed in range(10):
            data = generate(
                GeneratorSpec(dataset=dataset_id, n_samples=1000, seed=seed)
            )
            kind = ExactDiscrete() if data.all_discrete else Ksg()
            report = run_pidf(
                data, EstimatorConfig(kind=kind, base_seed=seed)
            )
            sel = select_features(report)
            got = confusion_counts(sel, truth).as_tuple
            matches += got == expected
        if matches < 9:
            failures.append(f"{dataset_id}: {matches}/10 seeds matched {expected}")
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.1f}s, budget 600s")
    _emit(capsys, 2, "benchmark selection confusions", failures, elapsed)
    assert not failures, failures


def test_criterion_3_exhaustive_synergy_sets(capsys):
    failures = []
    data = population_table("pairsum")

    _, maximizers = brute_force_fws(data, 0)
    want = (FeatureSubset.of(1), FeatureSubset.of(3), FeatureSubset.of(1, 3))
    if maximizers != want:
        failures.append(f"maximizers {[set(m) for m in maximizers]}")

    exhaustive = oracle.oracle_pidf(data)
    f0 = exhaustive[0]
    mci = f0.mi + f0.fws
    if abs(f0.fwr - mci) > 1e-9:
        failures.append(f"f0 fwr={f0.fwr:.12f} vs mci={mci:.12f}")
    _emit(capsys, 3, "exhaustive synergy maximizers", failures)
    assert not failures, failures


def test_criterion_4_population_theorem_sweep(capsys):
    failures = []
    start = time.perf_counter()
    worst_residual = 0.0
    violations = 0
    checked = 0
    for seed in range(200):
        data = random_population_instance(seed)
        checks = oracle.check_theorems(data)
        worst_residual = max(worst_residual, net_identity_residual(data))
        violations += checks.bound_violations
        checked += checks.n_theta_checked
    if worst_residual >= 1e-9:
        failures.append(f"identity residual {worst_residual:.2e}")
    if violations:
        failures.append(f"{violations} bound violations over {checked} evaluations")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    _emit(capsys, 4, "random-instance theorem sweep", failures, elapsed)
    assert not failures, failures


def test_criterion_5_estimator_accuracy(capsys):
    failures = []

    cfg = EstimatorConfig(kind=ExactDiscrete(), repetitions=1, base_seed=0)
    worst = 0.0
    for seed in range(100):
        data = random_population_instance(seed)
        rng = np.random.default_rng(seed)
        n = data.n_features
        size = int(rng.integers(1, n + 1))
        group = FeatureSubset(int(j) for j in rng.choice(n, size=size, replace=False))
        est = estimate_mi(data, group, TARGET, cfg).mean
        exact = ExactOracle(data).mi(group, TARGET)
        worst = max(worst, abs(est - exact))
    if worst > 1e-9:
        failures.append(f"exact estimator max deviation {worst:.2e}")

    # KSG is checked by its mean error over ten 5000-row draws per rho: one
    # draw's error spreads by 0.01-0.02 nats, so a single draw can miss the
    # bound with no bias in the estimator. Draw d of rho comes from the
    # stream philox(d, round(10 * rho)), the same in every process.
    ksg_cfg = EstimatorConfig(kind=Ksg(), repetitions=5, base_seed=0)
    for rho in (0.2, 0.5, 0.8):
        true = -0.5 * math.log1p(-rho * rho)
        errors = []
        for draw in range(KSG_DRAWS):
            cov = [[1.0, rho], [rho, 1.0]]
            xy = philox(draw, round(10 * rho)).multivariate_normal(
                [0.0, 0.0], cov, size=5000)
            data = Dataset(
                feature_names=("x",),
                features=xy[:, :1],
                target=xy[:, 1],
                kinds=(datasets.ColumnKind.continuous(),),
                target_kind=datasets.ColumnKind.continuous(),
            )
            est = estimate_mi(data, FeatureSubset.of(0), TARGET, ksg_cfg).mean
            errors.append(est - true)
        mean = sum(errors) / len(errors)
        if abs(mean) > 0.03:
            failures.append(f"ksg rho={rho}: mean error {mean:+.4f} over "
                            f"{len(errors)} draws, true {true:.4f}")

    _emit(capsys, 5, "estimator accuracy (exact + ksg)", failures)
    assert not failures, failures


@pytest.mark.slow
def test_criterion_5_neural_estimator_accuracy(capsys):
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    coin = rng.integers(0, 2, size=20000).astype(np.float64)
    data = Dataset(
        feature_names=("x",),
        features=coin[:, None],
        target=coin.copy(),
        kinds=(datasets.ColumnKind.discrete(2),),
        target_kind=datasets.ColumnKind.discrete(2),
    )
    cfg = EstimatorConfig(kind=Mine(MineConfig()), repetitions=1, base_seed=0)
    est = estimate_mi(data, FeatureSubset.of(0), TARGET, cfg).mean
    if abs(est - LN2) > 0.1:
        failures.append(f"mine estimate {est:.4f}, want {LN2:.4f} +/- 0.1")
    elapsed = time.perf_counter() - start
    _emit(capsys, 5, "estimator accuracy (mine, slow)", failures, elapsed)
    assert not failures, failures


def test_criterion_6_duplicate_feature_flagged(capsys):
    failures = []
    data = generate(GeneratorSpec(dataset="rvq", n_samples=1000, seed=0))
    base = run_pidf(data, EstimatorConfig(kind=ExactDiscrete(), base_seed=0))
    dup_data = duplicate_feature(data, 0)
    dup = run_pidf(dup_data, EstimatorConfig(kind=ExactDiscrete(), base_seed=0))

    dup_res = dup.results[3]
    if dup_res.name != "f0_dup":
        failures.append(f"expected duplicate at index 3, found {dup_res.name}")
    if dup_res.fwr_total < 0.95 * dup_res.mci:
        failures.append(
            f"duplicate fwr={dup_res.fwr_total:.4f} < 0.95*mci={dup_res.mci:.4f}"
        )
    for orig, shifted in zip(base.results, dup.results):
        if abs(orig.mi.mean - shifted.mi.mean) >= 0.03:
            failures.append(f"{orig.name} mi shifted by {abs(orig.mi.mean - shifted.mi.mean):.4f}")
        if abs(orig.fws.mean - shifted.fws.mean) >= 0.03:
            failures.append(f"{orig.name} fws shifted by {abs(orig.fws.mean - shifted.fws.mean):.4f}")
    _emit(capsys, 6, "duplicated feature fully redundant", failures)
    assert not failures, failures


def test_criterion_7_determinism_and_equivariance(capsys):
    failures = []

    texts = []
    for _ in range(2):
        data = generate(GeneratorSpec(dataset="sg", n_samples=600, seed=7))
        report = run_pidf(data, EstimatorConfig(kind=ExactDiscrete(), base_seed=7))
        selection = select_features(report)
        texts.append(
            render_json(report, selection, fingerprint=dataset_fingerprint(data))
        )
    if texts[0] != texts[1]:
        failures.append("identical runs produced different JSON bytes")

    def permute(data, perm):
        return Dataset(
            feature_names=tuple(data.feature_names[j] for j in perm),
            features=data.features[:, list(perm)],
            target=data.target,
            kinds=tuple(data.kinds[j] for j in perm),
            target_kind=data.target_kind,
            target_name=data.target_name,
            seed=data.seed,
            source=data.source,
        )

    def check_results_follow_columns(dataset_id, perm, seed):
        data = generate(GeneratorSpec(dataset=dataset_id, n_samples=800, seed=seed))
        base = run_pidf(data, EstimatorConfig(kind=ExactDiscrete(), base_seed=seed))
        moved = run_pidf(
            permute(data, perm), EstimatorConfig(kind=ExactDiscrete(), base_seed=seed)
        )
        for pos, orig_idx in enumerate(perm):
            ours = moved.results[pos]
            theirs = base.results[orig_idx]
            if ours.name != theirs.name:
                failures.append(
                    f"{dataset_id}: name mismatch at {pos}: {ours.name} vs {theirs.name}"
                )
            if ours.mi.estimates != theirs.mi.estimates:
                failures.append(f"{dataset_id} {theirs.name} mi changed under permutation")
            if ours.fws.estimates != theirs.fws.estimates:
                failures.append(f"{dataset_id} {theirs.name} fws changed under permutation")
            if ours.fwr_total != theirs.fwr_total:
                failures.append(f"{dataset_id} {theirs.name} fwr changed under permutation")
        return base, moved

    # results follow their columns even when exact duplicates are present
    rvq_base, rvq_moved = check_results_follow_columns("rvq", (2, 0, 1), seed=3)
    # among exact duplicates the selection keeps one interchangeable
    # representative per group, so compare selections by information content:
    # same size and one of {f1, f2} plus f0 either way
    for label, rep in (("base", rvq_base), ("permuted", rvq_moved)):
        sel = select_features(rep)
        names = {rep.feature_names[j] for j in sel.selected}
        if "f0" not in names or len(names & {"f1", "f2"}) != 1 or len(names) != 2:
            failures.append(f"rvq {label} selection {names} not one-per-group")

    # with no duplicate columns the selection itself is equivariant by name
    sg_base, sg_moved = check_results_follow_columns("sg", (1, 2, 0), seed=3)
    base_names = {sg_base.feature_names[j] for j in select_features(sg_base).selected}
    moved_names = {sg_moved.feature_names[j] for j in select_features(sg_moved).selected}
    if base_names != moved_names:
        failures.append(f"sg selection changed: {base_names} vs {moved_names}")

    _emit(capsys, 7, "byte determinism and permutation equivariance", failures)
    assert not failures, failures
