"""Tests of the benchmark's own checks, tally and tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pidf import EstimateEnsemble, render_json, run_pidf, select_features  # noqa: E402


def nudged(report, index: int, delta: float):
    """The report with feature ``index``'s MI ensemble shifted by ``delta``."""
    res = report.results[index]
    mi = EstimateEnsemble(tuple(e + delta for e in res.mi.estimates), res.mi.seeds)
    results = list(report.results)
    results[index] = dataclasses.replace(res, mi=mi)
    return dataclasses.replace(report, results=tuple(results))


@pytest.fixture(scope="module")
def plugin_case():
    data = workloads.plugin_dataset(seed=7, index=0, n=2000)
    report = run_pidf(data)
    return data, report, checks.PluginReference.of(data.features, data.target)


@pytest.fixture(scope="module")
def knn_case():
    data = workloads.knn_dataset(seed=7, index=0, n=400)
    report = run_pidf(data)
    ref = workloads.knn_reference(data)
    # At 400 rows the estimates are too rough for the analytic tolerance;
    # these tests exercise the per-seed identity.
    return report, ref._replace(analytic=tuple(r.mi_value for r in report.results))


def test_plugin_decomposition_passes_on_real_output(plugin_case):
    _, report, ref = plugin_case
    assert checks.check_plugin_decomposition(report, ref) == []


def test_plugin_mi_nudged_by_1e_6_is_caught(plugin_case):
    _, report, ref = plugin_case
    problems = checks.check_plugin_decomposition(nudged(report, 2, 1e-6), ref)
    assert problems and not any(p.known for p in problems)
    tally = workloads.Tally()
    tally.record("decomposition", problems)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_plugin_reference_matches_known_values():
    a = np.array([0, 0, 1, 1] * 25)
    b = np.array([0, 1, 0, 1] * 25)
    assert checks.plugin_mi(a ^ b, a) == pytest.approx(0.0, abs=1e-15)
    assert checks.plugin_mi(a ^ b, np.column_stack([a, b])) == pytest.approx(np.log(2))


def test_knn_identity_passes_and_catches_a_nudge(knn_case):
    report, ref = knn_case
    assert checks.check_knn_decomposition(report, ref) == []
    problems = checks.check_knn_decomposition(nudged(report, 1, 1e-6), ref)
    assert problems and not any(p.known for p in problems)


def test_knn_analytic_tolerance_is_enforced(knn_case):
    report, ref = knn_case
    off = ref._replace(analytic=(ref.analytic[0] + 2 * checks.KSG_ANALYTIC_TOL,) + ref.analytic[1:])
    assert any("Gaussian value" in p.text for p in checks.check_knn_decomposition(report, off))


def test_rendered_json_mismatch_is_caught(plugin_case):
    _, report, _ = plugin_case
    selection = select_features(report)
    text = render_json(report, selection)
    assert checks.check_rendered(text, report, selection.selected) == []
    payload = json.loads(text)
    payload["features"][0]["mi"] += 1e-6
    assert checks.check_rendered(json.dumps(payload), report, selection.selected)


@pytest.mark.parametrize("selected, known", [
    ((0, 1, 2), None),                # right
    ((0, 1, 2, 6, 9), True),          # only the kept noise: the known fault
    ((0, 2), False),                  # relevant feature 1 dropped
    ((1, 2), False),                  # copy group {0, 3} lost
    ((0, 3, 1, 2), False),            # both members of a copy group kept
    ((0, 1, 2, 5), True),
])
def test_plugin_selection(selected, known):
    problems = checks.check_selection(selected, workloads.PLUGIN_TRUTH)
    if known is None:
        assert problems == []
    else:
        assert problems and all(p.known for p in problems) == known


def test_knn_noisy_copy_kept_is_a_new_fault():
    problems = checks.check_selection((0, 1, 2), workloads.KNN_TRUTH)
    assert problems and not any(p.known for p in problems)


def test_known_fault_counts_failed_but_keeps_correct():
    tally = workloads.Tally()
    tally.record("selection", checks.check_selection((0, 1, 2, 7), workloads.PLUGIN_TRUTH))
    tally.record("decomposition", [])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.record("selection", checks.check_selection((0, 2, 7), workloads.PLUGIN_TRUTH))
    assert (tally.attempted, tally.failed, tally.correct) == (3, 2, False)


def test_verify_nonzero_exit_is_a_failed_operation():
    ok = "rvq: MI estimator vs oracle, max delta 0.00e+00: ok\nverify: all checks passed"
    assert checks.check_verify(0, ok) == []
    tally = workloads.Tally()
    tally.record("verify", checks.check_verify(1, ok))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)
    assert checks.check_verify(0, "rvq: x: FAIL\nverify: 1 check(s) failed")


def test_bench_miss_is_caught():
    ids = ("rvq", "svq")
    good = "rvq: 10/10 seeds matched (2, 0, 1, 0)\nsvq: 10/10 seeds matched (2, 0, 0, 0)"
    assert checks.check_bench(0, good, ids) == []
    assert checks.check_bench(0, good.replace("svq: 10/10", "svq: 9/10"), ids)
    assert checks.check_bench(0, good.splitlines()[0], ids)
    assert checks.check_bench(1, good, ids)


def test_analyze_check(tmp_path):
    from pidf import cli, datasets, read_csv, write_csv

    data = datasets.generate(datasets.GeneratorSpec(dataset="pairsum", n_samples=300, seed=1))
    csv, out = tmp_path / "pairsum.csv", tmp_path / "pairsum.json"
    write_csv(data, csv)
    assert cli.main(["analyze", "--input", str(csv), "--out", str(out)]) == 0
    table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    text = out.read_text()
    assert checks.check_analyze(0, text, table, ["f0", "f1"]) == []
    assert checks.check_analyze(0, text, table, ["f0"])
    assert checks.check_analyze(3, "", table, ["f0", "f1"])
    payload = json.loads(text)
    payload["features"][1]["mi"] += 1e-6
    assert checks.check_analyze(0, json.dumps(payload), table, ["f0", "f1"])
    assert read_csv(csv).n_samples == 300


def test_measure_runs_whole_rounds():
    calls = []
    jobs = [workloads.Job(f"j{i}", lambda i=i: calls.append(i) or i,
                          lambda out, tally: tally.record("op", []))
            for i in range(3)]
    tally = workloads.Tally()
    result = workloads.measure(jobs, 1e-9, tally)
    assert result.rounds == 1 and calls == [0, 1, 2]
    assert tally.attempted == 3 and len(result.job_seconds) == 3


def test_tracer_changes_no_output_and_sees_the_kernels():
    data = workloads.knn_dataset(seed=3, index=0, n=300)
    plain = render_json(run_pidf(data))
    tracer = tracing.Tracer()
    with tracer.installed(extra_modules=[workloads]):
        traced = render_json(workloads.run_pidf(data))
    assert traced == plain
    assert run_pidf is workloads.run_pidf  # originals restored
    layers = tracer.layer_metrics(jobs=1)
    assert layers["estimators.ksg.mi_calls"] > 0
    assert layers["pidf.cache_misses"] == layers["estimators.ksg.mi_calls"]
    assert 0 < layers["estimators.knn_query_s"] + layers["estimators.ball_count_s"] \
        <= layers["estimators.ksg_mi_s"] <= layers["estimators.ksg.mi_s"] \
        <= layers["pidf.run_pidf_s"]
