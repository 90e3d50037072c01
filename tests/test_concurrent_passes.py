"""The feature passes of a ksg or mine run go on pass threads that share one
MiCache. They give the bytes of passes run one after another, estimate
each MI once, raise the error the first failing pass raises, and leave no
thread behind."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from pidf import (
    ColumnKind,
    Dataset,
    EstimatorConfig,
    EstimatorError,
    ExactDiscrete,
    Ksg,
    Mine,
    MineConfig,
    TARGET,
    render_json,
    run_pidf,
    select_features,
)
from pidf import estimators
from pidf import pidf as pidf_mod
from pidf.datasets import GeneratorSpec, generate
from pidf.estimators import usable_cpus

from test_plugin_pins import gaussian_table

# sha256 of render_json(report, selection) of the default run, as passes
# run one after another give it.
TEXT_SHA256 = {
    ("gaussian", 0): "94fdbe805eae04b247ce3101049e949ed1b946ae64e6d838d57ffe164f07de6b",
    ("wt", 0): "4b93eb4b2f6fc8e79a2848b51c33868d06608f77b34d24c3c841c0df3167a15d",
    ("wt", 1): "ff0bf12bbb9a1a45fa3f987dd99b2464b12bf395c5cc260dcfdfd62e49013a16",
    ("wt", 2): "7ef0416ccc439fbbb517621b4d6c219a7d27f67de6645260cee88015f26cb27a",
    ("ubr", 0): "267154d3bb5658239a4476523af1f4b9e9d9fd43f9aa9bf1be3aab89dcc7d0d5",
    ("ubr", 1): "29bdf195d5b3d548f6c6d4e57d741f9335020012ef5927eae416f338dc53ba94",
    ("ubr", 2): "9f3a7d460c1ca0d4a36fbd60a64771a559a10cde0ce898498d4b329f528ff48c",
}


def table(name: str, seed: int) -> Dataset:
    if name == "gaussian":
        return gaussian_table(1000, 6, seed)
    return generate(GeneratorSpec(name, 1000, seed))


def text(data: Dataset, cfg: EstimatorConfig | None = None) -> str:
    report = run_pidf(data, cfg)
    return render_json(report, select_features(report))


def passes_on(monkeypatch, threads: int) -> None:
    """Run every later pass on this many threads, whatever the CPUs."""
    monkeypatch.setattr(pidf_mod, "_pass_threads", lambda data, cfg: threads)


def pass_threads_alive() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("pidf-pass")]


def tiny_ksg_table() -> Dataset:
    """8 rows: a 30% subsample keeps 2, no more than k."""
    draws = np.random.default_rng(0).normal(size=(8, 3))
    return Dataset(
        feature_names=("a", "b"),
        features=draws[:, :2],
        target=draws[:, 2],
        kinds=(ColumnKind.continuous(),) * 2,
        target_kind=ColumnKind.continuous(),
    )


class TestSameBytes:
    @pytest.mark.parametrize("name,seed", sorted(TEXT_SHA256))
    def test_ksg_text_is_pinned_on_threads_and_in_turn(self, monkeypatch, name, seed):
        data = table(name, seed)
        assert type(pidf_mod.default_config(data).kind) is Ksg
        default = text(data)
        passes_on(monkeypatch, 4)
        threaded = text(data)
        passes_on(monkeypatch, 1)
        in_turn = text(data)
        assert hashlib.sha256(in_turn.encode("utf-8")).hexdigest() == TEXT_SHA256[name, seed]
        assert threaded == in_turn
        assert default == in_turn

    def test_mine_text_on_threads_and_in_turn(self, monkeypatch):
        cfg = EstimatorConfig(
            kind=Mine(MineConfig(batch_size=64, iterations=20, hidden=8)), repetitions=3)
        data = gaussian_table(300, 3, 1)
        passes_on(monkeypatch, 3)
        threaded = text(data, cfg)
        passes_on(monkeypatch, 1)
        assert threaded == text(data, cfg)


class TestPassThreads:
    def test_plugin_kinds_run_passes_in_turn(self):
        data = generate(GeneratorSpec("rvq", 200, 0))
        assert pidf_mod._pass_threads(data, EstimatorConfig(kind=ExactDiscrete())) == 1

    @pytest.mark.parametrize("repetition,features,want", [
        (1, 6, 1), (2, 6, 4), (2, 3, 3), (4, 6, 6), (2, 1, 1),
    ])
    def test_two_per_repetition_thread_at_most_one_per_feature(
            self, monkeypatch, repetition, features, want):
        monkeypatch.setattr(estimators, "_pool",
                            lambda: SimpleNamespace(_max_workers=repetition))
        data = gaussian_table(100, features, 0)
        assert pidf_mod._pass_threads(data, EstimatorConfig(kind=Ksg())) == want

    def test_store_and_pool_are_made_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(estimators, "_pools", {})
        data = gaussian_table(100, 3, 2)
        try:
            threads = pidf_mod._pass_threads(data, EstimatorConfig(kind=Ksg()))
            pool = estimators._pools["rep"]
            assert estimators._store.data is data
            assert threads == (min(2 * pool._max_workers, 3) if pool._max_workers > 1 else 1)
        finally:
            estimators._pools["rep"].shutdown()


class TestSharedCache:
    def test_each_estimate_once(self, monkeypatch):
        data = gaussian_table(600, 6, 3)
        calls = []
        real_estimate = estimators.estimate_mi

        def recording_estimate(data, left, right, cfg):
            calls.append((left, right))
            return real_estimate(data, left, right, cfg)

        monkeypatch.setattr(estimators, "estimate_mi", recording_estimate)
        passes_on(monkeypatch, 1)
        in_turn = text(data)
        distinct = len(calls)
        assert distinct == len(set(calls))
        calls.clear()
        passes_on(monkeypatch, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = text(data)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == len(set(calls)) == distinct
        assert threaded == in_turn

    def test_each_column_jittered_once(self, monkeypatch):
        jittered = []
        real_jittered = estimators._jittered

        def counted_jittered(col, col_id, rep_seed):
            jittered.append((rep_seed, col_id))
            return real_jittered(col, col_id, rep_seed)

        monkeypatch.setattr(estimators, "_jittered", counted_jittered)
        passes_on(monkeypatch, 6)
        data = gaussian_table(600, 6, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_pidf(data)
        finally:
            sys.setswitchinterval(interval)
        seeds = EstimatorConfig().seeds()
        assert sorted(jittered) == [(s, c) for s in seeds for c in range(-1, 6)]

    @pytest.mark.parametrize("threads", [None, 1])
    def test_two_concurrent_runs_share_one_repetition_pool(self, monkeypatch, threads):
        # Both runs ask for the pool first at once: passes in turn ask it
        # from estimate_mi, passes on threads from the calling thread.
        if threads is not None:
            passes_on(monkeypatch, threads)
        monkeypatch.setattr(estimators, "_pools", {})
        before = {t for t in threading.enumerate() if t.name.startswith("pidf-rep")}
        used = set()
        real_ksg_mi = estimators.ksg_mi

        def recording_ksg_mi(x, y, k):
            used.add(threading.current_thread())
            return real_ksg_mi(x, y, k)

        monkeypatch.setattr(estimators, "ksg_mi", recording_ksg_mi)
        tables = [gaussian_table(600, 4, seed) for seed in (5, 6)]
        texts, errors = {}, []
        together = threading.Barrier(2)

        def analyze(k):
            try:
                together.wait()
                texts[k] = text(tables[k])
            except BaseException as err:  # reported by the asserts below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [threading.Thread(target=analyze, args=(k,)) for k in range(2)]
            for run in runs:
                run.start()
            for run in runs:
                run.join()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert errors == []
            live = {t for t in threading.enumerate() if t.name.startswith("pidf-rep")}
            assert len(used) <= usable_cpus()
            assert len(live - before) <= usable_cpus()
            assert texts == {k: text(tables[k]) for k in range(2)}
        finally:
            estimators._pools["rep"].shutdown()


class TestErrors:
    @pytest.mark.parametrize("threads", [None, 2, 1])
    def test_same_error_text(self, monkeypatch, threads):
        if threads is not None:
            passes_on(monkeypatch, threads)
        with pytest.raises(EstimatorError) as caught:
            run_pidf(tiny_ksg_table())
        assert str(caught.value) == "feature 'a': ksg needs more than k=3 rows, got 2"
        assert pass_threads_alive() == []

    def test_no_pass_thread_outlives_a_run(self):
        run_pidf(gaussian_table(300, 4, 7))
        assert pass_threads_alive() == []

    @pytest.mark.parametrize("error", [EstimatorError("broken"), KeyboardInterrupt()])
    def test_passes_not_started_are_cancelled(self, monkeypatch, error):
        # Each pass fails at its first estimate, I(Y; its feature). Pass 0
        # fails once passes 1 to 3 hold the other three threads; they fail
        # when the run shuts its pool down, and no other pass starts.
        data = gaussian_table(100, 8, 8)
        started, lock = set(), threading.Lock()
        busy, release = threading.Event(), threading.Event()

        def first_estimates(data, left, right, cfg):
            assert left is TARGET and len(right) == 1
            with lock:
                started.add(right[0])
                if len(started) == 4:
                    busy.set()
            (busy if right[0] == 0 else release).wait(30)
            raise error

        real_shutdown = ThreadPoolExecutor.shutdown

        def releasing_shutdown(pool, *args, **kwargs):
            release.set()
            return real_shutdown(pool, *args, **kwargs)

        monkeypatch.setattr(estimators, "estimate_mi", first_estimates)
        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", releasing_shutdown)
        passes_on(monkeypatch, 4)
        with pytest.raises(type(error)):
            run_pidf(data)
        assert busy.is_set()
        assert started == {0, 1, 2, 3}
        assert pass_threads_alive() == []
