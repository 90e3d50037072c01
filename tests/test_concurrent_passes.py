"""The feature passes of a run go in lockstep over one cache: each round
estimates the keys the live passes ask for, under ksg and mine as (key,
seed) tasks on the repetition pool. The passes give the bytes of passes
run one after another, estimate each MI once, raise the error the first
failing pass raises, and leave no work behind."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pidf import (
    ColumnKind,
    Dataset,
    EstimatorConfig,
    EstimatorError,
    Ksg,
    Mine,
    MineConfig,
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


@pytest.fixture
def pool_of(monkeypatch):
    """Give later estimates a repetition pool of this many threads, shut
    down when the test ends."""
    made = []

    def make(threads: int) -> ThreadPoolExecutor:
        pool = ThreadPoolExecutor(threads, thread_name_prefix="pidf-rep")
        made.append(pool)
        monkeypatch.setitem(estimators._pools, "rep", pool)
        return pool

    yield make
    for pool in made:
        pool.shutdown()


def fast_switching(run):
    """run() with the interpreter switching threads every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return run()
    finally:
        sys.setswitchinterval(interval)


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
    def test_ksg_text_is_pinned_on_threads_and_in_turn(self, pool_of, name, seed):
        data = table(name, seed)
        assert type(pidf_mod.default_config(data).kind) is Ksg
        default = text(data)
        pool_of(1)
        in_turn = text(data)
        assert hashlib.sha256(in_turn.encode("utf-8")).hexdigest() == TEXT_SHA256[name, seed]
        assert default == in_turn

    def test_mine_text_on_threads_and_in_turn(self, pool_of):
        cfg = EstimatorConfig(
            kind=Mine(MineConfig(batch_size=64, iterations=20, hidden=8)), repetitions=3)
        data = gaussian_table(300, 3, 1)
        default = text(data, cfg)
        pool_of(1)
        assert default == text(data, cfg)


class TestSharedCache:
    def test_each_estimate_once(self, monkeypatch, pool_of):
        data = gaussian_table(600, 6, 3)
        calls = []
        real_mi = estimators._KsgSample.mi

        def recording_mi(sample, left, right, rep_seed):
            calls.append((left, right, rep_seed))
            return real_mi(sample, left, right, rep_seed)

        monkeypatch.setattr(estimators._KsgSample, "mi", recording_mi)
        pool_of(1)
        in_turn = text(data)
        distinct = len(calls)
        assert distinct == len(set(calls))
        calls.clear()
        pool_of(4)
        threaded = fast_switching(lambda: text(data))
        assert len(calls) == len(set(calls)) == distinct
        assert threaded == in_turn

    def test_each_column_jittered_once(self, monkeypatch, pool_of):
        jittered = []
        real_jittered = estimators._jittered

        def counted_jittered(col, col_id, rep_seed):
            jittered.append((rep_seed, col_id))
            return real_jittered(col, col_id, rep_seed)

        monkeypatch.setattr(estimators, "_jittered", counted_jittered)
        pool_of(4)
        data = gaussian_table(600, 6, 4)
        fast_switching(lambda: run_pidf(data))
        seeds = EstimatorConfig().seeds()
        assert sorted(jittered) == [(s, c) for s in seeds for c in range(-1, 6)]

    @pytest.mark.parametrize("threads", [None, 1])
    def test_two_concurrent_runs_share_one_repetition_pool(self, monkeypatch, pool_of,
                                                           threads):
        # With no pool given, both runs ask for the pool first at once.
        monkeypatch.setattr(estimators, "_pools", {})
        if threads is not None:
            pool_of(threads)
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

        def both():
            runs = [threading.Thread(target=analyze, args=(k,)) for k in range(2)]
            for run in runs:
                run.start()
            for run in runs:
                run.join()

        fast_switching(both)
        try:
            assert errors == []
            live = {t for t in threading.enumerate() if t.name.startswith("pidf-rep")}
            assert len(used) <= (threads or usable_cpus())
            assert len(live - before) <= usable_cpus()
            assert texts == {k: text(tables[k]) for k in range(2)}
        finally:
            estimators._pools["rep"].shutdown()


class TestErrors:
    @pytest.mark.parametrize("threads", [None, 2, 1])
    def test_same_error_text(self, pool_of, threads):
        if threads is not None:
            pool_of(threads)
        with pytest.raises(EstimatorError) as caught:
            run_pidf(tiny_ksg_table())
        assert str(caught.value) == "feature 'a': ksg needs more than k=3 rows, got 2"

    def test_no_pass_thread_outlives_a_run(self):
        # A run starts no thread of its own: only the repetition pool's.
        before = set(threading.enumerate())
        run_pidf(gaussian_table(300, 4, 7))
        started = set(threading.enumerate()) - before
        assert all(t.name.startswith("pidf-rep") for t in started)

    @pytest.mark.parametrize("error", [EstimatorError("broken"), KeyboardInterrupt()])
    def test_passes_not_started_are_cancelled(self, monkeypatch, pool_of, error):
        # The estimate of I(Y; feature 2) fails in the first round. After
        # it, no round asks for the keys of passes 3 to 7, and no (key,
        # seed) task starts once the run has raised.
        data = gaussian_table(100, 8, 8)
        asked, rounds, late = [], [], []
        raised = threading.Event()
        real_mi, real_round = estimators._KsgSample.mi, estimators._estimate_round
        real_pass = pidf_mod._feature_pass

        def failing_mi(sample, left, right, rep_seed):
            late.append(raised.is_set())
            if (left, right) == ((-1,), (2,)):
                raise error
            return real_mi(sample, left, right, rep_seed)

        def recorded_round(data, keys, cfg):
            rounds.append(keys)
            return real_round(data, keys, cfg)

        class RecordedPass:
            def __init__(self, data, i, *args):
                self.i, self.inner = i, real_pass(data, i, *args)

            def __next__(self):
                return self.ask(next(self.inner))

            def send(self, values):
                return self.ask(self.inner.send(values))

            def throw(self, err):
                return self.ask(self.inner.throw(err))

            def ask(self, keys):
                asked.append((self.i, keys))
                return keys

        monkeypatch.setattr(estimators._KsgSample, "mi", failing_mi)
        monkeypatch.setattr(estimators, "_estimate_round", recorded_round)
        monkeypatch.setattr(pidf_mod, "_feature_pass", RecordedPass)
        pool = pool_of(1)
        with pytest.raises(type(error)) as caught:
            run_pidf(data)
        raised.set()
        pool.submit(lambda: None).result()  # the one pool thread is done
        if type(error) is EstimatorError:
            assert str(caught.value) == "feature 'f2': broken"
        assert not any(late)
        first = [keys for i, keys in asked[:8]]
        assert [i for i, _ in asked[:8]] == list(range(8))
        assert all(i < 2 for i, _ in asked[8:])
        later = {key for i, keys in asked[8:] for key in keys}
        assert {key for keys in rounds[1:] for key in keys} <= later
        assert set(rounds[0]) == {key for keys in first for key in keys}
