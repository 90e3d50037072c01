"""Estimator tests: exact plug-in vs the counting oracle, KSG accuracy on
Gaussians, binning behavior, repetition seeding, and error paths."""

import itertools
import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from instances import random_dataset
from pidf import (
    Binned,
    ColumnKind,
    ConfigError,
    Dataset,
    EstimatorConfig,
    EstimatorError,
    ExactDiscrete,
    FeatureSubset,
    GeneratorSpec,
    Ksg,
    Mine,
    MineConfig,
    TARGET,
    estimate_mi,
    generate,
    oracle_mi,
    render_json,
    run_pidf,
    select_features,
)
from pidf import estimators, types
from pidf.estimators import (
    _KsgSample,
    _MineSample,
    _ball_counts,
    _dense,
    _fold_rows,
    ksg_mi,
    subsample_rows,
    usable_cpus,
)

LN2 = math.log(2.0)
F = FeatureSubset.of


def exact_cfg(reps=1, seed=0):
    return EstimatorConfig(kind=ExactDiscrete(), repetitions=reps, base_seed=seed)


def gaussian_pair(rho, n, seed=12345):
    rng = np.random.default_rng(seed)
    xy = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=n)
    return Dataset(
        feature_names=("f0",),
        features=xy[:, :1],
        target=xy[:, 1],
        kinds=(ColumnKind.continuous(),),
        target_kind=ColumnKind.continuous(),
    )


def constant_table(p):
    """5 rows of p constant features and a constant target."""
    return Dataset(feature_names=tuple(f"f{i}" for i in range(p)), features=np.zeros((5, p)),
                   target=np.zeros(5), kinds=(ColumnKind.discrete(1),) * p,
                   target_kind=ColumnKind.discrete(1))


class TestGroups:
    """A group of ids resolves as a FeatureSubset of them does. A tuple of
    ints already sorted and unique is taken as it is."""

    @pytest.mark.parametrize("group", [
        (0, 2), [2, 0], (2, 0), (0, 0, 2), (np.int64(0), 2), (0.0, 2.0), (False, 2),
        pytest.param(iter([2, 0]), id="iter([2, 0])"), F(0, 2),
    ], ids=repr)
    def test_ids_resolve_sorted(self, group):
        data = constant_table(3)
        ids = types._group_ids(group, data.n_features)
        assert ids == (0, 2) and all(type(i) is int for i in ids)

    @pytest.mark.parametrize("group, message", [
        ((-1,), "use the TARGET marker, not index -1"),
        ([3, -1], "use the TARGET marker, not index -1"),
        ((-3, -1), "feature index -3 out of range"),
        ((0, 3, 7), "feature index 3 out of range"),
        ([7, 0], "feature index 7 out of range"),
    ])
    def test_ids_out_of_range(self, group, message):
        data = constant_table(3)
        with pytest.raises(ConfigError) as err:
            estimate_mi(data, group, TARGET, exact_cfg())
        assert str(err.value) == message


class TestExactDiscrete:
    def test_matches_oracle_on_random_instances(self):
        cfg = exact_cfg()
        for seed in range(100):
            data = random_dataset(seed)
            full = FeatureSubset.full(data.n_features)
            for left in (F(0), full):
                est = estimate_mi(data, left, TARGET, cfg).mean
                ref = oracle_mi(data, left, TARGET)
                assert abs(est - ref) <= 1e-9, (seed, left)

    def test_deterministic_broadcast(self):
        data = random_dataset(3)
        cfg = exact_cfg(reps=5)
        ens = estimate_mi(data, F(0), TARGET, cfg)
        assert ens.n == 5
        assert ens.std == 0.0

    def test_rejects_continuous(self):
        data = gaussian_pair(0.5, 50)
        with pytest.raises(EstimatorError, match="discrete"):
            estimate_mi(data, F(0), TARGET, exact_cfg())

    def test_empty_group_zero(self):
        data = random_dataset(1)
        ens = estimate_mi(data, FeatureSubset(), TARGET, exact_cfg(reps=3))
        assert ens.estimates == (0.0, 0.0, 0.0)

    def test_symmetry_is_bitwise(self):
        data = random_dataset(7)
        cfg = exact_cfg()
        ab = estimate_mi(data, F(0), TARGET, cfg).mean
        ba = estimate_mi(data, TARGET, F(0), cfg).mean
        assert ab == ba

    def test_column_order_invariance(self):
        """Information-identical groups in different column orders must give
        bitwise identical values so downstream ties break canonically."""
        col = [0, 1, 0, 1, 1, 0, 1, 1]
        other = [0, 0, 1, 1, 0, 1, 1, 0]
        y = [0, 1, 1, 0, 1, 0, 0, 1]
        data = Dataset(
            feature_names=("a", "b", "a2"),
            features=np.array([col, other, col], dtype=np.float64).T,
            target=np.array(y, dtype=np.float64),
            kinds=(ColumnKind.discrete(2),) * 3,
            target_kind=ColumnKind.discrete(2),
        )
        cfg = exact_cfg()
        first = estimate_mi(data, FeatureSubset((0, 1)), TARGET, cfg).mean
        second = estimate_mi(data, FeatureSubset((1, 2)), TARGET, cfg).mean
        assert first == second


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=40))
    cols = draw(st.integers(min_value=0, max_value=20))
    cardinality = draw(st.integers(min_value=1, max_value=1000))
    values = st.integers(min_value=0, max_value=cardinality - 1).map(float)
    return draw(arrays(np.float64, (rows, cols), elements=values))


def unique_row_codes(matrix):
    return np.unique(matrix, axis=0, return_inverse=True)[1].ravel()


def row_codes(matrix):
    columns = [(c.astype(np.int64), int(c.max()) + 1) for c in matrix.T]
    return _dense(*_fold_rows(columns, matrix.shape[0]))[0]


class TestDiscreteCodes:
    """Mixed-radix row codes equal the row ranks np.unique(axis=0) assigns."""

    @given(integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_unique(self, matrix):
        np.testing.assert_array_equal(row_codes(matrix), unique_row_codes(matrix))

    def test_span_past_int64(self):
        # 32**16 = 2**80 joint states: the partial code is re-ranked midway.
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 32, size=(200, 16))
        matrix = rows[rng.integers(0, 200, size=500)].astype(np.float64)
        np.testing.assert_array_equal(row_codes(matrix), unique_row_codes(matrix))

    def test_one_code_after_rerank(self):
        # The re-rank midway leaves one code, and the next radix is 128.
        matrix = np.array([[29.0, 29.0, 40.0, 62.0, 63.0, 92.0, 114.0, 133.0, 168.0, 127.0]])
        np.testing.assert_array_equal(row_codes(matrix), [0])

    def test_values_past_int64_span(self):
        matrix = np.array([[2.0**52, 3.0], [1.0, 2.0**52], [2.0**52, 3.0]])
        np.testing.assert_array_equal(row_codes(matrix), [1, 0, 1])

    def test_single_row(self):
        np.testing.assert_array_equal(row_codes(np.array([[3.0, 0.0, 7.0]])), [0])

    def test_constant_column(self):
        matrix = np.column_stack([np.full(6, 4.0), [1.0, 0.0, 1.0, 2.0, 0.0, 1.0]])
        np.testing.assert_array_equal(row_codes(matrix), unique_row_codes(matrix))

    def test_no_columns(self):
        np.testing.assert_array_equal(row_codes(np.empty((5, 0))), np.zeros(5))


class TestBinned:
    def test_recovers_discrete_exactly_with_wide_bins(self):
        data = random_dataset(5)
        est = estimate_mi(
            data, F(0), TARGET,
            EstimatorConfig(kind=Binned(bins=32), repetitions=1, base_seed=0),
        ).mean
        ref = oracle_mi(data, F(0), TARGET)
        assert est == pytest.approx(ref, abs=1e-9)

    def test_gaussian_positive_dependence(self):
        data = gaussian_pair(0.8, 4000)
        cfg = EstimatorConfig(kind=Binned(), repetitions=1, base_seed=0)
        est = estimate_mi(data, F(0), TARGET, cfg).mean
        assert 0.2 < est < 0.9

    def test_run_bins_each_column_once(self, monkeypatch):
        binned = []
        real = estimators._bin_column

        def counted(col, kind, bins):
            if not kind.is_discrete:
                binned.append(col)
            return real(col, kind, bins)

        monkeypatch.setattr(estimators, "_bin_column", counted)
        draws = np.random.default_rng(3).normal(size=(500, 4))
        data = Dataset(
            feature_names=("f0", "f1", "f2"),
            features=draws[:, :3],
            target=draws[:, 0] + draws[:, 3],
            kinds=(ColumnKind.continuous(),) * 3,
            target_kind=ColumnKind.continuous(),
        )
        run_pidf(data, EstimatorConfig(kind=Binned(), repetitions=2))
        assert len(binned) == 4


def three_entropy_mi(left, right):
    """The plug-in MI with nothing shared between estimates: code both
    sides and their joint afresh, then max(0, h_l + h_r - h_lr)."""
    n = left[0].shape[0]

    def entropy(columns):
        codes = np.unique(np.column_stack(columns), axis=0, return_inverse=True)[1]
        counts = np.bincount(codes.ravel())
        counts = np.sort(counts[counts > 0])
        return max(0.0, math.log(n) - float(counts @ np.log(counts)) / n)

    return max(0.0, entropy(left) + entropy(right) - entropy([*left, *right]))


@st.composite
def plugin_tables(draw):
    """A table of up to 3 features and a target, all discrete, or all
    continuous with many ties."""
    rows = draw(st.integers(min_value=1, max_value=60))
    cols = draw(st.integers(min_value=2, max_value=4))
    cardinality = draw(st.integers(min_value=1, max_value=5))
    values = st.integers(min_value=0, max_value=cardinality - 1).map(float)
    table = draw(arrays(np.float64, (rows, cols), elements=values))
    kind = ColumnKind.discrete(cardinality)
    if draw(st.booleans()):
        table = table + draw(arrays(np.float64, (rows, cols),
                                    elements=st.sampled_from((0.0, 0.25, 0.5))))
        kind = ColumnKind.continuous()
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(cols - 1)),
        features=table[:, 1:],
        target=table[:, 0],
        kinds=(kind,) * (cols - 1),
        target_kind=kind,
    )


@st.composite
def repeated_rows(draw, tables):
    """A table drawn from tables with each row repeated 1 to 40 times and
    the rows shuffled, so that few of them are distinct."""
    data = draw(tables)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = rng.permutation(np.repeat(np.arange(data.n_samples),
                                     rng.integers(1, 41, size=data.n_samples)))
    return Dataset(
        feature_names=data.feature_names,
        features=data.features[rows],
        target=data.target[rows],
        kinds=data.kinds,
        target_kind=data.target_kind,
    )


@st.composite
def wide_code_tables(draw):
    """A discrete table of 2 to 4 columns, target first, with tied values
    and repeated rows. Cardinalities up to 300 put the joint spans past
    2**7, 2**15 and 2**31, so row codes take every width int8 to int64."""
    cols = draw(st.integers(min_value=2, max_value=4))
    cardinality = st.one_of(st.integers(min_value=1, max_value=300),
                            st.integers(min_value=216, max_value=300))
    cardinalities = draw(st.lists(cardinality, min_size=cols, max_size=cols))
    distinct = [
        draw(st.lists(st.integers(min_value=0, max_value=c - 1), min_size=1, max_size=6))
        for c in cardinalities
    ]
    rows = draw(st.lists(st.tuples(*(st.sampled_from(v) for v in distinct)),
                         min_size=1, max_size=12))
    rows = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=50))
    # A row of every column's largest value makes the spans the products
    # of the cardinalities.
    table = np.array([[c - 1 for c in cardinalities], *rows], dtype=np.float64)
    kinds = tuple(ColumnKind.discrete(c) for c in cardinalities)
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(cols - 1)),
        features=table[:, 1:],
        target=table[:, 0],
        kinds=kinds[1:],
        target_kind=kinds[0],
    )


def group_pairs(n_features):
    """Every ordered pair of the target and non-empty feature groups that
    are disjoint or identical."""
    groups = [TARGET] + [
        FeatureSubset(ids) for width in range(1, n_features + 1)
        for ids in itertools.combinations(range(n_features), width)
    ]
    ids = [() if g is TARGET else g.indices for g in groups]
    for (a, ia), (b, ib) in itertools.product(zip(groups, ids), repeat=2):
        if a is b or not set(ia) & set(ib):
            yield a, b


def plugin_kinds(data):
    """The plug-in kinds a table can take: Binned at 2, 3 and 8 bins, and
    exact when every column is discrete."""
    return [Binned(bins=b) for b in (2, 3, 8)] + \
        ([ExactDiscrete()] if data.all_discrete else [])


def plugin_columns(data, kind, group):
    """The columns of group as a plug-in estimate sees them."""
    ids = (-1,) if group is TARGET else group.indices
    cols = [data.column(i) for i in ids]
    if isinstance(kind, Binned):
        cols = [estimators._bin_column(c, data.kind(i), kind.bins)
                for c, i in zip(cols, ids)]
    return cols


def assert_three_entropy_bytes(data, kind, pairs):
    """Each pair's estimate under kind equals three_entropy_mi by float.hex."""
    cfg = EstimatorConfig(kind=kind, repetitions=1)
    for left, right in pairs:
        value = estimate_mi(data, left, right, cfg).estimates[0]
        expected = three_entropy_mi(plugin_columns(data, kind, left),
                                    plugin_columns(data, kind, right))
        assert value.hex() == expected.hex(), (kind, left, right)


@st.composite
def count_tables(draw):
    """A target and up to 3 features. Each column is discrete of 1 to 6
    values (1 is a constant column; past 4 the count table leaves it out)
    or continuous with ties."""
    rows = draw(st.integers(min_value=1, max_value=60))
    cols = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    table, kinds = [], []
    for _ in range(cols):
        values = draw(st.integers(min_value=1, max_value=6))
        column = rng.integers(0, values, size=rows).astype(np.float64)
        if draw(st.booleans()):
            table.append(column)
            kinds.append(ColumnKind.discrete(values))
        else:
            table.append(column + rng.choice((0.0, 0.25, 0.5), size=rows))
            kinds.append(ColumnKind.continuous())
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(cols - 1)),
        features=np.column_stack(table[1:]),
        target=table[0],
        kinds=tuple(kinds[1:]),
        target_kind=kinds[0],
    )


@st.composite
def bound_tables(draw):
    """A discrete table whose count table would take _TABLE_WIDTH - 1,
    _TABLE_WIDTH or _TABLE_WIDTH + 1 indicator rows: columns of 4 values,
    the last of 3 values for one fewer, or a constant column for one
    more. Returns the table and that width."""
    width = estimators._TABLE_WIDTH + draw(st.sampled_from((-1, 0, 1)))
    radix = estimators._TABLE_RADIX
    radices = [radix] * (estimators._TABLE_WIDTH // radix)
    if width < estimators._TABLE_WIDTH:
        radices[-1] -= 1
    elif width > estimators._TABLE_WIDTH:
        radices.append(1)
    rows = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # A row of every column's largest value makes each radix exact.
    table = np.vstack([np.array(radices) - 1,
                       rng.integers(0, radices, size=(rows, len(radices)))]).astype(np.float64)
    kinds = tuple(ColumnKind.discrete(r) for r in radices)
    data = Dataset(
        feature_names=tuple(f"f{i}" for i in range(len(radices) - 1)),
        features=table[:, 1:],
        target=table[:, 0],
        kinds=kinds[1:],
        target_kind=kinds[0],
    )
    return data, width


# Declared cardinalities: small ones, large ones whose span passes 2**53
# with one or two others, and ones past 2**53, whose values are ranked.
ONE_PASS_CARDINALITIES = (1, 2, 3, 4, 6, 300, 2**20, 2**31 + 1, 2**53, 2**53 + 1,
                          2**63 + 1)


@st.composite
def one_pass_tables(draw):
    """A target and 1 to 5 features, each discrete or, one time in six,
    continuous with ties. A discrete column's values lie below a bound
    drawn up to its declared cardinality, so the cardinality may pass its
    largest value. The rows repeat 1 to 12 distinct ones, so their distinct
    share falls on either side of _DISTINCT_SHARE."""
    cols = draw(st.integers(min_value=2, max_value=6))
    distinct = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.integers(min_value=distinct, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    table, kinds = [], []
    for _ in range(cols):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            table.append(rng.integers(0, 6, size=distinct)
                         + rng.choice((0.0, 0.25, 0.5), size=distinct))
            kinds.append(ColumnKind.continuous())
            continue
        cardinality = draw(st.sampled_from(ONE_PASS_CARDINALITIES))
        bound = draw(st.integers(min_value=1, max_value=cardinality))
        values = st.integers(min_value=0, max_value=bound - 1)
        table.append(np.array(draw(st.lists(values, min_size=distinct, max_size=distinct)),
                              dtype=np.float64))
        kinds.append(ColumnKind.discrete(cardinality))
    table = np.column_stack(table)[rng.integers(0, distinct, size=rows)]
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(cols - 1)),
        features=table[:, 1:],
        target=table[:, 0],
        kinds=tuple(kinds[1:]),
        target_kind=kinds[0],
    )


class TestPluginTable:
    """exact and binned estimates read each column group's entropy from one
    per-dataset store, with the bytes of coding every estimate afresh."""

    @given(st.one_of(plugin_tables(), repeated_rows(plugin_tables())))
    @settings(max_examples=60, deadline=None)
    def test_shared_entropies_give_the_three_entropy_bytes(self, data):
        kinds = [Binned(bins=3)] + ([ExactDiscrete()] if data.all_discrete else [])
        for kind in kinds:
            assert_three_entropy_bytes(data, kind, group_pairs(data.n_features))

    @given(wide_code_tables(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_joint_from_a_side_at_code_widths(self, data, random):
        # Shuffled, a pair's sides are sometimes remembered from an earlier
        # pair and sometimes coded afresh.
        pairs = list(group_pairs(data.n_features))
        random.shuffle(pairs)
        for kind in (ExactDiscrete(), Binned(bins=3)):
            cfg = EstimatorConfig(kind=kind, repetitions=1)
            for left, right in pairs:
                value = estimate_mi(data, left, right, cfg).estimates[0]
                ids = [(-1,) if g is TARGET else g.indices for g in (left, right)]
                expected = three_entropy_mi(*([data.column(i) for i in g] for g in ids))
                assert value.hex() == expected.hex(), (kind, left, right)

    def test_run_computes_each_group_entropy_once(self, monkeypatch):
        from test_plugin_pins import binary_table

        stored = []
        real = estimators._PluginTable._remember

        def counted(self, ids, counts):
            stored.append(ids)
            return real(self, ids, counts)

        monkeypatch.setattr(estimators._PluginTable, "_remember", counted)
        run_pidf(binary_table(20000, 12, 1))
        assert len(stored) == 121
        assert len(set(stored)) == 121

    def test_run_codes_each_group_by_its_width(self, monkeypatch):
        from test_plugin_pins import binary_table

        complements, folded = [], []
        real_fold = estimators._fold_rows
        real_complement = estimators._PluginTable._complement

        def complement(self, ids):
            complements.append(ids)
            return real_complement(self, ids)

        def fold(columns, n):
            code, span = real_fold(columns, n)
            folded.append((len(columns), code.dtype, span))
            return code, span

        monkeypatch.setattr(estimators._PluginTable, "_complement", complement)
        monkeypatch.setattr(estimators, "_fold_rows", fold)
        data = binary_table(20000, 12, 1)
        run_pidf(data)
        # One product codes all 13 columns to find the distinct rows, and
        # remembers H of their joint. Singletons and pairs come from the
        # count table; the other 29 groups each lack at most 3 of the 13
        # columns, so each is coded from the product's code: no fold takes
        # more than that one code.
        assert len(complements) == 29 and all(len(ids) >= 10 for ids in complements)
        assert [width for width, _, _ in folded] == [1] * 30
        # A narrow group folds its own columns, and so does its joint with
        # the target, not from the group's codes: 3 columns, then 4.
        folded.clear()
        estimate_mi(data, F(0, 1, 2), TARGET, exact_cfg())
        assert [width for width, _, _ in folded] == [3, 4]
        # Each code has the narrowest signed type that holds its span.
        assert all(dtype == np.min_scalar_type(-span) for _, dtype, span in folded)
        assert {dtype.name for _, dtype, _ in folded} == {"int8"}
        # Past a 2**53 span, the code of every column takes two products,
        # and a wide group subtracts its missing columns from each of them:
        # no fold takes more columns than there are products.
        folded.clear()
        wide = binary_table(3000, 60, 1)
        run_pidf(wide)
        products = len(estimators._prepared(wide, ExactDiscrete())._parts)
        assert products == 2
        assert max(width for width, _, _ in folded) <= products

    @given(one_pass_tables(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_one_pass_entropies_match_row_unique(self, data, random):
        # Every group of covered columns, in any order: from the count
        # table, coded by complement from the one-pass products (two or more
        # where the span passes 2**53), or folded. exact leaves continuous
        # columns uncovered; Binned covers them.
        for kind in (ExactDiscrete(), Binned(bins=3)):
            store = estimators._PluginTable(data, kind)
            covered = sorted(store._digits)
            groups = [ids for width in range(1, len(covered) + 1)
                      for ids in itertools.combinations(covered, width)]
            random.shuffle(groups)
            for ids in groups:
                columns = [column for i in ids for column in
                           plugin_columns(data, kind, TARGET if i == -1 else F(i))]
                counts = np.unique(np.column_stack(columns), axis=0, return_counts=True)[1]
                store._remember(("unique",), counts)
                expected = store._entropies.pop(("unique",))
                assert store.entropy(ids).hex() == expected.hex(), (kind, ids)
            assert all(np.issubdtype(digits.dtype, np.signedinteger)
                       for digits, _ in store._digits.values())

    def test_values_past_the_product_budget_are_ranked_first(self):
        # A discrete column of values {0, 2**63} has the entropies of one of
        # {0, 1}, and integer digits, not Python objects.
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=(2000, 3)).astype(np.float64)

        def table(scale, cardinality):
            return Dataset(
                feature_names=("f0", "f1"),
                features=bits[:, 1:] * [scale, 1.0],
                target=bits[:, 0],
                kinds=(ColumnKind.discrete(cardinality), ColumnKind.discrete(2)),
                target_kind=ColumnKind.discrete(2),
            )

        small, huge = table(1.0, 2), table(2.0**63, 2**63 + 1)
        cfg = exact_cfg()
        for left, right in group_pairs(2):
            assert estimate_mi(huge, left, right, cfg).estimates[0].hex() == \
                estimate_mi(small, left, right, cfg).estimates[0].hex()
        store = estimators._prepared(huge, ExactDiscrete())
        assert all(np.issubdtype(digits.dtype, np.integer)
                   for digits, _ in store._digits.values())

    def test_other_bins_get_a_fresh_store(self):
        data = gaussian_pair(0.8, 2000)
        cfg8 = EstimatorConfig(kind=Binned(bins=8), repetitions=1)
        cfg4 = EstimatorConfig(kind=Binned(bins=4), repetitions=1)
        eight = estimate_mi(data, F(0), TARGET, cfg8).estimates[0]
        four = estimate_mi(data, F(0), TARGET, cfg4).estimates[0]
        x, y = (estimators._bin_column(c, ColumnKind.continuous(), 4)
                for c in (data.features[:, 0], data.target))
        assert four.hex() == three_entropy_mi([x], [y]).hex()
        assert four != eight

    def test_another_dataset_gets_a_fresh_store(self, monkeypatch):
        tables, built = [], []
        real_counts, real_build = estimators._pair_counts, estimators._PluginTable._code_all

        def counts(digits, radices, weights):
            tables.append(len(digits))
            return real_counts(digits, radices, weights)

        def build(self, covered):
            built.append(len(covered))
            return real_build(self, covered)

        monkeypatch.setattr(estimators, "_pair_counts", counts)
        monkeypatch.setattr(estimators._PluginTable, "_code_all", build)
        first = random_dataset(11)
        twin = Dataset(
            feature_names=first.feature_names, features=first.features,
            target=first.target, kinds=first.kinds, target_kind=first.target_kind,
        )
        cfg = exact_cfg()
        # Each store codes its two columns once, to find the distinct rows.
        value = estimate_mi(first, F(0), TARGET, cfg).estimates[0]
        assert tables == [2] and built == [2]
        assert estimate_mi(twin, F(0), TARGET, cfg).estimates[0] == value
        assert tables == [2, 2] and built == [2, 2]
        # Datasets made and dropped one after another never read each
        # other's entropies, whatever identities they get.
        for seed in range(20):
            data = random_dataset(seed)
            assert estimate_mi(data, F(0), TARGET, cfg).estimates[0] == \
                pytest.approx(oracle_mi(data, F(0), TARGET), abs=1e-9)

    @given(st.one_of(count_tables(), repeated_rows(count_tables())))
    @settings(max_examples=100, deadline=None)
    def test_count_table_gives_the_three_entropy_bytes(self, data):
        # Every I(a; b) of single columns, I(a; a) included, reads H(a),
        # H(b) and H(a, b) from the count table where it covers them.
        groups = [TARGET, *(F(i) for i in range(data.n_features))]
        for kind in plugin_kinds(data):
            assert_three_entropy_bytes(
                data, kind, itertools.combinations_with_replacement(groups, 2))

    @pytest.mark.parametrize("rows", [estimators._TABLE_ROWS - 1, estimators._TABLE_ROWS,
                                      estimators._TABLE_ROWS + 1, 2 * estimators._TABLE_ROWS + 1])
    def test_count_table_at_chunk_edges(self, rows):
        # Columns the table covers (a constant one among them), one of 6
        # values it leaves out and, under binned only, a continuous one.
        # The last column numbers the rows, so every row is kept and the
        # product runs over chunks of them; test_pair_counts_at_the_float32_bound
        # covers chunks of kept rows. test_plugin_pins.py pins 20000-row
        # tables, five chunks each.
        rng = np.random.default_rng(rows)
        cardinalities = (4, 2, 1, 6, rows)
        table = np.column_stack([rng.integers(0, c, size=rows) for c in cardinalities[:-1]]
                                + [rng.permutation(rows)])
        discrete = Dataset(
            feature_names=("f0", "f1", "f2", "f3"),
            features=table[:, 1:].astype(np.float64),
            target=table[:, 0].astype(np.float64),
            kinds=tuple(ColumnKind.discrete(c) for c in cardinalities[1:]),
            target_kind=ColumnKind.discrete(cardinalities[0]),
        )
        ties = rng.integers(0, 6, size=rows) + rng.choice((0.0, 0.25, 0.5), size=rows)
        mixed = Dataset(
            feature_names=("f0", "f1", "f2", "f3", "f4"),
            features=np.column_stack([discrete.features, ties]),
            target=discrete.target,
            kinds=(*discrete.kinds, ColumnKind.continuous()),
            target_kind=discrete.target_kind,
        )
        for data in (discrete, mixed):
            groups = [TARGET, *(F(i) for i in range(data.n_features))]
            for kind in plugin_kinds(data):
                assert_three_entropy_bytes(
                    data, kind, itertools.combinations_with_replacement(groups, 2))
        assert estimators._prepared(discrete, ExactDiscrete())._weights is None

    @given(bound_tables(), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_count_table_bound(self, case, random):
        # Indicator widths just below, at and past _TABLE_WIDTH: past it,
        # every singleton and pair folds, with the same bytes.
        data, width = case
        groups = [TARGET, *(F(i) for i in range(data.n_features))]
        pairs = [(g, g) for g in groups] + random.sample(
            list(itertools.combinations(groups, 2)), 40)
        for kind in plugin_kinds(data):
            assert_three_entropy_bytes(data, kind, pairs)
            store = estimators._prepared(data, kind)
            assert (store._counts is None) == (width > estimators._TABLE_WIDTH)

    @pytest.mark.parametrize("rows", [1, 3, estimators._TABLE_ROWS + 2])
    @pytest.mark.parametrize("total", [(1 << 24) - 2, (1 << 24) - 1, (1 << 24) + 1])
    def test_pair_counts_at_the_float32_bound(self, rows, total):
        # Each chunk's weights sum to total, just below, at or past
        # _TABLE_EXACT: float32 holds every integer up to 2**24, but not
        # 2**24 + 1. The product must count exactly, as integers do.
        assert estimators._TABLE_EXACT == (1 << 24) - 1
        rng = np.random.default_rng(rows)
        radices = [3, 1, 4]
        digits = [rng.integers(0, r, size=rows).astype(np.int8) for r in radices]
        weights = np.ones(rows, dtype=np.int64)
        for start in range(0, rows, estimators._TABLE_ROWS):
            stop = min(rows, start + estimators._TABLE_ROWS)
            weights[start] += total - (stop - start)
        ind = np.vstack([d == v for d, r in zip(digits, radices) for v in range(r)])
        ind = ind.astype(np.int64)
        np.testing.assert_array_equal(estimators._pair_counts(digits, radices, weights),
                                      ind @ (ind * weights).T)

    def test_keeps_one_row_per_distinct_state(self):
        from test_plugin_pins import binary_table

        # 13 columns hold 10 independent bits: 1,024 distinct rows among 20,000.
        data = binary_table(20000, 12, 1)
        store = estimators._prepared(data, ExactDiscrete())
        assert store._weights.shape == (1024,) and store._weights.sum() == 20000
        assert {digits.shape for digits, _ in store._digits.values()} == {(1024,)}
        # 16 bits in 2,000 rows hardly repeat: every row is kept.
        data = binary_table(2000, 16, 5)
        store = estimators._prepared(data, ExactDiscrete())
        assert store._weights is None
        assert {digits.shape for digits, _ in store._digits.values()} == {(2000,)}

    @pytest.mark.parametrize("distinct", [39, 40, 41])
    def test_distinct_row_cutoff(self, distinct):
        # 100 rows holding `distinct` states of f0; f1 and the target are
        # its parity, so the rows have as many distinct states as f0.
        n = 100
        assert estimators._DISTINCT_SHARE * n == 40
        rng = np.random.default_rng(distinct)
        states = rng.permutation(np.concatenate(
            [np.arange(distinct), rng.integers(0, distinct, size=n - distinct)]))
        bits = (states % 2).astype(np.float64)
        data = Dataset(
            feature_names=("f0", "f1"),
            features=np.column_stack([states.astype(np.float64), bits]),
            target=bits,
            kinds=(ColumnKind.discrete(distinct), ColumnKind.discrete(2)),
            target_kind=ColumnKind.discrete(2),
        )
        store = estimators._prepared(data, ExactDiscrete())
        assert (store._weights is None) == (distinct > 40)
        for kind in (ExactDiscrete(), Binned(bins=3)):
            assert_three_entropy_bytes(data, kind, group_pairs(2))

    def test_exact_table_never_reads_a_continuous_column(self, monkeypatch):
        read = []
        real = Dataset.column

        def recorded(data, i):
            read.append(i)
            return real(data, i)

        monkeypatch.setattr(Dataset, "column", recorded)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(500, 2)).astype(np.float64)
        data = Dataset(
            feature_names=("f0", "f1", "f2"),
            features=np.column_stack([bits[:, 0], rng.normal(size=500) * 1e6, bits[:, 1]]),
            target=(bits[:, 0] + bits[:, 1]) % 2,
            kinds=(ColumnKind.discrete(2), ColumnKind.continuous(), ColumnKind.discrete(2)),
            target_kind=ColumnKind.discrete(2),
        )
        value = estimate_mi(data, F(0, 2), TARGET, exact_cfg()).estimates[0]
        assert value.hex() == three_entropy_mi(
            [real(data, 0), real(data, 2)], [real(data, -1)]).hex()
        value = estimate_mi(data, F(0), F(2), exact_cfg()).estimates[0]
        assert value.hex() == three_entropy_mi([real(data, 0)], [real(data, 2)]).hex()
        message = (
            "exact discrete estimator requires discrete columns; "
            "declare bins or use a continuous-capable estimator"
        )
        for left, right in ((F(1), TARGET), (F(0), F(1)), (F(1), F(1))):
            with pytest.raises(EstimatorError) as err:
                estimate_mi(data, left, right, exact_cfg())
            assert str(err.value) == message
        # run_pidf names the feature whose pass met the continuous column.
        with pytest.raises(EstimatorError) as err:
            run_pidf(data, exact_cfg())
        assert str(err.value) == f"feature 'f0': {message}"
        assert 1 not in read
        assert sorted(estimators._prepared(data, ExactDiscrete())._rows) == [-1, 0, 2]


class TestKsg:
    @pytest.mark.parametrize(
        "rho,analytic",
        [
            (0.2, 0.020410997260127572),
            (0.5, 0.14384103622589045),
            (0.8, 0.5108256237659907),
        ],
    )
    def test_gaussian_accuracy(self, rho, analytic):
        assert analytic == pytest.approx(-0.5 * math.log1p(-rho * rho), abs=1e-15)
        data = gaussian_pair(rho, 5000)
        cfg = EstimatorConfig(kind=Ksg(), repetitions=5, base_seed=0)
        est = estimate_mi(data, F(0), TARGET, cfg)
        assert abs(est.mean - analytic) <= 0.03

    def test_independent_near_zero(self):
        data = gaussian_pair(0.0, 3000)
        cfg = EstimatorConfig(kind=Ksg(), repetitions=5, base_seed=0)
        est = estimate_mi(data, F(0), TARGET, cfg)
        assert abs(est.mean) < 0.02

    def test_repetitions_reproducible(self):
        data = gaussian_pair(0.5, 800)
        cfg = EstimatorConfig(kind=Ksg(), repetitions=4, base_seed=9)
        a = estimate_mi(data, F(0), TARGET, cfg)
        b = estimate_mi(data, F(0), TARGET, cfg)
        assert a.estimates == b.estimates
        assert a.std > 0.0

    def test_seed_changes_estimates(self):
        data = gaussian_pair(0.5, 800)
        a = estimate_mi(
            data, F(0), TARGET, EstimatorConfig(kind=Ksg(), repetitions=3, base_seed=0)
        )
        b = estimate_mi(
            data, F(0), TARGET, EstimatorConfig(kind=Ksg(), repetitions=3, base_seed=1)
        )
        assert a.estimates != b.estimates

    def test_ksg_mi_direct_on_deterministic_map(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2000, 1))
        mi = ksg_mi(x, np.tanh(x), k=3)
        # a smooth bijection carries high (formally infinite) information;
        # the estimator should report a large positive value
        assert mi > 2.0

    def test_handles_mixed_discrete_continuous(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=500).astype(np.float64)
        noise = rng.normal(scale=0.3, size=500)
        data = Dataset(
            feature_names=("f0",),
            features=x.reshape(-1, 1),
            target=x + noise,
            kinds=(ColumnKind.discrete(2),),
            target_kind=ColumnKind.continuous(),
        )
        cfg = EstimatorConfig(kind=Ksg(), repetitions=5, base_seed=0)
        est = estimate_mi(data, F(0), TARGET, cfg)
        assert est.mean > 0.2

    def test_run_prepares_each_column_once(self, monkeypatch):
        jittered, subsampled = [], []
        real_jittered, real_subsample = estimators._jittered, estimators.subsample_rows

        def counted_jittered(col, col_id, rep_seed):
            jittered.append((rep_seed, col_id))
            return real_jittered(col, col_id, rep_seed)

        def counted_subsample(n, rep_seed):
            subsampled.append(rep_seed)
            return real_subsample(n, rep_seed)

        monkeypatch.setattr(estimators, "_jittered", counted_jittered)
        monkeypatch.setattr(estimators, "subsample_rows", counted_subsample)
        draws = np.random.default_rng(5).normal(size=(2000, 6))
        data = Dataset(
            feature_names=tuple(f"f{i}" for i in range(5)),
            features=draws[:, :5],
            target=draws[:, 0] + draws[:, 1] + draws[:, 5],
            kinds=(ColumnKind.continuous(),) * 5,
            target_kind=ColumnKind.continuous(),
        )
        run_pidf(data)
        assert jittered and len(jittered) == len(set(jittered))
        assert subsampled and len(subsampled) == len(set(subsampled))


@st.composite
def ball_cases(draw):
    """Points and per-point radii that sit on rounding edges. Past 64 rows
    the row bitsets take more than one word."""
    rows = draw(st.integers(min_value=1, max_value=200))
    cols = draw(st.integers(min_value=1, max_value=7))
    layout = draw(st.sampled_from(("grid", "near_1e8", "spread")))
    if layout == "grid":
        # Few distinct values: balls full of ties.
        values = st.integers(min_value=0, max_value=3).map(float)
    elif layout == "near_1e8":
        # Spread 1e-7 around 1e8 spans only a few representable values.
        values = st.floats(min_value=-1e-7, max_value=1e-7).map(lambda d: 1e8 + d)
    else:
        values = st.floats(min_value=-1e3, max_value=1e3)
    points = draw(arrays(np.float64, (rows, cols), elements=values))
    # Each radius is an actual pairwise distance, one ulp below or above it,
    # or 0.
    index = st.integers(min_value=0, max_value=rows - 1)
    first = draw(arrays(np.intp, rows, elements=index))
    second = draw(arrays(np.intp, rows, elements=index))
    dist = np.abs(points[first] - points[second]).max(axis=1)
    edge = draw(arrays(np.int8, rows, elements=st.integers(min_value=-1, max_value=2)))
    radius = np.select(
        [edge == -1, edge == 1, edge == 2],
        [np.nextafter(dist, 0.0), np.nextafter(dist, np.inf), 0.0],
        dist,
    )
    return points, radius


def ksg_ball_case(rows, cols, seed):
    """Marginal points and the KSG radii (k=3) of a joint with one more
    column; a coarse grid in the first column gives ties."""
    joint = np.random.default_rng(seed).normal(size=(rows, cols + 1))
    joint[:, 0] = np.round(joint[:, 0], 1)
    eps = cKDTree(joint).query(joint, k=4, p=np.inf)[0][:, -1]
    return joint[:, :cols], np.nextafter(eps, 0.0)


def tree_ball_counts(points, radius):
    tree = cKDTree(points)
    return tree.query_ball_point(points, radius, p=np.inf, return_length=True)


@pytest.fixture
def tree_calls(monkeypatch):
    """Route ksg's trees through a recording stand-in for estimators.cKDTree
    and return the list of (method, tree width) calls it sees."""
    calls = []

    class RecordingTree:
        def __init__(self, data):
            self.tree = cKDTree(data)
            self.width = self.tree.m

        def query(self, *args, **kwargs):
            calls.append(("query", self.width))
            return self.tree.query(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            calls.append(("query_ball_point", self.width))
            return self.tree.query_ball_point(*args, **kwargs)

    monkeypatch.setattr(estimators, "cKDTree", RecordingTree)
    return calls


class TestBallCounts:
    """Marginal counts equal the Chebyshev ball counts a k-d tree returns."""

    @given(ball_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_tree(self, case):
        points, radius = case
        np.testing.assert_array_equal(_ball_counts(points, radius),
                                      tree_ball_counts(points, radius))

    @pytest.mark.parametrize("cols", [1, 3])
    def test_fewer_rows_than_probe(self, cols):
        rows = 12
        points = np.random.default_rng(2).normal(size=(rows, cols))
        radius = np.array([0.0, np.inf] * (rows // 2))
        counts = _ball_counts(points, radius)
        np.testing.assert_array_equal(counts, tree_ball_counts(points, radius))
        np.testing.assert_array_equal(counts, [1, rows] * (rows // 2))

    @pytest.mark.parametrize("block", [None, 1, 2])
    @pytest.mark.parametrize("rows", [63, 64, 65, 127, 128, 129, 255, 256, 257])
    def test_word_and_block_edges(self, monkeypatch, rows, block):
        # 64 rows fill one word of row ids. Under the default budget every
        # case is one block; blocks of 1 or 2 words end at multiples of 64
        # or 128 rows, and one row more starts another.
        if block is not None:
            monkeypatch.setattr(estimators, "_BALL_BYTES", block * 3 * 8 * (rows + 1))
        points, radius = ksg_ball_case(rows, 4, seed=rows)
        np.testing.assert_array_equal(_ball_counts(points, radius),
                                      tree_ball_counts(points, radius))

    def test_bitsets_stay_within_the_byte_budget(self):
        # Unblocked, the prefix table and two gathers of 20,000 rows take
        # about 3 * 48 MiB. The blocks take at most _BALL_BYTES; each
        # column's sort order, ranks and windows (about 3.5 MiB at 5
        # columns) make up the rest.
        rng = np.random.default_rng(4)
        points = rng.normal(size=(20000, 5))
        radius = rng.uniform(0.0, 0.3, size=20000)
        tracemalloc.start()
        try:
            _ball_counts(points, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * estimators._BALL_BYTES

    def test_one_column_ksg_queries_no_ball(self, tree_calls):
        x = np.random.default_rng(1).normal(size=(400, 1))
        ksg_mi(x, x + np.random.default_rng(2).normal(size=(400, 1)), k=3)
        assert tree_calls == [("query", 2)]

    def test_ksg_queries_only_the_joint(self, tree_calls):
        # Every marginal is counted without a tree: at each width, the
        # stand-in sees one k-NN query of the joint and no ball query.
        rng = np.random.default_rng(1)
        for width in range(1, 7):
            x = rng.normal(size=(400, width))
            y = x.sum(axis=1, keepdims=True) + rng.normal(size=(400, 1))
            ksg_mi(x, y, k=3)
            assert tree_calls == [("query", width + 1)]
            tree_calls.clear()

    def test_tree_attribute_is_scipy_when_unpatched(self):
        assert getattr(estimators, "cKDTree") is cKDTree


def gaussian_table(n, seed):
    """f0, f1 and a noise column; y = f0 + f1 + noise."""
    draws = np.random.default_rng(seed).normal(size=(n, 4))
    return Dataset(
        feature_names=("f0", "f1", "f2"),
        features=draws[:, :3],
        target=draws[:, 0] + draws[:, 1] + draws[:, 3],
        kinds=(ColumnKind.continuous(),) * 3,
        target_kind=ColumnKind.continuous(),
    )


def report_json(data):
    report = run_pidf(data)
    return render_json(report, select_features(report))


def put_report_json(data, results):
    results.put(report_json(data))


class TestRepetitionPool:
    """The repetitions of a ksg or mine estimate run on a thread pool and
    return what running them one after another returns."""

    @pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 usable CPUs")
    def test_repetitions_run_on_threads_with_sequential_bytes(self, monkeypatch):
        idents = set()

        class RecordingTree(cKDTree):
            def __init__(self, data):
                idents.add(threading.get_ident())
                super().__init__(data)

        data = gaussian_table(5000, 7)
        cfg = EstimatorConfig(kind=Ksg())
        monkeypatch.setattr(estimators, "cKDTree", RecordingTree)
        ensemble = estimate_mi(data, F(0, 2), TARGET, cfg)
        assert len(idents) >= 2
        # A fresh store derives every column again, one seed after another.
        sample = _KsgSample(data, cfg.kind)
        sequential = [sample.mi((0, 2), (-1,), seed) for seed in cfg.seeds()]
        assert [v.hex() for v in ensemble.estimates] == [v.hex() for v in sequential]
        assert ensemble.seeds == cfg.seeds()

    @pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 usable CPUs")
    def test_mine_repetitions_run_on_threads_with_sequential_bytes(self, monkeypatch):
        from pidf import mine

        idents = set()
        real_estimate = mine.mine_estimate

        def recording_estimate(*args):
            idents.add(threading.get_ident())
            return real_estimate(*args)

        data = gaussian_table(2000, 11)
        cfg = EstimatorConfig(kind=Mine(MineConfig(batch_size=256, iterations=200)),
                              repetitions=4)
        monkeypatch.setattr(mine, "mine_estimate", recording_estimate)
        ensemble = estimate_mi(data, F(0, 1), TARGET, cfg)
        assert len(idents) >= 2
        sample = _MineSample(data, cfg.kind)
        sequential = [sample.mi((0, 1), (-1,), seed) for seed in cfg.seeds()]
        assert [v.hex() for v in ensemble.estimates] == [v.hex() for v in sequential]

    def test_each_column_prepared_once_under_fast_switching(self, monkeypatch):
        jittered = []
        real_jittered = estimators._jittered

        def counted_jittered(col, col_id, rep_seed):
            jittered.append((rep_seed, col_id))
            return real_jittered(col, col_id, rep_seed)

        monkeypatch.setattr(estimators, "_jittered", counted_jittered)
        data = gaussian_table(600, 10)
        cfg = EstimatorConfig(kind=Ksg(), repetitions=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ensemble = estimate_mi(data, F(0, 1), F(2), cfg)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(jittered) == [(seed, col) for seed in cfg.seeds() for col in (0, 1, 2)]
        sample = _KsgSample(data, cfg.kind)
        assert ensemble.estimates == tuple(sample.mi((0, 1), (2,), seed) for seed in cfg.seeds())

    def test_repetition_error_reaches_the_caller(self):
        # 30% of 10 rows leaves 3, no more than k.
        with pytest.raises(EstimatorError, match="more than k"):
            estimate_mi(gaussian_table(10, 9), F(0), TARGET, EstimatorConfig(kind=Ksg()))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_fork_child_runs_ksg_after_the_parent(self):
        data = gaussian_table(1000, 8)
        expected = report_json(data)
        assert estimators._pool.cache_info().currsize == 1
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=put_report_json, args=(data, results))
        child.start()
        try:
            text = results.get(timeout=60)
        except queue.Empty:
            text = None
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert text is not None, "the forked child's ksg run did not finish"
        assert text == expected

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs sched_setaffinity")
    def test_one_cpu_gives_the_pinned_bytes(self):
        from test_ksg_pins import KNN_RUN_SHA256

        script = (
            "import hashlib, os, sys, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from pidf import render_json, run_pidf, select_features\n"
            "from test_ksg_pins import knn_gauss_table\n"
            "report = run_pidf(knn_gauss_table(5000, 6))\n"
            "text = render_json(report, select_features(report))\n"
            "print(threading.active_count(),\n"
            "      hashlib.sha256(text.encode('utf-8')).hexdigest())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        # The main thread and one pool thread.
        assert proc.stdout.split() == ["2", KNN_RUN_SHA256]


class TestSubsampling:
    def test_sorted_unique_and_deterministic(self):
        rows = subsample_rows(100, rep_seed=42)
        again = subsample_rows(100, rep_seed=42)
        assert np.array_equal(rows, again)
        assert len(rows) == 30
        assert len(np.unique(rows)) == 30
        assert np.all(np.diff(rows) > 0)

    def test_different_seeds_differ(self):
        a = subsample_rows(100, rep_seed=1)
        b = subsample_rows(100, rep_seed=2)
        assert not np.array_equal(a, b)


# Each integer field of the public constructors, as a builder of one value.
INTEGER_FIELDS = {
    "cardinality": ColumnKind.discrete,
    "bins": lambda v: Binned(bins=v),
    "k": lambda v: Ksg(k=v),
    "batch_size": lambda v: MineConfig(batch_size=v),
    "iterations": lambda v: MineConfig(iterations=v),
    "hidden": lambda v: MineConfig(hidden=v),
    "repetitions": lambda v: EstimatorConfig(repetitions=v),
    "base_seed": lambda v: EstimatorConfig(base_seed=v),
    "n_samples": lambda v: GeneratorSpec("rvq", n_samples=v),
    "seed": lambda v: GeneratorSpec("rvq", seed=v),
}


class TestConfigValidation:
    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            INTEGER_FIELDS[field](value)

    @pytest.mark.parametrize("build", [
        lambda: Ksg(subsample=0.5),
        lambda: Ksg(jitter=0.0),
        lambda: MineConfig(beta1=0.5),
        lambda: MineConfig(beta2=0.5),
        lambda: MineConfig(adam_eps=1e-6),
    ], ids=["subsample", "jitter", "beta1", "beta2", "adam_eps"])
    def test_fixed_settings_are_not_settable(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("kind", ["binned", "ksg", "mine"])
    def test_numpy_integers_render_as_ints(self, kind):
        def report(num):
            data = generate(GeneratorSpec("rvq", n_samples=num(60), seed=num(2)))
            estimator = {
                "binned": Binned(bins=num(4)),
                "ksg": Ksg(k=num(2)),
                "mine": Mine(MineConfig(batch_size=num(16), iterations=num(3),
                                        hidden=num(4))),
            }[kind]
            cfg = EstimatorConfig(kind=estimator, repetitions=num(2), base_seed=num(1))
            return render_json(run_pidf(data, cfg))

        assert report(np.int64) == report(int)

    def test_bad_repetitions(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(kind=ExactDiscrete(), repetitions=0, base_seed=0)

    def test_seeds_derivation(self):
        cfg = EstimatorConfig(kind=ExactDiscrete(), repetitions=3, base_seed=2)
        assert cfg.seeds() == (2000006, 2000007, 2000008)

    def test_out_of_range_feature(self):
        data = random_dataset(0)
        with pytest.raises(ConfigError):
            estimate_mi(data, F(99), TARGET, exact_cfg())

    def test_overlapping_groups_rejected(self):
        data = random_dataset(0)
        if data.n_features < 2:
            pytest.skip("needs two features")
        with pytest.raises(ConfigError):
            estimate_mi(data, FeatureSubset((0, 1)), F(0), exact_cfg())
