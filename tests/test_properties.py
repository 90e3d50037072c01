"""Property-based invariants: algebraic identities that must hold for every
input, checked over randomized instances."""

import math
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pidf import (
    BITS,
    Dataset,
    EstimateEnsemble,
    EstimatorConfig,
    ExactDiscrete,
    FeatureSubset,
    NATS,
    TARGET,
    convert_units,
    estimate_mi,
    is_redundant,
    oracle,
    oracle_entropy,
    oracle_mi,
    run_pidf,
    significantly_positive,
)

from instances import random_dataset, random_population_instance

DETERMINISTIC = EstimatorConfig(kind=ExactDiscrete(), repetitions=1, base_seed=0)

relaxed = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestUnits:
    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_round_trip(self, value):
        bits = convert_units(value, BITS)
        assert bits * math.log(2.0) == pytest.approx(value, rel=1e-12, abs=1e-15)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_nats_is_identity(self, value):
        assert convert_units(value, NATS) == value

    @given(st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_bits_reading_is_larger(self, value):
        assert convert_units(value, BITS) >= value


subsets = st.frozensets(st.integers(min_value=0, max_value=12), max_size=8)


class TestFeatureSubsetSemantics:
    @given(subsets, subsets)
    def test_mirrors_frozenset_algebra(self, a, b):
        fa, fb = FeatureSubset(a), FeatureSubset(b)
        assert set(fa & fb) == a & b
        assert set(fa - fb) == a - b

    @given(subsets)
    def test_iteration_sorted(self, a):
        fa = FeatureSubset(a)
        assert list(fa) == sorted(a)
        assert fa.indices == tuple(sorted(a))


ensemble_values = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6
)


class TestEnsembleAlgebra:
    @given(ensemble_values)
    def test_mean_std_match_numpy(self, values):
        ens = EstimateEnsemble(tuple(values), tuple(range(len(values))))
        assert ens.mean == pytest.approx(float(np.mean(values)), abs=1e-12)
        if len(values) > 1 and ens.std != 0.0:
            assert ens.std == pytest.approx(float(np.std(values, ddof=1)), rel=1e-9)

    @given(ensemble_values, st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_linear_is_per_seed(self, values, coef):
        ens = EstimateEnsemble(tuple(values), tuple(range(len(values))))
        combo = EstimateEnsemble.linear([(coef, ens), (1.0, ens)])
        expected = tuple((coef + 1.0) * v for v in values)
        assert combo.estimates == pytest.approx(expected, abs=1e-12)


class TestSignificanceMirror:
    @given(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=1, max_size=8,
        )
    )
    def test_redundant_is_positive_of_negation(self, values):
        ens = EstimateEnsemble(tuple(values), tuple(range(len(values))))
        neg = ens.map(operator.neg)
        assert is_redundant(ens) == significantly_positive(neg)
        assert significantly_positive(ens) == is_redundant(neg)


class TestEstimatorInvariants:
    @relaxed
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mi_nonnegative_symmetric_and_matches_oracle(self, seed):
        data = random_dataset(seed, max_features=4, max_rows=120)
        rng = np.random.default_rng(seed + 1)
        n = data.n_features
        left = FeatureSubset(
            int(j) for j in rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        )
        ab = estimate_mi(data, left, TARGET, DETERMINISTIC).mean
        ba = estimate_mi(data, TARGET, left, DETERMINISTIC).mean
        assert ab == ba
        assert ab >= -1e-12
        assert ab == pytest.approx(oracle_mi(data, left, TARGET), abs=1e-9)

    @relaxed
    @given(st.integers(min_value=0, max_value=10_000))
    def test_self_information_is_entropy(self, seed):
        data = random_dataset(seed, max_features=3, max_rows=100)
        group = FeatureSubset.of(0)
        self_mi = estimate_mi(data, group, group, DETERMINISTIC).mean
        entropy = oracle_entropy(data, group)
        assert self_mi == pytest.approx(entropy, abs=1e-12)

    @relaxed
    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_the_group(self, seed):
        """Adding a feature never reduces exact MI with the target."""
        data = random_dataset(seed, max_features=4, max_rows=120)
        small = FeatureSubset.of(0)
        for j in range(1, data.n_features):
            grown = FeatureSubset((*small, j))
            assert (
                estimate_mi(data, grown, TARGET, DETERMINISTIC).mean
                >= estimate_mi(data, small, TARGET, DETERMINISTIC).mean - 1e-12
            )
            small = grown


class TestTheoremsOnSafeInstances:
    """Random instances built to keep inter-feature synergy away stay within
    the candidate-effect bounds, and the net-contribution identity holds for
    any discrete data at all."""

    @relaxed
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounds_and_identity(self, seed):
        data = random_population_instance(seed)
        checks = oracle.check_theorems(data)
        assert checks.max_identity_residual <= 1e-9
        assert checks.bound_violations == 0

    @relaxed
    @given(st.integers(min_value=0, max_value=10_000))
    def test_identity_alone_is_assumption_free(self, seed):
        data = random_dataset(seed, max_features=4, max_rows=120)
        checks = oracle.check_theorems(data)
        assert checks.max_identity_residual <= 1e-9


def permute_columns(data: Dataset, perm: tuple[int, ...]) -> Dataset:
    """Reorder feature columns; perm[k] is the old index now at position k."""
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


class TestPermutationEquivariance:
    @relaxed
    @given(st.integers(min_value=0, max_value=500), st.randoms(use_true_random=False))
    def test_report_permutes_with_the_columns(self, seed, pyrandom):
        data = random_dataset(seed, max_features=4, max_rows=100)
        n = data.n_features
        perm = list(range(n))
        pyrandom.shuffle(perm)
        perm = tuple(perm)
        base = run_pidf(data)
        moved = run_pidf(permute_columns(data, perm))
        # position k of the permuted run describes original feature perm[k]
        for k, j in enumerate(perm):
            ours = moved.results[k]
            theirs = base.results[j]
            assert ours.name == theirs.name
            assert ours.mi.estimates == theirs.mi.estimates
            assert ours.fws.estimates == theirs.fws.estimates
            assert ours.fwr_total == theirs.fwr_total
            assert ours.mci == theirs.mci
            # index sets map through the permutation
            inverse = {orig: pos for pos, orig in enumerate(perm)}
            mapped = FeatureSubset(inverse[m] for m in theirs.max_synergy_set)
            assert ours.max_synergy_set == mapped
            mapped_rel = FeatureSubset(inverse[m] for m in theirs.related_set)
            assert ours.related_set == mapped_rel


class TestDecompositionInvariants:
    @relaxed
    @given(st.integers(min_value=0, max_value=10_000))
    def test_net_equals_overall_unique_information(self, seed):
        data = random_dataset(seed, max_features=4, max_rows=120)
        report = run_pidf(data)
        everything = FeatureSubset.full(data.n_features)
        total = oracle_mi(data, everything, TARGET)
        for res in report.results:
            rest = everything - {res.index}
            expected = total - oracle_mi(data, rest, TARGET)
            assert res.net_ensemble().mean == pytest.approx(expected, abs=1e-9)

    @relaxed
    @given(st.integers(min_value=0, max_value=10_000))
    def test_redundancy_never_negative_and_mci_decomposes(self, seed):
        data = random_dataset(seed, max_features=4, max_rows=120)
        report = run_pidf(data)
        for res in report.results:
            assert res.fwr_total >= 0.0
            assert res.mci == pytest.approx(
                res.mi.mean + res.fws.mean, abs=1e-12
            )
