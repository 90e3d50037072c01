"""Synthetic dataset generators: shapes, kinds, determinism, population
tables, and the structural relations each dataset is defined by."""

import math

import numpy as np
import pytest

from pidf import (
    ConfigError,
    DatasetError,
    ExactOracle,
    FeatureSubset,
    GeneratorSpec,
    TARGET,
    datasets,
    duplicate_feature,
    generate,
    population_table,
)

LN2 = math.log(2.0)


class TestGeneratorSpec:
    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(dataset="nope")

    def test_bad_n(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(dataset="rvq", n_samples=0)

    def test_bad_terc_rule(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(dataset="terc1", terc_rule="sometimes")


class TestDeterminism:
    @pytest.mark.parametrize("dataset_id", datasets.DATASET_IDS)
    def test_identical_spec_identical_bytes(self, dataset_id):
        spec = GeneratorSpec(dataset=dataset_id, n_samples=200, seed=5)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.target, b.target)

    def test_seed_changes_data(self):
        a = generate(GeneratorSpec(dataset="rvq", n_samples=200, seed=0))
        b = generate(GeneratorSpec(dataset="rvq", n_samples=200, seed=1))
        assert not np.array_equal(a.features, b.features)

    def test_shared_columns_across_terc_variants(self):
        """The two copy layouts share their base column streams, so the
        non-copy columns match for equal seeds."""
        a = generate(GeneratorSpec(dataset="terc1", n_samples=300, seed=2))
        b = generate(GeneratorSpec(dataset="terc2", n_samples=300, seed=2))
        assert np.array_equal(a.features[:, :3], b.features[:, :3])


class TestStructuralRelations:
    def test_rvq(self):
        data = generate(GeneratorSpec(dataset="rvq", n_samples=500, seed=3))
        f = data.features
        assert np.array_equal(f[:, 2], f[:, 1])
        assert np.array_equal(data.target, f[:, 0] + 2 * f[:, 1])

    def test_svq(self):
        data = generate(GeneratorSpec(dataset="svq", n_samples=500, seed=3))
        f = data.features
        assert np.array_equal(data.target, np.logical_xor(f[:, 0], f[:, 1]))

    def test_msq(self):
        data = generate(GeneratorSpec(dataset="msq", n_samples=500, seed=3))
        f = data.features
        assert np.array_equal(f[:, 0], f[:, 1] + f[:, 2])
        assert np.array_equal(data.target, f[:, 0])

    def test_terc1_copies_and_rule(self):
        data = generate(GeneratorSpec(dataset="terc1", n_samples=500, seed=3))
        f = data.features
        for j in (3, 4, 5):
            assert np.array_equal(f[:, j], f[:, 0])
        all_equal = (f[:, 0] == f[:, 1]) & (f[:, 1] == f[:, 2])
        assert np.array_equal(data.target, 1.0 - all_equal)

    def test_terc2_paired_copies(self):
        data = generate(GeneratorSpec(dataset="terc2", n_samples=500, seed=3))
        f = data.features
        for src, copy_idx in ((0, 3), (1, 4), (2, 5)):
            assert np.array_equal(f[:, copy_idx], f[:, src])

    def test_terc_pair_rule(self):
        data = generate(
            GeneratorSpec(dataset="terc1", n_samples=500, seed=3, terc_rule="pair")
        )
        f = data.features
        pair_equal = f[:, 1] == f[:, 2]
        assert np.array_equal(data.target, 1.0 - pair_equal)

    def test_wt_kinds_and_noise_channel(self):
        data = generate(GeneratorSpec(dataset="wt", n_samples=500, seed=3))
        assert not data.all_discrete
        assert data.n_features == 3
        # f0 and f1 share the dominant noise source, so they correlate highly
        corr = np.corrcoef(data.features[:, 0], data.features[:, 1])[0, 1]
        assert corr > 0.9

    def test_ubr_relations(self):
        data = generate(GeneratorSpec(dataset="ubr", n_samples=2000, seed=3))
        f = data.features
        # f1 = 3*f0 + uniform(-1,1): residual bounded by 1
        resid = f[:, 1] - 3 * f[:, 0]
        assert np.max(np.abs(resid)) <= 1.0
        # f3 = target + exponential noise: one-sided residual
        resid3 = f[:, 3] - data.target
        assert np.min(resid3) >= 0.0

    def test_sg_marginals(self):
        data = generate(GeneratorSpec(dataset="sg", n_samples=20000, seed=3))
        f = data.features
        y = data.target
        both = (f[:, 0] == 1) & (f[:, 1] == 1)
        assert abs(both[y == 0].mean() - 0.95) < 0.02
        assert abs(both[y == 1].mean() - 0.05) < 0.02
        assert abs(f[y == 1, 2].mean() - 0.8) < 0.02
        assert abs(f[y == 0, 2].mean() - 0.2) < 0.02

    def test_pairsum_copies(self):
        data = generate(GeneratorSpec(dataset="pairsum", n_samples=400, seed=3))
        f = data.features
        assert np.array_equal(f[:, 2], f[:, 0])
        assert np.array_equal(f[:, 3], f[:, 1])
        assert np.array_equal(data.target, f[:, 0] + f[:, 1])


class TestPopulationTables:
    @pytest.mark.parametrize(
        "dataset_id,n_rows",
        [("rvq", 4), ("svq", 4), ("msq", 4), ("terc1", 8), ("terc2", 8),
         ("sg", 600), ("pairsum", 4)],
    )
    def test_row_counts(self, dataset_id, n_rows):
        assert population_table(dataset_id).n_samples == n_rows

    def test_continuous_unsupported(self):
        for dataset_id in ("wt", "ubr"):
            with pytest.raises(DatasetError):
                population_table(dataset_id)

    def test_unknown_terc_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown terc rule 'sometimes'"):
            population_table("terc1", terc_rule="sometimes")

    @pytest.mark.parametrize("terc_rule", datasets.TERC_RULES)
    @pytest.mark.parametrize(
        "dataset_id", ["rvq", "svq", "msq", "terc1", "terc2", "sg", "pairsum"]
    )
    def test_generator_rows_match_population(self, dataset_id, terc_rule):
        """A large draw shows exactly the population table's distinct rows."""

        def distinct_rows(data):
            return set(map(tuple, np.column_stack([data.features, data.target])))

        pop = population_table(dataset_id, terc_rule)
        emp = generate(GeneratorSpec(dataset_id, 20000, 0, terc_rule))
        assert distinct_rows(emp) == distinct_rows(pop)

    def test_empirical_converges_to_population(self):
        """Large-sample empirical MI approaches the population value."""
        pop = population_table("rvq")
        pop_mi = ExactOracle(pop).mi(FeatureSubset.of(0), TARGET)
        emp = generate(GeneratorSpec(dataset="rvq", n_samples=200000, seed=0))
        emp_mi = ExactOracle(emp).mi(FeatureSubset.of(0), TARGET)
        assert emp_mi == pytest.approx(pop_mi, abs=0.01)

    def test_terc_pair_rule_population(self):
        """Under the pair rule the target is the XOR of f1 and f2, so all
        its information is synergistic between that pair and f0 is useless."""
        ref = ExactOracle(population_table("terc1", terc_rule="pair"))
        assert ref.mi(FeatureSubset.of(0), TARGET) == pytest.approx(0.0, abs=1e-12)
        assert ref.mi(FeatureSubset.of(1), TARGET) == pytest.approx(0.0, abs=1e-12)
        assert ref.mi(FeatureSubset.of(1, 2), TARGET) == pytest.approx(LN2, abs=1e-12)


class TestGroundTruth:
    def test_registry_covers_benchmarks(self):
        for dataset_id in datasets.BENCHMARK_IDS:
            assert dataset_id in datasets.GROUND_TRUTH

    def test_truth_indices_in_range(self):
        for dataset_id, truth in datasets.GROUND_TRUTH.items():
            data = generate(GeneratorSpec(dataset=dataset_id, n_samples=10, seed=0))
            assert all(0 <= j < data.n_features for j in truth)


class TestDuplicateFeature:
    def test_appends_copy(self):
        data = generate(GeneratorSpec(dataset="rvq", n_samples=100, seed=0))
        out = duplicate_feature(data, 0)
        assert out.n_features == 4
        assert out.feature_names[-1] == "f0_dup"
        assert np.array_equal(out.features[:, 3], out.features[:, 0])

    def test_name_collision_suffix(self):
        data = generate(GeneratorSpec(dataset="rvq", n_samples=100, seed=0))
        out = duplicate_feature(duplicate_feature(data, 0), 0)
        assert out.feature_names[-1] == "f0_dup2"

    def test_bad_index(self):
        data = generate(GeneratorSpec(dataset="rvq", n_samples=100, seed=0))
        with pytest.raises(DatasetError):
            duplicate_feature(data, 7)
