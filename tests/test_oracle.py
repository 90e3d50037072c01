"""Counting-oracle tests: frozen population constants and structural checks.

The oracle is the reference implementation the estimators are judged
against, so its own tests lean on closed-form constants computed by hand
from the dataset definitions, plus regression-frozen values for quantities
whose closed forms are unwieldy.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import pidf.oracle as oracle_mod
from pidf import (
    ColumnKind,
    Dataset,
    FeatureSubset,
    OracleUnsupportedError,
    SubsetCapError,
    TARGET,
    datasets,
)
from pidf.oracle import (
    ExactOracle,
    check_theorems,
    assumption_holds,
    assumption_max_violation,
    oracle_entropy,
    oracle_mi,
    oracle_pidf,
    oracle_theta,
)

LN2 = math.log(2.0)
F = FeatureSubset.of


def make_dataset(columns, target, cards=None, t_card=None):
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    target = np.asarray(target, dtype=np.float64)
    if cards is None:
        cards = [int(c.max()) + 1 for c in columns]
    if t_card is None:
        t_card = int(target.max()) + 1
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(len(columns))),
        features=np.column_stack(columns),
        target=target,
        kinds=tuple(ColumnKind.discrete(c) for c in cards),
        target_kind=ColumnKind.discrete(t_card),
    )


class TestJointTable:
    """Entropies of a column group's joint table, as the oracle counts it."""

    def test_uniform_entropy(self):
        data = make_dataset([range(8)], [0] * 8, t_card=1)
        assert oracle_entropy(data, F(0)) == pytest.approx(math.log(8), abs=1e-15)

    def test_constant_entropy_zero(self):
        data = make_dataset([[3] * 10, [1] * 10], [0] * 10, t_card=1)
        assert oracle_entropy(data, F(0, 1)) == 0.0


class TestExactOracle:
    def test_rejects_continuous(self):
        data = Dataset(
            feature_names=("f0",),
            features=np.array([[0.5], [1.5]]),
            target=np.array([0.0, 1.0]),
            kinds=(ColumnKind.continuous(),),
            target_kind=ColumnKind.discrete(2),
        )
        with pytest.raises(OracleUnsupportedError, match="discrete"):
            ExactOracle(data)

    def test_self_information_is_entropy(self):
        data = make_dataset([[0, 0, 1, 2]], [0, 1, 0, 1])
        assert oracle_mi(data, F(0), F(0)) == pytest.approx(
            oracle_entropy(data, F(0)), abs=1e-15
        )

    def test_mi_with_empty_group_is_zero(self):
        data = make_dataset([[0, 1, 0, 1]], [0, 0, 1, 1])
        assert oracle_mi(data, FeatureSubset(), TARGET) == 0.0

    def test_group_forms_agree(self):
        data = make_dataset([[0, 1, 0, 1], [0, 0, 1, 1]], [0, 1, 1, 0])
        a = oracle_mi(data, FeatureSubset((0, 1)), TARGET)
        b = oracle_mi(data, [0, 1], TARGET)
        assert a == b

    def test_theta_validates_indices(self):
        data = make_dataset([[0, 1], [0, 1], [0, 1]], [0, 1])
        with pytest.raises(OracleUnsupportedError):
            oracle_theta(data, 0, 0, FeatureSubset())
        with pytest.raises(OracleUnsupportedError):
            oracle_theta(data, 0, 1, FeatureSubset.of(1))


class TestFrozenPopulationValues:
    """Closed-form and regression-frozen constants on the population tables."""

    def test_rvq(self):
        data = datasets.population_table("rvq")
        assert oracle_entropy(data, TARGET) == pytest.approx(2 * LN2, abs=1e-12)
        for i in range(3):
            assert oracle_mi(data, F(i), TARGET) == pytest.approx(LN2, abs=1e-12)
        assert oracle_theta(data, 0, 1, F(2)) == 0.0
        result = oracle_pidf(data)
        assert result.features[1].fwr == pytest.approx(LN2, abs=1e-12)
        assert result.features[0].fwr == pytest.approx(0.0, abs=1e-12)
        # no informative partner for f0: zero synergy, empty set among argmaxes
        assert result.features[0].fws == pytest.approx(0.0, abs=1e-12)
        assert FeatureSubset() in result.features[0].maximizers

    def test_svq(self):
        data = datasets.population_table("svq")
        for i in range(2):
            assert oracle_mi(data, F(i), TARGET) == 0.0
        assert oracle_mi(data, FeatureSubset((0, 1)), TARGET) == pytest.approx(
            LN2, abs=1e-12
        )
        assert oracle_theta(data, 0, 1, FeatureSubset()) == pytest.approx(
            LN2, abs=1e-12
        )

    def test_msq(self):
        data = datasets.population_table("msq")
        assert oracle_entropy(data, TARGET) == pytest.approx(1.5 * LN2, abs=1e-12)
        assert oracle_mi(data, F(0), F(1)) == pytest.approx(0.5 * LN2, abs=1e-12)
        result = oracle_pidf(data)
        assert result.features[0].mi == pytest.approx(1.5 * LN2, abs=1e-12)
        assert result.features[0].fws == 0.0
        assert result.features[1].fws == pytest.approx(0.5 * LN2, abs=1e-12)
        assert result.features[1].fwr == pytest.approx(LN2, abs=1e-12)

    def test_terc(self):
        data = datasets.population_table("terc1")
        h_y = 2 * LN2 - 0.75 * math.log(3.0)
        assert oracle_entropy(data, TARGET) == pytest.approx(h_y, abs=1e-12)
        assert oracle_mi(data, FeatureSubset((1, 2)), TARGET) == pytest.approx(
            h_y - 0.5 * LN2, abs=1e-12
        )
        result = oracle_pidf(data)
        f1 = result.features[1]
        assert f1.mi == 0.0
        assert f1.fws == pytest.approx(0.5 * LN2, abs=1e-12)
        assert f1.maximizers[0] == FeatureSubset((0, 2))
        # every copy of f0 substitutes for it in a maximizer
        for partner in (3, 4, 5):
            assert FeatureSubset((2, partner)) in f1.maximizers

    def test_sg_regression(self):
        data = datasets.population_table("sg")
        assert data.n_samples == 600
        assert oracle_entropy(data, TARGET) == pytest.approx(LN2, abs=1e-12)
        assert oracle_mi(data, F(2), TARGET) == pytest.approx(
            0.19274475702175842, abs=1e-12
        )
        assert oracle_mi(data, F(0), F(2)) == pytest.approx(
            0.0758944863091493, abs=1e-12
        )
        assert oracle_mi(data, F(0), TARGET) == pytest.approx(
            0.2348629145418606, abs=1e-12
        )
        assert oracle_mi(data, FeatureSubset.full(3), TARGET) == pytest.approx(
            0.5335058551729359, abs=1e-12
        )
        result = oracle_pidf(data)
        assert result.features[0].oci == pytest.approx(0.1817926699184671, abs=1e-12)
        assert result.features[2].oci == pytest.approx(0.038873917958862414, abs=1e-12)

    def test_pairsum_fully_redundant_feature(self):
        data = datasets.population_table("pairsum")
        result = oracle_pidf(data)
        f0 = result.features[0]
        assert f0.mi == pytest.approx(0.5 * LN2, abs=1e-12)
        assert f0.fws == pytest.approx(0.5 * LN2, abs=1e-12)
        assert abs(f0.fwr - f0.mci) <= 1e-9
        assert f0.oci == pytest.approx(0.0, abs=1e-9)
        assert f0.maximizers == (
            FeatureSubset.of(1),
            FeatureSubset.of(3),
            FeatureSubset((1, 3)),
        )


class TestOraclePidfGuards:
    def test_cap(self):
        cols = [[0, 1]] * 16
        data = make_dataset(cols, [0, 1])
        with pytest.raises(SubsetCapError):
            oracle_pidf(data)

    def test_continuous_rejected(self):
        data = Dataset(
            feature_names=("f0",),
            features=np.array([[0.25], [0.75]]),
            target=np.array([0.0, 1.0]),
            kinds=(ColumnKind.continuous(),),
            target_kind=ColumnKind.discrete(2),
        )
        with pytest.raises(OracleUnsupportedError):
            oracle_pidf(data)


class TestTheoremChecks:
    @pytest.mark.parametrize("dataset_id", ["rvq", "svq", "terc1", "terc2", "pairsum"])
    def test_identity_and_bounds_clean(self, dataset_id):
        data = datasets.population_table(dataset_id)
        report = check_theorems(data)
        assert report.max_identity_residual <= 1e-9
        assert report.bound_violations == 0
        assert assumption_holds(data)

    @pytest.mark.parametrize("dataset_id", ["msq", "sg"])
    def test_bounds_require_the_precondition(self, dataset_id):
        """Datasets whose features carry synergy about each other violate the
        effect bounds, but never the net-contribution identity."""
        data = datasets.population_table(dataset_id)
        report = check_theorems(data)
        assert report.max_identity_residual <= 1e-9
        assert not assumption_holds(data)
        assert report.bound_violations > 0

    def test_msq_precondition_margin(self):
        data = datasets.population_table("msq")
        # f1 with f2 pins f0 = f1 + f2 exactly, but pairwise MI gives only
        # half: I(f1; f0,f2) = ln2 while I(f1;f0) + I(f1;f2) = ln2/2.
        assert assumption_max_violation(data) == pytest.approx(0.5 * LN2, abs=1e-12)

    def test_xor_marker_violates_bounds(self):
        """A parity feature is the canonical precondition breaker: the lower
        effect bound fails because two independent coins jointly determine
        the marker."""
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        k = [x ^ y for x, y in zip(a, b)]
        data = make_dataset([a, b, k], a)
        assert not assumption_holds(data)
        theta = oracle_theta(data, 1, 0, F(2))
        pairwise = oracle_mi(data, F(1), F(0))
        assert theta < -pairwise - 1e-9

    def test_identity_matches_direct_difference(self):
        data = datasets.population_table("rvq")
        result = oracle_pidf(data)
        for feat in result.features:
            everything = FeatureSubset.full(data.n_features)
            rest = everything - {feat.index}
            direct = oracle_mi(data, everything, TARGET) - oracle_mi(
                data, rest, TARGET
            )
            assert feat.mci - feat.fwr == pytest.approx(direct, abs=1e-12)


def test_oracle_module_avoids_the_estimator_stack():
    """The oracle must stay an independent implementation: pure-Python
    counting that never imports numpy/scipy or the estimator module."""
    source = Path(oracle_mod.__file__).read_text(encoding="utf-8")
    imports = [
        line.strip()
        for line in source.splitlines()
        if line.strip().startswith(("import ", "from "))
    ]
    for line in imports:
        assert "numpy" not in line, line
        assert "scipy" not in line, line
        assert "estimators" not in line, line
