"""Core value-object behavior: subsets, ensembles, datasets, result records."""

import dataclasses
import json
import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidf import (
    BITS,
    ExactOracle,
    NATS,
    TARGET,
    ColumnKind,
    Confusion,
    ConfigError,
    Dataset,
    DatasetError,
    EstimateEnsemble,
    FeatureSubset,
    MiCache,
    OracleFeature,
    PidfFeatureResult,
    PidfReport,
    SelectionResult,
    ThetaEvaluation,
    brute_force_fws,
    confusion_counts,
    convert_units,
    default_config,
    duplicate_feature,
    estimate_mi,
    infer_kinds,
    population_table,
    render_json,
    run_pidf,
    select_features,
    theta,
    validate_dataset,
)

LN2 = math.log(2.0)

# Estimates with both signs of zero among them: 0.0 == -0.0, but their
# bits differ.
ESTIMATES = st.floats(min_value=-1e6, max_value=1e6) | st.sampled_from((0.0, -0.0))


@st.composite
def ensembles(draw, n):
    """An ensemble of n seeds: constant half the time, else any estimates."""
    if draw(st.booleans()):
        return EstimateEnsemble.constant(draw(ESTIMATES), range(n))
    return EstimateEnsemble(tuple(draw(st.lists(ESTIMATES, min_size=n, max_size=n))),
                            tuple(range(n)))


def hexes(values):
    return [float(v).hex() for v in values]


class TestConvertUnits:
    def test_nats_identity(self):
        assert convert_units(1.25, NATS) == 1.25

    def test_bits(self):
        assert convert_units(LN2, BITS) == pytest.approx(1.0, abs=1e-15)

    def test_bad_unit(self):
        with pytest.raises(ConfigError):
            convert_units(1.0, "shannons")


class TestFeatureSubset:
    def test_canonical_order_and_dedup(self):
        assert FeatureSubset([3, 1, 3, 2]).indices == (1, 2, 3)

    def test_set_algebra(self):
        a = FeatureSubset([0, 1])
        b = FeatureSubset([1, 2])
        assert (a - b).indices == (0,)
        assert (a & b).indices == (1,)

    def test_membership_iteration_len(self):
        s = FeatureSubset([4, 2])
        assert 2 in s and 3 not in s
        assert list(s) == [2, 4]
        assert len(s) == 2
        assert bool(s)
        assert not FeatureSubset()

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSubset([-1])

    def test_full(self):
        assert FeatureSubset.full(3).indices == (0, 1, 2)


class TestEstimateEnsemble:
    def test_all_equal_has_exactly_zero_std(self):
        # float summation must not smear equal estimates into a tiny std,
        # the deterministic significance rule depends on std == 0.0
        ens = EstimateEnsemble((0.1, 0.1, 0.1), (1, 2, 3))
        assert ens.mean == 0.1
        assert ens.std == 0.0
        assert ens.is_deterministic

    def test_single_estimate_deterministic(self):
        ens = EstimateEnsemble((0.5,), (7,))
        assert ens.is_deterministic

    def test_mean_std(self):
        ens = EstimateEnsemble((0.0, 1.0), (0, 1))
        assert ens.mean == pytest.approx(0.5)
        assert ens.std == pytest.approx(np.std([0.0, 1.0], ddof=1))
        assert not ens.is_deterministic

    def test_constant(self):
        ens = EstimateEnsemble.constant(0.25, (0, 1, 2))
        assert ens.estimates == (0.25, 0.25, 0.25)

    def test_linear_per_seed(self):
        a = EstimateEnsemble((1.0, 2.0), (0, 1))
        b = EstimateEnsemble((0.5, 0.25), (0, 1))
        combo = EstimateEnsemble.linear([(1.0, a), (-2.0, b)])
        assert combo.estimates == (0.0, 1.5)
        assert combo.seeds == (0, 1)

    def test_linear_requires_matching_seeds(self):
        a = EstimateEnsemble((1.0,), (0,))
        b = EstimateEnsemble((1.0,), (1,))
        with pytest.raises(ConfigError):
            EstimateEnsemble.linear([(1.0, a), (1.0, b)])

    def test_non_finite_rejected(self):
        from pidf import EstimatorError

        with pytest.raises(EstimatorError):
            EstimateEnsemble((float("nan"),), (0,))

    def test_map(self):
        ens = EstimateEnsemble((1.0, -2.0), (0, 1))
        assert ens.map(lambda e: -e).estimates == (-1.0, 2.0)

    def test_constant_checks_as_the_constructor_does(self):
        from pidf import EstimatorError

        ens = EstimateEnsemble.constant(1, range(3))
        assert ens == EstimateEnsemble((1.0, 1.0, 1.0), (0, 1, 2))
        assert type(ens.estimates[0]) is float and ens.is_deterministic
        with pytest.raises(EstimatorError, match="non-finite"):
            EstimateEnsemble.constant(math.inf, range(2))
        with pytest.raises(ConfigError, match="at least one"):
            EstimateEnsemble.constant(0.5, ())

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_linear_and_map_give_the_per_seed_bits(self, data):
        # Constant terms take the combination once; it must have the bits
        # of each seed's own sum, written out here, and so must map.
        n = data.draw(st.integers(min_value=1, max_value=5), label="seeds")
        coefs = st.sampled_from((1.0, -1.0, 0.5, -2.0, 3.0))
        terms = data.draw(st.lists(st.tuples(coefs, ensembles(n)), min_size=1, max_size=5))
        combined = EstimateEnsemble.linear(terms)
        per_seed = [sum(coef * ens.estimates[r] for coef, ens in terms) for r in range(n)]
        assert hexes(combined.estimates) == hexes(per_seed)
        for fn in (operator.neg, abs, lambda v: 2.0 * v - 0.0):
            for ens in (combined, *(ens for _, ens in terms)):
                assert hexes(ens.map(fn).estimates) == hexes(fn(e) for e in ens.estimates)


class TestDatasetValidation:
    def test_basic_construction(self):
        data = Dataset(
            feature_names=("a", "b"),
            features=np.array([[0.0, 1.0], [1.0, 0.0]]),
            target=np.array([0.0, 1.0]),
            kinds=(ColumnKind.discrete(2), ColumnKind.discrete(2)),
            target_kind=ColumnKind.discrete(2),
        )
        assert data.n_samples == 2
        assert data.n_features == 2
        assert data.all_discrete

    def test_arrays_are_defensive_copies(self):
        feats = np.zeros((2, 1))
        data = Dataset(
            feature_names=("a",),
            features=feats,
            target=np.array([0.0, 1.0]),
            kinds=(ColumnKind.discrete(1),),
            target_kind=ColumnKind.discrete(2),
        )
        feats[0, 0] = 9.0
        assert data.features[0, 0] == 0.0
        with pytest.raises((ValueError, RuntimeError)):
            data.features[0, 0] = 5.0

    def test_row_mismatch(self):
        with pytest.raises(DatasetError):
            Dataset(
                feature_names=("a",),
                features=np.zeros((3, 1)),
                target=np.zeros(2),
                kinds=(ColumnKind.discrete(1),),
                target_kind=ColumnKind.discrete(1),
            )

    def test_duplicate_names(self):
        with pytest.raises(DatasetError):
            Dataset(
                feature_names=("a", "a"),
                features=np.zeros((2, 2)),
                target=np.zeros(2),
                kinds=(ColumnKind.discrete(1),) * 2,
                target_kind=ColumnKind.discrete(1),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(
                feature_names=("a",),
                features=np.array([[np.inf], [0.0]]),
                target=np.zeros(2),
                kinds=(ColumnKind.continuous(),),
                target_kind=ColumnKind.discrete(1),
            )

    def test_seed_is_a_plain_int(self):
        data = population_table("rvq")
        seeded = dataclasses.replace(data, seed=np.int64(3))
        assert type(seeded.seed) is int
        assert json.loads(render_json(run_pidf(seeded)))["dataset"]["seed"] == 3
        for seed in (2.5, True):
            with pytest.raises(ConfigError):
                dataclasses.replace(data, seed=seed)

    def test_discrete_range_enforced(self):
        with pytest.raises(DatasetError):
            Dataset(
                feature_names=("a",),
                features=np.array([[0.0], [5.0]]),
                target=np.zeros(2),
                kinds=(ColumnKind.discrete(2),),
                target_kind=ColumnKind.discrete(1),
            )


class TestInferKinds:
    def test_small_ints_discrete(self):
        kinds = infer_kinds(np.array([[0.0, 0.5], [3.0, 1.5]]))
        assert kinds[0].is_discrete and kinds[0].cardinality == 4
        assert not kinds[1].is_discrete

    def test_negative_ints_continuous(self):
        kinds = infer_kinds(np.array([[-1.0], [2.0]]))
        assert not kinds[0].is_discrete

    def test_validate_dataset_reorders_target(self):
        table = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        data = validate_dataset(table, ["a", "target", "b"])
        assert data.feature_names == ("a", "b")
        assert list(data.target) == [1.0, 0.0]

    def test_validate_dataset_missing_target(self):
        with pytest.raises(DatasetError):
            validate_dataset(np.zeros((2, 2)), ["a", "b"], target="y")


def _result(index, mi, fws, contributions=()):
    """A result whose pass judged each contribution's candidate redundant,
    with the negated contribution as its theta."""
    seeds = (0, 1)
    evaluations = tuple(
        ThetaEvaluation(j, FeatureSubset(), EstimateEnsemble.constant(-v, seeds), True)
        for j, v in contributions
    )
    return PidfFeatureResult(
        index=index,
        name=f"f{index}",
        mi=EstimateEnsemble.constant(mi, seeds),
        fws=EstimateEnsemble.constant(fws, seeds),
        candidate_order=tuple(j for j, _ in contributions),
        evaluations=evaluations,
    )


class TestPidfFeatureResult:
    def test_redundant_theta_of_nonnegative_mean_is_refused(self):
        # At alpha <= 0.5 is_redundant passes only thetas of negative mean,
        # so every redundancy contribution is positive and needs no clamp.
        for estimates in ((0.05, 0.05), (0.0, 0.0), (-0.01, 0.03)):
            theta = EstimateEnsemble(estimates, (0, 1))
            with pytest.raises(ConfigError, match="redundant theta has mean"):
                ThetaEvaluation(1, FeatureSubset(), theta, True)
            assert not ThetaEvaluation(1, FeatureSubset(), theta, False).redundant

    def test_fwr_total_clamps_negative_contributions(self):
        # No clamp is applied at the total: a negative contribution is
        # refused when its evaluation is built, so the total never drops
        # below zero.
        res = _result(0, 0.5, 0.1, contributions=[(1, 0.2), (2, 0.05)])
        assert res.fwr_total == pytest.approx(0.25)
        with pytest.raises(ConfigError, match="redundant theta has mean"):
            _result(0, 0.5, 0.1, contributions=[(1, 0.2), (2, -0.05)])

    def test_mci_oci(self):
        res = _result(0, 0.5, 0.1, contributions=[(1, 0.2)])
        assert res.mci == pytest.approx(0.6)
        assert res.oci == pytest.approx(0.4)

    def test_net_ensemble_subtracts_raw_contributions(self):
        # A contribution of positive mean can still be negative on one
        # seed; the per-seed net must subtract that raw value.
        seeds = (0, 1)
        theta = EstimateEnsemble((-0.03, 0.01), seeds)
        res = PidfFeatureResult(
            index=0,
            name="f0",
            mi=EstimateEnsemble.constant(0.5, seeds),
            fws=EstimateEnsemble.constant(0.1, seeds),
            candidate_order=(1,),
            evaluations=(ThetaEvaluation(1, FeatureSubset(), theta, True),),
        )
        assert res.net_ensemble().estimates == pytest.approx((0.57, 0.61))
        assert res.net_ensemble().mean == pytest.approx(0.59)

    def _pass_result(self, evaluations):
        seeds = (0, 1)
        return PidfFeatureResult(
            index=0,
            name="f0",
            mi=EstimateEnsemble.constant(0.5, seeds),
            fws=EstimateEnsemble.constant(0.1, seeds),
            candidate_order=(3, 1, 4, 2),
            evaluations=tuple(
                ThetaEvaluation(j, FeatureSubset(), EstimateEnsemble.constant(t, seeds), r)
                for j, t, r in evaluations
            ),
        )

    def test_partner_sets_and_charges_are_read_from_the_pass(self):
        res = self._pass_result([(3, -0.2, True), (1, 0.05, False), (4, -0.1, True)])
        assert res.related_set == FeatureSubset.of(1, 3, 4)
        assert res.max_synergy_set == FeatureSubset.of(1, 2)
        assert [(j, ens.estimates) for j, ens in res.fwr_contributions] == [
            (3, (0.2, 0.2)),
            (4, (0.1, 0.1)),
        ]

    def test_replaced_pass_recomputes_the_views(self):
        res = self._pass_result([(3, -0.2, True), (1, 0.05, False), (4, -0.1, True)])
        shorter = dataclasses.replace(res, evaluations=res.evaluations[:2])
        assert shorter.related_set == FeatureSubset.of(1, 3)
        assert shorter.max_synergy_set == FeatureSubset.of(1, 2, 4)
        assert [j for j, _ in shorter.fwr_contributions] == [3]

    def test_report_requires_index_order(self):
        results = (_result(1, 0.0, 0.0),)
        with pytest.raises(ConfigError):
            PidfReport(
                results=results,
                feature_names=("f1",),
                target_name="target",
                n_samples=10,
                estimator=None,
                alpha=0.05,
                eps_zero=0.01,
            )


# Each result record, the keyword arguments it takes, and the values it
# derives from them.
_RECORDS = [
    (
        PidfFeatureResult,
        {
            "index": 0,
            "name": "f0",
            "mi": EstimateEnsemble.constant(0.5, (0,)),
            "fws": EstimateEnsemble.constant(0.0, (0,)),
            "candidate_order": (),
            "evaluations": (),
        },
        ("related_set", "max_synergy_set", "fwr_contributions"),
    ),
    (
        OracleFeature,
        {"index": 0, "mi": 0.5, "fws": 0.1, "maximizers": (), "fwr": 0.2},
        ("mci", "oci"),
    ),
    (
        SelectionResult,
        {"selected": FeatureSubset(), "phase1": FeatureSubset(), "rationales": ("",)},
        ("n_features",),
    ),
]


@pytest.mark.parametrize("cls, kwargs, derived", _RECORDS,
                         ids=[cls.__name__ for cls, _, _ in _RECORDS])
def test_derived_values_cannot_be_passed_in(cls, kwargs, derived):
    made = cls(**kwargs)
    for name in derived:
        with pytest.raises(TypeError):
            cls(**kwargs, **{name: getattr(made, name)})


def test_confusion_tuple():
    c = Confusion(tp=2, fp=0, tn=1, fn=0)
    assert c.as_tuple == (2, 0, 1, 0)


# Each public call that takes column indices, with index v passed in place
# of a valid one, on the rvq population table. The oracle_* rows ask the
# table's ExactOracle.
_INDEX_CALLS = {
    "FeatureSubset": lambda rvq, v: FeatureSubset((v, 1)),
    "estimate_mi": lambda rvq, v: estimate_mi(rvq.data, [v], TARGET, rvq.cfg),
    "MiCache.mi": lambda rvq, v: MiCache(rvq.data, rvq.cfg).mi(TARGET, [v]),
    "theta feature": lambda rvq, v: theta(rvq.data, v, 2, (), rvq.cfg),
    "theta candidate": lambda rvq, v: theta(rvq.data, 0, v, (), rvq.cfg),
    "theta context": lambda rvq, v: theta(rvq.data, 0, 2, [v], rvq.cfg),
    "brute_force_fws": lambda rvq, v: brute_force_fws(rvq.data, v, rvq.cfg),
    "confusion_counts": lambda rvq, v: confusion_counts(rvq.selection, [v, 1]),
    "oracle_entropy": lambda rvq, v: rvq.referee.entropy([v]),
    "oracle_mi": lambda rvq, v: rvq.referee.mi([v], TARGET),
    "oracle_cmi a": lambda rvq, v: rvq.referee.cmi([v], TARGET, [1]),
    "oracle_cmi b": lambda rvq, v: rvq.referee.cmi(TARGET, [v], [1]),
    "oracle_cmi cond": lambda rvq, v: rvq.referee.cmi(TARGET, [0], [v]),
    "oracle_theta i": lambda rvq, v: rvq.referee.theta(v, 2),
    "oracle_theta j": lambda rvq, v: rvq.referee.theta(0, v),
    "oracle_theta context": lambda rvq, v: rvq.referee.theta(0, 2, [v]),
    "duplicate_feature": lambda rvq, v: duplicate_feature(rvq.data, v),
}


@pytest.fixture(scope="module")
def rvq():
    data = population_table("rvq")
    cfg = default_config(data, repetitions=1)
    return SimpleNamespace(data=data, cfg=cfg, referee=ExactOracle(data),
                           selection=select_features(run_pidf(data, cfg)))


@pytest.mark.parametrize("call", _INDEX_CALLS)
@pytest.mark.parametrize("index", [0.7, "1", math.nan], ids=repr)
def test_column_indices_must_be_whole_numbers(rvq, call, index):
    with pytest.raises(ConfigError) as err:
        _INDEX_CALLS[call](rvq, index)
    assert str(err.value) == f"column index {index!r} is not an integer"
