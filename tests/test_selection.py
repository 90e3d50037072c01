"""Two-phase minimal-subset selection and confusion counting."""

import dataclasses

import pytest
from scipy.stats import t as student_t

from pidf import (
    Confusion,
    ConfigError,
    EstimateEnsemble,
    FeatureSubset,
    PidfFeatureResult,
    PidfReport,
    SelectionResult,
    ThetaEvaluation,
    confusion_counts,
    datasets,
    population_table,
    run_pidf,
    select_features,
)

SEEDS = (0, 1, 2)


def const(value):
    return EstimateEnsemble.constant(value, SEEDS)


def make_result(index, mi, fws=0.0, removals=(), n=4):
    """Deterministic feature result whose pass evaluated only the removed
    candidates, each with its removal charge negated as its theta."""
    return PidfFeatureResult(
        index=index,
        name=f"f{index}",
        mi=const(mi),
        fws=const(fws),
        candidate_order=tuple(j for j in range(n) if j != index),
        evaluations=tuple(
            ThetaEvaluation(j, FeatureSubset(), const(-v), True)
            for j, v in sorted(removals)
        ),
    )


def make_report(results):
    n = len(results)
    return PidfReport(
        results=tuple(results),
        feature_names=tuple(f"f{i}" for i in range(n)),
        target_name="target",
        n_samples=100,
        estimator=None,
        alpha=0.05,
        eps_zero=0.01,
        dataset_seed=None,
        dataset_source="crafted",
    )


class TestPhaseOne:
    def test_positive_net_is_kept(self):
        report = make_report(
            [
                make_result(0, mi=0.5),
                make_result(1, mi=0.0),
                make_result(2, mi=0.0),
                make_result(3, mi=0.0),
            ]
        )
        sel = select_features(report)
        assert 0 in sel.phase1
        assert sel.rationales[0].startswith("kept: net contribution")

    def test_redundancy_cancels_net(self):
        # mi 0.5 fully charged to a removal: net 0, fails the first phase
        report = make_report(
            [
                make_result(0, mi=0.5, removals=((1, 0.5),)),
                make_result(1, mi=0.5, removals=((0, 0.5),)),
                make_result(2, mi=0.0),
                make_result(3, mi=0.0),
            ]
        )
        sel = select_features(report)
        assert sel.phase1 == FeatureSubset.of()

    def test_synergy_counts_toward_net(self):
        report = make_report(
            [
                make_result(0, mi=0.0, fws=0.4),
                make_result(1, mi=0.0),
                make_result(2, mi=0.0),
                make_result(3, mi=0.0),
            ]
        )
        sel = select_features(report)
        assert 0 in sel.phase1


class TestPhaseTwo:
    def test_one_representative_per_redundant_group(self):
        # 0 and 1 mutually redundant; 1 has the higher mci, so it is taken
        # and 0 is dropped against it
        report = make_report(
            [
                make_result(0, mi=0.5, removals=((1, 0.5),)),
                make_result(1, mi=0.6, removals=((0, 0.6),)),
                make_result(2, mi=0.0),
                make_result(3, mi=0.0),
            ]
        )
        sel = select_features(report)
        assert 1 in sel.selected
        assert 0 not in sel.selected
        assert sel.rationales[0] == "dropped: redundant with selected f1"
        assert sel.rationales[1] == (
            "kept: highest-ranked feature with no selected related partner"
        )

    def test_mci_tie_breaks_by_index(self):
        report = make_report(
            [
                make_result(0, mi=0.5, removals=((1, 0.5),)),
                make_result(1, mi=0.5, removals=((0, 0.5),)),
                make_result(2, mi=0.0),
                make_result(3, mi=0.0),
            ]
        )
        sel = select_features(report)
        assert 0 in sel.selected
        assert 1 not in sel.selected

    def test_unrelated_zero_feature_still_added(self):
        # phase 2 keeps anything with no selected related partner, even a
        # useless feature; a genuinely minimal answer needs the redundancy
        # evidence that only the related sets carry
        report = make_report(
            [
                make_result(0, mi=0.5),
                make_result(1, mi=0.0),
                make_result(2, mi=0.0),
                make_result(3, mi=0.0),
            ]
        )
        sel = select_features(report)
        assert sel.selected == FeatureSubset.of(0, 1, 2, 3)

    def test_blocker_must_be_selected_not_just_related(self):
        # 2 relates to 1, but 1 itself was dropped against 0, so 2 enters
        report = make_report(
            [
                make_result(0, mi=0.7, removals=((1, 0.7),)),
                make_result(1, mi=0.6, removals=((0, 0.4), (2, 0.2))),
                make_result(2, mi=0.1, removals=((1, 0.1),)),
                make_result(3, mi=0.0),
            ]
        )
        sel = select_features(report)
        assert 0 in sel.selected
        assert 1 not in sel.selected
        assert 2 in sel.selected


class TestFrozenSelections:
    @pytest.mark.parametrize(
        "dataset_id,expected",
        [
            ("rvq", (0, 1)),
            ("svq", (0, 1)),
            ("msq", (0,)),
            ("terc1", (0, 1, 2)),
            ("terc2", (0, 1, 2)),
            ("pairsum", (0, 1)),
            ("sg", (0, 1, 2)),
        ],
    )
    def test_population_selection(self, dataset_id, expected):
        report = run_pidf(population_table(dataset_id))
        sel = select_features(report)
        assert sel.selected == FeatureSubset.of(*expected)

    @pytest.mark.parametrize(
        "dataset_id", ["rvq", "svq", "msq", "terc1", "terc2", "pairsum", "sg"]
    )
    def test_population_confusion_is_clean(self, dataset_id):
        report = run_pidf(population_table(dataset_id))
        sel = select_features(report)
        conf = confusion_counts(sel, datasets.GROUND_TRUTH[dataset_id])
        assert conf.fp == 0
        assert conf.fn == 0


def selection_of(selected, n_features):
    return SelectionResult(
        selected=FeatureSubset(selected),
        phase1=FeatureSubset(selected),
        rationales=("",) * n_features,
    )


class TestConfusionCounts:
    def test_basic(self):
        conf = confusion_counts(selection_of((0, 2), 4), (0, 1))
        assert conf == Confusion(tp=1, fp=1, tn=1, fn=1)
        assert conf.as_tuple == (1, 1, 1, 1)

    def test_accepts_iterables(self):
        conf = confusion_counts(selection_of([0, 1], 3), {0, 1})
        assert conf.as_tuple == (2, 0, 1, 0)

    def test_selection_result_carries_n(self):
        sel = SelectionResult(
            selected=FeatureSubset.of(0),
            phase1=FeatureSubset.of(0),
            rationales=("kept", "", ""),
        )
        conf = confusion_counts(sel, FeatureSubset.of(0, 1))
        assert conf.as_tuple == (1, 0, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            confusion_counts(selection_of((5,), 3), FeatureSubset.of(0))


class TestCustomThresholds:
    @staticmethod
    def stochastic_report(t):
        """Feature 0's net is a 3-seed ensemble of mean 0.2 with statistic t."""
        spread = 0.2 * 3**0.5 / t
        net = EstimateEnsemble((0.2 - spread, 0.2, 0.2 + spread), SEEDS)
        result = PidfFeatureResult(
            index=0,
            name="f0",
            mi=net,
            fws=const(0.0),
            candidate_order=(1,),
            evaluations=(),
        )
        return make_report([result, make_result(1, mi=0.0, n=2)])

    def test_alpha_override(self):
        # borderline stochastic net: t = 3.0, df = 2; selected at 0.05 only
        report = self.stochastic_report(3.0)
        assert 0 in select_features(report).phase1
        assert 0 not in select_features(dataclasses.replace(report, alpha=0.01)).phase1
        # t = 2.4: the one-sided p of about 0.069 lies between alpha and
        # 2 alpha, so a test at 2 alpha would keep it.
        report = self.stochastic_report(2.4)
        assert 0.05 < student_t.sf(2.4, 2) < 0.1
        assert 0 not in select_features(report).phase1
