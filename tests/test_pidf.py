"""Core decomposition pass: theta decisions, significance rules, cache
behavior, frozen per-feature results on the population tables, and the
exhaustive synergy search."""

import math

import pytest
from scipy.stats import t as student_t

from pidf import (
    ConfigError,
    EstimateEnsemble,
    EstimatorConfig,
    ExactDiscrete,
    FeatureSubset,
    GeneratorSpec,
    Ksg,
    MiCache,
    SubsetCapError,
    TARGET,
    brute_force_fws,
    default_config,
    estimate_mi,
    generate,
    is_redundant,
    oracle_mi,
    population_table,
    run_pidf,
    significantly_positive,
    theta,
)
from pidf import estimators
from pidf.datasets import POPULATION_IDS, TERC_RULES

LN2 = math.log(2.0)
SEEDS = (0, 1, 2)


def ens(*values):
    return EstimateEnsemble(tuple(float(v) for v in values), tuple(range(len(values))))


class TestSignificanceRules:
    def test_deterministic_zero_is_neither(self):
        e = ens(0.0, 0.0, 0.0)
        assert e.is_deterministic
        assert not is_redundant(e)
        assert not significantly_positive(e)

    def test_deterministic_thresholds(self):
        assert is_redundant(ens(-0.02, -0.02))
        assert not is_redundant(ens(-0.005, -0.005))
        assert significantly_positive(ens(0.02, 0.02))
        assert not significantly_positive(ens(0.005, 0.005))

    def test_deterministic_single_value(self):
        assert is_redundant(ens(-1.0))
        assert significantly_positive(ens(1.0))

    def test_custom_eps_zero(self):
        e = ens(0.005, 0.005)
        assert significantly_positive(e, eps_zero=0.001)
        assert not significantly_positive(e, eps_zero=0.01)

    def test_stochastic_strong_signal(self):
        # mean 1.0, sample std 0.1, t = 1.0/(0.1/sqrt(3)) = 17.3 >> critical
        e = ens(0.9, 1.0, 1.1)
        assert significantly_positive(e)
        assert not is_redundant(e)
        neg = e.map(lambda v: -v)
        assert is_redundant(neg)
        assert not significantly_positive(neg)

    def test_stochastic_weak_signal(self):
        # mean 0.2, sample std 0.2, t = sqrt(3) = 1.73 < 2.92 (one-sided
        # critical value at the 5% level with 2 degrees of freedom)
        e = ens(0.0, 0.2, 0.4)
        assert not significantly_positive(e)
        assert not is_redundant(e.map(lambda v: -v))

    def test_alpha_tightens_decision(self):
        # t = 3.0 with df=2: significant at alpha=0.05, not at alpha=0.01
        e = ens(0.2 - 0.2 / 3**0.5, 0.2, 0.2 + 0.2 / 3**0.5)
        t_stat = e.mean / (e.std / e.n**0.5)
        assert t_stat == pytest.approx(3.0, abs=1e-9)
        assert significantly_positive(e, alpha=0.05)
        assert not significantly_positive(e, alpha=0.01)

    @pytest.mark.parametrize("alpha", (0.05, 0.01, 0.2))
    def test_flips_at_the_critical_value(self, alpha):
        # Shift a zero-mean spread of 5 values so its t-statistic lands a
        # hair above or below the one-sided critical value with df=4.
        critical = student_t.ppf(1.0 - alpha, df=4)
        spread = (-1.0, -0.5, 0.0, 0.5, 1.0)
        sample_std = ens(*spread).std
        for factor, significant in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
            shift = factor * critical * sample_std / 5**0.5
            e = ens(*(v + shift for v in spread))
            assert (e.mean / (e.std / e.n**0.5) > critical) == significant
            assert significantly_positive(e, alpha) == significant
            assert is_redundant(e.map(lambda v: -v), alpha) == significant

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            is_redundant(ens(1.0), alpha=1.5)
        with pytest.raises(ConfigError):
            significantly_positive(ens(1.0), alpha=0.0)

    @pytest.mark.parametrize("eps_zero", [-1.0, math.nan, math.inf])
    def test_bad_eps_zero(self, eps_zero):
        with pytest.raises(ConfigError, match="eps_zero"):
            significantly_positive(ens(1.0), eps_zero=eps_zero)
        with pytest.raises(ConfigError, match="eps_zero"):
            is_redundant(ens(-1.0), eps_zero=eps_zero)


class TestMiCache:
    def test_memoizes(self):
        data = population_table("rvq")
        cache = MiCache(data, default_config(data))
        a = cache.mi(TARGET, FeatureSubset.of(0))
        b = cache.mi(TARGET, FeatureSubset.of(0))
        assert a is b

    def test_symmetric_orientation_shares_entry(self):
        data = population_table("rvq")
        cache = MiCache(data, default_config(data))
        a = cache.mi(FeatureSubset.of(0), FeatureSubset.of(1))
        b = cache.mi(FeatureSubset.of(1), FeatureSubset.of(0))
        assert a is b

    def test_matches_direct_estimate(self):
        data = population_table("msq")
        cfg = default_config(data)
        cache = MiCache(data, cfg)
        got = cache.mi(TARGET, FeatureSubset.of(0, 1))
        direct = oracle_mi(data, FeatureSubset.of(0, 1), TARGET)
        assert got.mean == pytest.approx(direct, abs=1e-12)

    def test_one_pass_iterator_group(self):
        # A miss estimates the ids read from the iterator, not the iterator
        # itself, which the lookup has already used up.
        data = population_table("msq")
        cfg = default_config(data)
        cache = MiCache(data, cfg)
        direct = estimate_mi(data, TARGET, FeatureSubset.of(0, 1), cfg)
        assert direct.mean == pytest.approx(1.0397, abs=1e-4)
        assert cache.mi(TARGET, iter([0, 1])) == direct
        assert cache.mi(TARGET, [0, 1]) == direct

    def test_id_tuples_share_entries_with_subsets(self):
        data = population_table("terc2")
        cache = MiCache(data, default_config(data))
        a = cache.mi(TARGET, (0, 2, 5))
        assert cache.mi(FeatureSubset.of(5, 0, 2), TARGET) is a
        assert cache.mi(TARGET, [5, 2, 0, 2]) is a


class TestBenchmarkHooks:
    """perfbench's tracer counts and times a run by replacing module
    attributes: MiCache.mi, estimators.estimate_mi and estimators.ksg_mi.
    These tests hold the calls where it replaces them."""

    def test_each_cache_miss_calls_estimate_mi_once(self, monkeypatch):
        calls = []
        estimate = estimators.estimate_mi

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return estimate(*args, **kwargs)

        per_lookup = []
        lookup = MiCache.mi

        def counted(cache, left, right):
            before = len(calls)
            try:
                return lookup(cache, left, right)
            finally:
                per_lookup.append(len(calls) - before)

        monkeypatch.setattr(estimators, "estimate_mi", recorded)
        monkeypatch.setattr(MiCache, "mi", counted)
        data = population_table("msq")
        cfg = default_config(data)
        run_pidf(data, cfg)
        assert set(per_lookup) == {0, 1}
        assert sum(per_lookup) == len(calls)
        for args, kwargs in calls:
            assert len(args) == 4 and not kwargs
            assert args[0] is data and args[3] is cfg
        groups = [args[1:3] for args, _ in calls]
        assert len(set(groups)) == len(groups)

    def test_ksg_calls_the_module_ksg_mi(self, monkeypatch):
        calls = []
        ksg_mi = estimators.ksg_mi

        def recorded(x, y, k):
            calls.append(k)
            return ksg_mi(x, y, k)

        monkeypatch.setattr(estimators, "ksg_mi", recorded)
        data = generate(GeneratorSpec("wt", 300, 4))
        cfg = EstimatorConfig(kind=Ksg(k=4), repetitions=3, base_seed=0)
        estimate_mi(data, FeatureSubset.of(0), TARGET, cfg)
        assert calls == [4, 4, 4]


class TestTheta:
    def test_synergy_is_positive(self):
        # XOR pair: the candidate unlocks the feature's information
        data = population_table("svq")
        cfg = default_config(data)
        th = theta(data, 0, 1, FeatureSubset.of(), cfg)
        assert th.mean == pytest.approx(LN2, abs=1e-12)

    def test_duplicate_is_negative(self):
        # rvq f2 is an exact copy of f1
        data = population_table("rvq")
        cfg = default_config(data)
        th = theta(data, 1, 2, FeatureSubset.of(0), cfg)
        assert th.mean == pytest.approx(-LN2, abs=1e-12)

    def test_independent_is_zero(self):
        data = population_table("rvq")
        cfg = default_config(data)
        th = theta(data, 0, 1, FeatureSubset.of(), cfg)
        assert th.mean == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        data = population_table("rvq")
        cfg = default_config(data)
        with pytest.raises(ConfigError):
            theta(data, 0, 0, FeatureSubset.of(), cfg)
        with pytest.raises(ConfigError):
            theta(data, 0, 1, FeatureSubset.of(1), cfg)
        with pytest.raises(ConfigError):
            theta(data, 0, 9, FeatureSubset.of(), cfg)



@pytest.fixture(scope="module")
def rvq_report():
    return run_pidf(population_table("rvq"))


@pytest.fixture(scope="module")
def msq_report():
    return run_pidf(population_table("msq"))


@pytest.fixture(scope="module")
def terc1_report():
    return run_pidf(population_table("terc1"))


@pytest.fixture(scope="module")
def pairsum_report():
    return run_pidf(population_table("pairsum"))


class TestRunOnRvq:
    @pytest.fixture()
    def report(self, rvq_report):
        return rvq_report

    def test_three_results_in_order(self, report):
        assert tuple(r.index for r in report.results) == (0, 1, 2)
        assert tuple(r.name for r in report.results) == ("f0", "f1", "f2")

    def test_f0_independent_direct_feature(self, report):
        r0 = report.results[0]
        assert r0.mi.mean == pytest.approx(LN2, abs=1e-12)
        assert r0.fws.mean == pytest.approx(0.0, abs=1e-12)
        assert r0.fwr_total == 0.0
        assert r0.related_set == FeatureSubset.of()
        assert r0.fwr_contributions == ()

    def test_f1_f2_mutually_redundant(self, report):
        for idx, partner in ((1, 2), (2, 1)):
            r = report.results[idx]
            assert r.mi.mean == pytest.approx(LN2, abs=1e-12)
            assert r.fws.mean == pytest.approx(0.0, abs=1e-12)
            assert r.fwr_total == pytest.approx(LN2, abs=1e-12)
            assert r.related_set == FeatureSubset.of(partner)
            contributors = tuple(j for j, _ in r.fwr_contributions)
            assert contributors == (partner,)
            assert r.oci == pytest.approx(0.0, abs=1e-12)

    def test_trace_records_the_pass(self, report):
        r1 = report.results[1]
        assert r1.candidate_order == (2, 0)
        assert len(r1.evaluations) == 1
        ev = r1.evaluations[0]
        assert ev.candidate == 2
        assert ev.redundant
        assert ev.context == FeatureSubset.of(0)
        assert ev.theta.mean == pytest.approx(-LN2, abs=1e-12)
        # f0 has no related candidates, so nothing was evaluated
        assert report.results[0].evaluations == ()


class TestRunOnMsq:
    @pytest.fixture()
    def report(self, msq_report):
        return msq_report

    def test_sum_feature_fully_redundant(self, report):
        r0 = report.results[0]
        assert r0.mi.mean == pytest.approx(1.5 * LN2, abs=1e-12)
        assert r0.fws.mean == pytest.approx(0.0, abs=1e-12)
        # f1 removed first against context {f2} (-ln2), then f2 against
        # the emptied context (-ln2/2)
        contribs = dict(
            (j, e.mean) for j, e in r0.fwr_contributions
        )
        assert contribs[1] == pytest.approx(LN2, abs=1e-12)
        assert contribs[2] == pytest.approx(0.5 * LN2, abs=1e-12)
        assert r0.fwr_total == pytest.approx(1.5 * LN2, abs=1e-12)
        assert r0.oci == pytest.approx(0.0, abs=1e-12)

    def test_summand_frozen_values(self, report):
        r1 = report.results[1]
        assert r1.mi.mean == pytest.approx(0.3465735902799725, abs=1e-12)
        assert r1.fws.mean == pytest.approx(0.3465735902799729, abs=1e-12)
        assert r1.fwr_total == pytest.approx(0.6931471805599454, abs=1e-12)
        assert r1.oci == pytest.approx(0.0, abs=1e-12)
        # its only removal is the sum feature f0
        assert tuple(j for j, _ in r1.fwr_contributions) == (0,)


class TestRunOnTerc1:
    """Three mutually-protecting copies of f0: each candidate's theta is
    evaluated with the other copies still in context, so no copy is ever
    removed and all redundancy lists stay empty."""

    @pytest.fixture()
    def report(self, terc1_report):
        return terc1_report

    def test_no_feature_loses_a_candidate(self, report):
        for r in report.results:
            assert r.fwr_contributions == ()
            assert r.fwr_total == 0.0
            assert not any(ev.redundant for ev in r.evaluations)

    def test_copy_evaluations_are_zero(self, report):
        r0 = report.results[0]
        assert r0.candidate_order[:3] == (3, 4, 5)
        assert len(r0.evaluations) == 3
        for ev in r0.evaluations:
            assert not ev.redundant
            assert ev.theta.mean == pytest.approx(0.0, abs=1e-12)

    def test_rule_features_carry_synergy(self, report):
        assert report.results[1].fws.mean == pytest.approx(
            0.3465735902799727, abs=1e-12
        )
        assert report.results[2].fws.mean == pytest.approx(
            0.3465735902799727, abs=1e-12
        )
        # f0's copies hide its direct and synergistic value entirely
        assert report.results[0].mi.mean == pytest.approx(0.0, abs=1e-12)
        assert report.results[0].fws.mean == pytest.approx(0.0, abs=1e-12)

    def test_related_sets_are_the_copies(self, report):
        assert report.results[0].related_set == FeatureSubset.of(3, 4, 5)
        assert report.results[3].related_set == FeatureSubset.of(0, 4, 5)
        assert report.results[1].related_set == FeatureSubset.of()


class TestRunOnPairsum:
    @pytest.fixture()
    def report(self, pairsum_report):
        return pairsum_report

    def test_copy_absorbs_everything(self, report):
        r0 = report.results[0]
        assert r0.mi.mean == pytest.approx(0.3465735902799725, abs=1e-12)
        assert r0.fws.mean == pytest.approx(0.3465735902799729, abs=1e-12)
        assert r0.fwr_total == pytest.approx(r0.mci, abs=1e-12)
        assert r0.oci == pytest.approx(0.0, abs=1e-12)
        # the single removal is the exact copy f2, charged -theta = ln2
        assert tuple(j for j, _ in r0.fwr_contributions) == (2,)
        assert r0.fwr_contributions[0][1].mean == pytest.approx(LN2, abs=1e-12)


@pytest.mark.parametrize("terc_rule", TERC_RULES)
@pytest.mark.parametrize("dataset_id", POPULATION_IDS)
def test_contributions_are_the_redundant_evaluations(dataset_id, terc_rule):
    """Each feature's pass orders every other feature, and evaluates its
    candidates in that order; the result reads its partner sets and
    redundancy contributions from those evaluations."""
    report = run_pidf(population_table(dataset_id, terc_rule))
    for r in report.results:
        others = [j for j in range(report.n_features) if j != r.index]
        assert sorted(r.candidate_order) == others
        assert [ev.candidate for ev in r.evaluations] == [
            j for j in r.candidate_order if j in r.related_set
        ]


class TestNetTelescopes:
    """mi + fws - sum of removal charges collapses to the feature's overall
    unique contribution I(Y; all) - I(Y; all except the feature)."""

    @pytest.mark.parametrize("dataset_id", POPULATION_IDS)
    def test_population_tables(self, dataset_id):
        data = population_table(dataset_id)
        report = run_pidf(data)
        everything = FeatureSubset.full(data.n_features)
        total = oracle_mi(data, everything, TARGET)
        for r in report.results:
            rest = everything - {r.index}
            expected = total - oracle_mi(data, rest, TARGET)
            assert r.net_ensemble().mean == pytest.approx(expected, abs=1e-9), r.name


class TestBruteForce:
    def test_pairsum_maximizers(self):
        data = population_table("pairsum")
        best, maximizers = brute_force_fws(data, 0)
        assert best.mean == pytest.approx(0.3465735902799729, abs=1e-12)
        assert maximizers == (
            FeatureSubset.of(1),
            FeatureSubset.of(3),
            FeatureSubset.of(1, 3),
        )

    def test_empty_set_ties_when_no_synergy(self):
        data = population_table("rvq")
        best, maximizers = brute_force_fws(data, 0)
        assert best.mean == pytest.approx(0.0, abs=1e-12)
        assert FeatureSubset.of() in maximizers
        # ordered by size then indices, so the empty set leads
        assert maximizers[0] == FeatureSubset.of()

    def test_agrees_with_run_for_clean_cases(self):
        data = population_table("svq")
        report = run_pidf(data)
        for idx in range(data.n_features):
            best, _ = brute_force_fws(data, idx)
            assert report.results[idx].fws.mean <= best.mean + 1e-9

    def test_cap(self):
        from test_plugin_pins import binary_table

        with pytest.raises(SubsetCapError):
            brute_force_fws(binary_table(50, 16, 0), 0)
        with pytest.raises(TypeError):
            brute_force_fws(population_table("terc1"), 0, cap=3)

    def test_bad_feature(self):
        data = population_table("rvq")
        with pytest.raises(ConfigError):
            brute_force_fws(data, 99)


class TestConfigHandling:
    def test_default_config_picks_estimator(self):
        disc = population_table("rvq")
        assert isinstance(default_config(disc).kind, ExactDiscrete)

    def test_repetitions_flow_through(self):
        data = population_table("rvq")
        cfg = EstimatorConfig(kind=ExactDiscrete(), repetitions=3, base_seed=7)
        report = run_pidf(data, cfg)
        assert report.estimator.repetitions == 3
        assert report.results[0].mi.n == 3

    def test_bad_alpha(self):
        data = population_table("rvq")
        with pytest.raises(ConfigError):
            run_pidf(data, alpha=-0.1)

    @pytest.mark.parametrize("eps_zero", [-1.0, math.nan, math.inf])
    def test_bad_eps_zero(self, eps_zero):
        data = population_table("rvq")
        with pytest.raises(ConfigError, match="eps_zero"):
            run_pidf(data, eps_zero=eps_zero)
