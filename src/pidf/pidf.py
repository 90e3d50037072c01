"""Per-feature synergy/redundancy decomposition (the main algorithm).

For each feature the pass estimates its MI with the target, screens the
other features for significant pairwise MI, walks those candidates in
descending pairwise-MI order evaluating the candidate-effect measure
theta against the current surviving context, removes candidates judged
redundant with 95% certainty, and finally measures synergy against the
pruned surviving set. All decisions run on EstimateEnsembles so both
deterministic and stochastic estimators share one significance rule.

Passes only read MI estimates, each a fixed function of its column ids
and repetition seed, so every pass goes in lockstep over one cache
(_lockstep): each pass is a generator that asks for the keys it needs
next, and each round estimates the keys not yet cached together, the
plug-in kinds in the calling thread and ksg and mine as (key, seed) tasks
on the repetition pool. The passes resume in feature order, so the report
and the first failing pass's error are the same byte for byte as passes
run one after another give.
"""

from __future__ import annotations

import operator
from typing import Iterable

from .estimators import EstimatorConfig, ExactDiscrete, Ksg
from .oracle import _POWER_SET_CAP, _power_set, _require_cap, _ties
from .types import (
    _TARGET_ID,
    TARGET,
    ConfigError,
    Dataset,
    EstimateEnsemble,
    EstimatorError,
    FeatureSubset,
    PidfFeatureResult,
    PidfReport,
    ThetaEvaluation,
    _group_ids,
    require_alpha,
    require_nonnegative,
)
from . import estimators

DEFAULT_ALPHA = 0.05

# Smallest estimated effect (nats) that a deterministic estimator treats as
# real. Plug-in MI of an independent pair fluctuates at the chi-squared
# scale df/(2n), about 5e-4 at n=1000, so the default sits far above that
# noise floor while staying far below the smallest genuine effect in the
# bundled benchmark datasets (~0.039 nats). Scale it down for much larger n.
DEFAULT_EPS_ZERO = 0.01


def default_config(
    data: Dataset, repetitions: int = 5, base_seed: int = 0
) -> EstimatorConfig:
    """Exact plug-in estimation for all-discrete data, k-NN otherwise."""
    kind = ExactDiscrete() if data.all_discrete else Ksg()
    return EstimatorConfig(kind=kind, repetitions=repetitions, base_seed=base_seed)


def significantly_positive(
    ensemble: EstimateEnsemble,
    alpha: float = DEFAULT_ALPHA,
    eps_zero: float = DEFAULT_EPS_ZERO,
) -> bool:
    """True when the ensemble is positive with the required certainty.

    Deterministic ensembles compare the value against eps_zero directly
    (a value of exactly eps_zero is not significant). Stochastic ensembles
    run a one-sided Student-t test of mean > 0 at level alpha; the p-value
    is the t survival function, P(T > stat) = stdtr(n - 1, -stat).

    This checks alpha and eps_zero, then decides in _positive, the one
    significance test; run_pidf checks them once and calls _positive.
    """
    require_alpha(alpha)
    require_nonnegative(eps_zero, "eps_zero")
    return _positive(ensemble, alpha, eps_zero)


def is_redundant(
    ensemble: EstimateEnsemble,
    alpha: float = DEFAULT_ALPHA,
    eps_zero: float = DEFAULT_EPS_ZERO,
) -> bool:
    """True when the ensemble is negative with the required certainty.

    The same test as significantly_positive on the negated estimates, which
    is exact: negation commutes with rounding in the mean and the std.
    """
    return significantly_positive(ensemble.map(operator.neg), alpha, eps_zero)


def _positive(ensemble: EstimateEnsemble, alpha: float, eps_zero: float) -> bool:
    """significantly_positive's decision, for an alpha and eps_zero already
    checked."""
    if ensemble.is_deterministic:
        return ensemble.mean > eps_zero
    from scipy.special import stdtr

    stat = ensemble.mean / (ensemble.std / ensemble.n**0.5)
    return float(stdtr(ensemble.n - 1, -stat)) < alpha


def _redundant(ensemble: EstimateEnsemble, alpha: float, eps_zero: float) -> bool:
    """is_redundant's decision, for an alpha and eps_zero already checked."""
    return _positive(ensemble.map(operator.neg), alpha, eps_zero)


class MiCache:
    """Memoizes MI ensembles per column-group pair for one (data, cfg).

    Keys are the groups' sorted column ids, canonicalized so I(A;B) and
    I(B;A) share one entry computed in one fixed orientation, making
    symmetry bit-exact even for estimators that are only statistically
    symmetric. A lookup resolves each group argument once (_group_ids) and
    passes a miss's ids (TARGET for the target) to estimate_mi, whose
    per-dataset store bins and casts each column once and, for the plug-in
    kinds, computes each column group's entropy once. It serves theta and
    brute_force_fws; run_pidf keys its own dict the same way (_lockstep).
    """

    def __init__(self, data: Dataset, cfg: EstimatorConfig):
        self.data = data
        self.cfg = cfg
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], EstimateEnsemble] = {}

    def mi(self, left, right) -> EstimateEnsemble:
        """I(left; right), for groups as estimate_mi takes them."""
        n_features = self.data.n_features
        return self._of(_key(_group_ids(left, n_features), _group_ids(right, n_features)))

    def _of(self, key: tuple[tuple[int, ...], tuple[int, ...]]) -> EstimateEnsemble:
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = estimators.estimate_mi(
                self.data, _group(key[0]), _group(key[1]), self.cfg)
        return hit


_TARGET_IDS = (_TARGET_ID,)


def _key(left: tuple[int, ...], right: tuple[int, ...]):
    """The cache key of I(left; right) for resolved ids: the smaller first."""
    return (left, right) if left <= right else (right, left)


def _group(ids: tuple[int, ...]):
    """The group argument of resolved ids: TARGET for the target's."""
    return TARGET if ids == _TARGET_IDS else ids


def _with(ids: tuple[int, ...], *more: int) -> tuple[int, ...]:
    """Sorted ids with more ids, none of them among ids, added."""
    return tuple(sorted((*ids, *more)))


def theta(
    data: Dataset,
    feature: int,
    candidate: int,
    context: "FeatureSubset | Iterable[int]",
    cfg: EstimatorConfig,
    cache: MiCache | None = None,
) -> EstimateEnsemble:
    """Per-seed effect of the candidate on the feature's target information.

    theta_r = [I(Y; feature, context, candidate) - I(Y; context, candidate)]
            - [I(Y; feature, context) - I(Y; context)], each term estimated
    under repetition seed r. Negative values mean the candidate already
    carries the feature's contribution (redundancy); positive values mean
    the pair is synergistic.
    """
    n_features = data.n_features
    (feature,), (candidate,) = (_group_ids((i,), n_features) for i in (feature, candidate))
    ctx = _group_ids(context, n_features)
    if feature == candidate:
        raise ConfigError("feature and candidate must differ")
    if {feature, candidate, _TARGET_ID} & set(ctx):
        raise ConfigError("context must exclude the target, feature and candidate")
    cache = MiCache(data, cfg) if cache is None else cache
    return _theta(*map(cache._of, _theta_keys(feature, candidate, ctx)))


def _theta_keys(feature: int, candidate: int, ctx: tuple[int, ...]):
    """The keys of theta's four terms, in _theta's order, for resolved ids:
    a feature, another as the candidate, and the sorted context, which
    holds neither."""
    return [_key(_TARGET_IDS, group) for group in (
        _with(ctx, feature, candidate), _with(ctx, candidate), _with(ctx, feature), ctx)]


def _theta(with_candidate: EstimateEnsemble, base_candidate: EstimateEnsemble,
           with_feature: EstimateEnsemble, base: EstimateEnsemble) -> EstimateEnsemble:
    """theta of its four terms, I(Y; ...) of the groups of _theta_keys."""
    return EstimateEnsemble.linear(
        [(1.0, with_candidate), (-1.0, base_candidate), (-1.0, with_feature), (1.0, base)]
    )


def _fws(
    joint: EstimateEnsemble, partners: EstimateEnsemble, alone: EstimateEnsemble
) -> EstimateEnsemble:
    """Synergy of a feature with a partner set: I(Y; feature, partners)
    - I(Y; partners) - I(Y; feature), per seed."""
    return EstimateEnsemble.linear([(1.0, joint), (-1.0, partners), (-1.0, alone)])


def _feature_pass(data: Dataset, i: int, alpha: float, eps_zero: float):
    """Feature i's pass, as a generator: it yields the cache keys it needs
    next, is sent their ensembles in that order, and returns the feature's
    result. An estimate's error is thrown in at the yield that asked for
    it and leaves the pass with the feature (and candidate) named.

    alpha and eps_zero come checked, and FeatureSubsets are built only for
    what the report holds.
    """
    name = data.feature_names[i]
    others = [j for j in range(data.n_features) if j != i]
    try:
        mi_i, *pairs = yield [(_TARGET_IDS, (i,)), *(_key((i,), (j,)) for j in others)]
    except EstimatorError as err:
        raise EstimatorError(f"feature {name!r}: {err}") from err
    pairwise = dict(zip(others, pairs))
    order = tuple(sorted(others, key=lambda j: (-pairwise[j].mean, j)))
    surviving = others
    evaluations = []
    for j in order:
        if not _positive(pairwise[j], alpha, eps_zero):
            continue
        context = tuple(k for k in surviving if k != j)
        try:
            th = _theta(*(yield _theta_keys(i, j, context)))
        except EstimatorError as err:
            raise EstimatorError(
                f"feature {name!r}, candidate {data.feature_names[j]!r}: {err}"
            ) from err
        verdict = _redundant(th, alpha, eps_zero)
        evaluations.append(ThetaEvaluation(j, FeatureSubset(context), th, verdict))
        if verdict:
            surviving.remove(j)
    partners = tuple(surviving)
    try:
        joint, partners_only = yield [_key(_TARGET_IDS, _with(partners, i)),
                                      _key(_TARGET_IDS, partners)]
    except EstimatorError as err:
        raise EstimatorError(f"feature {name!r}: {err}") from err
    return PidfFeatureResult(
        index=i,
        name=name,
        mi=mi_i,
        fws=_fws(joint, partners_only, mi_i),
        candidate_order=order,
        evaluations=tuple(evaluations),
    )


def _lockstep(data: Dataset, cfg: EstimatorConfig, passes: list) -> tuple:
    """Each pass's result, driving the passes in lockstep over one cache.

    Each round gathers the keys the live passes ask for, estimates those
    not cached in one estimators._estimate_round, then resumes the passes in
    order: each is sent its ensembles, or thrown the error of its first
    failing key. Every key is estimated once, errors included. A pass that
    raises drops the passes after it, and once the passes before it end,
    the first failing pass's error is raised, as running the passes one
    after another would raise it.
    """
    cache: dict = {}
    results: list = [None] * len(passes)
    failure = None
    asks = {k: next(one) for k, one in enumerate(passes)}
    while asks:
        missing = list(dict.fromkeys(
            key for keys in asks.values() for key in keys if key not in cache))
        if missing:
            cache.update(zip(missing, estimators._estimate_round(data, missing, cfg)))
        for k, keys in list(asks.items()):
            values = [cache[key] for key in keys]
            error = next((v for v in values if type(v) is not EstimateEnsemble), None)
            try:
                asks[k] = passes[k].send(values) if error is None else passes[k].throw(error)
            except StopIteration as done:
                results[k] = done.value
                del asks[k]
            except Exception as err:
                failure = err
                asks = {m: v for m, v in asks.items() if m < k}
                break
    if failure is not None:
        raise failure
    return tuple(results)


def run_pidf(
    data: Dataset,
    cfg: EstimatorConfig | None = None,
    alpha: float = DEFAULT_ALPHA,
    eps_zero: float = DEFAULT_EPS_ZERO,
) -> PidfReport:
    """Full decomposition pass over every feature.

    Each feature's result is built from its MI, its synergy and its pass:
    the candidate order and every theta evaluation, removals included.
    """
    if cfg is None:
        cfg = default_config(data)
    require_alpha(alpha)
    require_nonnegative(eps_zero, "eps_zero")
    if data.n_features < 1:
        raise ConfigError("need at least one feature")
    results = _lockstep(data, cfg, [_feature_pass(data, i, alpha, eps_zero)
                                    for i in range(data.n_features)])
    return PidfReport(
        results=results,
        feature_names=data.feature_names,
        target_name=data.target_name,
        n_samples=data.n_samples,
        estimator=cfg,
        alpha=alpha,
        eps_zero=eps_zero,
        dataset_seed=data.seed,
        dataset_source=data.source,
    )


def brute_force_fws(
    data: Dataset,
    feature: int,
    cfg: EstimatorConfig | None = None,
) -> tuple[EstimateEnsemble, tuple[FeatureSubset, ...]]:
    """Exhaustive synergy maximum over the power set of the other features.

    Returns the maximizing ensemble and every subset whose mean ties the
    maximum within ``TOLERANCE``, ordered by subset size then lexicographic
    order. The empty set always competes, so the maximum mean is >= 0 for
    estimators without negative noise. Refuses more than 15 features, as
    ``oracle_pidf`` does.
    """
    if cfg is None:
        cfg = default_config(data)
    _require_cap(data, _POWER_SET_CAP, "exhaustive search")
    (feature,) = _group_ids((feature,), data.n_features)
    cache = MiCache(data, cfg)
    rest = [j for j in range(data.n_features) if j != feature]
    mi_i = cache.mi(TARGET, (feature,))
    subsets = tuple(_power_set(rest))
    ensembles = [
        _fws(cache.mi(TARGET, _with(subset, feature)), cache.mi(TARGET, subset), mi_i)
        for subset in subsets
    ]
    _, ties = _ties([ens.mean for ens in ensembles])
    return ensembles[ties[0]], tuple(FeatureSubset(subsets[k]) for k in ties)
