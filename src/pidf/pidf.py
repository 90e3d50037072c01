"""Per-feature synergy/redundancy decomposition (the main algorithm).

For each feature the pass estimates its MI with the target, screens the
other features for significant pairwise MI, walks those candidates in
descending pairwise-MI order evaluating the candidate-effect measure
theta against the current surviving context, removes candidates judged
redundant with 95% certainty, and finally measures synergy against the
pruned surviving set. All decisions run on EstimateEnsembles so both
deterministic and stochastic estimators share one significance rule.

Passes only read MI estimates, each a fixed function of its column ids
and repetition seed, so passes sharing one MiCache are independent. Under
ksg and mine, with two or more repetition threads, they run on up to two
pass threads per repetition thread (never more than the features), while
each estimate's repetitions run on the repetition pool; the results come
back in feature order, so the report is the same byte for byte. Under
exact and binned, on one usable CPU and in bench's forked workers, the
passes run one after another.
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
    """Memoizes MI ensembles per column-group pair for one (data, cfg) run.

    Keys are the groups' sorted column ids, canonicalized so I(A;B) and
    I(B;A) share one entry computed in one fixed orientation, making
    symmetry bit-exact even for estimators that are only statistically
    symmetric. A lookup resolves each group argument once (_group_ids); the
    cache a run makes for its passes (_of_resolved_ids) takes TARGET or a
    sorted tuple of feature ids in range as it is, since the passes build
    no other. A miss passes the resolved ids (TARGET for the target) to
    estimate_mi, whose per-dataset store bins and casts each column once
    and, for the plug-in kinds, computes each column group's entropy once.

    Passes running at once share one cache. The first asker of a key puts
    a held lock, its latch, in the entry and estimates the key; later
    askers wait on the latch. An estimator error is kept in the entry and
    raised to every asker.
    """

    def __init__(self, data: Dataset, cfg: EstimatorConfig):
        import threading

        self.data = data
        self.cfg = cfg
        # Key -> its ensemble, the error its estimate raised, or its latch.
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], object] = {}
        self._new_latch = threading.Lock
        self._resolved = False

    @classmethod
    def _of_resolved_ids(cls, data: Dataset, cfg: EstimatorConfig) -> "MiCache":
        """A cache whose callers pass only TARGET or sorted tuples of
        feature ids in range, which it takes as they are."""
        cache = cls(data, cfg)
        cache._resolved = True
        return cache

    def mi(self, left, right) -> EstimateEnsemble:
        """I(left; right), for groups as estimate_mi takes them."""
        if self._resolved:
            left_ids = _TARGET_IDS if left is TARGET else left
            right_ids = _TARGET_IDS if right is TARGET else right
        else:
            left_ids = _group_ids(left, self.data.n_features)
            right_ids = _group_ids(right, self.data.n_features)
        if right_ids < left_ids:
            left_ids, right_ids = right_ids, left_ids
        key = (left_ids, right_ids)
        hit = self._cache.get(key)
        if hit is None:
            latch = self._new_latch()
            latch.acquire()
            # setdefault is atomic: of two first askers, one puts its latch
            # and the other gets it. A lock around it cost 0.4 us more per
            # miss on a 2-vCPU VM, about 1% of an exact 20,000 x 12 run.
            hit = self._cache.setdefault(key, latch)
            if hit is latch:
                try:
                    hit = estimators.estimate_mi(self.data, _group(left_ids),
                                                 _group(right_ids), self.cfg)
                except BaseException as err:
                    hit = err
                    raise
                finally:
                    self._cache[key] = hit
                    latch.release()
                return hit
        if type(hit) is EstimateEnsemble:
            return hit
        if not isinstance(hit, BaseException):
            with hit:  # the latch opens once the first asker is done
                pass
            hit = self._cache[key]
        if isinstance(hit, BaseException):
            raise hit
        return hit


_TARGET_IDS = (_TARGET_ID,)


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
    return _theta(MiCache(data, cfg) if cache is None else cache, feature, candidate, ctx)


def _theta(cache: MiCache, feature: int, candidate: int,
           ctx: tuple[int, ...]) -> EstimateEnsemble:
    """theta of resolved ids: a feature, another as the candidate, and the
    sorted context, which holds neither."""
    with_candidate = cache.mi(TARGET, _with(ctx, feature, candidate))
    base_candidate = cache.mi(TARGET, _with(ctx, candidate))
    with_feature = cache.mi(TARGET, _with(ctx, feature))
    base = cache.mi(TARGET, ctx)
    return EstimateEnsemble.linear(
        [(1.0, with_candidate), (-1.0, base_candidate), (-1.0, with_feature), (1.0, base)]
    )


def _fws(
    joint: EstimateEnsemble, partners: EstimateEnsemble, alone: EstimateEnsemble
) -> EstimateEnsemble:
    """Synergy of a feature with a partner set: I(Y; feature, partners)
    - I(Y; partners) - I(Y; feature), per seed."""
    return EstimateEnsemble.linear([(1.0, joint), (-1.0, partners), (-1.0, alone)])


def _pass_threads(data: Dataset, cfg: EstimatorConfig) -> int:
    """How many feature passes of (data, cfg) run at once.

    While one pass waits on the repetition pool, another keeps it busy, so
    ksg and mine run up to two passes per repetition thread, never more
    than the features. The plug-in store is not shared between threads,
    and one repetition thread (one usable CPU, or bench's forked workers)
    means the CPUs are already full: passes then run one at a time.
    """
    if cfg.is_deterministic:
        return 1
    repetition = estimators._ready_to_share(data, cfg.kind)
    return min(2 * repetition, data.n_features) if repetition > 1 else 1


def _in_feature_order(one_pass, n_features: int,
                      threads: int) -> tuple[PidfFeatureResult, ...]:
    """one_pass of each feature, in feature order: one after another below
    two threads, else on that many pass threads, which end with the call.
    After an error or an interrupt, passes not yet started never run."""
    if threads < 2:
        return tuple(map(one_pass, range(n_features)))
    from concurrent.futures import ThreadPoolExecutor

    failed = False

    def unless_failed(i: int) -> PidfFeatureResult | None:
        # Passes start in feature order, so one not started when another
        # fails comes after it, and map raises before it reads its result.
        nonlocal failed
        if failed:
            return None
        try:
            return one_pass(i)
        except BaseException:
            failed = True
            raise

    pool = ThreadPoolExecutor(threads, thread_name_prefix="pidf-pass")
    try:
        return tuple(pool.map(unless_failed, range(n_features)))
    finally:
        pool.shutdown(cancel_futures=True)


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
    # alpha and eps_zero are checked above, and lookups pass sorted id
    # tuples; FeatureSubsets are built only for what the report holds.
    n_features = data.n_features
    cache = MiCache._of_resolved_ids(data, cfg)

    def one_pass(i: int) -> PidfFeatureResult:
        name = data.feature_names[i]
        try:
            mi_i = cache.mi(TARGET, (i,))
            pairwise = {j: cache.mi((i,), (j,)) for j in range(n_features) if j != i}
        except EstimatorError as err:
            raise EstimatorError(f"feature {name!r}: {err}") from err
        order = tuple(sorted(pairwise, key=lambda j: (-pairwise[j].mean, j)))
        surviving = [j for j in range(n_features) if j != i]
        evaluations = []
        for j in order:
            if not _positive(pairwise[j], alpha, eps_zero):
                continue
            context = tuple(k for k in surviving if k != j)
            try:
                th = _theta(cache, i, j, context)
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
            joint = cache.mi(TARGET, _with(partners, i))
            partners_only = cache.mi(TARGET, partners)
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

    results = _in_feature_order(one_pass, n_features, _pass_threads(data, cfg))
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
