"""Brute-force reference implementations for discrete data.

Everything here is an independent, slow, exact code path used by tests and
the ``verify`` CLI command: joint-distribution entropies by pure-Python
frequency counting, mutual information from those entropies, exhaustive
power-set synergy/redundancy, and direct checks of the two algebraic
decomposition statements. Nothing in this module touches the numpy-based
estimators, so agreement between the two paths is meaningful evidence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

from .types import (
    _TARGET_ID,
    Dataset,
    FeatureSubset,
    GroupLike,
    OracleUnsupportedError,
    SubsetCapError,
    _group_ids,
)

# Tolerance of every exact comparison: synergy ties, the theorem and
# assumption checks, and the checks of ``pidf verify``.
TOLERANCE = 1e-9

# Largest feature counts the power-set enumerations accept: the per-feature
# decomposition, and the checks that enumerate a power set per feature pair.
_POWER_SET_CAP = 15
_CHECK_CAP = 10

_Y = frozenset({_TARGET_ID})


class ExactOracle:
    """Exact plug-in information quantities over one discrete dataset.

    The public methods take column groups as ``estimate_mi`` does: TARGET,
    a FeatureSubset or whole-number feature indices. The exhaustive
    searches below ask the private methods with resolved id sets (feature
    index, or _TARGET_ID for the target). Entropies are memoized per
    column set because those searches revisit the same groups many times.
    """

    def __init__(self, data: Dataset):
        for i in (*range(data.n_features), _TARGET_ID):
            if not data.kind(i).is_discrete:
                name = "target" if i == _TARGET_ID else repr(data.feature_names[i])
                raise OracleUnsupportedError(
                    f"oracle requires discrete columns; {name} is continuous")
        self._n = data.n_samples
        self._n_features = data.n_features
        self._columns: dict[int, tuple[int, ...]] = {
            i: tuple(int(v) for v in data.column(i))
            for i in range(_TARGET_ID, data.n_features)
        }
        self._entropy_cache: dict[frozenset[int], float] = {}

    def _ids(self, group: GroupLike) -> frozenset[int]:
        return frozenset(_group_ids(group, self._n_features))

    def entropy(self, group: GroupLike) -> float:
        """Shannon entropy of a column group, in nats."""
        return self._entropy(self._ids(group))

    def mi(self, left: GroupLike, right: GroupLike) -> float:
        """I(left; right) in nats."""
        return self._mi(self._ids(left), self._ids(right))

    def cmi(self, a: GroupLike, b: GroupLike, cond: GroupLike) -> float:
        """I(a; b | cond) in nats."""
        a, b, cond = self._ids(a), self._ids(b), self._ids(cond)
        value = (
            self._entropy(a | cond)
            + self._entropy(b | cond)
            - self._entropy(a | b | cond)
            - self._entropy(cond)
        )
        return max(0.0, value)

    def theta(self, i: int, j: int, context: GroupLike = ()) -> float:
        """Candidate-effect measure: how adding feature j changes the
        information feature i contributes about the target, given context."""
        (i,), (j,) = (_group_ids((k,), self._n_features) for k in (i, j))
        context = self._ids(context)
        if _TARGET_ID in context:
            raise OracleUnsupportedError("context is a feature set; target not allowed")
        if i == j:
            raise OracleUnsupportedError("theta needs two distinct features")
        if i in context or j in context:
            raise OracleUnsupportedError("theta context must exclude i and j")
        with_j = self._mi(_Y, context | {i, j}) - self._mi(_Y, context | {j})
        without_j = self._mi(_Y, context | {i}) - self._mi(_Y, context)
        return with_j - without_j

    def _entropy(self, cols: Iterable[int]) -> float:
        """Entropy of a set of column ids, from the count of each distinct
        row of its columns.

        math.fsum rounds the exact sum of its terms once, so the order in
        which the counts come, and so the order of the columns, never
        changes a bit of the value.
        """
        key = frozenset(cols)
        if not key:
            return 0.0
        cached = self._entropy_cache.get(key)
        if cached is None:
            counts = Counter(zip(*(self._columns[c] for c in key))).values()
            acc = math.fsum(c * math.log(c) for c in counts)
            cached = max(0.0, math.log(self._n) - acc / self._n)
            self._entropy_cache[key] = cached
        return cached

    def _mi(self, left: Iterable[int], right: Iterable[int]) -> float:
        """I(left; right) of id sets; the sets may overlap."""
        left, right = frozenset(left), frozenset(right)
        value = self._entropy(left) + self._entropy(right) - self._entropy(left | right)
        return max(0.0, value)

    def _interaction(self, feature: int, partners: Iterable[int]) -> float:
        """II(target; feature; partners), positive for synergy."""
        partners = frozenset(partners)
        return (self._mi(_Y, partners | {feature}) - self._mi(_Y, {feature})
                - self._mi(_Y, partners))


def _require_cap(data: Dataset, cap: int, what: str) -> None:
    if data.n_features > cap:
        raise SubsetCapError(
            f"{what} over {data.n_features} features exceeds the cap of {cap}"
        )


def _power_set(items: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """Every subset of items, by size and then lexicographically."""
    return chain.from_iterable(
        combinations(items, size) for size in range(len(items) + 1)
    )


def _ties(values: Sequence[float]) -> tuple[float, list[int]]:
    """The largest of values, and the positions of the values within
    ``TOLERANCE`` of it, in order."""
    best = max(values)
    return best, [k for k, v in enumerate(values) if v >= best - TOLERANCE]


@dataclass(frozen=True)
class OracleFeature:
    """Definitional per-feature decomposition, from exhaustive enumeration;
    ``mci`` and ``oci`` are read from ``mi``, ``fws`` and ``fwr``."""

    index: int
    mi: float
    fws: float
    maximizers: tuple[FeatureSubset, ...]
    fwr: float

    @property
    def mci(self) -> float:
        return self.mi + self.fws

    @property
    def oci(self) -> float:
        return self.mci - self.fwr


def oracle_pidf(data: Dataset) -> tuple[OracleFeature, ...]:
    """Exhaustive per-feature synergy/redundancy decomposition.

    For every feature the synergy maximum is taken over the full power set
    of the remaining features (the empty set included, so the maximum is
    never negative), with no shortcut assumptions. Subsets within
    ``TOLERANCE`` of the maximum are all reported, ordered by size then
    lexicographically.
    """
    _require_cap(data, _POWER_SET_CAP, "exhaustive enumeration")
    oracle, n_features = ExactOracle(data), data.n_features
    out = []
    for i in range(n_features):
        rest = tuple(f for f in range(n_features) if f != i)
        subsets = tuple(_power_set(rest))
        fws, ties = _ties([oracle._interaction(i, subset) for subset in subsets])
        out.append(
            OracleFeature(
                index=i,
                mi=oracle._mi(_Y, {i}),
                fws=fws,
                maximizers=tuple(FeatureSubset(subsets[k]) for k in ties),
                fwr=fws - oracle._interaction(i, rest),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class TheoremReport:
    """Direct evaluation of the candidate-effect bounds on one dataset.

    ``bound_violations``: number of (i, j, context) triples whose
    candidate-effect value escapes [-I(F_i;F_j), 2H(F_i) - I(F_i;F_j)]
    beyond tolerance. The bounds presume features never combine
    synergistically to describe other features (see assumption_max_violation).
    """

    bound_violations: int
    n_theta_checked: int


def check_theorems(data: Dataset) -> TheoremReport:
    _require_cap(data, _CHECK_CAP, "theorem checking")
    oracle = ExactOracle(data)
    all_features = tuple(range(data.n_features))
    violations = 0
    n_checked = 0
    for i in all_features:
        h_i = oracle._entropy({i})
        for j in all_features:
            if j == i:
                continue
            pairwise = oracle._mi({i}, {j})
            lower = -pairwise
            upper = 2.0 * h_i - pairwise
            others = tuple(f for f in all_features if f not in (i, j))
            for context in _power_set(others):
                value = oracle.theta(i, j, context)
                n_checked += 1
                if lower - value > TOLERANCE or value - upper > TOLERANCE:
                    violations += 1
    return TheoremReport(violations, n_checked)


def assumption_max_violation(data: Dataset) -> float:
    """Worst case, over (i, j, P), of I(F_i;P) - I(F_i;P minus j) - I(F_i;F_j).

    Positive values mean some feature group tells more about F_i than its
    parts account for pairwise, the regime where the pairwise-MI redundancy
    screen (and the candidate-effect bounds) lose their guarantee.
    """
    _require_cap(data, _CHECK_CAP, "assumption checking")
    oracle = ExactOracle(data)
    all_features = tuple(range(data.n_features))
    worst = 0.0
    for i in all_features:
        rest = tuple(f for f in all_features if f != i)
        for subset in _power_set(rest):
            if not subset:
                continue
            whole = oracle._mi({i}, subset)
            for j in subset:
                without_j = oracle._mi({i}, frozenset(subset) - {j})
                pairwise = oracle._mi({i}, {j})
                worst = max(worst, whole - without_j - pairwise)
    return worst


def assumption_holds(data: Dataset) -> bool:
    """True when no feature group is synergistically redundant about another
    feature, the precondition for the pairwise redundancy screen."""
    return assumption_max_violation(data) <= TOLERANCE
