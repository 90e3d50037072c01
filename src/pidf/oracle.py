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
    TARGET,
    Dataset,
    FeatureSubset,
    OracleUnsupportedError,
    SubsetCapError,
    _TargetMarker,
)

_TARGET_KEY = -1

# Tolerance of every exact comparison: synergy ties, the theorem and
# assumption checks, and the checks of ``pidf verify``.
TOLERANCE = 1e-9

# Largest feature counts the power-set enumerations accept: the per-feature
# decomposition, and the checks that enumerate a power set per feature pair.
_POWER_SET_CAP = 15
_CHECK_CAP = 10

GroupLike = "FeatureSubset | _TargetMarker | Iterable[int]"


@dataclass(frozen=True)
class JointTable:
    """Empirical joint distribution of a column group.

    Outcomes are stored sorted so every accumulation below iterates in a
    fixed order, which keeps the floating-point sums bit-reproducible.
    """

    outcomes: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise OracleUnsupportedError("joint table needs at least one row")
        if len(self.outcomes) != len(self.counts):
            raise OracleUnsupportedError("outcome/count length mismatch")
        if any(c <= 0 for c in self.counts):
            raise OracleUnsupportedError("joint table counts must be positive")
        if sum(self.counts) != self.n:
            raise OracleUnsupportedError("joint table counts must sum to n")
        total = math.fsum(c / self.n for c in self.counts)
        if abs(total - 1.0) > 1e-12:
            raise OracleUnsupportedError("probabilities must sum to 1")

    @staticmethod
    def from_rows(rows: Iterable[tuple[int, ...]]) -> "JointTable":
        counter = Counter(rows)
        items = sorted(counter.items())
        n = sum(counter.values())
        return JointTable(
            outcomes=tuple(k for k, _ in items),
            counts=tuple(v for _, v in items),
            n=n,
        )

    @property
    def probabilities(self) -> dict[tuple[int, ...], float]:
        return {o: c / self.n for o, c in zip(self.outcomes, self.counts)}

    def entropy(self) -> float:
        """Shannon entropy in nats, accumulated over sorted outcomes."""
        acc = math.fsum(c * math.log(c) for c in self.counts)
        return max(0.0, math.log(self.n) - acc / self.n)


class ExactOracle:
    """Exact plug-in information quantities over one discrete dataset.

    Columns are addressed by feature index; the target is the reserved key
    -1. Entropies are memoized per column-set because the exhaustive
    enumerations below revisit the same groups many times.
    """

    def __init__(self, data: Dataset):
        for name, kind in zip(data.feature_names, data.kinds):
            if not kind.is_discrete:
                raise OracleUnsupportedError(
                    f"oracle requires discrete columns; {name!r} is continuous"
                )
        if not data.target_kind.is_discrete:
            raise OracleUnsupportedError(
                "oracle requires discrete columns; target is continuous"
            )
        self.n_features = data.n_features
        self._columns: dict[int, tuple[int, ...]] = {
            i: tuple(int(v) for v in data.features[:, i])
            for i in range(data.n_features)
        }
        self._columns[_TARGET_KEY] = tuple(int(v) for v in data.target)
        self._entropy_cache: dict[frozenset[int], float] = {}

    def _rows(self, cols: frozenset[int]) -> Iterable[tuple[int, ...]]:
        ordered = sorted(cols)
        pulled = [self._columns[c] for c in ordered]
        return zip(*pulled) if pulled else (() for _ in self._columns[_TARGET_KEY])

    def table(self, cols: Iterable[int]) -> JointTable:
        return JointTable.from_rows(self._rows(frozenset(cols)))

    def entropy(self, cols: Iterable[int]) -> float:
        key = frozenset(cols)
        if not key:
            return 0.0
        cached = self._entropy_cache.get(key)
        if cached is None:
            cached = self.table(key).entropy()
            self._entropy_cache[key] = cached
        return cached

    def mi(self, left: Iterable[int], right: Iterable[int]) -> float:
        """I(left; right) in nats. Valid for any column groups: duplicate
        columns inside the joint group contribute no extra entropy."""
        left = frozenset(left)
        right = frozenset(right)
        value = self.entropy(left) + self.entropy(right) - self.entropy(left | right)
        return max(0.0, value)

    def cmi(self, a: Iterable[int], b: Iterable[int], cond: Iterable[int]) -> float:
        """I(a; b | cond) in nats."""
        a, b, cond = frozenset(a), frozenset(b), frozenset(cond)
        value = (
            self.entropy(a | cond)
            + self.entropy(b | cond)
            - self.entropy(a | b | cond)
            - self.entropy(cond)
        )
        return max(0.0, value)

    def interaction(self, feature: int, partners: Iterable[int]) -> float:
        """II(target; feature; partners), positive for synergy."""
        partners = frozenset(partners)
        y = frozenset({_TARGET_KEY})
        return (
            self.mi(y, partners | {feature})
            - self.mi(y, {feature})
            - self.mi(y, partners)
        )

    def theta(self, i: int, j: int, context: Iterable[int]) -> float:
        """Candidate-effect measure: how adding column j changes the
        information column i contributes about the target, given context."""
        context = frozenset(context)
        if i == j:
            raise OracleUnsupportedError("theta needs two distinct features")
        if i in context or j in context:
            raise OracleUnsupportedError("theta context must exclude i and j")
        y = frozenset({_TARGET_KEY})
        with_j = self.mi(y, context | {i, j}) - self.mi(y, context | {j})
        without_j = self.mi(y, context | {i}) - self.mi(y, context)
        return with_j - without_j


def _resolve_group(group: "GroupLike") -> frozenset[int]:
    if isinstance(group, _TargetMarker):
        return frozenset({_TARGET_KEY})
    if isinstance(group, FeatureSubset):
        return frozenset(group.indices)
    return frozenset(int(i) for i in group)


def oracle_entropy(data: Dataset, group: "GroupLike") -> float:
    """Exact plug-in entropy of a column group, in nats."""
    return ExactOracle(data).entropy(_resolve_group(group))


def oracle_mi(data: Dataset, left: "GroupLike", right: "GroupLike") -> float:
    """Exact plug-in MI between two column groups, in nats."""
    oracle = ExactOracle(data)
    return oracle.mi(_resolve_group(left), _resolve_group(right))


def oracle_theta(
    data: Dataset, i: int, j: int, context: "FeatureSubset | Iterable[int]" = ()
) -> float:
    """Exact candidate-effect value for feature i, candidate j, context."""
    oracle = ExactOracle(data)
    ctx = _resolve_group(context)
    if _TARGET_KEY in ctx:
        raise OracleUnsupportedError("context is a feature set; target not allowed")
    return oracle.theta(i, j, ctx)


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
    """Definitional per-feature decomposition, from exhaustive enumeration."""

    index: int
    mi: float
    fws: float
    maximizers: tuple[FeatureSubset, ...]
    ii_full: float
    fwr: float
    mci: float
    oci: float


@dataclass(frozen=True)
class OraclePidf:
    features: tuple[OracleFeature, ...]


def oracle_pidf(data: Dataset) -> OraclePidf:
    """Exhaustive per-feature synergy/redundancy decomposition.

    For every feature the synergy maximum is taken over the full power set
    of the remaining features (the empty set included, so the maximum is
    never negative), with no shortcut assumptions. Subsets within
    ``TOLERANCE`` of the maximum are all reported, ordered by size then
    lexicographically.
    """
    _require_cap(data, _POWER_SET_CAP, "exhaustive enumeration")
    oracle = ExactOracle(data)
    all_features = tuple(range(data.n_features))
    out = []
    for i in all_features:
        rest = tuple(f for f in all_features if f != i)
        mi = oracle.mi({_TARGET_KEY}, {i})
        subsets = tuple(_power_set(rest))
        fws, ties = _ties([oracle.interaction(i, subset) for subset in subsets])
        maximizers = tuple(FeatureSubset(subsets[k]) for k in ties)
        ii_full = oracle.interaction(i, rest)
        fwr = fws - ii_full
        mci = mi + fws
        oci = mci - fwr
        out.append(
            OracleFeature(
                index=i,
                mi=mi,
                fws=fws,
                maximizers=maximizers,
                ii_full=ii_full,
                fwr=fwr,
                mci=mci,
                oci=oci,
            )
        )
    return OraclePidf(tuple(out))


@dataclass(frozen=True)
class TheoremReport:
    """Direct evaluation of the two decomposition statements on one dataset.

    ``max_identity_residual``: worst-case absolute error, over features, of
    mci - fwr against the direct marginal information I(Y;all) - I(Y;rest).
    ``bound_violations``: number of (i, j, context) triples whose
    candidate-effect value escapes [-I(F_i;F_j), 2H(F_i) - I(F_i;F_j)]
    beyond tolerance. The bounds presume features never combine
    synergistically to describe other features (see assumption_max_violation).
    """

    max_identity_residual: float
    bound_violations: int
    max_lower_excess: float
    max_upper_excess: float
    n_theta_checked: int


def check_theorems(data: Dataset) -> TheoremReport:
    _require_cap(data, _CHECK_CAP, "theorem checking")
    oracle = ExactOracle(data)
    decomposition = oracle_pidf(data)
    all_features = tuple(range(data.n_features))
    y = frozenset({_TARGET_KEY})

    max_residual = 0.0
    for feat in decomposition.features:
        rest = frozenset(f for f in all_features if f != feat.index)
        direct = oracle.mi(y, frozenset(all_features)) - oracle.mi(y, rest)
        max_residual = max(max_residual, abs((feat.mci - feat.fwr) - direct))

    violations = 0
    max_lower_excess = 0.0
    max_upper_excess = 0.0
    n_checked = 0
    for i in all_features:
        h_i = oracle.entropy({i})
        for j in all_features:
            if j == i:
                continue
            pairwise = oracle.mi({i}, {j})
            lower = -pairwise
            upper = 2.0 * h_i - pairwise
            others = tuple(f for f in all_features if f not in (i, j))
            for context in _power_set(others):
                value = oracle.theta(i, j, frozenset(context))
                n_checked += 1
                lower_excess = lower - value
                upper_excess = value - upper
                if lower_excess > TOLERANCE or upper_excess > TOLERANCE:
                    violations += 1
                max_lower_excess = max(max_lower_excess, lower_excess)
                max_upper_excess = max(max_upper_excess, upper_excess)
    return TheoremReport(
        max_identity_residual=max_residual,
        bound_violations=violations,
        max_lower_excess=max_lower_excess,
        max_upper_excess=max_upper_excess,
        n_theta_checked=n_checked,
    )


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
            whole = oracle.mi({i}, subset)
            for j in subset:
                without_j = oracle.mi({i}, frozenset(subset) - {j})
                pairwise = oracle.mi({i}, {j})
                worst = max(worst, whole - without_j - pairwise)
    return worst


def assumption_holds(data: Dataset) -> bool:
    """True when no feature group is synergistically redundant about another
    feature, the precondition for the pairwise redundancy screen."""
    return assumption_max_violation(data) <= TOLERANCE
