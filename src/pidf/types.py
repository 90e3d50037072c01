"""Core value types shared across the library.

Everything here is estimator-agnostic: units, feature subsets and the
column ids every group argument resolves to, ensembles of repeated
estimates, dataset containers, and the per-feature result records produced
by the decomposition. All information values are stored in nats;
conversion to bits happens only at presentation time.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence, Union

import numpy as np

LN2 = math.log(2.0)

NATS = "nats"
BITS = "bits"
_UNITS = (NATS, BITS)


class PidfError(Exception):
    """Base class for library errors."""


class ConfigError(PidfError):
    """Invalid configuration or argument combination."""


class DatasetError(PidfError):
    """Malformed, inconsistent, or unsupported input data."""


class EstimatorError(PidfError):
    """An estimator could not produce a finite estimate."""


class SubsetCapError(PidfError):
    """Exhaustive subset enumeration refused: too many features."""


class OracleUnsupportedError(PidfError):
    """Exact enumeration requested on data it cannot handle."""


class _TargetMarker:
    """Singleton marker naming the target column in group arguments."""

    _instance: "_TargetMarker | None" = None

    def __new__(cls) -> "_TargetMarker":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TARGET"


TARGET = _TargetMarker()

# The target's id among resolved column ids; feature i's id is i.
_TARGET_ID = -1


def convert_units(value_nats: float, unit: str) -> float:
    """Convert a value in nats to the requested output unit."""
    if unit == NATS:
        return value_nats
    if unit == BITS:
        return value_nats / LN2
    raise ConfigError(f"unknown unit {unit!r}; expected one of {_UNITS}")


def philox(seed: int, word: int) -> np.random.Generator:
    """Counter-based RNG stream keyed by ``[seed, word]`` (both mod 2**64).

    Every seeded draw in the library comes from here; callers keep their
    streams apart by the second key word.
    """
    key = [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(word & 0xFFFFFFFFFFFFFFFF)]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ColumnKind:
    """Type tag for one column: discrete with a known cardinality, or continuous."""

    is_discrete: bool
    cardinality: int | None = None

    def __post_init__(self) -> None:
        if self.is_discrete:
            object.__setattr__(self, "cardinality",
                               require_integer(self.cardinality, "cardinality"))
            if self.cardinality < 1:
                raise ConfigError("discrete columns need a cardinality >= 1")
        elif self.cardinality is not None:
            raise ConfigError("continuous columns take no cardinality")

    @staticmethod
    def discrete(cardinality: int) -> "ColumnKind":
        return ColumnKind(True, cardinality)

    @staticmethod
    def continuous() -> "ColumnKind":
        return ColumnKind(False, None)


@dataclass(frozen=True)
class FeatureSubset:
    """Immutable set of feature indices with set algebra and canonical order.

    Canonical form is a sorted tuple of unique non-negative ints, so equal
    subsets hash equally and iterate deterministically.
    """

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int] = ()) -> None:
        canonical = _canonical_ids(indices)
        if canonical and canonical[0] < 0:
            raise ConfigError("feature indices must be non-negative")
        object.__setattr__(self, "indices", canonical)

    def __contains__(self, index: object) -> bool:
        return index in self.indices

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __sub__(self, other: "FeatureSubset | Iterable[int]") -> "FeatureSubset":
        drop = set(other)
        return FeatureSubset(i for i in self.indices if i not in drop)

    def __and__(self, other: "FeatureSubset | Iterable[int]") -> "FeatureSubset":
        keep = set(other)
        return FeatureSubset(i for i in self.indices if i in keep)

    @staticmethod
    def of(*indices: int) -> "FeatureSubset":
        return FeatureSubset(indices)

    @staticmethod
    def full(n_features: int) -> "FeatureSubset":
        return FeatureSubset(range(n_features))

    def __repr__(self) -> str:
        inner = ", ".join(str(i) for i in self.indices)
        return f"FeatureSubset({{{inner}}})"


GroupLike = Union[FeatureSubset, _TargetMarker, Iterable[int]]


def _column_index(value: Any) -> int:
    """A column index as a plain int; anything but a whole number is refused."""
    try:
        index = int(value)
    except (TypeError, ValueError, OverflowError):
        index = None
    if index is None or index != value:
        raise ConfigError(f"column index {value!r} is not an integer")
    return index


def _canonical_ids(indices: Iterable[Any]) -> tuple[int, ...]:
    """The distinct column indices, each a whole number, sorted."""
    return tuple(sorted({_column_index(i) for i in indices}))


def _sorted_ints(group: object) -> bool:
    """Whether group is a tuple of ints, each larger than the one before."""
    if type(group) is not tuple:
        return False
    last = -math.inf
    for i in group:
        if type(i) is not int or i <= last:
            return False
        last = i
    return True


def _group_ids(group: GroupLike, n_features: int) -> tuple[int, ...]:
    """Normalize a group argument to sorted column ids (_TARGET_ID for the
    target) of a dataset with n_features features.

    A tuple of ints already sorted and unique is taken as it is, with no
    set built and no sort; any other iterable is read once, and each of its
    indices must be a whole number (_column_index).
    """
    if isinstance(group, _TargetMarker):
        return (_TARGET_ID,)
    if isinstance(group, FeatureSubset):
        ids = group.indices
    elif _sorted_ints(group):
        ids = group
    else:
        ids = _canonical_ids(group)
    # Sorted, the ids lie in range when their ends do.
    if ids and (ids[0] < 0 or ids[-1] >= n_features):
        for i in ids:
            if i == _TARGET_ID:
                raise ConfigError("use the TARGET marker, not index -1")
            if not 0 <= i < n_features:
                raise ConfigError(f"feature index {i} out of range")
    return ids


@dataclass(frozen=True)
class EstimateEnsemble:
    """Repeated estimates of one quantity, one per repetition seed.

    Deterministic estimators repeat the identical value; ``std`` is then
    exactly 0.0 and ``mean`` is exactly that value (the all-equal case is
    special-cased so float summation cannot smear the mean by an ulp).
    """

    estimates: tuple[float, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.estimates) != len(self.seeds):
            raise ConfigError("estimates and seeds must have equal length")
        if not self.estimates:
            raise ConfigError("an ensemble needs at least one estimate")
        if not all(map(math.isfinite, self.estimates)):
            raise EstimatorError(f"non-finite estimate in ensemble: {self.estimates}")

    @property
    def n(self) -> int:
        return len(self.estimates)

    @property
    def mean(self) -> float:
        first = self.estimates[0]
        if self.estimates.count(first) == self.n:
            return first
        return float(np.mean(self.estimates))

    @property
    def std(self) -> float:
        if self.estimates.count(self.estimates[0]) == self.n:
            return 0.0
        return float(np.std(self.estimates, ddof=1))

    @property
    def is_deterministic(self) -> bool:
        return self.n == 1 or self.std == 0.0

    @staticmethod
    def constant(value: float, seeds: Sequence[int]) -> "EstimateEnsemble":
        return EstimateEnsemble((float(value),) * len(seeds), tuple(seeds))

    @staticmethod
    def linear(
        terms: Sequence[tuple[float, "EstimateEnsemble"]],
    ) -> "EstimateEnsemble":
        """Per-seed linear combination ``sum(coef * ensemble)``.

        All ensembles must share the same seed tuple so that per-repetition
        values combine coherently.
        """
        if not terms:
            raise ConfigError("linear combination needs at least one term")
        seeds = terms[0][1].seeds
        for _, ens in terms:
            if ens.seeds != seeds:
                raise ConfigError("ensembles in a linear combination must share seeds")
        values = tuple(
            float(sum(coef * ens.estimates[r] for coef, ens in terms))
            for r in range(len(seeds))
        )
        return EstimateEnsemble(values, seeds)

    def map(self, fn: Any) -> "EstimateEnsemble":
        return EstimateEnsemble(tuple(float(fn(e)) for e in self.estimates), self.seeds)


@dataclass(frozen=True)
class Dataset:
    """A tabular dataset: feature matrix, target vector, and column kinds."""

    feature_names: tuple[str, ...]
    features: np.ndarray
    target: np.ndarray
    kinds: tuple[ColumnKind, ...]
    target_kind: ColumnKind
    target_name: str = "target"
    seed: int | None = None
    source: str = "memory"

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        tgt = np.asarray(self.target, dtype=np.float64)
        if feats.ndim != 2:
            raise DatasetError("features must be a 2-d array (n_samples, n_features)")
        if tgt.ndim != 1:
            raise DatasetError("target must be a 1-d array")
        if feats.shape[0] != tgt.shape[0]:
            raise DatasetError(
                f"row mismatch: {feats.shape[0]} feature rows vs {tgt.shape[0]} targets"
            )
        if feats.shape[0] == 0:
            raise DatasetError("dataset has no rows")
        if len(self.feature_names) != feats.shape[1]:
            raise DatasetError("feature_names length must match feature count")
        if len(self.kinds) != feats.shape[1]:
            raise DatasetError("kinds length must match feature count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DatasetError("feature names must be unique")
        if self.target_name in self.feature_names:
            raise DatasetError("target name collides with a feature name")
        if not np.all(np.isfinite(feats)):
            raise DatasetError("features contain non-finite values")
        if not np.all(np.isfinite(tgt)):
            raise DatasetError("target contains non-finite values")
        for name, kind, col in zip(self.feature_names, self.kinds, feats.T):
            _check_kind(name, kind, col)
        _check_kind(self.target_name, self.target_kind, tgt)
        if self.seed is not None:
            object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        feats = feats.copy()
        tgt = tgt.copy()
        feats.setflags(write=False)
        tgt.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "target", tgt)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "kinds", tuple(self.kinds))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def all_discrete(self) -> bool:
        return self.target_kind.is_discrete and all(k.is_discrete for k in self.kinds)

    def column(self, i: int) -> np.ndarray:
        """The column of resolved id i: feature i, or the target at _TARGET_ID."""
        return self.target if i == _TARGET_ID else self.features[:, i]

    def kind(self, i: int) -> ColumnKind:
        """The kind of the column of resolved id i."""
        return self.target_kind if i == _TARGET_ID else self.kinds[i]


def _check_kind(name: str, kind: ColumnKind, col: np.ndarray) -> None:
    if not kind.is_discrete:
        return
    rounded = np.rint(col)
    if not np.array_equal(rounded, col):
        raise DatasetError(f"column {name!r} declared discrete but has non-integers")
    # The largest value compares as an exact integer: in float64 a
    # cardinality past 2**53 can round down to that value.
    if col.size and (col.min() < 0 or int(col.max()) >= kind.cardinality):
        raise DatasetError(
            f"column {name!r} has values outside [0, {kind.cardinality})"
        )


_DISCRETE_CAP = 32


def infer_kinds(table: np.ndarray) -> tuple[ColumnKind, ...]:
    """Guess a kind per column: a column of at most _DISCRETE_CAP distinct
    non-negative integers is discrete, any other continuous."""
    kinds = []
    for col in np.asarray(table, dtype=np.float64).T:
        distinct = np.unique(col)
        integral = np.array_equal(np.rint(distinct), distinct)
        if integral and distinct.size <= _DISCRETE_CAP and (
            distinct.size == 0 or distinct.min() >= 0
        ):
            card = int(distinct.max()) + 1 if distinct.size else 1
            kinds.append(ColumnKind.discrete(card))
        else:
            kinds.append(ColumnKind.continuous())
    return tuple(kinds)


def validate_dataset(
    table: np.ndarray,
    names: Sequence[str],
    target: str = "target",
    source: str = "memory",
) -> Dataset:
    """Build a Dataset from a combined table whose columns include the
    target, with every column's kind inferred."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise DatasetError("table must be 2-d")
    names = list(names)
    if len(names) != table.shape[1]:
        raise DatasetError("names length must match column count")
    if target not in names:
        raise DatasetError(f"target column {target!r} not found in {names}")
    t_idx = names.index(target)
    feat_idx = [i for i in range(table.shape[1]) if i != t_idx]
    if not feat_idx:
        raise DatasetError("need at least one feature column besides the target")
    feats = table[:, feat_idx]
    tgt = table[:, t_idx]
    return Dataset(
        feature_names=tuple(names[i] for i in feat_idx),
        features=feats,
        target=tgt,
        kinds=infer_kinds(feats),
        target_kind=infer_kinds(tgt.reshape(-1, 1))[0],
        target_name=target,
        source=source,
    )


@dataclass(frozen=True)
class ThetaEvaluation:
    """One candidate decision inside a feature's pass."""

    candidate: int
    context: FeatureSubset
    theta: EstimateEnsemble
    redundant: bool


@dataclass(frozen=True)
class PidfFeatureResult:
    """Decomposition output for one feature, with the pass that reached it.

    ``candidate_order`` lists the other features in descending pairwise-MI
    order, and ``evaluations`` holds the theta decision on each related
    candidate, in that order. The partner sets and the redundancy charges
    are read from that pass: ``related_set`` holds the evaluated candidates,
    the partners with significantly positive pairwise MI (only these can
    ever substitute for the feature); ``max_synergy_set`` is the candidates
    not judged redundant, the partner set the synergy estimate was measured
    against; and ``fwr_contributions`` maps each redundant candidate, by
    index, to its theta negated, so positive means redundancy.
    """

    index: int
    name: str
    mi: EstimateEnsemble
    fws: EstimateEnsemble
    candidate_order: tuple[int, ...]
    evaluations: tuple[ThetaEvaluation, ...]
    related_set: FeatureSubset = field(init=False)
    max_synergy_set: FeatureSubset = field(init=False)
    fwr_contributions: tuple[tuple[int, EstimateEnsemble], ...] = field(init=False)

    def __post_init__(self) -> None:
        removals = sorted((ev for ev in self.evaluations if ev.redundant),
                          key=operator.attrgetter("candidate"))
        object.__setattr__(self, "related_set",
                           FeatureSubset(ev.candidate for ev in self.evaluations))
        object.__setattr__(self, "max_synergy_set", FeatureSubset(
            self.candidate_order) - [ev.candidate for ev in removals])
        object.__setattr__(self, "fwr_contributions", tuple(
            (ev.candidate, ev.theta.map(operator.neg)) for ev in removals))

    @property
    def mi_value(self) -> float:
        return self.mi.mean

    @property
    def fws_value(self) -> float:
        return self.fws.mean

    @property
    def fwr_total(self) -> float:
        return float(sum(max(0.0, ens.mean) for _, ens in self.fwr_contributions))

    @property
    def mci(self) -> float:
        """Maximum conditional information: mi + fws."""
        return self.mi_value + self.fws_value

    @property
    def oci(self) -> float:
        """Overall conditional information: mci - fwr."""
        return self.mci - self.fwr_total

    @property
    def fws_noise_flag(self) -> bool:
        """True when the synergy estimate is within 2 std of zero."""
        return abs(self.fws.mean) < 2.0 * self.fws.std

    def net_ensemble(self) -> EstimateEnsemble:
        """Per-seed mci minus raw (unclamped) redundancy, for significance
        testing; the report-level clamp on fwr_total cannot bias this."""
        terms: list[tuple[float, EstimateEnsemble]] = [(1.0, self.mi), (1.0, self.fws)]
        terms.extend((-1.0, ens) for _, ens in self.fwr_contributions)
        return EstimateEnsemble.linear(terms)


@dataclass(frozen=True)
class PidfReport:
    """Full decomposition output for a dataset run."""

    results: tuple[PidfFeatureResult, ...]
    feature_names: tuple[str, ...]
    target_name: str
    n_samples: int
    estimator: Any
    alpha: float
    eps_zero: float
    dataset_seed: int | None = None
    dataset_source: str = "memory"

    def __post_init__(self) -> None:
        if len(self.results) != len(self.feature_names):
            raise ConfigError("one result per feature required")
        for i, res in enumerate(self.results):
            if res.index != i:
                raise ConfigError("results must be ordered by feature index")

    @property
    def n_features(self) -> int:
        return len(self.results)


@dataclass(frozen=True)
class SelectionResult:
    """Output of minimal-subset selection over a PidfReport."""

    selected: FeatureSubset
    phase1: FeatureSubset
    rationales: tuple[str, ...]

    @property
    def n_features(self) -> int:
        """The report's feature count: there is one rationale per feature."""
        return len(self.rationales)


@dataclass(frozen=True)
class Confusion:
    """Selection-vs-ground-truth counts."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.tp, self.fp, self.tn, self.fn)


def require_number(value: Any, name: str) -> float:
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def require_integer(value: Any, name: str) -> int:
    """The value as a plain int; bools and non-integers are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_probability(value: Any, name: str) -> float:
    value = require_number(value, name)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def require_nonnegative(value: Any, name: str) -> float:
    value = require_number(value, name)
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"{name} must be a finite number >= 0, got {value}")
    return value
