"""Seeded synthetic dataset generators and exact population tables.

Each generator draws every logical column from its own counter-based RNG
stream (Philox keyed by user seed and a per-column tag), so appending
columns or switching variants never perturbs the draws of earlier columns.

Most discrete datasets are functions of a few fair bits, and each is defined
once, in ``_FAIR_BIT``: the Philox tags of its bits, its cardinalities and
one map from bit columns to feature columns and target. ``generate`` feeds
that map seeded draws; ``population_table`` feeds it every combination of
the bits once, a table whose empirical distribution equals the definition's
exactly, used by golden tests that assert analytic values. ``sg`` draws its
own rows and lists its own weighted population.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .types import (
    ColumnKind,
    ConfigError,
    Dataset,
    DatasetError,
    FeatureSubset,
    _column_index,
    philox,
    require_integer,
)

BENCHMARK_IDS = ("rvq", "svq", "msq", "wt", "terc1", "terc2", "ubr", "sg")

TERC_RULES = ("all_equal", "pair")

GROUND_TRUTH: dict[str, FeatureSubset] = {
    "rvq": FeatureSubset.of(0, 1),
    "svq": FeatureSubset.of(0, 1),
    "msq": FeatureSubset.of(0),
    "wt": FeatureSubset.of(0, 2),
    "terc1": FeatureSubset.of(0, 1, 2),
    "terc2": FeatureSubset.of(0, 1, 2),
    "ubr": FeatureSubset.of(2),
    "sg": FeatureSubset.of(0, 1, 2),
    "pairsum": FeatureSubset.of(0, 1),
}

DATASET_IDS = tuple(GROUND_TRUTH)


def _require_known(value: str, choices: tuple[str, ...], what: str) -> None:
    if value not in choices:
        raise ConfigError(f"unknown {what} {value!r}; expected one of {choices}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Which synthetic dataset to draw, how many rows, and from which seed."""

    dataset: str
    n_samples: int = 1000
    seed: int = 0
    terc_rule: str = "all_equal"

    def __post_init__(self) -> None:
        _require_known(self.dataset, DATASET_IDS, "dataset id")
        for name in ("n_samples", "seed"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        _require_known(self.terc_rule, TERC_RULES, "terc rule")


def _bernoulli(seed: int, tag: int, n: int, p: float = 0.5) -> np.ndarray:
    return (philox(seed, tag).random(n) < p).astype(np.float64)


def _normal(seed: int, tag: int, n: int) -> np.ndarray:
    return philox(seed, tag).normal(size=n)


def _dataset(
    columns: list[np.ndarray],
    target: np.ndarray,
    kinds: tuple[ColumnKind, ...],
    target_kind: ColumnKind,
    seed: int | None,
    source: str,
) -> Dataset:
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(len(kinds))),
        features=np.column_stack(columns),
        target=target,
        kinds=kinds,
        target_kind=target_kind,
        seed=seed,
        source=source,
    )


class _FairBitDataset(NamedTuple):
    """A discrete dataset that is a function of independent fair bits."""

    tags: tuple[int, ...]
    feature_levels: tuple[int, ...]
    target_levels: int
    columns: Callable[..., tuple]  # (terc_rule, *bits) -> (features, target)

    def build(self, bits, terc_rule: str, seed: int | None, source: str) -> Dataset:
        features, target = self.columns(terc_rule, *bits)
        kinds = tuple(ColumnKind.discrete(k) for k in self.feature_levels)
        return _dataset(
            features, target, kinds, ColumnKind.discrete(self.target_levels),
            seed, source,
        )


def _terc(copies: Callable[..., list[np.ndarray]]) -> _FairBitDataset:
    def columns(rule: str, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
        equal = (b == c) if rule == "pair" else (a == b) & (b == c)
        return [a, b, c, *copies(a, b, c)], np.where(equal, 0.0, 1.0)

    return _FairBitDataset((0, 1, 2), (2,) * 6, 2, columns)


_FAIR_BIT: dict[str, _FairBitDataset] = {
    "rvq": _FairBitDataset(
        (0, 1), (2, 2, 2), 4, lambda rule, a, b: ([a, b, b], a + 2.0 * b)
    ),
    "svq": _FairBitDataset(
        (0, 1), (2, 2), 2,
        lambda rule, a, b: ([a, b], np.logical_xor(a > 0.5, b > 0.5).astype(np.float64)),
    ),
    "msq": _FairBitDataset(
        (1, 2), (3, 2, 2), 3, lambda rule, a, b: ([a + b, a, b], a + b)
    ),
    "terc1": _terc(lambda a, b, c: [a, a, a]),
    "terc2": _terc(lambda a, b, c: [a, b, c]),
    "pairsum": _FairBitDataset(
        (0, 1), (2,) * 4, 3, lambda rule, a, b: ([a, b, a, b], a + b)
    ),
}


def _gen_wt(spec: GeneratorSpec) -> Dataset:
    n, seed = spec.n_samples, spec.seed
    eps1 = _normal(seed, 10, n)
    eps2 = _normal(seed, 11, n)
    eps3 = _normal(seed, 12, n)
    f2 = _normal(seed, 2, n)
    f0 = eps1 + 0.1 * f2
    f1 = 0.8 * eps1 + 0.2 * eps2 + 0.01 * f2
    y = np.sin(eps1) + 0.1 * eps3
    cont = ColumnKind.continuous()
    return _dataset([f0, f1, f2], y, (cont,) * 3, cont, seed, f"generated:{spec.dataset}")


def _gen_ubr(spec: GeneratorSpec) -> Dataset:
    n, seed = spec.n_samples, spec.seed
    eps1 = philox(seed, 10).uniform(-1.0, 1.0, n)
    eps2 = philox(seed, 11).uniform(-0.5, 0.5, n)
    eps3 = philox(seed, 12).standard_exponential(n)
    eps4 = _normal(seed, 13, n)
    f0 = _normal(seed, 0, n)
    f1 = 3.0 * f0 + eps1
    f2 = eps4 + f0
    y = eps4 + eps2
    f3 = y + eps3
    cont = ColumnKind.continuous()
    return _dataset(
        [f0, f1, f2, f3], y, (cont,) * 4, cont, seed, f"generated:{spec.dataset}"
    )


_SG_OTHER_STATES = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))


def _gen_sg(spec: GeneratorSpec) -> Dataset:
    n, seed = spec.n_samples, spec.seed
    y = _bernoulli(seed, 20, n)
    p_both = np.where(y > 0.5, 0.05, 0.95)
    u = philox(seed, 21).random(n)
    f0 = np.empty(n)
    f1 = np.empty(n)
    both = u < p_both
    f0[both] = 1.0
    f1[both] = 1.0
    rest = ~both
    # Reuse the residual mass of the same uniform to pick one of the three
    # remaining joint states with equal probability.
    frac = (u[rest] - p_both[rest]) / (1.0 - p_both[rest])
    idx = np.minimum((frac * 3).astype(np.int64), 2)
    others = np.asarray(_SG_OTHER_STATES)
    f0[rest] = others[idx, 0]
    f1[rest] = others[idx, 1]
    p_marker = 0.2 + 0.6 * y
    f2 = (philox(seed, 22).random(n) < p_marker).astype(np.float64)
    bern = ColumnKind.discrete(2)
    return _dataset([f0, f1, f2], y, (bern,) * 3, bern, seed, f"generated:{spec.dataset}")


_GENERATORS = {"wt": _gen_wt, "ubr": _gen_ubr, "sg": _gen_sg}

# The discrete ids, each with an exact population table (population_table).
POPULATION_IDS = tuple(d for d in DATASET_IDS if d in _FAIR_BIT or d == "sg")


def generate(spec: GeneratorSpec) -> Dataset:
    """Draw one synthetic dataset; identical spec gives identical bytes."""
    fair = _FAIR_BIT.get(spec.dataset)
    if fair is None:
        return _GENERATORS[spec.dataset](spec)
    n, seed = spec.n_samples, spec.seed
    bits = [_bernoulli(seed, tag, n) for tag in fair.tags]
    return fair.build(bits, spec.terc_rule, seed, f"generated:{spec.dataset}")


def duplicate_feature(data: Dataset, index: int) -> Dataset:
    """Append an exact copy of one feature column, name suffixed with _dup."""
    index = _column_index(index)
    if not 0 <= index < data.n_features:
        raise DatasetError(f"feature index {index} out of range")
    base = f"{data.feature_names[index]}_dup"
    name = base
    counter = 2
    while name in data.feature_names:
        name = f"{base}{counter}"
        counter += 1
    features = np.column_stack([data.features, data.features[:, index]])
    return Dataset(
        feature_names=(*data.feature_names, name),
        features=features,
        target=data.target,
        kinds=(*data.kinds, data.kinds[index]),
        target_kind=data.target_kind,
        target_name=data.target_name,
        seed=data.seed,
        source=data.source,
    )


def _sg_population() -> Dataset:
    feats = []
    target = []
    for y, both_weight in ((0, 57), (1, 3)):
        # 300 rows per label. A state of weight w yields 5w rows (the
        # marker gene splits them 1:4 for y=0, 4:1 for y=1), so the
        # favored (1,1) state holds 285 of 300 rows when y=0 (p=0.95)
        # and 15 when y=1, and each other state gets a third of the rest.
        marker_one = 1 if y == 0 else 4
        marker_zero = 5 - marker_one
        states = [((1.0, 1.0), both_weight)] + [
            (s, (60 - both_weight) // 3) for s in _SG_OTHER_STATES
        ]
        for (a, b), weight in states:
            for marker, count in ((1.0, weight * marker_one), (0.0, weight * marker_zero)):
                feats.extend([(a, b, marker)] * count)
                target.extend([float(y)] * count)
    bern = ColumnKind.discrete(2)
    return _dataset(
        [np.asarray(feats, dtype=np.float64)], np.asarray(target, dtype=np.float64),
        (bern,) * 3, bern, None, "population:sg",
    )


def population_table(dataset: str, terc_rule: str = "all_equal") -> Dataset:
    """Exact population dataset for a discrete id.

    The returned table's empirical joint distribution equals the generating
    distribution exactly (each outcome appears with an integer count whose
    frequency is the outcome's true probability), so plug-in quantities on
    it are the analytic population values. A fair-bit dataset lists each
    combination of its bits once, the first bit varying slowest.
    """
    _require_known(dataset, DATASET_IDS, "dataset id")
    _require_known(terc_rule, TERC_RULES, "terc rule")
    if dataset not in POPULATION_IDS:
        raise DatasetError(
            f"no exact population table for continuous dataset {dataset!r}"
        )
    if dataset == "sg":
        return _sg_population()
    fair = _FAIR_BIT[dataset]
    combos = np.array(list(itertools.product((0.0, 1.0), repeat=len(fair.tags))))
    return fair.build(combos.T, terc_rule, None, f"population:{dataset}")
