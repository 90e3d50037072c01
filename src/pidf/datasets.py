"""Seeded synthetic dataset generators and exact population tables.

Each generator draws every logical column from its own counter-based RNG
stream (Philox keyed by user seed and a per-column tag), so appending
columns or switching variants never perturbs the draws of earlier columns.
The discrete generators also expose exact population tables: small row
tables whose empirical distribution equals the definition's distribution
exactly, used by golden tests that assert analytic values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import (
    ColumnKind,
    ConfigError,
    Dataset,
    DatasetError,
    FeatureSubset,
    philox,
)

DATASET_IDS = (
    "rvq",
    "svq",
    "msq",
    "wt",
    "terc1",
    "terc2",
    "ubr",
    "sg",
    "pairsum",
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


@dataclass(frozen=True)
class GeneratorSpec:
    """Which synthetic dataset to draw, how many rows, and from which seed."""

    dataset: str
    n_samples: int = 1000
    seed: int = 0
    terc_rule: str = "all_equal"

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_IDS:
            raise ConfigError(
                f"unknown dataset id {self.dataset!r}; expected one of {DATASET_IDS}"
            )
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.terc_rule not in TERC_RULES:
            raise ConfigError(
                f"unknown terc rule {self.terc_rule!r}; expected one of {TERC_RULES}"
            )


def _bernoulli(seed: int, tag: int, n: int, p: float = 0.5) -> np.ndarray:
    return (philox(seed, tag).random(n) < p).astype(np.float64)


def _normal(seed: int, tag: int, n: int) -> np.ndarray:
    return philox(seed, tag).normal(size=n)


def _dataset(
    names: tuple[str, ...],
    columns: list[np.ndarray],
    target: np.ndarray,
    kinds: tuple[ColumnKind, ...],
    target_kind: ColumnKind,
    spec: GeneratorSpec,
) -> Dataset:
    return Dataset(
        feature_names=names,
        features=np.column_stack(columns),
        target=target,
        kinds=kinds,
        target_kind=target_kind,
        seed=spec.seed,
        source=f"generated:{spec.dataset}",
    )


def _gen_rvq(spec: GeneratorSpec) -> Dataset:
    n, seed = spec.n_samples, spec.seed
    f0 = _bernoulli(seed, 0, n)
    f1 = _bernoulli(seed, 1, n)
    f2 = f1.copy()
    y = f0 + 2.0 * f1
    bern = ColumnKind.discrete(2)
    return _dataset(
        ("f0", "f1", "f2"), [f0, f1, f2], y,
        (bern, bern, bern), ColumnKind.discrete(4), spec,
    )


def _gen_svq(spec: GeneratorSpec) -> Dataset:
    n, seed = spec.n_samples, spec.seed
    f0 = _bernoulli(seed, 0, n)
    f1 = _bernoulli(seed, 1, n)
    y = np.logical_xor(f0 > 0.5, f1 > 0.5).astype(np.float64)
    bern = ColumnKind.discrete(2)
    return _dataset(("f0", "f1"), [f0, f1], y, (bern, bern), bern, spec)


def _gen_msq(spec: GeneratorSpec) -> Dataset:
    n, seed = spec.n_samples, spec.seed
    f1 = _bernoulli(seed, 1, n)
    f2 = _bernoulli(seed, 2, n)
    f0 = f1 + f2
    y = f0.copy()
    bern = ColumnKind.discrete(2)
    return _dataset(
        ("f0", "f1", "f2"), [f0, f1, f2], y,
        (ColumnKind.discrete(3), bern, bern), ColumnKind.discrete(3), spec,
    )


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
    return _dataset(
        ("f0", "f1", "f2"), [f0, f1, f2], y, (cont, cont, cont), cont, spec
    )


def _terc_target(f0: np.ndarray, f1: np.ndarray, f2: np.ndarray, rule: str) -> np.ndarray:
    if rule == "all_equal":
        equal = (f0 == f1) & (f1 == f2)
    else:
        equal = f1 == f2
    return np.where(equal, 0.0, 1.0)


def _gen_terc(spec: GeneratorSpec, paired_copies: bool) -> Dataset:
    n, seed = spec.n_samples, spec.seed
    f0 = _bernoulli(seed, 0, n)
    f1 = _bernoulli(seed, 1, n)
    f2 = _bernoulli(seed, 2, n)
    if paired_copies:
        copies = [f0.copy(), f1.copy(), f2.copy()]
    else:
        copies = [f0.copy(), f0.copy(), f0.copy()]
    y = _terc_target(f0, f1, f2, spec.terc_rule)
    bern = ColumnKind.discrete(2)
    return _dataset(
        ("f0", "f1", "f2", "f3", "f4", "f5"),
        [f0, f1, f2, *copies],
        y,
        (bern,) * 6,
        bern,
        spec,
    )


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
        ("f0", "f1", "f2", "f3"), [f0, f1, f2, f3], y, (cont,) * 4, cont, spec
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
    return _dataset(
        ("f0", "f1", "f2"), [f0, f1, f2], y, (bern, bern, bern), bern, spec
    )


def _gen_pairsum(spec: GeneratorSpec) -> Dataset:
    n, seed = spec.n_samples, spec.seed
    f0 = _bernoulli(seed, 0, n)
    f1 = _bernoulli(seed, 1, n)
    y = f0 + f1
    bern = ColumnKind.discrete(2)
    return _dataset(
        ("f0", "f1", "f2", "f3"),
        [f0, f1, f0.copy(), f1.copy()],
        y,
        (bern,) * 4,
        ColumnKind.discrete(3),
        spec,
    )


_GENERATORS = {
    "rvq": _gen_rvq,
    "svq": _gen_svq,
    "msq": _gen_msq,
    "wt": _gen_wt,
    "terc1": lambda spec: _gen_terc(spec, paired_copies=False),
    "terc2": lambda spec: _gen_terc(spec, paired_copies=True),
    "ubr": _gen_ubr,
    "sg": _gen_sg,
    "pairsum": _gen_pairsum,
}


def generate(spec: GeneratorSpec) -> Dataset:
    """Draw one synthetic dataset; identical spec gives identical bytes."""
    return _GENERATORS[spec.dataset](spec)


def duplicate_feature(data: Dataset, index: int) -> Dataset:
    """Append an exact copy of one feature column, name suffixed with _dup."""
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


def _expand(rows: list[tuple[tuple[float, ...], float, int]], spec_id: str,
            kinds: tuple[ColumnKind, ...], target_kind: ColumnKind) -> Dataset:
    feats = []
    target = []
    for values, y, count in rows:
        feats.extend([values] * count)
        target.extend([y] * count)
    names = tuple(f"f{i}" for i in range(len(kinds)))
    return Dataset(
        feature_names=names,
        features=np.asarray(feats, dtype=np.float64),
        target=np.asarray(target, dtype=np.float64),
        kinds=kinds,
        target_kind=target_kind,
        seed=None,
        source=f"population:{spec_id}",
    )


def population_table(dataset: str, terc_rule: str = "all_equal") -> Dataset:
    """Exact population dataset for a discrete id.

    The returned table's empirical joint distribution equals the generating
    distribution exactly (each outcome appears with an integer count whose
    frequency is the outcome's true probability), so plug-in quantities on
    it are the analytic population values.
    """
    if dataset not in DATASET_IDS:
        raise ConfigError(
            f"unknown dataset id {dataset!r}; expected one of {DATASET_IDS}"
        )
    bern = ColumnKind.discrete(2)
    if dataset == "rvq":
        rows = [
            ((float(a), float(b), float(b)), float(a + 2 * b), 1)
            for a in (0, 1)
            for b in (0, 1)
        ]
        return _expand(rows, dataset, (bern,) * 3, ColumnKind.discrete(4))
    if dataset == "svq":
        rows = [
            ((float(a), float(b)), float(a ^ b), 1) for a in (0, 1) for b in (0, 1)
        ]
        return _expand(rows, dataset, (bern,) * 2, bern)
    if dataset == "msq":
        rows = [
            ((float(a + b), float(a), float(b)), float(a + b), 1)
            for a in (0, 1)
            for b in (0, 1)
        ]
        return _expand(
            rows, dataset, (ColumnKind.discrete(3), bern, bern), ColumnKind.discrete(3)
        )
    if dataset in ("terc1", "terc2"):
        rows = []
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    if terc_rule == "all_equal":
                        y = 0.0 if a == b == c else 1.0
                    else:
                        y = 0.0 if b == c else 1.0
                    if dataset == "terc1":
                        copies = (float(a), float(a), float(a))
                    else:
                        copies = (float(a), float(b), float(c))
                    rows.append(
                        ((float(a), float(b), float(c), *copies), y, 1)
                    )
        return _expand(rows, dataset, (bern,) * 6, bern)
    if dataset == "sg":
        rows = []
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
                rows.append(((a, b, 1.0), float(y), weight * marker_one))
                rows.append(((a, b, 0.0), float(y), weight * marker_zero))
        return _expand(rows, dataset, (bern,) * 3, bern)
    if dataset == "pairsum":
        rows = [
            ((float(a), float(b), float(a), float(b)), float(a + b), 1)
            for a in (0, 1)
            for b in (0, 1)
        ]
        return _expand(rows, dataset, (bern,) * 4, ColumnKind.discrete(3))
    raise DatasetError(f"no exact population table for continuous dataset {dataset!r}")
