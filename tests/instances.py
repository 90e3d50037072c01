"""Random discrete instance generators shared by the test suite.

Two families:

``random_population_instance`` builds exact population tables (every joint
outcome appears with an integer count proportional to its probability) from
a structure where features never combine synergistically to carry
information about another feature: base features are independent uniform
draws, every derived feature is an exact or noisy copy of a single base
feature through a symmetric resample channel, and the target is a random
function of the base features, optionally pushed through a label-noise
channel. Information about any feature then factors through its source, so
pairwise MI upper-bounds what any group of partners can reveal about it,
which is the precondition for the theta bounds checked by the theorem
suite.

``random_dataset`` draws plain empirical datasets (iid rows, optional
functional column dependencies) for estimator-vs-oracle agreement checks
that need no structural precondition.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from pidf import TARGET, ColumnKind, Dataset, ExactOracle, FeatureSubset, run_pidf

MAX_FEATURES = 5
MAX_STATES = 4
ROW_BUDGET = 4096


def _apply_feature_channel(
    rows: list[tuple[tuple[int, ...], int, int]], src: int, states: int, keep8: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """Append a noisy copy of column ``src``: keep with probability keep8/8,
    else resample uniformly over ``states``. Weights scale by 8*states."""
    out = []
    for values, y, w in rows:
        for v in range(states):
            weight = w * ((keep8 * states) if v == values[src] else 0)
            weight += w * (8 - keep8)
            if weight:
                out.append(((*values, v), y, weight))
    return out


def _apply_label_channel(
    rows: list[tuple[tuple[int, ...], int, int]], states: int, keep8: int
) -> list[tuple[tuple[int, ...], int, int]]:
    out = []
    for values, y, w in rows:
        for v in range(states):
            weight = w * ((keep8 * states) if v == y else 0)
            weight += w * (8 - keep8)
            if weight:
                out.append((values, v, weight))
    return out


def random_population_instance(seed: int) -> Dataset:
    """Exact population table from the no-feature-synergy family."""
    rng = random.Random(seed)
    n_base = rng.randint(1, 3)
    states = [rng.randint(2, MAX_STATES) for _ in range(n_base)]
    # Base table: one row per joint cell, uniform weight.
    rows: list[tuple[tuple[int, ...], int, int]] = []
    grids = [range(s) for s in states]
    target_states = rng.randint(2, MAX_STATES)
    for cell in itertools.product(*grids):
        rows.append((tuple(cell), rng.randrange(target_states), 1))

    n_extra = rng.randint(0, MAX_FEATURES - n_base)
    noisy_used = False
    col_states = list(states)
    for _ in range(n_extra):
        src = rng.randrange(n_base)
        mass = sum(w for _, _, w in rows)
        can_noisy = not noisy_used and mass * 8 * states[src] <= ROW_BUDGET
        if can_noisy and rng.random() < 0.5:
            keep8 = rng.randint(1, 7)
            rows = _apply_feature_channel(rows, src, states[src], keep8)
            noisy_used = True
        else:
            rows = [(((*values, values[src])), y, w) for values, y, w in rows]
        col_states.append(states[src])
    mass = sum(w for _, _, w in rows)
    if not noisy_used and rng.random() < 0.5 and mass * 8 * target_states <= ROW_BUDGET:
        rows = _apply_label_channel(rows, target_states, rng.randint(1, 7))

    feats = []
    target = []
    for values, y, w in rows:
        feats.extend([values] * w)
        target.extend([y] * w)
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(len(col_states))),
        features=np.asarray(feats, dtype=np.float64),
        target=np.asarray(target, dtype=np.float64),
        kinds=tuple(ColumnKind.discrete(s) for s in col_states),
        target_kind=ColumnKind.discrete(target_states),
        seed=seed,
        source=f"instance:{seed}",
    )


def random_dataset(seed: int, max_features: int = 4, max_rows: int = 300) -> Dataset:
    """Plain random empirical discrete dataset (no structural guarantees)."""
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, max_features + 1))
    n_rows = int(rng.integers(20, max_rows + 1))
    cols = []
    cards = []
    for i in range(n_features):
        card = int(rng.integers(2, MAX_STATES + 1))
        if i > 0 and rng.random() < 0.3:
            src = int(rng.integers(0, i))
            mapping = rng.integers(0, card, size=cards[src])
            cols.append(mapping[cols[src].astype(int)].astype(np.float64))
        else:
            cols.append(rng.integers(0, card, size=n_rows).astype(np.float64))
        cards.append(card)
    t_card = int(rng.integers(2, MAX_STATES + 1))
    if rng.random() < 0.5:
        src = int(rng.integers(0, n_features))
        mapping = rng.integers(0, t_card, size=cards[src])
        target = mapping[cols[src].astype(int)].astype(np.float64)
    else:
        target = rng.integers(0, t_card, size=n_rows).astype(np.float64)
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        features=np.column_stack(cols),
        target=target,
        kinds=tuple(ColumnKind.discrete(c) for c in cards),
        target_kind=ColumnKind.discrete(t_card),
        seed=seed,
        source=f"random:{seed}",
    )


def net_identity_residual(data: Dataset) -> float:
    """The worst error, over features i, of the default run's net
    contribution of i against I(Y; all) - I(Y; all but i) from the exact
    referee: the identity that ``pidf verify`` checks."""
    referee = ExactOracle(data)
    everything = FeatureSubset.full(data.n_features)
    total = referee.mi(TARGET, everything)
    return max(
        abs(res.net_ensemble().mean - (total - referee.mi(TARGET, everything - {res.index})))
        for res in run_pidf(data).results
    )
