"""Selection refereed by Markov blankets computed exactly.

A Markov blanket of the target Y is a feature set S with I(Y; rest | S) = 0,
where rest holds every feature outside S (Koller & Sahami 1996; Tsamardinos
& Aliferis 2003). It is minimal when no proper subset is one. With copies
there are several minimal blankets, and a right selection is one of them.
Every value here comes from ExactOracle.cmi on a population table, so no
estimator code takes part.

The xfail marks record selections measured to miss: they keep a feature no
minimal blanket needs, or keep a copy set where the target is a function of
fewer features.
"""

import numpy as np
import pytest

from pidf import ColumnKind, Dataset, datasets, population_table, run_pidf, select_features
from pidf.oracle import _TARGET_KEY, TOLERANCE, ExactOracle, _power_set

from instances import random_population_instance

# The datasets with an exact population table; wt and ubr are continuous.
DISCRETE_IDS = tuple(d for d in datasets.DATASET_IDS if d not in ("wt", "ubr"))

# Under the pair rule the terc target is f1 XOR f2, so f0 tells nothing
# more and the ground truth {f0, f1, f2} is not minimal.
PAIR_BLANKETS = {
    "terc1": [(1, 2)],
    "terc2": [(1, 2), (1, 5), (2, 4), (4, 5)],
}

INSTANCE_SEEDS = range(60)

# Instances whose selection is not a minimal blanket. Seed 3 keeps one
# noisy copy rather than one of its four exact copies; the others keep a
# feature that carries no information about the target.
INSTANCE_MISSES = {3, 23, 36, 39, 41, 46}


def is_blanket(oracle: ExactOracle, n_features: int, subset: frozenset) -> bool:
    rest = [f for f in range(n_features) if f not in subset]
    return oracle.cmi({_TARGET_KEY}, rest, subset) <= TOLERANCE


def is_minimal_blanket(data: Dataset, subset) -> bool:
    """Whether subset is a minimal Markov blanket of the target.

    A superset of a blanket is one too (weak union), so a blanket none of
    whose one-smaller subsets is a blanket is minimal.
    """
    oracle = ExactOracle(data)
    subset = frozenset(subset)
    return is_blanket(oracle, data.n_features, subset) and not any(
        is_blanket(oracle, data.n_features, subset - {j}) for j in subset
    )


def minimal_blankets(data: Dataset) -> list[tuple[int, ...]]:
    """Every minimal Markov blanket of the target, by size and then
    lexicographically."""
    oracle = ExactOracle(data)
    found: list[tuple[int, ...]] = []
    for subset in _power_set(range(data.n_features)):
        if not any(set(b) <= set(subset) for b in found) and is_blanket(
            oracle, data.n_features, frozenset(subset)
        ):
            found.append(subset)
    return found


def with_fair_bits(data: Dataset, count: int) -> Dataset:
    """The population table with count independent fair bits appended: each
    row appears once with each bit value."""
    features, target = data.features, data.target
    for _ in range(count):
        rows = features.shape[0]
        features = np.vstack([np.column_stack([features, np.full(rows, bit)])
                              for bit in (0.0, 1.0)])
        target = np.concatenate([target, target])
    return Dataset(
        feature_names=(*data.feature_names, *(f"bit{k}" for k in range(count))),
        features=features,
        target=target,
        kinds=(*data.kinds, *(ColumnKind.discrete(2),) * count),
        target_kind=data.target_kind,
        seed=data.seed,
        source=data.source,
    )


def selected(data: Dataset) -> tuple[int, ...]:
    return select_features(run_pidf(data)).selected.indices


@pytest.mark.parametrize("dataset_id", DISCRETE_IDS)
def test_ground_truth_is_a_minimal_blanket(dataset_id):
    data = population_table(dataset_id)
    assert is_minimal_blanket(data, datasets.GROUND_TRUTH[dataset_id])


@pytest.mark.parametrize("dataset_id", sorted(PAIR_BLANKETS))
def test_terc_truth_is_no_blanket_under_pair(dataset_id):
    data = population_table(dataset_id, "pair")
    assert minimal_blankets(data) == PAIR_BLANKETS[dataset_id]
    assert not is_minimal_blanket(data, datasets.GROUND_TRUTH[dataset_id])


def _population_cases():
    for rule in datasets.TERC_RULES:
        for dataset_id in DISCRETE_IDS:
            marks = ()
            if rule == "pair" and dataset_id in PAIR_BLANKETS:
                marks = pytest.mark.xfail(reason="selection keeps the all_equal truth")
            yield pytest.param(dataset_id, rule, marks=marks, id=f"{dataset_id}-{rule}")


@pytest.mark.parametrize("dataset_id,terc_rule", _population_cases())
def test_selection_is_a_minimal_blanket(dataset_id, terc_rule):
    data = population_table(dataset_id, terc_rule)
    assert is_minimal_blanket(data, selected(data))


def _instance_cases():
    for bits in (0, 1, 2):
        for seed in INSTANCE_SEEDS:
            marks = ()
            if bits:
                marks = pytest.mark.xfail(reason="selection keeps an appended fair bit")
            elif seed in INSTANCE_MISSES:
                marks = pytest.mark.xfail(reason="measured miss, see INSTANCE_MISSES")
            yield pytest.param(seed, bits, marks=marks, id=f"seed{seed}-bits{bits}")


@pytest.mark.parametrize("seed,bits", _instance_cases())
def test_instance_selection_is_a_minimal_blanket(seed, bits):
    data = with_fair_bits(random_population_instance(seed), bits)
    assert is_minimal_blanket(data, selected(data))
