"""Stream-layout pins: every seeded draw comes from a Philox stream keyed by
``[seed, word]``, and these recorded values change if any caller's key does.
Generated datasets, k-NN subsamples and jitter, and MINE initialization and
batches each draw from their own key words."""

import pytest

from pidf import (
    DATASET_IDS,
    EstimatorConfig,
    FeatureSubset,
    GeneratorSpec,
    Ksg,
    Mine,
    MineConfig,
    TARGET,
    dataset_fingerprint,
    estimate_mi,
    generate,
    population_table,
)

FINGERPRINTS = {
    "rvq": "34864a908b9359a6",
    "svq": "8a96e7d50d6ffe93",
    "msq": "e4adb08da60ad7fa",
    "wt": "c612d590fbb66eb6",
    "terc1": "bcd645fb3be8a9f9",
    "terc2": "a14c360180cc847d",
    "ubr": "2569c01f59b2d311",
    "sg": "96b458313fa54e8e",
    "pairsum": "49a20e7514cf4900",
}

# Exact population tables: (dataset id, terc rule) -> fingerprint. The rule
# changes only the terc targets.
POPULATION_FINGERPRINTS = {
    ("rvq", "all_equal"): "83b42e46af653168",
    ("svq", "all_equal"): "d8c8907b570d7188",
    ("msq", "all_equal"): "b0031fa55686a968",
    ("terc1", "all_equal"): "de8d34d94642d1da",
    ("terc2", "all_equal"): "b2b3f30d9f452b2d",
    ("sg", "all_equal"): "961d540c054ffda6",
    ("pairsum", "all_equal"): "606da44657f2dee7",
    ("terc1", "pair"): "878539c7dd202a64",
    ("terc2", "pair"): "dd9e6fc2cb9c8789",
}


def test_every_generator_is_pinned():
    assert set(FINGERPRINTS) == set(DATASET_IDS)


@pytest.mark.parametrize("dataset_id", DATASET_IDS)
def test_generator_streams(dataset_id):
    data = generate(GeneratorSpec(dataset_id, 500, 7))
    assert dataset_fingerprint(data) == FINGERPRINTS[dataset_id]


@pytest.mark.parametrize("dataset_id,terc_rule", sorted(POPULATION_FINGERPRINTS))
def test_population_tables(dataset_id, terc_rule):
    data = population_table(dataset_id, terc_rule)
    assert dataset_fingerprint(data) == POPULATION_FINGERPRINTS[dataset_id, terc_rule]


def test_ksg_subsample_and_jitter_streams():
    # Feature columns 0 and 1 plus the target: covers the subsample word and
    # the jitter word of a feature column and of the target.
    data = generate(GeneratorSpec("wt", 500, 7))
    cfg = EstimatorConfig(kind=Ksg(), repetitions=3, base_seed=11)
    ens = estimate_mi(data, FeatureSubset.of(0, 1), TARGET, cfg)
    assert ens.seeds == (11000033, 11000034, 11000035)
    assert ens.estimates == (1.4466405362717571, 1.4751019557777463, 1.378958959021083)


def test_mine_stream():
    data = generate(GeneratorSpec("wt", 500, 7))
    mine = MineConfig(batch_size=64, iterations=20, learning_rate=1e-3, hidden=8)
    cfg = EstimatorConfig(kind=Mine(mine), repetitions=2, base_seed=3)
    ens = estimate_mi(data, FeatureSubset.of(0), TARGET, cfg)
    assert ens.seeds == (3000009, 3000010)
    # Matrix products may sum in another order under another BLAS; a changed
    # key moves the estimate far more than this tolerance.
    assert ens.estimates == pytest.approx(
        (0.10600337532456838, -0.27971771837901405), rel=1e-9
    )
