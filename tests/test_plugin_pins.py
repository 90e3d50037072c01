"""Plug-in estimator pins: exact and binned estimates, and the rendered JSON of
whole runs, recorded as exact bit patterns. The plug-in path may change how
it codes rows, but never a single bit of what it returns."""

import hashlib

import numpy as np
import pytest

from pidf import (
    Binned,
    ColumnKind,
    Dataset,
    EstimatorConfig,
    ExactDiscrete,
    FeatureSubset,
    TARGET,
    estimate_mi,
    render_json,
    run_pidf,
)
from pidf.types import philox

EXACT_W2 = "0x1.dfe248e800000p-18"
EXACT_W13 = "0x1.62e3bafdbc520p+0"
BINNED_W3 = "0x1.bdb935bb630c8p-1"
EXACT_RUN_SHA256 = "13b15b26f900309cdaf12d57ea9c3ccbf2139d06bd2b237c8a9fd825789b77e4"
BINNED_RUN_SHA256 = "097e8c7be7343061bd6e8c4cd93674b39ec3d52529650c7619cd175332c90a2e"
# Runs on either side of the plug-in table's distinct-row cutoff: rows of
# 16 bits that hardly repeat under exact, and 4 columns of 2 bins, so 16
# distinct rows among 3,000, under binned.
EXACT_DISTINCT_RUN_SHA256 = "9e0a3e88e2554e3e63f1dd4ef2324df6f15ce97073f5fd8f23030d85271c6d64"
BINNED_REPEATED_RUN_SHA256 = "678595b99c75b853de036544b8c8655a41e22ecbfcc8bb769bf11a44ec923671"
# Runs whose declared span, 2**62 and 2**58 (binary features and a 4-valued
# target), passes the 2**53 of one exact float64 product, so the plug-in
# table codes its rows in two products.
EXACT_TWO_PRODUCT_RUN_SHA256 = {
    (3000, 60, 1): "8bccb04f2c4e045b4eb309cccae6ba615236ef3e54ab7b0c626925a56881e9e7",
    (2000, 56, 0): "cc891ccfccbd6adbf9600970e016ed119db5bc30051d5584f57ef20a2c5207b9",
}


def binary_table(n: int, p: int, seed: int) -> Dataset:
    """An XOR pair, an additive bit, copies of two of them, then noise bits."""
    bits = philox(seed, 0x51).integers(0, 2, size=(n, p - 2))
    a, b, c = bits[:, 0], bits[:, 1], bits[:, 2]
    features = np.column_stack([a, b, c, a, c, bits[:, 3:]]).astype(np.float64)
    bern = ColumnKind.discrete(2)
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(p)),
        features=features,
        target=((a ^ b) + 2 * c).astype(np.float64),
        kinds=(bern,) * p,
        target_kind=ColumnKind.discrete(4),
    )


def gaussian_table(n: int, p: int, seed: int) -> Dataset:
    draws = philox(seed, 0x52).standard_normal(size=(n, p + 1))
    target = draws[:, 0] + draws[:, 1] + 0.5 * draws[:, p]
    cont = ColumnKind.continuous()
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(p)),
        features=draws[:, :p],
        target=target,
        kinds=(cont,) * p,
        target_kind=cont,
    )


def exact_cfg() -> EstimatorConfig:
    return EstimatorConfig(kind=ExactDiscrete(), repetitions=5)


def binned_cfg() -> EstimatorConfig:
    return EstimatorConfig(kind=Binned(), repetitions=5)


def run_sha256(data: Dataset, cfg: EstimatorConfig) -> str:
    text = render_json(run_pidf(data, cfg))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_exact_narrow_joint():
    data = binary_table(20000, 12, 1)
    value = estimate_mi(data, FeatureSubset.of(0), TARGET, exact_cfg()).mean
    assert value.hex() == EXACT_W2


def test_exact_full_joint():
    data = binary_table(20000, 12, 1)
    full = FeatureSubset.full(data.n_features)
    value = estimate_mi(data, full, TARGET, exact_cfg()).mean
    assert value.hex() == EXACT_W13


def test_binned_joint():
    data = gaussian_table(5000, 4, 2)
    value = estimate_mi(data, FeatureSubset.of(0, 1), TARGET, binned_cfg()).mean
    assert value.hex() == BINNED_W3


def test_exact_run_json():
    assert run_sha256(binary_table(3000, 8, 3), exact_cfg()) == EXACT_RUN_SHA256


def test_binned_run_json():
    assert run_sha256(gaussian_table(3000, 5, 4), binned_cfg()) == BINNED_RUN_SHA256


def test_exact_run_on_distinct_rows_json():
    assert run_sha256(binary_table(2000, 16, 5), exact_cfg()) == EXACT_DISTINCT_RUN_SHA256


def test_binned_run_on_repeated_rows_json():
    cfg = EstimatorConfig(kind=Binned(bins=2), repetitions=5)
    assert run_sha256(gaussian_table(3000, 3, 6), cfg) == BINNED_REPEATED_RUN_SHA256


@pytest.mark.parametrize("shape", sorted(EXACT_TWO_PRODUCT_RUN_SHA256))
def test_exact_run_in_two_products_json(shape):
    assert run_sha256(binary_table(*shape), exact_cfg()) == EXACT_TWO_PRODUCT_RUN_SHA256[shape]
