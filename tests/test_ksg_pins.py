"""k-NN estimator pins: ``ksg_mi`` values and the rendered JSON of a whole
default-config analysis, recorded as exact bit patterns. The k-NN path may
change how it counts marginal neighbours, but never a single bit of what it
returns."""

import hashlib

import numpy as np
import pytest

from pidf import ColumnKind, Dataset, render_json, run_pidf, select_features
from pidf.estimators import ksg_mi
from pidf.types import philox

KSG_HEX = {
    (1, 1): "0x1.95cd12a525948p-1",
    (1, 5): "0x1.58b766326ce60p-1",
    (2, 1): "0x1.18a856111c704p+0",
}
KNN_RUN_SHA256 = "3960cfc8d596af02a14c7429bfa39abee3845f2b73791bbebd74772f3dbf0e35"


def gaussian_sample(n: int, x_width: int, y_width: int, seed: int):
    """x: independent normals; y: the sum of x plus noise, then noise columns."""
    draws = philox(seed, 0x53).standard_normal(size=(n, x_width + y_width + 1))
    x = draws[:, :x_width]
    y = np.column_stack([x.sum(axis=1) + 0.5 * draws[:, x_width],
                         draws[:, x_width + 1:x_width + y_width]])
    return x, y


def knn_gauss_table(n: int, seed: int) -> Dataset:
    """f0, f1, a noisy copy of f0 and 3 noise columns; y = f0 + f1 + noise."""
    draws = philox(seed, 0x54).standard_normal(size=(n, 7))
    f0, f1 = draws[:, 0], draws[:, 1]
    features = np.column_stack([f0, f1, f0 + 0.3 * draws[:, 3], draws[:, 4:]])
    cont = ColumnKind.continuous()
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(6)),
        features=features,
        target=f0 + f1 + 0.5 * draws[:, 2],
        kinds=(cont,) * 6,
        target_kind=cont,
    )


@pytest.mark.parametrize("widths", sorted(KSG_HEX))
def test_ksg_mi(widths):
    x, y = gaussian_sample(1500, *widths, seed=5)
    assert ksg_mi(x, y, 3).hex() == KSG_HEX[widths]


def test_knn_run_json():
    report = run_pidf(knn_gauss_table(5000, 6))
    text = render_json(report, select_features(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == KNN_RUN_SHA256
