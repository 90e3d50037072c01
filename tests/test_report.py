"""Serialization: JSON payload shape and byte stability, SVG geometry,
CSV round trips."""

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pidf import (
    BITS,
    Binned,
    ColumnKind,
    ConfigError,
    DatasetError,
    EstimatorConfig,
    ExactDiscrete,
    GeneratorSpec,
    Ksg,
    Mine,
    MineConfig,
    dataset_fingerprint,
    generate,
    population_table,
    read_csv,
    render_json,
    render_svg,
    report_payload,
    run_pidf,
    select_features,
    write_csv,
)

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def rvq_run():
    data = population_table("rvq")
    report = run_pidf(data)
    return data, report, select_features(report)


class TestPayload:
    def test_structure(self, rvq_run):
        data, report, selection = rvq_run
        payload = report_payload(report, selection, fingerprint=dataset_fingerprint(data))
        assert payload["schema_version"] == 1
        assert payload["units"] == "nats"
        assert payload["config"]["estimator"]["kind"] == "exact"
        assert payload["config"]["repetitions"] == report.estimator.repetitions
        assert payload["dataset"]["n_features"] == 3
        assert payload["dataset"]["feature_names"] == ["f0", "f1", "f2"]
        assert len(payload["features"]) == 3
        f1 = payload["features"][1]
        assert f1["name"] == "f1"
        assert f1["mi"] == pytest.approx(LN2, abs=1e-12)
        assert f1["fwr_contributions"] == {"f2": pytest.approx(LN2, abs=1e-12)}
        assert f1["related_set"] == ["f2"]
        assert payload["selection"]["selected"] == ["f0", "f1"]

    def test_selection_optional(self, rvq_run):
        _, report, _ = rvq_run
        payload = report_payload(report)
        assert payload["selection"] is None

    def test_bits_conversion(self, rvq_run):
        _, report, _ = rvq_run
        nats = report_payload(report)
        bits = report_payload(report, units=BITS)
        assert bits["units"] == "bits"
        for f_nats, f_bits in zip(nats["features"], bits["features"]):
            assert f_bits["mi"] == pytest.approx(f_nats["mi"] / LN2, abs=1e-12)
            assert f_bits["fwr_total"] == pytest.approx(
                f_nats["fwr_total"] / LN2, abs=1e-12
            )
        # rvq f1 carries exactly one bit, fully redundant with f2
        assert bits["features"][1]["mi"] == pytest.approx(1.0, abs=1e-12)

    def test_bad_units(self, rvq_run):
        _, report, _ = rvq_run
        with pytest.raises(ConfigError):
            report_payload(report, units="shannons")

    def test_json_serializable_and_round_trips(self, rvq_run):
        data, report, selection = rvq_run
        text = render_json(report, selection, fingerprint=dataset_fingerprint(data))
        back = json.loads(text)
        assert back["dataset"]["fingerprint"] == dataset_fingerprint(data)


# Every estimator kind with the config.estimator its report carries. The
# fixed settings (ksg's subsample and jitter, MINE's Adam constants) are
# reported although no constructor takes them.
ESTIMATOR_PAYLOADS = [
    (ExactDiscrete(), {"kind": "exact"}),
    (Binned(), {"kind": "binned", "bins": 8}),
    (Ksg(), {"kind": "ksg", "k": 3, "subsample": 0.3, "jitter": 1e-9}),
    (Mine(MineConfig(batch_size=4, iterations=2, hidden=2)), {
        "kind": "mine",
        "config": {"batch_size": 4, "iterations": 2, "learning_rate": 1e-4,
                   "hidden": 2, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8},
    }),
]


@pytest.mark.parametrize("kind,expected", ESTIMATOR_PAYLOADS,
                         ids=["exact", "binned", "ksg", "mine"])
def test_estimator_payload(kind, expected):
    data = generate(GeneratorSpec("rvq", 20, 0))
    report = run_pidf(data, EstimatorConfig(kind=kind, repetitions=1))
    assert json.loads(render_json(report))["config"]["estimator"] == expected


class TestJsonDeterminism:
    def test_identical_runs_identical_bytes(self):
        outs = []
        for _ in range(2):
            data = generate(GeneratorSpec(dataset="rvq", n_samples=300, seed=9))
            report = run_pidf(data)
            selection = select_features(report)
            outs.append(
                render_json(report, selection, fingerprint=dataset_fingerprint(data))
            )
        assert outs[0] == outs[1]

    def test_keys_sorted(self, rvq_run):
        _, report, _ = rvq_run
        text = render_json(report)
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestFingerprint:
    def test_stable_and_content_sensitive(self):
        a = generate(GeneratorSpec(dataset="rvq", n_samples=100, seed=1))
        b = generate(GeneratorSpec(dataset="rvq", n_samples=100, seed=1))
        c = generate(GeneratorSpec(dataset="rvq", n_samples=100, seed=2))
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        assert dataset_fingerprint(a) != dataset_fingerprint(c)
        assert re.fullmatch(r"[0-9a-f]{16}", dataset_fingerprint(a))


def _rect_heights(svg, color):
    """Bar heights for one color, in document order."""
    heights = []
    for match in re.finditer(r'<rect [^>]*?fill="%s">' % color, svg):
        h = re.search(r'height="([0-9.]+)"', match.group(0))
        heights.append(float(h.group(1)))
    return heights


class TestSvg:
    def test_bar_heights_proportional_to_values(self, rvq_run):
        _, report, selection = rvq_run
        svg = render_svg(report, selection)
        mi_heights = _rect_heights(svg, "#d62728")
        fwr_heights = _rect_heights(svg, "#9467bd")
        assert len(mi_heights) == 3
        values = [r.mi_value for r in report.results]
        fwr_values = [r.fwr_total for r in report.results]
        top = max(
            max(r.mi_value + max(0.0, r.fws_value) for r in report.results),
            max(fwr_values),
        )
        scale = 280 / top
        for h, v in zip(mi_heights, values):
            assert h == pytest.approx(v * scale, rel=0.005)
        for h, v in zip(fwr_heights, fwr_values):
            assert h == pytest.approx(v * scale, rel=0.005, abs=0.01)

    def test_negative_synergy_drawn_flat(self):
        # terc1 f0 has zero synergy and zero mi: its stack is empty but the
        # document still contains one rect of each color per feature
        report = run_pidf(population_table("terc1"))
        svg = render_svg(report)
        fws_heights = _rect_heights(svg, "#2ca02c")
        assert len(fws_heights) == 6
        assert fws_heights[0] == 0.0
        assert all(h >= 0.0 for h in fws_heights)

    def test_selection_marks_labels(self, rvq_run):
        _, report, selection = rvq_run
        svg = render_svg(report, selection)
        assert "f0 *" in svg
        assert "f1 *" in svg
        assert "f2 *" not in svg
        assert "* selected" in svg

    def test_contributor_annotation(self, rvq_run):
        _, report, selection = rvq_run
        svg = render_svg(report, selection)
        # f1's redundancy bar is annotated with its contributor index 2
        assert ">2</text>" in svg

    def test_well_formed(self, rvq_run):
        _, report, _ = rvq_run
        svg = render_svg(report)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        ET.fromstring(svg)

    def test_names_are_escaped(self, tmp_path):
        # CSV headers reach the chart's labels and tooltips as they are.
        path = tmp_path / "marked.csv"
        path.write_text("a&b,c<d,target\n0,1,1\n1,0,1\n1,1,0\n0,0,0\n")
        report = run_pidf(read_csv(path))
        svg = render_svg(report, select_features(report))
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        titles = [el.text for el in root.iter("{http://www.w3.org/2000/svg}title")]
        assert {"a&b", "c<d"} <= {t.removesuffix(" *") for t in texts}
        assert "a&b MI = " in titles[0] and "c<d MI = " in titles[3]
        assert "a&amp;b" in svg and "c&lt;d" in svg


class TestCsv:
    def test_round_trip_values_exact(self, tmp_path):
        data = generate(GeneratorSpec(dataset="wt", n_samples=50, seed=3))
        path = tmp_path / "wt.csv"
        write_csv(data, path)
        back = read_csv(path)
        assert back.feature_names == data.feature_names
        assert back.target_name == data.target_name
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.target, data.target)

    def test_round_trip_preserves_discreteness(self, tmp_path):
        data = generate(GeneratorSpec(dataset="rvq", n_samples=60, seed=3))
        path = tmp_path / "rvq.csv"
        write_csv(data, path)
        back = read_csv(path)
        assert back.all_discrete
        np.testing.assert_array_equal(back.features, data.features)

    def test_custom_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n0,1,1\n1,0,0\n1,1,1\n0,0,0\n")
        data = read_csv(path, target="label")
        assert data.target_name == "label"
        assert data.feature_names == ("a", "b")

    def test_discrete_up_to_32_distinct_values(self, tmp_path):
        # 33 rows: column a holds 0..31 (0 twice), column b holds 0..32.
        path = tmp_path / "data.csv"
        rows = [f"{i % 32},{i},{i % 2}" for i in range(33)]
        path.write_text("a,b,target\n" + "\n".join(rows) + "\n")
        data = read_csv(path)
        assert data.kinds == (ColumnKind.discrete(32), ColumnKind.continuous())
        assert data.target_kind == ColumnKind.discrete(2)

    @pytest.mark.parametrize("big", [2**53, 2**62])
    def test_integers_past_float_precision_stay_discrete(self, tmp_path, big):
        # In float64, 2**53 + 1 rounds to 2**53, so a cardinality compared
        # there would reject the largest value it was inferred from.
        rows = [(0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 0), (0, 0, 0), (1, 1, 1)]
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        for path, top in ((small, 1), (large, big)):
            path.write_text("a,b,target\n" + "".join(
                f"{a * top},{b},{y}\n" for a, b, y in rows))
        data = read_csv(large)
        assert data.kinds[0] == ColumnKind.discrete(big + 1)
        expected = run_pidf(read_csv(small))
        assert [r.mi for r in run_pidf(data).results] == [r.mi for r in expected.results]

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(DatasetError):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            read_csv(tmp_path / "absent.csv")

    def test_garbage_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,target\n1,hello\n")
        with pytest.raises(DatasetError):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,target\n")
        with pytest.raises(DatasetError):
            read_csv(path)
