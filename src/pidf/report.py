"""Report serialization: JSON payloads, SVG bar charts, CSV dataset IO.

JSON output is byte-stable for identical runs: keys are sorted, floats use
their shortest round-trip repr, and the payload carries no timestamps or
environment-dependent fields.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .types import (
    BITS,
    NATS,
    ConfigError,
    Dataset,
    DatasetError,
    PidfReport,
    SelectionResult,
    convert_units,
    validate_dataset,
)

SCHEMA_VERSION = 1

# Chart geometry (pixels). Bar heights scale linearly with reported values,
# so height ratios match value ratios exactly up to float rounding.
BAR_WIDTH = 34
BAR_GAP = 8
GROUP_GAP = 30
PLOT_HEIGHT = 280
MARGIN_LEFT = 64
MARGIN_TOP = 48
MARGIN_BOTTOM = 64

MI_COLOR = "#d62728"
FWS_COLOR = "#2ca02c"
FWR_COLOR = "#9467bd"
AXIS_COLOR = "#444444"


def _check_units(units: str) -> str:
    if units not in (NATS, BITS):
        raise ConfigError(f"units must be {NATS!r} or {BITS!r}, got {units!r}")
    return units


def dataset_fingerprint(data: Dataset) -> str:
    """Short content hash of the numeric table, for provenance in reports."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(data.features).tobytes())
    digest.update(np.ascontiguousarray(data.target).tobytes())
    return digest.hexdigest()[:16]


def _estimator_payload(estimator) -> dict:
    payload: dict = {"kind": estimator.kind_name}
    payload.update(dataclasses.asdict(estimator.kind))
    return payload


def report_payload(
    report: PidfReport,
    selection: SelectionResult | None = None,
    units: str = NATS,
    fingerprint: str | None = None,
) -> dict:
    """Plain-dict form of a report (plus optional selection), ready for JSON."""
    _check_units(units)
    conv = lambda v: convert_units(v, units)
    features = []
    for res in report.results:
        contributions = {
            report.feature_names[j]: conv(max(0.0, ens.mean))
            for j, ens in res.fwr_contributions
        }
        features.append(
            {
                "index": res.index,
                "name": res.name,
                "mi": conv(res.mi_value),
                "mi_std": conv(res.mi.std),
                "fws": conv(res.fws_value),
                "fws_std": conv(res.fws.std),
                "fws_noise": res.fws_noise_flag,
                "fwr_total": conv(res.fwr_total),
                "fwr_contributions": contributions,
                "mci": conv(res.mci),
                "oci": conv(res.oci),
                "max_synergy_set": [report.feature_names[j] for j in res.max_synergy_set],
                "related_set": [report.feature_names[j] for j in res.related_set],
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "units": units,
        "config": {
            "estimator": _estimator_payload(report.estimator),
            "repetitions": report.estimator.repetitions,
            "alpha": report.alpha,
            "eps_zero": report.eps_zero,
            "base_seed": report.estimator.base_seed,
        },
        "dataset": {
            "source": report.dataset_source,
            "seed": report.dataset_seed,
            "n_samples": report.n_samples,
            "n_features": report.n_features,
            "feature_names": list(report.feature_names),
            "target_name": report.target_name,
            "fingerprint": fingerprint,
        },
        "features": features,
        "selection": None,
    }
    if selection is not None:
        payload["selection"] = {
            "selected": [report.feature_names[j] for j in selection.selected],
            "phase1": [report.feature_names[j] for j in selection.phase1],
            "rationales": {
                report.feature_names[i]: rationale
                for i, rationale in enumerate(selection.rationales)
            },
        }
    return payload


def render_json(
    report: PidfReport,
    selection: SelectionResult | None = None,
    units: str = NATS,
    fingerprint: str | None = None,
) -> str:
    payload = report_payload(report, selection, units, fingerprint)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _escape(text: str) -> str:
    """Text as XML character data; column names come from CSV headers.
    xml.sax.saxutils.escape does the same, but its import loads
    urllib.request and would slow every CLI start."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_text(x: float, y: float, text: str, size: int = 11, anchor: str = "middle") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}" '
        f'fill="{AXIS_COLOR}">{_escape(text)}</text>'
    )


def _svg_rect(x: float, y: float, w: float, h: float, color: str, title: str) -> str:
    return (
        f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
        f'fill="{color}"><title>{_escape(title)}</title></rect>'
    )


def render_svg(
    report: PidfReport,
    selection: SelectionResult | None = None,
    units: str = NATS,
) -> str:
    """Stacked MI/synergy bars with an adjacent redundancy bar per feature.

    Each feature gets a red MI segment with a green synergy segment stacked
    on top (negative synergy is drawn with zero height), and a purple
    redundancy bar beside it annotated with the contributing partner names.
    """
    _check_units(units)
    conv = lambda v: convert_units(v, units)
    n = report.n_features
    group_width = 2 * BAR_WIDTH + BAR_GAP
    width = MARGIN_LEFT + n * (group_width + GROUP_GAP) + MARGIN_LEFT // 2
    height = MARGIN_TOP + PLOT_HEIGHT + MARGIN_BOTTOM
    stacks = []
    for res in report.results:
        mi = max(0.0, conv(res.mi_value))
        fws = max(0.0, conv(res.fws_value))
        fwr = max(0.0, conv(res.fwr_total))
        stacks.append((mi, fws, fwr))
    top = max((mi + fws for mi, fws, _ in stacks), default=0.0)
    top = max(top, max((fwr for _, _, fwr in stacks), default=0.0))
    scale = PLOT_HEIGHT / top if top > 0 else 0.0
    baseline = MARGIN_TOP + PLOT_HEIGHT
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        _svg_text(width / 2, MARGIN_TOP - 24,
                  f"Per-feature information decomposition ({units})", size=14),
        f'<line x1="{MARGIN_LEFT - 10}" y1="{baseline}" x2="{width - 10}" '
        f'y2="{baseline}" stroke="{AXIS_COLOR}" stroke-width="1"/>',
    ]
    if top > 0:
        tick_y = baseline - top * scale
        parts.append(
            f'<line x1="{MARGIN_LEFT - 10}" y1="{tick_y:.2f}" '
            f'x2="{MARGIN_LEFT - 4}" y2="{tick_y:.2f}" '
            f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(_svg_text(MARGIN_LEFT - 14, tick_y + 4, f"{top:.4f}", anchor="end"))
    for pos, res in enumerate(report.results):
        mi, fws, fwr = stacks[pos]
        x0 = MARGIN_LEFT + pos * (group_width + GROUP_GAP)
        mi_h = mi * scale
        fws_h = fws * scale
        fwr_h = fwr * scale
        parts.append(
            _svg_rect(x0, baseline - mi_h, BAR_WIDTH, mi_h, MI_COLOR,
                      f"{res.name} MI = {mi:.6f}")
        )
        parts.append(
            _svg_rect(x0, baseline - mi_h - fws_h, BAR_WIDTH, fws_h, FWS_COLOR,
                      f"{res.name} synergy = {fws:.6f}")
        )
        x1 = x0 + BAR_WIDTH + BAR_GAP
        parts.append(
            _svg_rect(x1, baseline - fwr_h, BAR_WIDTH, fwr_h, FWR_COLOR,
                      f"{res.name} redundancy = {fwr:.6f}")
        )
        contributors = ",".join(
            str(j) for j, ens in res.fwr_contributions if ens.mean > 0.0
        )
        if contributors:
            parts.append(
                _svg_text(x1 + BAR_WIDTH / 2, baseline - fwr_h - 6, contributors, size=10)
            )
        label = res.name
        if selection is not None and res.index in selection.selected:
            label += " *"
        parts.append(_svg_text(x0 + group_width / 2, baseline + 18, label))
    legend_y = baseline + 40
    legend = [(MI_COLOR, "MI"), (FWS_COLOR, "synergy"), (FWR_COLOR, "redundancy")]
    lx = MARGIN_LEFT
    for color, text in legend:
        parts.append(f'<rect x="{lx}" y="{legend_y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(_svg_text(lx + 18, legend_y, text, anchor="start"))
        lx += 110
    if selection is not None:
        parts.append(_svg_text(lx + 10, legend_y, "* selected", anchor="start"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_csv(data: Dataset, path: "str | Path") -> None:
    """Write the dataset as CSV, features first and target last."""
    table = np.column_stack([data.features, data.target])
    header = ",".join([*data.feature_names, data.target_name])
    try:
        np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")
    except OSError as err:
        raise DatasetError(f"cannot write {path}: {err}") from err


def read_csv(path: "str | Path", target: str = "target") -> Dataset:
    """Load a CSV with a header row into a validated Dataset.

    Column kinds are inferred: a column of at most 32 distinct non-negative
    integers becomes discrete, everything else continuous. To declare kinds,
    build a Dataset instead.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise DatasetError(f"{path}: empty file")
            names = [part.strip() for part in header.split(",")]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # empty body handled below
                    table = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
            except ValueError as err:
                raise DatasetError(f"{path}: cannot parse numeric rows: {err}") from err
    except OSError as err:
        raise DatasetError(f"cannot read {path}: {err}") from err
    if table.size == 0:
        raise DatasetError(f"{path}: no data rows")
    return validate_dataset(table, names, target=target, source=str(path))
