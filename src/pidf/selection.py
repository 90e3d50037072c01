"""Minimal-subset feature selection on top of a decomposition report.

Two phases. Phase 1 keeps every feature whose net per-seed contribution
(MI + synergy - attributed redundancy) is significantly positive; such a
feature carries information no other feature replaces. Phase 2 walks the
remaining features in descending maximum-conditional-information order and
adds one whenever none of its significantly related partners has been
selected yet, so exactly one representative survives out of each group of
mutually redundant features.
"""

from __future__ import annotations

from typing import Iterable

from .pidf import significantly_positive
from .types import (
    Confusion,
    ConfigError,
    FeatureSubset,
    PidfReport,
    SelectionResult,
)


def select_features(report: PidfReport) -> SelectionResult:
    """Pick a minimal feature subset from a decomposition report.

    The significance level and ``eps_zero`` are the ones the report was
    produced with, so selection decisions stay consistent with the
    redundancy decisions already baked into it.
    """
    rationales: list[str] = [""] * report.n_features
    chosen: set[int] = set()
    phase1: set[int] = set()
    for res in report.results:
        if significantly_positive(res.net_ensemble(), report.alpha, report.eps_zero):
            chosen.add(res.index)
            phase1.add(res.index)
            rationales[res.index] = (
                "kept: net contribution (MI + synergy - redundancy) is "
                "significantly positive"
            )
    remaining = sorted(
        (res for res in report.results if res.index not in phase1),
        key=lambda res: (-res.mci, res.index),
    )
    for res in remaining:
        blockers = sorted(j for j in res.related_set if j in chosen)
        if blockers:
            names = ", ".join(report.feature_names[j] for j in blockers)
            rationales[res.index] = f"dropped: redundant with selected {names}"
        else:
            chosen.add(res.index)
            rationales[res.index] = (
                "kept: highest-ranked feature with no selected related partner"
            )
    return SelectionResult(
        selected=FeatureSubset(chosen),
        phase1=FeatureSubset(phase1),
        rationales=tuple(rationales),
    )


def confusion_counts(
    selection: SelectionResult, truth: "FeatureSubset | Iterable[int]"
) -> Confusion:
    """Selection-vs-ground-truth confusion counts.

    A true positive is a truly relevant feature that was selected; a true
    negative is an irrelevant feature that was dropped.
    """
    n_features = selection.n_features
    picked = selection.selected
    relevant = FeatureSubset(truth)
    for subset, label in ((picked, "selected"), (relevant, "truth")):
        if subset and max(subset) >= n_features:
            raise ConfigError(f"{label} indices exceed n_features={n_features}")
    tp = len(picked & relevant)
    fp = len(picked - relevant)
    fn = len(relevant - picked)
    tn = n_features - tp - fp - fn
    return Confusion(tp=tp, fp=fp, tn=tn, fn=fn)
