"""Confusion matrix and precision/recall/F1 reporting for the six-class task.

Micro averages come from pooled counts (for single-label classification they
all collapse to accuracy); macro averages are unweighted means over classes.
Undefined ratios (empty row or column) are reported as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabelOutOfRange, LengthMismatch, UnknownLabel

LABELS = ("anger", "disgust", "fear", "joy", "sad", "surprise")


def label_index(name: str) -> int:
    try:
        return LABELS.index(name.strip().lower())
    except ValueError:
        raise UnknownLabel(f"unknown label {name!r}; expected one of {', '.join(LABELS)}") from None


def confusion(golds, preds) -> np.ndarray:
    """Count matrix with rows = gold class, columns = predicted class."""
    golds = list(golds)
    preds = list(preds)
    if len(golds) != len(preds):
        raise LengthMismatch(f"{len(golds)} gold labels vs {len(preds)} predictions")
    cm = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for g, p in zip(golds, preds):
        if not 0 <= g < len(LABELS):
            raise LabelOutOfRange(f"gold label {g} outside 0..{len(LABELS) - 1}")
        if not 0 <= p < len(LABELS):
            raise LabelOutOfRange(f"predicted label {p} outside 0..{len(LABELS) - 1}")
        cm[g, p] += 1
    return cm


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    per_class: dict[str, ClassMetrics]
    micro: ClassMetrics
    macro: ClassMetrics

    def to_json(self) -> dict:
        def entry(m: ClassMetrics) -> dict:
            return {"p": m.precision, "r": m.recall, "f1": m.f1, "support": m.support}

        return {
            "per_class": {label: entry(m) for label, m in self.per_class.items()},
            "micro": entry(self.micro),
            "macro": entry(self.macro),
        }


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _f1(p: float, r: float) -> float:
    return _safe_div(2.0 * p * r, p + r)


def metrics(cm: np.ndarray) -> MetricsReport:
    total = int(cm.sum())
    per_class: dict[str, ClassMetrics] = {}
    for c, label in enumerate(LABELS):
        tp = float(cm[c, c])
        p = _safe_div(tp, float(cm[:, c].sum()))
        r = _safe_div(tp, float(cm[c, :].sum()))
        per_class[label] = ClassMetrics(
            precision=p, recall=r, f1=_f1(p, r), support=int(cm[c, :].sum())
        )

    # pooled counts: every error is one false positive and one false negative
    micro_ratio = _safe_div(float(np.trace(cm)), float(total))
    micro = ClassMetrics(precision=micro_ratio, recall=micro_ratio, f1=_f1(micro_ratio, micro_ratio), support=total)

    values = list(per_class.values())
    macro = ClassMetrics(
        precision=float(np.mean([m.precision for m in values])),
        recall=float(np.mean([m.recall for m in values])),
        f1=float(np.mean([m.f1 for m in values])),
        support=total,
    )
    return MetricsReport(per_class=per_class, micro=micro, macro=macro)


def format_report(report: MetricsReport) -> str:
    """Human-readable table, one row per class plus the two averages."""
    rows = [f"{'':<10} {'prec':>7} {'recall':>7} {'f1':>7} {'support':>8}"]
    for name, m in [*report.per_class.items(), ("micro", report.micro), ("macro", report.macro)]:
        rows.append(f"{name:<10} {m.precision:>7.3f} {m.recall:>7.3f} {m.f1:>7.3f} {m.support:>8d}")
    return "\n".join(rows)

