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
    # an empty list would make a float array, which bincount refuses
    golds, preds = (np.asarray(list(labels) or np.empty(0, np.intp)) for labels in (golds, preds))
    if len(golds) != len(preds):
        raise LengthMismatch(f"{len(golds)} gold labels vs {len(preds)} predictions")
    n = len(LABELS)
    gold_out, pred_out = (golds < 0) | (golds >= n), (preds < 0) | (preds >= n)
    if gold_out.any() or pred_out.any():
        first = np.argmax(gold_out | pred_out)
        which, label = ("gold", golds[first]) if gold_out[first] else ("predicted", preds[first])
        raise LabelOutOfRange(f"{which} label {label} outside 0..{n - 1}")
    return np.bincount(golds * n + preds, minlength=n * n).reshape(n, n)


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


def metrics(cm: np.ndarray) -> MetricsReport:
    # the pooled counts ride along as a seventh class: every error is one false
    # positive and one false negative, so its precision and recall are the accuracy
    total = cm.sum()
    hits = np.append(np.diag(cm), np.trace(cm))
    support = np.append(cm.sum(axis=1), total)
    precision, recall = (np.divide(hits, den, out=np.zeros(len(hits)), where=den > 0)
                         for den in (np.append(cm.sum(axis=0), total), support))
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=np.zeros(len(hits)), where=both > 0)
    *per_class, micro = map(ClassMetrics, precision.tolist(), recall.tolist(), f1.tolist(), support.tolist())
    macro = ClassMetrics(*(float(a[:-1].mean()) for a in (precision, recall, f1)), support=int(total))
    return MetricsReport(per_class=dict(zip(LABELS, per_class)), micro=micro, macro=macro)


def format_report(report: MetricsReport) -> str:
    """Human-readable table, one row per class plus the two averages."""
    rows = [f"{'':<10} {'prec':>7} {'recall':>7} {'f1':>7} {'support':>8}"]
    for name, m in [*report.per_class.items(), ("micro", report.micro), ("macro", report.macro)]:
        rows.append(f"{name:<10} {m.precision:>7.3f} {m.recall:>7.3f} {m.f1:>7.3f} {m.support:>8d}")
    return "\n".join(rows)

