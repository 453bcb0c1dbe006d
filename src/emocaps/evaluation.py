"""Confusion matrix and precision/recall/F1 reporting for the six-class task.

Micro averages come from pooled counts (for single-label classification they
all collapse to accuracy); macro averages are unweighted means over classes.
Undefined ratios (empty row or column) are reported as 0.
"""

from __future__ import annotations

import numpy as np

from .errors import EmocapsError

LABELS = ("anger", "disgust", "fear", "joy", "sad", "surprise")
ENTRY_KEYS = ("p", "r", "f1", "support")  # of each class's entry in a report


def label_index(name: str) -> int:
    try:
        return LABELS.index(name.strip().lower())
    except ValueError:
        raise EmocapsError(f"unknown label {name!r}; expected one of {', '.join(LABELS)}") from None


def confusion(golds, preds) -> np.ndarray:
    """Count matrix with rows = gold class, columns = predicted class. Its
    callers' labels are in 0..5, checked by `label_index` or `train`."""
    # an empty list would make a float array, which bincount refuses
    golds, preds = (np.asarray(list(labels) or np.empty(0, np.intp)) for labels in (golds, preds))
    n = len(LABELS)
    return np.bincount(golds * n + preds, minlength=n * n).reshape(n, n)


def metrics(cm: np.ndarray) -> dict:
    """The report `evaluate --output` writes: {"per_class": {label: entry},
    "micro": entry, "macro": entry}, each entry {"p", "r", "f1", "support"}
    with float ratios and an int support."""
    # the pooled counts ride along as a seventh class: every error is one false
    # positive and one false negative, so its precision and recall are the accuracy
    total = cm.sum()
    hits = np.append(np.diag(cm), np.trace(cm))
    support = np.append(cm.sum(axis=1), total)
    precision, recall = (np.divide(hits, den, out=np.zeros(len(hits)), where=den > 0)
                         for den in (np.append(cm.sum(axis=0), total), support))
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=np.zeros(len(hits)), where=both > 0)
    *per_class, micro = (dict(zip(ENTRY_KEYS, entry))
                         for entry in zip(precision.tolist(), recall.tolist(), f1.tolist(), support.tolist()))
    macro = dict(zip(ENTRY_KEYS, [*(float(a[:-1].mean()) for a in (precision, recall, f1)), int(total)]))
    return {"per_class": dict(zip(LABELS, per_class)), "micro": micro, "macro": macro}


def format_report(report: dict) -> str:
    """Human-readable table, one row per class plus the two averages."""
    rows = [f"{'':<10} {'prec':>7} {'recall':>7} {'f1':>7} {'support':>8}"]
    for name, m in [*report["per_class"].items(), ("micro", report["micro"]), ("macro", report["macro"])]:
        rows.append(f"{name:<10} {m['p']:>7.3f} {m['r']:>7.3f} {m['f1']:>7.3f} {m['support']:>8d}")
    return "\n".join(rows)

