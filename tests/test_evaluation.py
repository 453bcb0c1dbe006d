import json

import numpy as np
import pytest

from emocaps.errors import LengthMismatch, LabelOutOfRange, UnknownLabel
from emocaps.evaluation import (
    LABELS,
    confusion,
    format_report,
    label_index,
    metrics,
)


def brute_force_metrics(golds, preds):
    """Per-class tallies computed straight from the pair list."""
    per_class = {}
    for c in range(6):
        tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
        fp = sum(1 for g, p in zip(golds, preds) if g != c and p == c)
        fn = sum(1 for g, p in zip(golds, preds) if g == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_class[c] = (prec, rec, f1, sum(1 for g in golds if g == c))
    return per_class


class TestLabelIndex:
    def test_canonical_order(self):
        assert LABELS == ("anger", "disgust", "fear", "joy", "sad", "surprise")
        for i, name in enumerate(LABELS):
            assert label_index(name) == i

    def test_case_insensitive(self):
        assert label_index("JOY") == 3
        assert label_index("Sad") == 4

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            label_index("happiness")


class TestConfusion:
    def test_perfect_predictions_fill_diagonal(self):
        golds = [0, 1, 2, 3, 4, 5, 3, 3]
        cm = confusion(golds, golds)
        assert cm.shape == (6, 6)
        np.testing.assert_array_equal(cm, np.diag(np.bincount(golds, minlength=6)))

    def test_rows_are_gold_columns_are_predicted(self):
        cm = confusion([2], [5])
        assert cm[2, 5] == 1 and cm.sum() == 1

    def test_empty_input(self):
        cm = confusion([], [])
        np.testing.assert_array_equal(cm, np.zeros((6, 6), dtype=np.int64))

    def test_matches_naive_tally(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 60))
            golds = rng.integers(0, 6, size=n).tolist()
            preds = rng.integers(0, 6, size=n).tolist()
            cm = confusion(golds, preds)
            for g in range(6):
                for p in range(6):
                    expected = sum(1 for a, b in zip(golds, preds) if a == g and b == p)
                    assert cm[g, p] == expected

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0])

    def test_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            confusion([6], [0])
        with pytest.raises(LabelOutOfRange):
            confusion([0], [-1])


class TestMetrics:
    def test_perfect_scores(self):
        report = metrics(confusion([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]))
        assert report.macro.f1 == 1.0
        assert report.micro.f1 == 1.0
        for cls in report.per_class.values():
            assert cls.precision == cls.recall == cls.f1 == 1.0
            assert cls.support == 1

    def test_hand_computed_fixture(self):
        # gold: 3x anger, 2x joy; predictions confuse one each way
        golds = [0, 0, 0, 3, 3]
        preds = [0, 0, 3, 0, 3]
        report = metrics(confusion(golds, preds))
        anger = report.per_class["anger"]
        joy = report.per_class["joy"]
        assert anger.precision == pytest.approx(2 / 3)
        assert anger.recall == pytest.approx(2 / 3)
        assert anger.f1 == pytest.approx(2 / 3)
        assert anger.support == 3
        assert joy.precision == pytest.approx(1 / 2)
        assert joy.recall == pytest.approx(1 / 2)
        assert joy.support == 2
        # micro pools counts: 3 correct of 5
        assert report.micro.f1 == pytest.approx(3 / 5)
        expected_macro = (2 / 3 + 0 + 0 + 1 / 2 + 0 + 0) / 6
        assert report.macro.f1 == pytest.approx(expected_macro)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(1, 100))
            golds = rng.integers(0, 6, size=n).tolist()
            preds = rng.integers(0, 6, size=n).tolist()
            report = metrics(confusion(golds, preds))
            oracle = brute_force_metrics(golds, preds)
            for c, name in enumerate(LABELS):
                cls = report.per_class[name]
                prec, rec, f1, support = oracle[c]
                assert cls.precision == pytest.approx(prec, abs=1e-12)
                assert cls.recall == pytest.approx(rec, abs=1e-12)
                assert cls.f1 == pytest.approx(f1, abs=1e-12)
                assert cls.support == support
            macro_oracle = sum(oracle[c][2] for c in range(6)) / 6
            assert report.macro.f1 == pytest.approx(macro_oracle, abs=1e-12)

    def test_micro_f1_equals_accuracy(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 80))
            golds = rng.integers(0, 6, size=n).tolist()
            preds = rng.integers(0, 6, size=n).tolist()
            report = metrics(confusion(golds, preds))
            accuracy = sum(g == p for g, p in zip(golds, preds)) / n
            assert abs(report.micro.f1 - accuracy) < 1e-12
            assert abs(report.micro.precision - accuracy) < 1e-12

    def test_macro_invariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        golds = rng.integers(0, 6, size=60).tolist()
        preds = rng.integers(0, 6, size=60).tolist()
        base = metrics(confusion(golds, preds)).macro.f1
        perm = rng.permutation(6).tolist()
        remapped = metrics(
            confusion([perm[g] for g in golds], [perm[p] for p in preds])
        ).macro.f1
        assert base == pytest.approx(remapped, abs=1e-12)

    def test_absent_class_scores_zero(self):
        # nothing gold or predicted for most classes: no division blowups
        report = metrics(confusion([0, 0], [1, 1]))
        fear = report.per_class["fear"]
        assert fear.precision == 0.0 and fear.recall == 0.0 and fear.f1 == 0.0
        assert report.per_class["anger"].f1 == 0.0  # recall 0
        assert report.per_class["disgust"].f1 == 0.0  # precision 0
        assert report.macro.f1 == 0.0

    def test_reported_per_class_scores_average_to_macro(self):
        scores = (0.622, 0.688, 0.730, 0.788, 0.668, 0.656)
        assert abs(sum(scores) / 6 - 0.692) < 0.0005


class TestReportOutput:
    def test_json_schema(self):
        report = metrics(confusion([0, 1, 3], [0, 1, 4]))
        payload = json.loads(json.dumps(report.to_json()))
        assert set(payload) == {"per_class", "micro", "macro"}
        assert set(payload["per_class"]) == set(LABELS)
        for entry in payload["per_class"].values():
            assert set(entry) == {"p", "r", "f1", "support"}
        assert set(payload["macro"]) == {"p", "r", "f1", "support"}

    def test_format_report_mentions_every_label(self):
        text = format_report(metrics(confusion([0, 1], [0, 2])))
        for name in LABELS + ("micro", "macro"):
            assert name in text

    def test_values_round_trip_through_json(self):
        report = metrics(confusion([0, 1, 3, 3], [0, 2, 3, 1]))
        payload = report.to_json()
        assert payload["per_class"]["anger"]["f1"] == report.per_class["anger"].f1
        assert payload["micro"]["support"] == 4

